"""Exact polynomial oracle: fields, orders, Buchberger, ideal operations,
Hilbert series."""

from .field import GF, QQ, PrimeField, RationalField, is_prime
from .groebner import groebner_basis, normal_form, spolynomial
from .hilbert import dimension_one_degree, dimension_one_residue, hilbert_numerator
from .ideal import (
    Ideal,
    NonTermImage,
    colon,
    eliminate,
    exact_divide,
    intersect,
    ring_map_kernel,
    saturate,
)
from .order import DEGREVLEX, LEX, BlockElimination, DegRevLex, Lex, MonomialOrder, WeightedRevLex
from .poly import Polynomial, render

__all__ = [
    "GF",
    "QQ",
    "PrimeField",
    "RationalField",
    "is_prime",
    "groebner_basis",
    "normal_form",
    "spolynomial",
    "dimension_one_degree",
    "dimension_one_residue",
    "hilbert_numerator",
    "Ideal",
    "NonTermImage",
    "colon",
    "eliminate",
    "exact_divide",
    "intersect",
    "ring_map_kernel",
    "saturate",
    "DEGREVLEX",
    "LEX",
    "BlockElimination",
    "DegRevLex",
    "Lex",
    "MonomialOrder",
    "WeightedRevLex",
    "Polynomial",
    "render",
]
