"""Exact polynomial oracle: fields, orders, Buchberger, ideal operations,
Hilbert series.

The auxiliary-variable engine (eliminate, intersect, exact_divide,
ring_map_kernel and NonTermImage) loads from .elimination on the first
lookup of one of its names, through the module __getattr__ (PEP 562), so
a process that never eliminates never compiles it.
"""

from .field import GF, QQ, PrimeField, RationalField, is_prime
from .groebner import groebner_basis, normal_form, spolynomial
from .hilbert import dimension_one_degree, dimension_one_residue, hilbert_numerator
from .ideal import Ideal, colon, saturate
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

_ELIMINATION = ("NonTermImage", "eliminate", "exact_divide", "intersect", "ring_map_kernel")


def __getattr__(name: str):
    if name in _ELIMINATION:
        from . import elimination

        return getattr(elimination, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
