"""The Hilbert numerator against a brute-force count of standard monomials.

For a monomial ideal J and weights w, the coefficient of t^k in
N(t) / prod(1 - t^{w_i}) must equal the number of monomials of weighted
degree k outside J. The leading ideals come from the goldens (I, the hull
S, the embedded component E and the realized kernels) and from
hypothesis-drawn monomial ideals.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbideal.core import associated_vector
from pcbideal.decomp import pcb_ideal
from pcbideal.decompose import embedded_component, realize_over_prime_field, socle_monomial
from pcbideal.oracle import (
    DEGREVLEX,
    GF,
    QQ,
    Polynomial,
    colon,
    dimension_one_degree,
    dimension_one_residue,
    hilbert_numerator,
)
from pcbideal.oracle.elimination import ring_map_kernel

from conftest import load_golden


def _series(num, weights, top):
    """Coefficients of N(t) / prod(1 - t^w) up to t^top."""
    coeffs = [0] * (top + 1)
    for k, c in num.items():
        if k <= top:
            coeffs[k] += c
    for w in weights:
        for k in range(w, top + 1):
            coeffs[k] += coeffs[k - w]  # times 1 / (1 - t^w)
    return coeffs


def _standard_counts(lms, weights, top):
    """Number of monomials of each weighted degree <= top outside (lms)."""
    counts = [0] * (top + 1)
    n = len(weights)

    def walk(i, exps, degree):
        if i == n:
            if not any(all(a <= b for a, b in zip(lm, exps)) for lm in lms):
                counts[degree] += 1
            return
        e = 0
        while degree + e * weights[i] <= top:
            walk(i + 1, exps + (e,), degree + e * weights[i])
            e += 1

    walk(0, (), 0)
    return counts


def _agrees(lms, weights, top):
    assert _series(hilbert_numerator(lms, weights), weights, top) == _standard_counts(lms, weights, top)


def _leads(ideal):
    return [g.leading_term(DEGREVLEX)[0] for g in ideal.groebner()]


# the golden inputs with the least prime p = 1 (mod r)
GOLDEN_PRIMES = [
    ("diag_n3.json", 7),
    ("n3_doubled.json", 7),
    ("n2_64.json", 3),
    ("n3_mixed.json", 2),
    ("onecomp_n4.json", 2),
    ("simplest_n4.json", 5),
    ("diag_n5.json", 11),
]


@pytest.mark.parametrize("name,p", GOLDEN_PRIMES)
def test_numerator_counts_the_standard_monomials_of_the_goldens(name, p):
    P = load_golden(name)
    field = GF(p)
    _, d, nu = associated_vector(P)
    I = pcb_ideal(P, field)
    S = colon(I, socle_monomial(P, field))
    kernels = realize_over_prime_field(P, p).kernels
    E = embedded_component(P, field) if P.n >= 4 else None
    leads = {tuple(_leads(J)) for J in [I, S, *kernels] + ([E] if E is not None else [])}
    # past the largest generator degree by a few multiples of each weight,
    # capped so the enumeration stays a few thousand monomials
    top = max(sum(w * e for w, e in zip(nu, lm)) for lms in leads for lm in lms)
    top = min(top + 3 * max(nu), 12 * max(nu))
    for lms in leads:
        _agrees(lms, nu, top)
    # the degree certificate of verify --level full: deg S = d, one per kernel
    assert dimension_one_degree(_leads(S), nu) == d
    assert dimension_one_degree(_leads(I), nu) == d
    for K in kernels:
        assert dimension_one_degree(_leads(K), nu) == 1
    if E is not None:
        assert dimension_one_degree(_leads(E), nu) is None  # dimension zero


monomial_ideals = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=0, max_size=6),
        st.tuples(*[st.integers(1, 3)] * n),
    )
)


@given(monomial_ideals)
@settings(max_examples=80, deadline=None)
def test_numerator_counts_the_standard_monomials_of_drawn_ideals(case):
    lms, weights = case
    _agrees(lms, weights, 14)


def test_trivial_character_kernel_has_degree_one():
    rng = random.Random(7)
    seen = 0
    while seen < 10:
        n = rng.randint(2, 4)
        nu = tuple(rng.randint(1, 7) for _ in range(n))
        if math.gcd(*nu) != 1:
            continue
        P0 = ring_map_kernel([Polynomial.monomial(QQ, 1, (w,)) for w in nu])
        assert dimension_one_degree(_leads(P0), nu) == Fraction(1)
        seen += 1


def test_dimension_other_than_one_is_rejected():
    # k[x, y, z] itself and k[x, y, z] / (x) have dimension three and two,
    # (x, y, z^2) dimension zero, and the unit ideal gives the zero ring
    weights = (1, 2, 3)
    assert dimension_one_degree([], weights) is None
    assert dimension_one_degree([(1, 0, 0)], weights) is None
    assert dimension_one_degree([(1, 0, 0), (0, 1, 0), (0, 0, 2)], weights) is None
    assert dimension_one_degree([(0, 0, 0)], weights) is None
    # (x, y) leaves k[z], with z of weight 3: one monomial in every third degree
    assert dimension_one_degree([(1, 0, 0), (0, 1, 0)], weights) == Fraction(1, 3)


def _reference_degree(lms, weights):
    """The degree of R/J from its Hilbert function, with no division by
    (1 - t): from t^{deg N} on, the coefficients of N(t) / prod(1 - t^w)
    are a quasi-polynomial of period L = lcm(w), so their sum over the j-th
    period is a polynomial in j of degree dim R/J - 1 <= 3. R/J has
    dimension one when five consecutive period sums are one nonzero value
    s, and then its degree is s / L; else None."""
    num = hilbert_numerator(lms, weights)
    start, period = max(num, default=0), math.lcm(*weights)
    coeffs = _series(num, weights, start + 5 * period)
    sums = {sum(coeffs[start + k * period + 1 : start + (k + 1) * period + 1]) for k in range(5)}
    if len(sums) != 1 or sums == {0}:
        return None
    return Fraction(sums.pop(), period)


def _residue_agrees(lms, weights):
    """dimension_one_residue against the Hilbert function, and the integer
    test value = d product that verify makes against the Fraction's
    deg = d, for every d from 0 to two past the degree."""
    reference = _reference_degree(lms, weights)
    residue = dimension_one_residue(lms, weights)
    assert dimension_one_degree(lms, weights) == reference
    if reference is None:
        assert residue is None
        return
    value, product = residue
    assert product == math.prod(weights) and Fraction(value, product) == reference
    for d in range(int(reference) + 3):
        assert (value == d * product) == (reference == d)


@given(monomial_ideals)
@settings(max_examples=80, deadline=None)
def test_integer_residue_agrees_with_the_degree_of_drawn_ideals(case):
    _residue_agrees(*case)


@pytest.mark.parametrize(
    "lms",
    [
        [],  # dimension three
        [(1, 0, 0)],  # dimension two
        [(1, 0, 0), (0, 1, 0), (0, 0, 2)],  # dimension zero
        [(0, 0, 0)],  # the zero ring
        [(1, 0, 0), (0, 1, 0)],  # k[z], deg z = 3: degree 1/3
        [(1, 0, 0), (0, 2, 0)],  # k[z] twice: degree 2/3
        [(1, 0, 0), (0, 1, 1)],  # the y and z axes: degree 1/2 + 1/3 = 5/6
        [(1, 1, 0), (0, 1, 1), (1, 0, 1)],  # the three axes: degree 11/6
        [(2, 0, 0), (0, 1, 1)],  # the y and z axes twice: degree 5/3
    ],
)
def test_integer_residue_agrees_with_the_degree(lms):
    _residue_agrees(lms, (1, 2, 3))


def test_numerator_rejects_bad_input():
    with pytest.raises(ValueError):
        hilbert_numerator([(1, 0)], (1, 0))
    with pytest.raises(ValueError):
        hilbert_numerator([(1, 0, 0)], (1, 1))
