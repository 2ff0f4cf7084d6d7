import math

from hypothesis import given, settings
from hypothesis import strategies as st

from pcbideal import validate
from pcbideal.core import associated_vector, generators, grading_degree, torsion_profile
from pcbideal.intmat import IntMatrix, adjugate, bezout, determinant
from pcbideal.oracle import DEGREVLEX, GF, Polynomial, groebner_basis, normal_form

import property_suites
from test_core import minors_gcd


@st.composite
def pcb_matrices(draw, max_n=5, max_entry=4):
    n = draw(st.integers(min_value=2, max_value=max_n))
    rows = []
    for i in range(n):
        off = draw(
            st.lists(
                st.integers(min_value=1, max_value=max_entry),
                min_size=n - 1,
                max_size=n - 1,
            )
        )
        row = off[:i] + [sum(off)] + off[i:]
        rows.append([v if j == i else -v for j, v in enumerate(row)])
    return validate(rows)


@st.composite
def small_polys(draw, nvars=3, p=7):
    field = GF(p)
    items = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=p - 1),
                st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars),
            ),
            max_size=4,
        )
    )
    return Polynomial.from_terms(field, nvars, items)


@given(st.integers(), st.integers())
def test_bezout_identity(x, y):
    g, s, t = bezout(x, y)
    assert g == s * x + t * y
    assert g == math.gcd(x, y)


@given(
    st.lists(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3), min_size=3, max_size=3),
)
def test_determinant_multiplicative(a, b):
    A, B = IntMatrix(a), IntMatrix(b)
    assert determinant(A @ B) == determinant(A) * determinant(B)


@given(pcb_matrices())
@settings(max_examples=60)
def test_generators_homogeneous(P):
    _, _, nu = associated_vector(P)
    degrees = {grading_degree(nu, f.plus) for f in generators(P)} | {
        grading_degree(nu, f.minus) for f in generators(P)
    }
    for f in generators(P):
        assert grading_degree(nu, f.plus) == grading_degree(nu, f.minus)
    # all degrees positive since every entry of nu is
    assert min(degrees) > 0


@given(pcb_matrices(max_n=4))
@settings(max_examples=40)
def test_associated_vector_scales(P):
    m, d, nu = associated_vector(P)
    assert math.gcd(*m) == d
    assert math.gcd(*nu) == 1


@given(pcb_matrices())
@settings(max_examples=60)
def test_snf_invariants_match_the_adjugate(P):
    # associated_vector and torsion_profile read everything off the
    # normalized SNF; the adjugate row and the minor gcds do not use it
    n = P.n
    m = adjugate(P.signed).row(0)
    d = math.gcd(*m)
    assert associated_vector(P) == (m, d, tuple(v // d for v in m))
    t = torsion_profile(P)
    assert t.fitting_one == minors_gcd(P.signed, n - 1)
    assert t.fitting_zero == minors_gcd(P.signed, n)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60)
def test_poly_ring_laws(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * (g * h) == (f * g) * h
    assert f - f == Polynomial.zero(f.field, f.nvars)


@given(small_polys(), small_polys())
@settings(max_examples=40)
def test_normal_form_idempotent(f, g):
    basis = groebner_basis([h for h in (f, g) if not h.is_zero()], DEGREVLEX)
    probe = f * g + f + g
    r = normal_form(probe, basis, DEGREVLEX)
    assert normal_form(r, basis, DEGREVLEX) == r


@given(small_polys())
@settings(max_examples=60)
def test_leading_term_degree_maximal(f):
    if f.is_zero():
        return
    lm, _ = f.leading_term(DEGREVLEX)
    assert sum(lm) == f.total_degree()


def test_suites_run_enough_cases():
    for suite in property_suites.ALL_SUITES:
        assert suite() >= 100
