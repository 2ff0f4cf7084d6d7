import itertools
import math
import random

import pytest

from pcbideal import (
    DiagonalSignError,
    DimensionTooSmall,
    NonPositiveOffDiagonal,
    NonSquare,
    RowSumNonzero,
    TooSmall,
    analyze,
    associated_vector,
    generators,
    grading_degree,
    mixedness_witness,
    normalized_snf,
    small_dim_decomposition,
    syzygy_vectors,
    torsion_profile,
    validate,
)
from pcbideal import core, intmat
from pcbideal.core import NegativeEntry, PcbMatrix, identity_checks, syzygy_identity_residual, witness_identity_residual
from pcbideal.intmat import IntMatrix, SnfResult, determinant

from conftest import GOLDEN, load_golden, random_pcb

MINOR_GCDS = "minor gcds match the invariant factors"
CERTIFICATE = ("transforms reproduce the diagonal", "transforms unimodular", "divisibility chain")


def minors_gcd(m: IntMatrix, t: int) -> int:
    """Gcd of all t-by-t minors; 1 for t <= 0, 0 when t exceeds both dimensions.

    Costs C(rows, t) * C(cols, t) determinants: the brute-force reference
    that the tests hold the Smith form against (core.identity_checks
    proves the same gcds from the certificate).
    """
    if t <= 0:
        return 1
    if t > min(m.rows, m.cols):
        return 0
    g = 0
    for rows in itertools.combinations(range(m.rows), t):
        for cols in itertools.combinations(range(m.cols), t):
            g = math.gcd(g, determinant(IntMatrix([[m.data[i][j] for j in cols] for i in rows])))
            if g == 1:
                return 1
    return g


def minor_gcd_ladder(P):
    """The brute-force claim: the gcd of the t-minors of L is the product
    of the first t cached invariant factors, for every t up to the rank."""
    factors = normalized_snf(P).invariant_factors
    return all(
        minors_gcd(P.signed, t) == math.prod(factors[:t]) for t in range(1, len(factors) + 1)
    )


def complete_graph(n):
    return validate([[n - 1 if i == j else -1 for j in range(n)] for i in range(n)])


def certificate(p_rows, q_rows, factors):
    n = len(p_rows)
    padded = factors + (0,) * (n - len(factors))
    D = IntMatrix([[v if i == j else 0 for j in range(n)] for i, v in enumerate(padded)])
    return SnfResult(IntMatrix(p_rows), D, IntMatrix(q_rows), factors)


def altered_factors(snf):
    factors = snf.invariant_factors[:-1] + (2 * snf.invariant_factors[-1],)
    return SnfResult(snf.P, snf.D, snf.Q, factors)


def broken_chain(snf):
    # the first two rows of P and columns of Q swapped: a true certificate
    # of the permuted D, whose factors match but break the chain
    p, q = snf.P.to_rows(), snf.Q.to_rows()
    p[0], p[1] = p[1], p[0]
    for row in q:
        row[0], row[1] = row[1], row[0]
    f = snf.invariant_factors
    return certificate(p, q, (f[1], f[0]) + f[2:])


def scaled_row(snf):
    p = snf.P.to_rows()
    p[0] = [2 * v for v in p[0]]
    return SnfResult(IntMatrix(p), snf.D, snf.Q, snf.invariant_factors)


def scaled_certificate(snf):
    # P L Q = D still holds, with D and the first factor doubled
    p = snf.P.to_rows()
    p[0] = [2 * v for v in p[0]]
    f = snf.invariant_factors
    return certificate(p, snf.Q.to_rows(), (2 * f[0],) + f[1:])


def negated_certificate(snf):
    # P L Q = D still holds, with D and the first factor negated
    p = snf.P.to_rows()
    p[0] = [-v for v in p[0]]
    f = snf.invariant_factors
    return certificate(p, snf.Q.to_rows(), (-f[0],) + f[1:])


def swapped_rows(snf):
    p = snf.P.to_rows()
    p[0], p[1] = p[1], p[0]
    return SnfResult(IntMatrix(p), snf.D, snf.Q, snf.invariant_factors)


class TestValidate:
    def test_not_square(self):
        with pytest.raises(NonSquare) as exc:
            validate([[2, -1, -1], [-1, 2, -1]])
        assert "2x3" in str(exc.value)
        # a ragged matrix reports the first row whose length is not n,
        # not the longest row
        with pytest.raises(NonSquare) as exc:
            validate([[2, -1, -1], [-1, 1], [-1, -1, 2]])
        assert str(exc.value) == "NonSquare(3x2)"
        assert exc.value.shape == (3, 2)
        with pytest.raises(NonSquare) as exc:
            validate([[], [1, -1]])
        assert exc.value.shape == (2, 0)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            validate([[0]])

    def test_diagonal_sign(self):
        with pytest.raises(DiagonalSignError):
            validate([[0, 0], [-1, 1]])

    def test_off_diagonal_sign(self):
        with pytest.raises(NonPositiveOffDiagonal) as exc:
            validate([[2, -2], [0, 2]])
        assert "(2,1)" in str(exc.value)

    def test_row_sum(self):
        with pytest.raises(RowSumNonzero) as exc:
            validate([[2, -1, -1], [-1, 2, -1], [-1, -1, 3]])
        assert "RowSumNonzero(3)" == str(exc.value)

    def test_accepts_and_stores_magnitudes(self):
        P = validate([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        assert P.n == 3
        assert P.a[0][1] == 1
        assert P.signed[0, 1] == -1


class TestAssociatedVector:
    def test_simplest(self, simplest):
        m, d, nu = associated_vector(simplest)
        assert m == (16, 16, 16, 16)
        assert d == 16
        assert nu == (1, 1, 1, 1)

    def test_onecomp(self, onecomp):
        m, d, nu = associated_vector(onecomp)
        assert m == (20, 24, 31, 25)
        assert d == 1
        assert nu == m

    def test_kills_the_matrix(self):
        rng = random.Random(11)
        for _ in range(30):
            P = random_pcb(rng, rng.randint(2, 5))
            m, d, nu = associated_vector(P)
            assert all(v > 0 for v in m)
            L = P.signed
            assert all(
                sum(m[i] * L[i, j] for i in range(P.n)) == 0 for j in range(P.n)
            )
            assert [v // d for v in m] == list(nu)


class TestGenerators:
    def test_simplest_shape(self, simplest):
        gens = generators(simplest)
        assert len(gens) == 4
        f1 = gens[0]
        assert f1.plus == (3, 0, 0, 0)
        assert f1.minus == (0, 1, 1, 1)

    def test_onecomp_degrees(self, onecomp):
        # f2 = x2^4 - x1^2 x3 x4 has nu-degree 4 * 24 = 96
        _, _, nu = associated_vector(onecomp)
        f2 = generators(onecomp)[1]
        assert grading_degree(nu, f2.plus) == 96
        assert grading_degree(nu, f2.plus) == grading_degree(nu, f2.minus)

    def test_built_once_per_matrix(self):
        # cached on the matrix like the Smith form: every caller shares one tuple
        P = load_golden("diag_n5.json")
        gens = generators(P)
        assert generators(P) is gens
        n = P.n
        assert gens == tuple(
            (tuple(P.a[j][j] if i == j else 0 for i in range(n)), tuple(0 if i == j else P.a[i][j] for i in range(n)))
            for j in range(n)
        )
        identity_checks(P)
        assert generators(P) is gens

    def test_homogeneous_everywhere(self):
        rng = random.Random(23)
        for _ in range(30):
            P = random_pcb(rng, rng.randint(2, 5))
            _, _, nu = associated_vector(P)
            for f in generators(P):
                assert grading_degree(nu, f.plus) == grading_degree(nu, f.minus)


def _reference_syzygy_vectors(P: PcbMatrix):
    """b(1), ..., b(n) by the O(n^3) walk that syzygy_vectors replaced: for
    each i and each j outside {i, i+1}, a_jj minus a_j* summed along the
    cyclic walk j+1, ..., i, entry by entry."""
    n, a = P.n, P.a
    out = []
    for i in range(n):
        vec = []
        for j in range(n):
            if j == i or j == (i + 1) % n:
                vec.append(0)
                continue
            value, u = a[j][j], (j + 1) % n
            while True:
                value -= a[j][u]
                if u == i:
                    break
                u = (u + 1) % n
            if value < 0:
                raise NegativeEntry(f"syzygy exponent b({i + 1})_{j + 1} = {value}")
            vec.append(value)
        out.append(tuple(vec))
    return tuple(out)


def _syzygy_outcome(fn, P):
    try:
        return fn(P)
    except NegativeEntry as err:
        return f"NegativeEntry: {err}"


class TestSyzygies:
    def test_running_sums_match_the_walk(self):
        # valid inputs, and magnitude tables that break the row sums, where
        # the first negative entry in the order i, then j names the error
        rng = random.Random(43)
        names = [p.name for p in sorted(GOLDEN.glob("*.json"))]
        cases = [load_golden(name) for name in names] + [random_pcb(rng, rng.randint(2, 9)) for _ in range(60)]
        broken = [
            PcbMatrix(tuple(tuple(rng.randint(1, 6) for _ in range(n)) for _ in range(n)))
            for n in (rng.randint(2, 7) for _ in range(60))
        ]
        for P in cases:
            assert syzygy_vectors(P) == _reference_syzygy_vectors(P)
        raised = 0
        for P in broken:
            expected = _syzygy_outcome(_reference_syzygy_vectors, P)
            assert _syzygy_outcome(syzygy_vectors, P) == expected
            raised += isinstance(expected, str)
        assert 0 < raised < len(broken)

    def test_simplest_b4(self, simplest):
        assert syzygy_vectors(simplest)[3] == (0, 1, 2, 0)

    def test_onecomp_b4(self, onecomp):
        assert syzygy_vectors(onecomp)[3] == (0, 1, 2, 0)

    def test_n2(self):
        P = validate([[6, -6], [-4, 4]])
        # f1 + f2 = 0, so both exponent vectors vanish
        assert syzygy_vectors(P) == ((0, 0), (0, 0))

    def test_n3_form(self):
        P = load_golden("n3_mixed.json")
        b = syzygy_vectors(P)
        # b(1) = (0, 0, a_{3,2}), b(2) = (a_{1,3}, 0, 0), b(3) = (0, a_{2,1}, 0)
        assert b[0] == (0, 0, 1)
        assert b[1] == (2, 0, 0)
        assert b[2] == (0, 2, 0)

    def test_zero_pattern(self):
        rng = random.Random(37)
        for _ in range(30):
            P = random_pcb(rng, rng.randint(2, 6))
            n = P.n
            for i, b in enumerate(syzygy_vectors(P), start=1):
                assert all(v >= 0 for v in b)
                assert b[i % n] == 0
                assert b[i - 1] == 0

    def test_identity(self):
        rng = random.Random(41)
        for _ in range(30):
            P = random_pcb(rng, rng.randint(2, 6))
            assert syzygy_identity_residual(P) == {}


class TestWitness:
    def test_simplest(self, simplest):
        g = mixedness_witness(simplest)
        assert g.plus == (2, 0, 0, 2)
        assert g.minus == (0, 2, 2, 0)

    def test_requires_n4(self):
        P = validate([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        with pytest.raises(DimensionTooSmall):
            mixedness_witness(P)

    def test_identity(self):
        rng = random.Random(43)
        for _ in range(25):
            P = random_pcb(rng, rng.randint(4, 6))
            assert witness_identity_residual(P) == {}


class TestNormalizedSnf:
    def test_simplest(self, simplest):
        res = normalized_snf(simplest)
        assert res.invariant_factors == (1, 4, 4)
        assert res.D.to_rows() == [
            [1, 0, 0, 0],
            [0, 4, 0, 0],
            [0, 0, 4, 0],
            [0, 0, 0, 0],
        ]
        assert res.P.row(3) == (1, 1, 1, 1)
        assert res.P @ simplest.signed @ res.Q == res.D

    def test_last_row_always_nu(self):
        rng = random.Random(47)
        for _ in range(40):
            P = random_pcb(rng, rng.randint(2, 5))
            _, _, nu = associated_vector(P)
            res = normalized_snf(P)
            assert res.P.row(P.n - 1) == nu
            assert abs(determinant(res.P)) == 1
            assert abs(determinant(res.Q)) == 1
            assert res.P @ P.signed @ res.Q == res.D


class TestIdentityChecks:
    @pytest.mark.parametrize("scale", [-1, 2])
    def test_corrupt_cached_snf_fails_the_adjugate_checks(self, scale):
        # m, d and nu come from the cached SNF, so the two checks that hold
        # them against the adjugate must catch a wrong last transform row
        P = load_golden("onecomp_n4.json")
        snf = normalized_snf(P)
        rows = snf.P.to_rows()
        rows[-1] = [scale * v for v in rows[-1]]
        bad = SnfResult(IntMatrix(rows), snf.D, snf.Q, snf.invariant_factors)
        object.__setattr__(P, "_snf", bad)
        assert normalized_snf(P) is bad
        checks = dict(identity_checks(P))
        assert checks["last transform row equals the weight vector"] is False
        assert checks["torsion order equals the weight gcd"] is False
        assert checks["adjugate rows equal and positive"] is True

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
    def test_certificate_agrees_with_the_ladder_on_goldens(self, name):
        P = load_golden(name)
        assert dict(identity_checks(P))[MINOR_GCDS] is minor_gcd_ladder(P) is True

    def test_certificate_agrees_with_the_ladder_on_random(self):
        rng = random.Random(71)
        for n in range(2, 8):
            for _ in range(6):
                P = random_pcb(rng, n)
                assert dict(identity_checks(P))[MINOR_GCDS] is minor_gcd_ladder(P) is True

    @pytest.mark.parametrize(
        "corrupt, ladder, failing",
        [
            (altered_factors, False, set()),
            (broken_chain, False, {"divisibility chain"}),
            (scaled_row, True, {"transforms reproduce the diagonal", "transforms unimodular"}),
            (scaled_certificate, False, {"transforms unimodular"}),
            (negated_certificate, False, set()),
            (swapped_rows, True, {"transforms reproduce the diagonal"}),
        ],
    )
    def test_corrupt_certificate_fails_the_minor_gcd_check(self, corrupt, ladder, failing):
        # the ladder may still hold (L and the factors are untouched), but a
        # claim the certificate does not prove must never read ok
        P = load_golden("simplest_n4.json")
        bad = corrupt(normalized_snf(P))
        object.__setattr__(P, "_snf", bad)
        assert normalized_snf(P) is bad
        assert minor_gcd_ladder(P) is ladder
        checks = dict(identity_checks(P))
        assert checks[MINOR_GCDS] is False
        for name in CERTIFICATE:
            assert checks[name] is (name not in failing)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_determinants_are_the_two_unimodularity_checks(self, monkeypatch, n):
        # the adjugate is one elimination and takes no determinant; only
        # |det P| = |det Q| = 1 are asked for
        calls = []

        def counting(m):
            calls.append(m.rows)
            return determinant(m)

        monkeypatch.setattr(intmat, "determinant", counting)
        monkeypatch.setattr(core, "determinant", counting)
        checks = identity_checks(complete_graph(n))
        assert all(ok for _, ok in checks)
        assert calls == [n, n]


class TestSmallDim:
    def test_n2(self):
        P = validate([[6, -6], [-4, 4]])
        res = small_dim_decomposition(P)
        assert res is not None
        assert res.invariant_factors == (2,)
        assert res.P.row(1) == (2, 3)
        assert res.P @ P.signed @ res.Q == res.D

    def test_n3_coprime_corner(self):
        P = load_golden("n3_mixed.json")
        res = small_dim_decomposition(P)
        assert res is not None
        assert res.invariant_factors == (1, 1)
        assert res.P.row(2) == (5, 4, 7)

    def test_n3_doubled(self):
        P = load_golden("n3_doubled.json")
        res = small_dim_decomposition(P)
        assert res is not None
        assert res.invariant_factors == (2, 6)

    def test_gcd_condition_can_fail(self):
        # gcd(a31, a32) = gcd(2, 2) = 2 but Delta_1 = 1
        P = validate([[3, -1, -2], [-1, 3, -2], [-2, -2, 4]])
        assert small_dim_decomposition(P) is None

    def test_none_for_big_n(self, simplest):
        assert small_dim_decomposition(simplest) is None

    def test_agrees_with_generic_snf(self):
        rng = random.Random(53)
        for _ in range(40):
            P = random_pcb(rng, rng.randint(2, 3))
            res = small_dim_decomposition(P)
            if res is None:
                continue
            assert res.D == normalized_snf(P).D


class TestTorsion:
    def test_simplest(self, simplest):
        t = torsion_profile(simplest)
        assert t.order == 16
        assert t.cyclic_factors == (4, 4)
        assert t.free_rank == 1
        assert t.fitting_zero == 0
        assert t.fitting_one == 16

    def test_trivial_torsion(self, onecomp):
        t = torsion_profile(onecomp)
        assert t.order == 1
        assert t.cyclic_factors == ()
        assert t.is_direct_summand


def test_analyze_bundles_everything(simplest):
    a = analyze(simplest)
    assert a.n == 4
    assert a.d == 16
    assert a.invariant_factors == (1, 4, 4)
    assert not a.hull_prime
    assert a.isolated_components == 16
    assert a.embedded_components == 1


def test_analyze_n3_no_embedded():
    P = load_golden("diag_n3.json")
    a = analyze(P)
    assert a.d == 3
    assert a.hull_prime is False
    assert a.embedded_components == 0
