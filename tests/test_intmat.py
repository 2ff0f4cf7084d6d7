import random
from fractions import Fraction

import pytest

from pcbideal import core, intmat
from pcbideal.core import normalized_snf, validate
from pcbideal.intmat import (
    IntMatrix,
    adjugate,
    bezout,
    determinant,
    lattice_contains,
    smith_normal_form,
)

from conftest import GOLDEN, load_golden
from test_core import minors_gcd

SIMPLEST = IntMatrix([[3, -1, -1, -1], [-1, 3, -1, -1], [-1, -1, 3, -1], [-1, -1, -1, 3]])


def cofactor_det(M):
    # independent oracle: textbook expansion along the first row
    n = M.rows
    if n == 1:
        return M[0, 0]
    total = 0
    for j in range(M.cols):
        minor = IntMatrix(
            [[M[i, c] for c in range(M.cols) if c != j] for i in range(1, n)]
        )
        total += (-1) ** j * M[0, j] * cofactor_det(minor)
    return total


def random_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def _deleted(m, drop_row, drop_col):
    return IntMatrix(
        [
            [v for j, v in enumerate(row) if j != drop_col]
            for i, row in enumerate(m.data)
            if i != drop_row
        ]
    )


def cofactor_adjugate(m):
    """The n^2 minors one Bareiss determinant each: the reference that
    intmat.adjugate, one elimination, is held against."""
    n = m.rows
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = determinant(_deleted(m, j, i))
            out[i][j] = minor if (i + j) % 2 == 0 else -minor
    return IntMatrix(out)


def random_of_rank(rng, n, rank, bound=9):
    """A square matrix of the given rank with entries in [-bound, bound]:
    X Y for sparse X (n x rank) and Y (rank x n), where a random column of
    Y may repeat a combination of earlier ones, so that a free column of
    the elimination can sit anywhere. Draws are redone until both the
    rank and the bound hold."""
    if rank == 0:
        return IntMatrix([[0] * n] * n)
    while True:
        x = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(rank)] for _ in range(n)]
        y = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(n)] for _ in range(rank)]
        if rng.random() < 0.5:
            j = rng.randrange(n)
            c = [rng.randint(-1, 1) for _ in range(j)]
            for row in y:
                row[j] = sum(ci * v for ci, v in zip(c, row))
        rows = [[sum(a * b for a, b in zip(xr, col)) for col in zip(*y)] for xr in x]
        M = IntMatrix(rows)
        if all(abs(v) <= bound for row in rows for v in row) and smith_normal_form(M).rank == rank:
            return M


class TestDeterminant:
    def test_small_fixed(self):
        assert determinant(IntMatrix([[5]])) == 5
        assert determinant(IntMatrix([[1, 2], [3, 4]])) == -2
        assert determinant(IntMatrix.identity(6)) == 1

    def test_singular(self):
        assert determinant(SIMPLEST) == 0

    def test_matches_cofactor_expansion(self):
        rng = random.Random(101)
        for _ in range(60):
            M = random_matrix(rng, rng.randint(1, 5))
            assert determinant(M) == cofactor_det(M)

    def test_row_swap_flips_sign(self):
        M = IntMatrix([[0, 2, 1], [3, 0, 5], [1, 1, 0]])
        swapped = IntMatrix([M.row(1), M.row(0), M.row(2)])
        assert determinant(swapped) == -determinant(M)


class TestAdjugate:
    def test_fundamental_identity(self):
        rng = random.Random(202)
        for _ in range(40):
            n = rng.randint(2, 5)
            M = random_matrix(rng, n)
            d = determinant(M)
            assert M @ adjugate(M) == IntMatrix(
                [[d if i == j else 0 for j in range(n)] for i in range(n)]
            )

    def test_simplest_rows(self):
        adj = adjugate(SIMPLEST)
        assert adj.row(0) == (16, 16, 16, 16)
        assert all(adj.row(i) == adj.row(0) for i in range(4))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_agrees_with_cofactors_at_every_rank(self, n):
        rng = random.Random(1000 + n)
        for rank in range(n + 1):
            for _ in range(6):
                M = random_of_rank(rng, n, rank)
                adj = adjugate(M)
                assert adj == cofactor_adjugate(M), M.to_rows()
                d = IntMatrix([[determinant(M) if i == j else 0 for j in range(n)] for i in range(n)])
                assert M @ adj == adj @ M == d

    def test_fixed_small(self):
        assert adjugate(IntMatrix([[0, 0], [0, 0]])) == IntMatrix([[0, 0], [0, 0]])
        assert adjugate(IntMatrix([[0] * 5] * 5)) == IntMatrix([[0] * 5] * 5)
        assert adjugate(IntMatrix([[2, 3], [5, 7]])) == IntMatrix([[7, -3], [-5, 2]])
        assert adjugate(IntMatrix([[0, 1], [0, 1]])) == IntMatrix([[1, -1], [0, 0]])
        assert adjugate(IntMatrix([[0, 0], [1, 2]])) == IntMatrix([[2, 0], [-1, 0]])

    def test_needs_square_of_size_two(self):
        with pytest.raises(ValueError):
            adjugate(IntMatrix([[3]]))
        with pytest.raises(ValueError):
            adjugate(IntMatrix([[1, 2, 3], [4, 5, 6]]))

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
    def test_goldens(self, name):
        P = load_golden(name)
        for M in (P.signed, normalized_snf(P).P):
            assert adjugate(M) == cofactor_adjugate(M)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_complete_graphs(self, n):
        # Kirchhoff: every cofactor of the Laplacian of K_n is n^(n-2)
        L = validate([[n - 1 if i == j else -1 for j in range(n)] for i in range(n)]).signed
        assert adjugate(L) == IntMatrix([[n ** (n - 2)] * n] * n)

    def test_never_reads_the_smith_form(self, monkeypatch):
        # the adjugate is the independent witness against the Smith form
        def refuse(*args):
            raise AssertionError("the adjugate read the Smith form")

        P = load_golden("n3_doubled.json")
        expected = cofactor_adjugate(P.signed)
        monkeypatch.setattr(intmat, "smith_normal_form", refuse)
        monkeypatch.setattr(core, "normalized_snf", refuse)
        assert adjugate(P.signed) == expected


class TestMinorsGcd:
    def test_simplest_ladder(self):
        # Delta_t for the all-ones n=4 matrix: 1, 4, 16, 0
        assert minors_gcd(SIMPLEST, 1) == 1
        assert minors_gcd(SIMPLEST, 2) == 4
        assert minors_gcd(SIMPLEST, 3) == 16
        assert minors_gcd(SIMPLEST, 4) == 0

    def test_edges(self):
        assert minors_gcd(SIMPLEST, 0) == 1
        assert minors_gcd(SIMPLEST, 5) == 0


def test_bezout():
    for x, y in [(0, 0), (0, 7), (-4, 6), (12, 18), (35, -15), (1, 1)]:
        g, s, t = bezout(x, y)
        assert g == s * x + t * y
        assert g >= 0
        import math

        assert g == math.gcd(x, y)


class TestSmithNormalForm:
    def check_contract(self, M):
        res = smith_normal_form(M)
        n = M.rows
        assert res.P @ M @ res.Q == res.D
        assert abs(determinant(res.P)) == 1
        assert abs(determinant(res.Q)) == 1
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert res.D[i, j] == 0
        facs = res.invariant_factors
        assert all(facs[i] > 0 for i in range(len(facs)))
        for i in range(len(facs) - 1):
            assert facs[i + 1] % facs[i] == 0
        # invariant factors against the minor-gcd ladder
        prev = 1
        for t, f in enumerate(facs, start=1):
            delta = minors_gcd(M, t)
            assert delta == prev * f
            prev = delta
        return res

    def test_simplest(self):
        res = self.check_contract(SIMPLEST)
        assert res.invariant_factors == (1, 4, 4)

    def test_zero_matrix(self):
        Z = IntMatrix([[0, 0], [0, 0]])
        res = smith_normal_form(Z)
        assert res.invariant_factors == ()
        assert res.rank == 0

    def test_random(self):
        rng = random.Random(303)
        for _ in range(50):
            self.check_contract(random_matrix(rng, rng.randint(1, 5)))

    def test_deterministic(self):
        rng = random.Random(404)
        M = random_matrix(rng, 4)
        a = smith_normal_form(M)
        b = smith_normal_form(M)
        assert a.P == b.P and a.Q == b.Q and a.D == b.D


class TestIntegerOperands:
    # operator.index refuses a float or a Fraction, where int() truncated it
    @pytest.mark.parametrize("bad", [2.7, Fraction(5, 2), 2.0])
    def test_matrix_entries(self, bad):
        with pytest.raises(TypeError):
            IntMatrix([[bad, 1], [1, 3]])

    @pytest.mark.parametrize("bad", [(2.9, 2.2), (Fraction(2), 1)])
    def test_matrix_vector_product(self, bad):
        with pytest.raises(TypeError):
            IntMatrix([[2, 0], [0, 2]]) @ bad

    @pytest.mark.parametrize("bad", [(2.9, 2.2), (Fraction(4, 2), 2)])
    def test_lattice_contains(self, bad):
        with pytest.raises(TypeError):
            lattice_contains(IntMatrix([[2, 0], [0, 2]]), bad)

    def test_integers_and_bools_still_pass(self):
        assert IntMatrix([[True, 0], [0, 1]]).data == ((1, 0), (0, 1))
        assert lattice_contains(IntMatrix([[2, 0], [0, 2]]), (2, 4)) == (True, (1, 2))


class TestLatticeContains:
    def test_golden_membership(self):
        # rows of SIMPLEST span the lattice; (2,2,-2,-2) = r0 + r1 is inside
        member, cert = lattice_contains(SIMPLEST.transpose(), (2, 2, -2, -2))
        assert member
        assert cert is not None

    def test_golden_rejection(self):
        member, cert = lattice_contains(SIMPLEST.transpose(), (1, 0, 0, 0))
        assert not member
        assert cert is None

    def test_brute_force_agree(self):
        rng = random.Random(505)
        for _ in range(25):
            M = IntMatrix(
                [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            )
            cols = [M.column(j) for j in range(3)]
            span = set()
            B = 2
            for c0 in range(-B, B + 1):
                for c1 in range(-B, B + 1):
                    for c2 in range(-B, B + 1):
                        v = tuple(
                            c0 * cols[0][i] + c1 * cols[1][i] + c2 * cols[2][i]
                            for i in range(3)
                        )
                        span.add(v)
            for v in list(span)[:40]:
                member, cert = lattice_contains(M, v)
                assert member, (M.to_rows(), v)
                got = M @ cert
                assert tuple(got) == v
