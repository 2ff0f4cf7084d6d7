"""Positive critical binomial (PCB) matrices and their combinatorial invariants.

An n-by-n integer matrix L is PCB when every off-diagonal entry is strictly
negative, every diagonal entry is strictly positive and every row sums to
zero. Column j encodes the binomial

    f_j = x_j^{a_jj} - prod_{i != j} x_i^{a_ij}

where a_ij is the magnitude of the entry at (i, j). This module computes the
associated positive grading, the syzygies that tie the generators together,
the normalized Smith decomposition and the witness binomial that separates
the mixed case from the unmixed one. No polynomial arithmetic happens here;
identity checks expand monomials termwise over the integers.
"""

from __future__ import annotations

import math
from operator import add, mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .intmat import (
    IntMatrix,
    SnfResult,
    adjugate,
    bezout,
    determinant,
    smith_normal_form,
)


class PcbValidationError(ValueError):
    """Input fails the PCB shape contract; the message names the location."""


class NonSquare(PcbValidationError):
    def __init__(self, nrows: int, ncols: int):
        self.shape = (nrows, ncols)
        super().__init__(f"NonSquare({nrows}x{ncols})")


class TooSmall(PcbValidationError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"TooSmall(n={n})")


class DiagonalSignError(PcbValidationError):
    def __init__(self, i: int):
        self.row = i
        super().__init__(f"DiagonalSignError({i})")


class NonPositiveOffDiagonal(PcbValidationError):
    def __init__(self, i: int, j: int):
        self.position = (i, j)
        super().__init__(f"NonPositiveOffDiagonal({i},{j})")


class RowSumNonzero(PcbValidationError):
    def __init__(self, i: int):
        self.row = i
        super().__init__(f"RowSumNonzero({i})")


class DimensionTooSmall(ValueError):
    """Raised by operations that only make sense from dimension four up."""


class NegativeEntry(RuntimeError):
    """A syzygy exponent came out negative, which the row sums rule out."""


class PcbMatrix:
    """Entry magnitudes of a validated PCB matrix; a[i][i] is the diagonal.

    Immutable, and equal, hashed and shown by a alone. signed, the matrix L
    itself, is built once here; normalized_snf caches its answer in _snf,
    and every invariant is read off it; generators caches the column
    binomials in _gens.
    """

    __slots__ = ("a", "signed", "_snf", "_gens")

    def __init__(self, a: Tuple[Tuple[int, ...], ...]):
        signed = tuple(tuple(v if i == j else -v for j, v in enumerate(row)) for i, row in enumerate(a))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "signed", IntMatrix._trusted(signed))
        object.__setattr__(self, "_snf", None)
        object.__setattr__(self, "_gens", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"PcbMatrix is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PcbMatrix is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not PcbMatrix:
            return NotImplemented
        return self.a == other.a

    def __hash__(self) -> int:
        return hash(self.a)

    def __repr__(self) -> str:
        return f"PcbMatrix(a={self.a!r})"

    @property
    def n(self) -> int:
        return len(self.a)


def validate(rows: Sequence[Sequence[int]]) -> PcbMatrix:
    """Check the PCB shape contract and return the magnitude form.

    Positions in error messages are 1-based.
    """
    data = [list(row) for row in rows]
    n = len(data)
    width = next((len(row) for row in data if len(row) != n), None)
    if width is not None:
        raise NonSquare(n, width)
    if n < 2:
        raise TooSmall(n)
    for i, row in enumerate(data):
        if row[i] <= 0:
            raise DiagonalSignError(i + 1)
        for j, v in enumerate(row):
            if j != i and v >= 0:
                raise NonPositiveOffDiagonal(i + 1, j + 1)
        if sum(row) != 0:
            raise RowSumNonzero(i + 1)
    return PcbMatrix(tuple(tuple(abs(v) for v in row) for row in data))


class Binomial(NamedTuple):
    """Difference of two monomials, kept as exponent vectors: x^plus - x^minus."""

    plus: Tuple[int, ...]
    minus: Tuple[int, ...]


def generators(P: PcbMatrix) -> Tuple[Binomial, ...]:
    """The column binomials f_1, ..., f_n, built once per matrix and cached on it."""
    if P._gens is None:
        n = P.n
        object.__setattr__(P, "_gens", tuple(
            Binomial(tuple(P.a[j][j] if i == j else 0 for i in range(n)), tuple(0 if i == j else P.a[i][j] for i in range(n)))
            for j in range(n)
        ))
    return P._gens


def associated_vector(P: PcbMatrix) -> Tuple[Tuple[int, ...], int, Tuple[int, ...]]:
    """Returns (m, d, nu): the common adjugate row, its gcd and the primitive part.

    All three are read off the normalized SNF P L Q = D: nu is the last row
    of P, d the product of the invariant factors and m = d * nu. Why: L has
    rank n - 1, so the last row of P spans the left kernel of L, and as a
    row of a unimodular matrix it is primitive; normalized_snf makes it
    positive. adj(L) L = L adj(L) = 0, and the zero row sums make every
    column of adj(L) constant, so every adjugate row is the same positive
    kernel row m, a multiple of nu. Its entries are the (n - 1)-minors up
    to sign, so d = gcd(m) = gcd of the (n - 1)-minors = the product of
    the invariant factors. identity_checks holds these against adj(L).
    """
    snf = normalized_snf(P)
    nu = snf.P.row(P.n - 1)
    d = math.prod(snf.invariant_factors)
    return tuple(d * v for v in nu), d, nu


def grading_degree(nu: Sequence[int], exponents: Sequence[int]) -> int:
    """Weighted degree of a monomial under the grading nu."""
    if len(nu) != len(exponents):
        raise ValueError("weight vector and exponent vector differ in length")
    return sum(w * e for w, e in zip(nu, exponents))


def syzygy_vectors(P: PcbMatrix) -> Tuple[Tuple[int, ...], ...]:
    """Exponent vectors b(1), ..., b(n) with sum_i x^{b(i)} f_i = 0.

    b(i) vanishes at positions i and i+1 (cyclically); at any other position
    j it equals a_jj minus the partial row sum of a_j* walked cyclically from
    j+1 up to i. The row sum property makes every entry nonnegative. For
    each j one running sum walks row j once, i = j+1, ..., j-2 cyclically,
    so the whole table costs O(n^2); a negative entry is reported in the
    order i, then j.
    """
    n = P.n
    b = [[0] * n for _ in range(n)]
    for j, row in enumerate(P.a):
        value = row[j]
        for k in range(1, n - 1):
            i = (j + k) % n
            value -= row[i]
            b[i][j] = value
    if bad := next(((i, j, v) for i, vec in enumerate(b) for j, v in enumerate(vec) if v < 0), None):
        raise NegativeEntry(f"syzygy exponent b({bad[0] + 1})_{bad[1] + 1} = {bad[2]}")
    return tuple(map(tuple, b))


def mixedness_witness(P: PcbMatrix) -> Binomial:
    """A binomial g with x_1 g = x_n^{a_nn - a_n1} f_1 + x_2^{a_21} ... x_{n-1}^{a_{n-1,1}} f_n.

    The identity puts g into the colon ideal by x_1 while g stays outside the
    ideal itself, so g certifies an embedded component. Needs n >= 4.
    """
    n = P.n
    if n < 4:
        raise DimensionTooSmall(f"witness needs n >= 4, got n = {n}")
    a = P.a
    plus = [0] * n
    plus[0] = a[0][0] - 1
    plus[n - 1] = a[n - 1][n - 1] - a[n - 1][0]
    minus = [0] * n
    minus[0] = a[0][n - 1] - 1
    for i in range(1, n - 1):
        minus[i] = a[i][0] + a[i][n - 1]
    return Binomial(tuple(plus), tuple(minus))


def _expansion(products) -> Dict[Tuple[int, ...], int]:
    """Termwise expansion of the sum of c x^s (x^plus - x^minus) over the
    (s, binomial, c) of products, with the terms that cancel left out."""
    acc: Dict[Tuple[int, ...], int] = {}
    for shift, f, c in products:
        for e, sign in ((f.plus, c), (f.minus, -c)):
            e = tuple(map(add, shift, e))
            acc[e] = acc.get(e, 0) + sign
    return {e: c for e, c in acc.items() if c}


def syzygy_identity_residual(P: PcbMatrix) -> Dict[Tuple[int, ...], int]:
    """Termwise expansion of sum_i x^{b(i)} f_i; empty dict means the identity holds."""
    return _expansion((b, f, 1) for b, f in zip(syzygy_vectors(P), generators(P)))


def witness_identity_residual(P: PcbMatrix) -> Dict[Tuple[int, ...], int]:
    """Expansion of x_1 g - x_n^{a_nn - a_n1} f_1 - x_2^{a_21}...x_{n-1}^{a_{n-1,1}} f_n."""
    n = P.n
    a = P.a
    f = generators(P)
    x1 = tuple(1 if i == 0 else 0 for i in range(n))
    xn_pow = tuple(a[n - 1][n - 1] - a[n - 1][0] if i == n - 1 else 0 for i in range(n))
    g1 = tuple(a[i][0] if 0 < i < n - 1 else 0 for i in range(n))
    return _expansion([(x1, mixedness_witness(P), 1), (xn_pow, f[0], -1), (g1, f[n - 1], -1)])


def identity_checks(P: PcbMatrix) -> List[Tuple[str, bool]]:
    """The checks of `pcb verify --level identities`, as (name, ok) pairs.

    Every invariant is read off the normalized SNF, so adj(L) is computed
    here as an independent witness: the last transform row must be the
    primitive part of the adjugate row, and d * nu must be that row
    itself, which pins the torsion order d to the weight gcd and catches a
    wrong orientation of the row as well. intmat.adjugate never reads the
    Smith form: it is one fraction-free elimination of [L | I]. L has rank
    n - 1, so adj(L) has rank one, every column a multiple of the kernel
    vector of the echelon form, and one row of it is the last row of the
    eliminated identity block. The whole level costs that elimination and
    the two unimodularity determinants, O(n^3) integer operations.

    The minor gcds are proved by the Smith certificate, not by listing
    minors. By Cauchy-Binet each t-minor of P L Q is an integer combination
    of t-minors of L, and back again when P and Q are unimodular, so L and
    D = P L Q share the gcd of t-minors. For D = diag(d_1, ..., d_r, 0)
    with 0 < d_1 | d_2 | ... every nonzero t-minor is a product of t
    distinct d_i, a multiple of d_1 ... d_t, which is itself one: the gcd
    is d_1 ... d_t. The check therefore holds exactly when the certificate
    does; if any part of it fails the claim is unproven and reads False.
    """
    n = P.n
    L = P.signed
    adj = adjugate(L)
    m_adj = adj.row(0)
    rows_equal = all(adj.row(i) == m_adj for i in range(n))
    checks = [("adjugate rows equal and positive", rows_equal and all(v > 0 for v in m_adj))]
    m, d, nu = associated_vector(P)
    checks.append(("syzygy identity expands to zero", not syzygy_identity_residual(P)))
    if n >= 4:
        checks.append(("witness identity expands to zero", not witness_identity_residual(P)))
    homogeneous = all(sum(map(mul, nu, f.plus)) == sum(map(mul, nu, f.minus)) for f in generators(P))
    checks.append(("generators homogeneous under the weight vector", homogeneous))
    snf = normalized_snf(P)
    reproduced = snf.P @ L @ snf.Q == snf.D
    checks.append(("transforms reproduce the diagonal", reproduced))
    unimodular = abs(determinant(snf.P)) == 1 and abs(determinant(snf.Q)) == 1
    checks.append(("transforms unimodular", unimodular))
    factors = snf.invariant_factors
    chain = all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
    checks.append(("divisibility chain", chain))
    padded = factors + (0,) * (n - len(factors))
    diagonal = tuple(tuple(v if i == j else 0 for j in range(n)) for i, v in enumerate(padded))
    certified = reproduced and unimodular and chain and all(f > 0 for f in factors)
    checks.append(("minor gcds match the invariant factors", certified and snf.D.data == diagonal))
    weight_gcd = math.gcd(*m_adj)
    primitive = tuple(v // weight_gcd for v in m_adj)
    checks.append(("last transform row equals the weight vector", snf.P.row(n - 1) == primitive))
    checks.append(("torsion order equals the weight gcd", d == weight_gcd and m == m_adj))
    closed = small_dim_decomposition(P)
    if closed is not None:
        checks.append(("closed-form diagonal agrees", closed.D == snf.D))
    return checks


def normalized_snf(P: PcbMatrix) -> SnfResult:
    """Smith normal form of the signed matrix with the last row of P pinned to +nu.

    The bottom row of P spans the left kernel, so it must be an integer
    multiple of nu; unimodularity forces the multiple to be +1 or -1 and a
    sign flip of that single row fixes the orientation without touching D.
    Computed once per matrix and cached on it.
    """
    if P._snf is None:
        snf = smith_normal_form(P.signed)
        if snf.rank != P.n - 1:
            raise AssertionError("a PCB matrix must have rank n - 1")
        *rows, last = snf.P.data
        if last[0] < 0:
            last = tuple(-v for v in last)
        if any(v <= 0 for v in last):
            raise AssertionError(f"kernel row {list(last)} of a PCB matrix must have one strict sign")
        object.__setattr__(P, "_snf", SnfResult(IntMatrix._trusted((*rows, last)), snf.D, snf.Q, snf.invariant_factors))
    return P._snf


def small_dim_decomposition(P: PcbMatrix) -> Optional[SnfResult]:
    """Closed-form normalized Smith decomposition for n = 2 and n = 3.

    For n = 3 the construction needs gcd(a_31, a_32) to equal the entry gcd
    of the whole matrix; otherwise, and for any n outside {2, 3}, the answer
    is None and callers fall back to normalized_snf. The returned transforms
    are re-multiplied on the spot as a guard.
    """
    n = P.n
    a = P.a
    if n == 2:
        a11, a22 = a[0][0], a[1][1]
        d, b1, b2 = bezout(a11, a22)
        pm = ((b1, -b2), (a22 // d, a11 // d))
        qm = ((1, 1), (0, 1))
        dm = ((d, 0), (0, 0))
        factors = (d,)
    elif n == 3:
        d1 = math.gcd(*(v for row in a for v in row))
        b, c1, c2 = bezout(a[2][0], a[2][1])
        if b != d1:
            return None
        _, d, nu = associated_vector(P)
        d2 = d // d1
        num1 = -c1 * a[0][0] + c2 * a[0][1]
        num2 = c1 * a[1][0] - c2 * a[1][1]
        if num1 % d1 or num2 % d1:
            raise AssertionError("entry gcd must divide the eliminated column")
        alpha1 = num1 // d1
        alpha2 = num2 // d1
        g, s1, s2 = bezout(nu[0], nu[1])
        if g != 1:
            raise AssertionError("first two weights must be coprime when gcd(a31, a32) = d1")
        c = s2 * alpha1 - s1 * alpha2
        pm = ((0, 0, 1), (s2, -s1, -c), nu)
        qm = ((-c1, a[2][1] // b, 1), (-c2, -(a[2][0] // b), 1), (0, 0, 1))
        dm = ((d1, 0, 0), (0, d2, 0), (0, 0, 0))
        factors = (d1, d2)
    else:
        return None
    result = SnfResult(IntMatrix._trusted(pm), IntMatrix._trusted(dm), IntMatrix._trusted(qm), factors)
    if (result.P @ P.signed @ result.Q).data != dm:
        raise AssertionError("closed-form transforms failed to reproduce D")
    return result


class TorsionProfile(NamedTuple):
    """Cokernel shape of the signed matrix: Z^n / (column lattice)."""

    fitting_zero: int
    fitting_one: int
    order: int
    free_rank: int
    cyclic_factors: Tuple[int, ...]
    is_direct_summand: bool


def torsion_profile(P: PcbMatrix) -> TorsionProfile:
    """Read off the normalized SNF: the gcd of the t-minors is the product of
    the first t invariant factors, and 0 past the rank n - 1."""
    snf = normalized_snf(P)
    order = math.prod(snf.invariant_factors)
    return TorsionProfile(
        fitting_zero=0,
        fitting_one=order,
        order=order,
        free_rank=P.n - snf.rank,
        cyclic_factors=tuple(f for f in snf.invariant_factors if f > 1),
        is_direct_summand=(order == 1),
    )


class ComponentCount(NamedTuple):
    isolated: int
    embedded: int
    assumption: str
    at_most: int


def component_count(P: PcbMatrix) -> ComponentCount:
    """Component counts under the good-characteristic assumption.

    Over an arbitrary field the same numbers are only an upper bound, which
    at_most records.
    """
    _, d, _ = associated_vector(P)
    embedded = 1 if P.n >= 4 else 0
    return ComponentCount(
        isolated=d,
        embedded=embedded,
        assumption=(
            "the coefficient field contains a primitive root of unity for every "
            "invariant factor and its characteristic does not divide their product"
        ),
        at_most=d + embedded,
    )


class PcbAnalysis(NamedTuple):
    """One-stop summary of the discrete invariants of a PCB matrix."""

    n: int
    m: Tuple[int, ...]
    d: int
    nu: Tuple[int, ...]
    invariant_factors: Tuple[int, ...]
    syzygy_exponents: Tuple[Tuple[int, ...], ...]
    hull_prime: bool
    isolated_components: int
    embedded_components: int


def analyze(P: PcbMatrix) -> PcbAnalysis:
    """The invariants, and the component counts as component_count gives
    them: the hull is prime exactly when the torsion order d is 1, that
    is when there is one isolated component."""
    m, d, nu = associated_vector(P)
    snf = normalized_snf(P)
    counts = component_count(P)
    return PcbAnalysis(
        n=P.n,
        m=m,
        d=d,
        nu=nu,
        invariant_factors=snf.invariant_factors,
        syzygy_exponents=syzygy_vectors(P),
        hull_prime=(counts.isolated == 1),
        isolated_components=counts.isolated,
        embedded_components=counts.embedded,
    )
