"""Exact integer matrix algebra.

Dense arbitrary-precision integer matrices with the operations needed for
lattice work: fraction-free determinants, adjugates, Smith normal form with
recorded unimodular transforms, and membership tests for column lattices.
Everything is exact; there are no floats anywhere.

A determinant and an adjugate each cost one Bareiss elimination, O(n^3)
integer operations. The adjugate lists no minor: at full rank it is the
right block of the eliminated [A | I], and at rank n - 1 it has rank one
and is read off that block's last row and the kernel vector of the
echelon form (see adjugate).
"""

from __future__ import annotations

from operator import index, mul
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple


class IntMatrix:
    """Immutable dense matrix over the integers. Entries, and the vector
    of a matrix-vector product, go through operator.index, so a float or a
    Fraction raises TypeError instead of being truncated."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries: Iterable[Sequence[int]]):
        data = tuple(tuple(map(index, row)) for row in entries)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("rows have unequal lengths")
        self.rows = len(data)
        self.cols = width
        self.data = data

    @classmethod
    def _trusted(cls, data: Tuple[Tuple[int, ...], ...]) -> "IntMatrix":
        """Wrap a nonempty tuple of equal-length int tuples as it stands.

        For matrices this module builds from IntMatrix operands: the
        coercion and shape checks of the public constructor would only
        repeat what already holds.
        """
        out = object.__new__(cls)
        out.rows = len(data)
        out.cols = len(data[0])
        out.data = data
        return out

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, index):
        if isinstance(index, tuple):
            i, j = index
            return self.data[i][j]
        return self.data[index]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.data[i]

    def column(self, j: int) -> Tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(zip(*self.data)))

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            cols = tuple(zip(*other.data))
            return IntMatrix._trusted(
                tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.data)
            )
        vec = tuple(map(index, other))
        if len(vec) != self.cols:
            raise ValueError("shape mismatch in matrix-vector product")
        return tuple(sum(map(mul, row, vec)) for row in self.data)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(tuple(-v for v in row) for row in self.data))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        body = ", ".join(str(list(row)) for row in self.data)
        return f"IntMatrix([{body}])"

    def to_rows(self) -> list:
        return [list(row) for row in self.data]


def determinant(m: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    a = [list(row) for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: this division is always exact.
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def adjugate(m: IntMatrix) -> IntMatrix:
    """Adjugate: entry (i, j) is (-1)^(i+j) times the minor omitting row j, column i.

    One fraction-free Gauss-Jordan elimination of [A | I] (Bareiss), so
    O(n^3) integer operations and no minor is listed. A row update is
    (p x - f y) // prev with p the pivot and prev the one before it; by
    Sylvester's identity every entry after a step is a minor of [A | I],
    so the division is exact. Pivots are taken column by column from the
    rows not yet used, a swap flipping the sign s; a column with no pivot
    is free. Every pivot row ends with the last pivot delta on its pivot
    column and zero on the others, and M = the right block satisfies
    M A = that echelon form.

    - No free column: M A = delta I with delta = s det A, so M = s adj A.
    - Two or more: every (n-1)-minor vanishes and adj A = 0.
    - One, f: A has rank n - 1, and A adj A = adj A A = 0 makes adj A of
      rank at most one, every column a multiple of the kernel vector v
      with v_f = delta and v_c = -(entry of column f in the row pivoting
      on c). The last row of M is the expansion of the minors omitting
      column f along the identity, s (-1)^(n-1-f) times row f of adj A;
      then (adj A)_ij = v_i (adj A)_fj / delta, exactly, since the
      quotient is an entry of adj A.
    """
    if m.rows != m.cols:
        raise ValueError("adjugate needs a square matrix")
    n = m.rows
    if n < 2:
        raise ValueError("adjugate needs size at least 2")
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m.data)]
    sign = 1
    prev = 1
    free = None
    r = 0
    for c in range(n):
        k = next((i for i in range(r, n) if a[i][c]), None)
        if k is None:
            if free is not None:
                return IntMatrix._trusted(((0,) * n,) * n)
            free = c
            continue
        if k != r:
            a[k], a[r] = a[r], a[k]
            sign = -sign
        pivot_row = a[r]
        p = pivot_row[c]
        for i in range(n):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
        r += 1
    if free is None:
        return IntMatrix._trusted(tuple(tuple(sign * v for v in row[n:]) for row in a))
    if (n - 1 - free) % 2:
        sign = -sign
    adj_f = [sign * v for v in a[n - 1][n:]]
    v = [-row[free] for row in a[: n - 1]]
    v.insert(free, prev)
    return IntMatrix._trusted(tuple(tuple(vi * w // prev for w in adj_f) for vi in v))


def bezout(x: int, y: int) -> Tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with g == s*x + t*y and g >= 0."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class SnfResult(NamedTuple):
    """P @ M @ Q == D with P, Q unimodular and D diagonal with a divisibility chain."""

    P: IntMatrix
    D: IntMatrix
    Q: IntMatrix
    invariant_factors: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Smith normal form over the integers.

    The pivot at each stage is the smallest-magnitude nonzero entry of the
    working submatrix, ties broken by lowest (row, col). Elementary row and
    column operations are mirrored into P and Q. Diagonalization alone does
    not force d_i | d_{i+1}, so a gcd-absorption pass runs at the end, and
    negative diagonal entries are cleared by negating the matching row of P.
    """
    nrows, ncols = m.rows, m.cols
    a = [list(row) for row in m.data]
    p = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    q = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        p[i], p[j] = p[j], p[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in q:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        p[dst] = [x + c * y for x, y in zip(p[dst], p[src])]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in q:
            row[dst] += c * row[src]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        best = None
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        dirty = False
        pv = a[t][t]
        for i in range(t + 1, nrows):
            if a[i][t]:
                c = a[i][t] // pv
                if c:
                    add_row(i, t, -c)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j]:
                c = a[t][j] // pv
                if c:
                    add_col(j, t, -c)
                if a[t][j]:
                    dirty = True
        if dirty:
            # leftover remainders are smaller than the pivot; rescan
            continue
        t += 1
    rank = t

    for i in range(rank):
        if a[i][i] < 0:
            a[i] = [-v for v in a[i]]
            p[i] = [-v for v in p[i]]

    def row_combo(i, j, m11, m12, m21, m22):
        for target in (a, p):
            ri, rj = target[i], target[j]
            target[i] = [m11 * x + m12 * y for x, y in zip(ri, rj)]
            target[j] = [m21 * x + m22 * y for x, y in zip(ri, rj)]

    def col_combo(i, j, m11, m21, m12, m22):
        # columns (ci, cj) <- (m11*ci + m21*cj, m12*ci + m22*cj)
        for target in (a, q):
            for row in target:
                ci, cj = row[i], row[j]
                row[i] = m11 * ci + m21 * cj
                row[j] = m12 * ci + m22 * cj

    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if y % x:
                g, s, u = bezout(x, y)
                # diag(x, y) -> diag(g, x*y/g) under a unimodular 2x2 pair
                row_combo(i, i + 1, s, u, -(y // g), x // g)
                col_combo(i, i + 1, 1, 1, -(u * y // g), s * x // g)
                changed = True

    factors = tuple(a[i][i] for i in range(rank))
    return SnfResult(
        P=IntMatrix._trusted(tuple(map(tuple, p))),
        D=IntMatrix._trusted(tuple(map(tuple, a))),
        Q=IntMatrix._trusted(tuple(map(tuple, q))),
        invariant_factors=factors,
    )


def lattice_contains(
    m: IntMatrix, v: Sequence[int], snf: Optional[SnfResult] = None
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Decide membership of v in the lattice spanned by the columns of m.

    Returns (True, c) with m @ c == v, or (False, None). Solving D y = P v
    reduces membership to divisibility by the invariant factors plus
    vanishing of the coordinates past the rank. snf is a Smith normal form
    of m already at hand; it is computed when None. Negating rows of its P
    past the rank, as core.normalized_snf does, changes no answer: those
    coordinates only have to vanish. The certificate is checked against m
    either way.
    """
    vec = tuple(map(index, v))
    if len(vec) != m.rows:
        raise ValueError("vector length must match the number of rows")
    if snf is None:
        snf = smith_normal_form(m)
    w = snf.P @ vec
    r = snf.rank
    y = [0] * m.cols
    for i in range(m.rows):
        if i < r:
            d = snf.invariant_factors[i]
            if w[i] % d:
                return False, None
            y[i] = w[i] // d
        elif w[i]:
            return False, None
    cert = snf.Q @ y
    if (m @ cert) != vec:
        raise AssertionError("certificate failed to reproduce the target vector")
    return True, tuple(cert)
