"""Hilbert series of monomial ideals under a positive grading.

With deg x_i = w_i > 0 the Hilbert series of R/J, J a monomial ideal, is
N(t) / prod(1 - t^{w_i}) for an integer polynomial N, the numerator.
hilbert_numerator computes N by the Bayer-Stillman recursion on one
generator m: the exact sequence 0 -> R/(J' : m)(-deg m) -> R/J' -> R/J -> 0
with J = J' + (m) gives N(J) = N(J') - t^{deg m} N(J' : m). The recursion
stops at generators with pairwise disjoint supports, whose quotient is a
tensor product: N = prod(1 - t^{deg m}).

For an ideal homogeneous in that grading, the standard monomials of any
Groebner basis span each graded piece of the quotient, so the leading
ideal has the same Hilbert series; dimension_one_residue reads the
dimension and the degree off it in integers, and dimension_one_degree
gives that degree as a Fraction.
"""

from __future__ import annotations

from operator import le
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from fractions import Fraction

Monomial = Tuple[int, ...]
Series = Dict[int, int]  # t-exponent -> nonzero integer coefficient


def _minimal(monomials: Sequence[Monomial]) -> List[Monomial]:
    kept: List[Monomial] = []
    for m in sorted(set(monomials), key=sum):
        if not any(all(map(le, k, m)) for k in kept):
            kept.append(m)
    return kept


def _add_shifted(out: Series, other: Series, shift: int, sign: int) -> None:
    for k, c in other.items():
        s = out.get(k + shift, 0) + sign * c
        if s:
            out[k + shift] = s
        else:
            out.pop(k + shift, None)


def _numerator(gens: List[Monomial], weights: Sequence[int]) -> Series:
    """N(t) for the ideal of the minimal monomial generators gens."""
    if any(not any(m) for m in gens):
        return {}  # the unit ideal: R/J = 0
    used = [0] * len(weights)
    disjoint = True
    for m in gens:
        for i, e in enumerate(m):
            if e:
                if used[i]:
                    disjoint = False
                used[i] = 1
    if disjoint:
        out: Series = {0: 1}
        for m in gens:
            nxt = dict(out)
            _add_shifted(nxt, out, sum(w * e for w, e in zip(weights, m)), -1)
            out = nxt
        return out
    pivot = gens[-1]
    rest = gens[:-1]
    quotient = _minimal([tuple(max(a - b, 0) for a, b in zip(m, pivot)) for m in rest])
    out = _numerator(rest, weights)
    _add_shifted(out, _numerator(quotient, weights), sum(w * e for w, e in zip(weights, pivot)), -1)
    return out


def hilbert_numerator(monomials: Sequence[Monomial], weights: Sequence[int]) -> Series:
    """N(t) with H(R/J, t) = N(t) / prod(1 - t^{w_i}), J generated by the
    monomials and deg x_i = weights[i] > 0; returned as {exponent: coefficient}."""
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if any(len(m) != len(weights) for m in monomials):
        raise ValueError("exponent vector length does not match the weights")
    return _numerator(_minimal([tuple(m) for m in monomials]), weights)


def dimension_one_residue(monomials: Sequence[Monomial], weights: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The degree e of R/J as (value, product) with e = value / product,
    when R/J has dimension one, else None; integers only.

    With n variables, R/J has dimension one exactly when N(t) =
    (1 - t)^{n-1} M(t) with M(1) != 0: the product prod(1 - t^{w_i}) is
    (1 - t)^n times a factor that is prod w_i at t = 1, so the series
    then has a pole of order one at t = 1. N is divided by (1 - t) exactly,
    n - 1 times; a nonzero remainder means dimension two or more, and
    M(1) = 0 dimension zero or the zero ring. The degree is the residue
    e = M(1) / prod w_i, returned as value = M(1) and product = prod w_i,
    not reduced; it is additive over graded exact sequences of modules of
    dimension at most one and is positive for dimension one.
    """
    num = hilbert_numerator(monomials, weights)
    top = max(num, default=-1)
    coeffs = [num.get(k, 0) for k in range(top + 1)]
    for _ in range(len(weights) - 1):
        # N / (1 - t) has the prefix sums of N as coefficients; exact iff N(1) = 0
        if sum(coeffs):
            return None
        quotient, acc = [], 0
        for c in coeffs[:-1]:
            acc += c
            quotient.append(acc)
        coeffs = quotient
    value = sum(coeffs)
    if not value:
        return None
    product = 1
    for w in weights:
        product *= w
    return value, product


def dimension_one_degree(monomials: Sequence[Monomial], weights: Sequence[int]) -> Optional[Fraction]:
    """The degree e of R/J when it has dimension one, else None: the
    residue of dimension_one_residue as a Fraction. fractions is imported
    on the call, so that loading this module does not load it."""
    residue = dimension_one_residue(monomials, weights)
    if residue is None:
        return None
    from fractions import Fraction

    return Fraction(*residue)
