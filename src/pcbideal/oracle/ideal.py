"""Ideal handles, membership and equality, and the colon and saturation.

Colon and saturation have two paths. The general one, for any f, divides
the intersection I ∩ (f) by f, and saturation iterates that colon until
the chain stops moving; it runs on the auxiliary-variable engine of
oracle.elimination, which it imports when it is first taken. The graded
one, for a monomial f and an ideal homogeneous for positive weights,
needs no auxiliary variable: the colon divides the reduced basis under a
weighted reverse-lex order by powers of one variable at a time
(Bayer-Stillman; see colon), and the saturation by a power of one
variable divides each element of that basis by its whole power of the
variable, once (see saturate).
"""
from __future__ import annotations

from operator import le as _le
from operator import mul as _mul
from operator import sub as _sub
from typing import Dict, Optional, Sequence, Tuple

from .groebner import _entries, _KeyCache, _nf_dict, _reduce_basis, groebner_basis
from .order import DEGREVLEX, MonomialOrder, WeightedRevLex
from .poly import Polynomial


class Ideal:
    """Finitely generated ideal with per-order caching of reduced bases."""

    __slots__ = ("field", "nvars", "gens", "_bases", "_reducers")

    def __init__(self, field, nvars: int, gens: Sequence[Polynomial]):
        kept = []
        for g in gens:
            if g.field != field or g.nvars != nvars:
                raise ValueError("generator lives in a different ring")
            if g.terms:
                kept.append(g)
        self.field = field
        self.nvars = nvars
        self.gens = tuple(kept)
        self._bases: Dict[str, Tuple[Polynomial, ...]] = {}
        self._reducers = None  # the degrevlex basis as division entries, built on first use

    @classmethod
    def _with_basis(cls, field, nvars, basis: Sequence[Polynomial], order: MonomialOrder) -> "Ideal":
        """The ideal generated by `basis`, with `basis` cached as its Groebner
        basis under `order`. The caller vouches that it is exactly what
        groebner_basis would return there: reduced, monic and sorted by the
        order's key. __eq__ compares cached bases as they stand, so any other
        basis makes equal ideals compare unequal."""
        out = cls(field, nvars, basis)
        out._bases[order.label] = tuple(basis)
        return out

    def groebner(self, order: MonomialOrder = DEGREVLEX) -> Tuple[Polynomial, ...]:
        cached = self._bases.get(order.label)
        if cached is None:
            cached = groebner_basis(self.gens, order)
            self._bases[order.label] = cached
        return cached

    def _working_gens(self) -> Tuple[Polynomial, ...]:
        # a computed reduced basis is usually the leaner generating set
        return self._bases.get(DEGREVLEX.label, self.gens)

    def contains(self, f: Polynomial) -> bool:
        if f.field != self.field or f.nvars != self.nvars:
            raise ValueError("polynomial lives in a different ring")
        if not f.terms:
            return True
        if self._reducers is None:
            self._reducers = _entries(self.groebner(), DEGREVLEX)
        return not _nf_dict(dict(f.terms), self._reducers, self.field, _KeyCache(DEGREVLEX.key).__getitem__)

    def includes(self, other: "Ideal") -> bool:
        self._check_ring(other)
        return all(self.contains(g) for g in other.gens)

    def _check_ring(self, other: "Ideal") -> None:
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError("ideals live in different rings")

    def __eq__(self, other) -> bool:
        """Equal reduced bases under one order: degrevlex, unless both
        ideals already hold the reduced basis of some other order. A reduced
        basis is unique, so any one order decides equality."""
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.field != other.field or self.nvars != other.nvars:
            return False
        shared = sorted(self._bases.keys() & other._bases.keys())
        if shared and DEGREVLEX.label not in shared:
            return self._bases[shared[0]] == other._bases[shared[0]]
        return self.groebner() == other.groebner()

    def __repr__(self) -> str:
        return f"Ideal({len(self.gens)} gens, {self.field.tag}, {self.nvars} vars)"


def _check_divisor(ideal: Ideal, f: Polynomial) -> None:
    if f.field != ideal.field or f.nvars != ideal.nvars:
        raise ValueError("polynomial lives in a different ring")
    if not f.terms:
        raise ZeroDivisionError("colon by the zero polynomial")


def _graded_monomial(ideal: Ideal, f: Polynomial, weights: Sequence[int]) -> Tuple[int, ...]:
    """The exponents of f, once f is known to be a monomial and every
    generator of the ideal homogeneous for the weights; ValueError otherwise."""
    if len(weights) != ideal.nvars:
        raise ValueError("one weight per variable is needed")
    if len(f.terms) != 1:
        raise ValueError("the graded colon needs a monomial")
    for g in ideal.gens:
        if len({sum(map(_mul, weights, e)) for e in g.terms}) > 1:
            raise ValueError("a generator is not homogeneous for the weights")
    return next(iter(f.terms))


def _divide_variable(ideal: Ideal, weights: Sequence[int], j: int, k: int) -> Ideal:
    """I : x_j^k for I homogeneous for the weights; see colon."""
    order = WeightedRevLex(weights, j)
    keyf = _KeyCache(order.key).__getitem__
    field, nvars = ideal.field, ideal.nvars
    entries = []
    for g in ideal.groebner(order):
        s = min(k, min(e[j] for e in g.terms))
        terms = {e[:j] + (e[j] - s,) + e[j + 1 :]: c for e, c in g.terms.items()} if s else g.terms
        entries.append((max(terms, key=keyf), terms))
    # a divided leading monomial can divide another one: keep the minimal ones
    entries.sort(key=lambda entry: keyf(entry[0]))
    minimal = []
    for lm, terms in entries:
        if not any(all(map(_le, m, lm)) for m, _ in minimal):
            minimal.append((lm, terms))
    basis = tuple(Polynomial(field, nvars, terms) for _, terms in _reduce_basis(minimal, field, keyf))
    return Ideal._with_basis(field, nvars, basis, order)


def colon(ideal: Ideal, f: Polynomial, weights: Optional[Sequence[int]] = None) -> Ideal:
    """The colon ideal (I : f).

    Without weights, I ∩ (f) is computed with an auxiliary variable and
    divided by f. With weights, f must be a monomial x^b and every
    generator of I homogeneous for the positive grading deg x_i = w_i
    (ValueError otherwise), and no auxiliary variable is used:
    I : x^b = (...(I : x_{j1}^{b_{j1}}) : ...) : x_{jk}^{b_{jk}} over the
    support of b, and each step divides the reduced WeightedRevLex(w, j)
    basis of the current ideal by powers of x_j.

    Why (Bayer-Stillman, "A criterion for detecting m-regularity", 1987).
    The terms of a homogeneous g share one weighted degree, and among
    them the order prefers less x_j, so the leading monomial of g has the
    least x_j-exponent of its terms, ord_{x_j} g; writing g = x_j^a g',
    lm(g) = x_j^a lm(g'). Let G be a Groebner basis of I and
    G_k = {g / x_j^{min(k, ord g)}}, which lies in I : x_j^k. The colon of
    a homogeneous ideal is homogeneous, so its leading ideal is generated
    by the leading monomials of homogeneous h in I : x_j^k. Then x_j^k h
    is in I, and x_j^k lm(h) = m lm(g) for some g in G and monomial m.
    With lm(g) = x_j^a u, u free of x_j: if a <= k, u divides lm(h); if
    a > k, x_j^{a-k} u divides lm(h). Either way the leading monomial of
    g / x_j^{min(k, a)} divides lm(h), so G_k is a Groebner basis of
    I : x_j^k, and its elements stay homogeneous for the next step. The
    divided basis is minimalized and tail-reduced, which is no further
    Groebner run, and the result keeps that reduced basis.
    """
    _check_divisor(ideal, f)
    if weights is not None:
        current = ideal
        for j, b in enumerate(_graded_monomial(ideal, f, weights)):
            if b:
                current = _divide_variable(current, weights, j, b)
        return current
    if len(f.terms) == 1 and not any(next(iter(f.terms))):
        return ideal  # colon by a unit
    from .elimination import exact_divide, intersect

    meet = intersect(ideal, Ideal(ideal.field, ideal.nvars, (f,)))
    basis = meet.groebner()
    if len(f.terms) == 1:
        exps = next(iter(f.terms))
        divided = []
        for g in basis:
            shifted = {}
            for e, c in g.terms.items():
                if not all(map(_le, exps, e)):
                    raise AssertionError("intersection element not divisible by the monomial")
                shifted[tuple(map(_sub, e, exps))] = c
            divided.append(Polynomial(ideal.field, ideal.nvars, shifted))
        # dividing every exponent by the same monomial preserves reducedness
        return Ideal._with_basis(ideal.field, ideal.nvars, divided, DEGREVLEX)
    return Ideal(ideal.field, ideal.nvars, tuple(exact_divide(g, f) for g in basis))


def saturate(ideal: Ideal, f: Polynomial, weights: Optional[Sequence[int]] = None) -> Tuple[Ideal, int]:
    """The saturation I : f^∞ and the least N with I : f^N already
    saturated, which is the number of colons by f that move I.

    Without weights, and with weights for a monomial f in two or more
    variables, the colon by f is iterated until it stops moving. There N
    cannot be read off the basis: for I = (x^5 y, y^2) and f = xy the
    largest x-order is 5, but I : xy = (x^4, y) and I : (xy)^2 = (1), so
    N = 2.

    With weights and f = x_j^k (the conditions of the graded colon), one
    Buchberger run gives the reduced WeightedRevLex(w, j) basis G of I,
    each element is divided by its whole x_j-power, and the result is
    minimalized and tail-reduced once. When top, the largest x_j-order
    ord_{x_j} g over G, is zero, I is returned as it is and nothing is
    reduced.
    Then N = ⌈top / k⌉, because I : x_j^m = I : x_j^∞ exactly when
    m >= top. Why (Bayer-Stillman; see colon for the notation): G_m is a
    Groebner basis of I : x_j^m, and for m >= top it is G_∞. For m < top
    take g in G of order top, lm(g) = x_j^top u with u free of x_j. If
    g / x_j^top lay in I : x_j^m, the leading monomial u would be
    divisible by lm(g') / x_j^{min(m, a')} for some g' in G with
    lm(g') = x_j^{a'} u'. That needs a' <= m and u' | u, so lm(g')
    divides lm(g) with g' != g, which a reduced basis forbids.
    """
    if weights is not None:
        _check_divisor(ideal, f)
        exps = _graded_monomial(ideal, f, weights)
        support = [j for j, b in enumerate(exps) if b]
        if len(support) == 1:
            j = support[0]
            basis = ideal.groebner(WeightedRevLex(weights, j))
            top = max((min(e[j] for e in g.terms) for g in basis), default=0)
            return (_divide_variable(ideal, weights, j, top) if top else ideal), -(-top // exps[j])
    current, steps = ideal, 0
    while (bigger := colon(current, f, weights)) != current:
        current, steps = bigger, steps + 1
    return current, steps
