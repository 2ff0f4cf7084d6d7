"""Ideal handles and the derived operations built on elimination.

Intersections use the classic single-auxiliary-variable trick, colon ideals
divide an intersection by the denominator, saturation iterates colon until
the chain stops moving, and kernels of monomial ring maps come from
eliminating the parameter block. Auxiliary variables always sit in front,
so a block order that eliminates a prefix covers every construction here.

A reduced Groebner basis restricted to the tail block of an elimination
order is again reduced for the inherited order on the subring; every
operation that ends in an elimination therefore hands its result a
ready-made degrevlex basis instead of forcing a recompute.
"""

from __future__ import annotations

from operator import add as _add
from operator import le as _le
from operator import sub as _sub
from typing import Dict, Optional, Sequence, Tuple

from .groebner import _entries, _KeyCache, _nf_dict, groebner_basis
from .order import DEGREVLEX, BlockElimination, MonomialOrder
from .poly import Polynomial


class NonTermImage(ValueError):
    """Images of a monomial ring map must be single terms c * t^w."""


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
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.field != other.field or self.nvars != other.nvars:
            return False
        return self.groebner() == other.groebner()

    def __repr__(self) -> str:
        return f"Ideal({len(self.gens)} gens, {self.field.tag}, {self.nvars} vars)"


def _lift_shift(g: Polynomial, nvars: int) -> Dict[Tuple[int, ...], object]:
    return {(0,) + e: c for e, c in g.terms.items()}


def _lift_times_t(g: Polynomial) -> Dict[Tuple[int, ...], object]:
    return {(1,) + e: c for e, c in g.terms.items()}


def eliminate(ideal: Ideal, k: int) -> Ideal:
    """Contract to the subring without the first k variables and drop them."""
    if not 0 < k < ideal.nvars:
        raise ValueError("elimination block must be a proper prefix of the variables")
    order = BlockElimination(k)
    basis = ideal.groebner(order)
    kept = []
    for g in basis:
        lm, _ = g.leading_term(order)
        if any(lm[:k]):
            continue
        kept.append(Polynomial(ideal.field, ideal.nvars - k, {e[k:]: c for e, c in g.terms.items()}))
    return Ideal._with_basis(ideal.field, ideal.nvars - k, kept, DEGREVLEX)


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """a  ∩  b via t*a + (1-t)*b in one extra variable."""
    a._check_ring(b)
    if not a.gens or not b.gens:
        return Ideal(a.field, a.nvars, ())
    field = a.field
    total = a.nvars + 1
    gens = []
    for g in a._working_gens():
        gens.append(Polynomial(field, total, _lift_times_t(g)))
    neg = field.neg
    for g in b._working_gens():
        terms = _lift_shift(g, total)
        for e, c in _lift_times_t(g).items():
            terms[e] = neg(c)  # exponent blocks cannot collide: t-degrees differ
        gens.append(Polynomial(field, total, terms))
    return eliminate(Ideal(field, total, gens), 1)


def exact_divide(g: Polynomial, f: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Quotient g / f when the division is exact; raises otherwise."""
    if not f.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    field = g.field
    keyf = _KeyCache(order.key).__getitem__
    flm, flc = f.leading_term(order)
    inv_flc = field.inv(flc)
    work = dict(g.terms)
    quotient: Dict[Tuple[int, ...], object] = {}
    zero = field.zero
    while work:
        m = max(work, key=keyf)
        c = work[m]
        if not all(map(_le, flm, m)):
            raise ValueError("polynomial is not divisible")
        qe = tuple(map(_sub, m, flm))
        qc = field.mul(c, inv_flc)
        quotient[qe] = qc
        for e, ce in f.terms.items():
            k = tuple(map(_add, e, qe))
            s = field.sub(work.get(k, zero), field.mul(qc, ce))
            if s == zero:
                work.pop(k, None)
            else:
                work[k] = s
    return Polynomial(g.field, g.nvars, quotient)


def colon(ideal: Ideal, f: Polynomial) -> Ideal:
    """The colon ideal (I : f)."""
    if f.field != ideal.field or f.nvars != ideal.nvars:
        raise ValueError("polynomial lives in a different ring")
    if not f.terms:
        raise ZeroDivisionError("colon by the zero polynomial")
    if len(f.terms) == 1 and not any(next(iter(f.terms))):
        return ideal  # colon by a unit
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


def saturate(ideal: Ideal, f: Polynomial) -> Tuple[Ideal, int]:
    """Iterate colon until stable; returns the saturation and the exponent N
    with (I : f^N) already saturated."""
    current = ideal
    steps = 0
    while True:
        bigger = colon(current, f)
        if bigger == current:
            return current, steps
        current = bigger
        steps += 1


def ring_map_kernel(images: Sequence[Polynomial]) -> Ideal:
    """Kernel of x_i -> images[i], each image a term in the parameter ring.

    The parameter variables form the leading block of a combined ring and
    get eliminated. Images must be single terms c * t^w with c nonzero.
    """
    if not images:
        raise ValueError("need at least one image")
    field = images[0].field
    aux = images[0].nvars
    n = len(images)
    total = aux + n
    gens = []
    for i, img in enumerate(images):
        if img.field != field or img.nvars != aux:
            raise ValueError("images live in different parameter rings")
        if len(img.terms) != 1:
            raise NonTermImage(f"image {i + 1} has {len(img.terms)} terms, need exactly one")
        w, c = next(iter(img.terms.items()))
        var_exps = tuple(1 if p == aux + i else 0 for p in range(total))
        t_exps = w + (0,) * n
        gens.append(Polynomial(field, total, {var_exps: field.one, t_exps: field.neg(c)}))
    return eliminate(Ideal(field, total, gens), aux)
