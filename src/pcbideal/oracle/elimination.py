"""The auxiliary-variable engine: elimination, intersection, exact
division and kernels of monomial ring maps.

Intersections use the classic single-auxiliary-variable trick, and kernels
of monomial ring maps come from eliminating the parameter block. Auxiliary
variables always sit in front, so a block order that eliminates a prefix
covers every construction here. `pcb decompose` runs it, through
ring_map_kernel, and so does colon without weights; `pcb verify` never
does, so no other command loads this module.

A reduced Groebner basis restricted to the tail block of an elimination
order is again reduced for the inherited order on the subring; every
operation that ends in an elimination therefore hands its result a
ready-made degrevlex basis instead of forcing a recompute.
"""

from __future__ import annotations

from operator import add as _add
from operator import le as _le
from operator import sub as _sub
from typing import Dict, Sequence, Tuple

from .groebner import _KeyCache
from .ideal import Ideal
from .order import DEGREVLEX, BlockElimination, MonomialOrder
from .poly import Polynomial


class NonTermImage(ValueError):
    """Images of a monomial ring map must be single terms c * t^w."""


def _lift_shift(g: Polynomial) -> Dict[Tuple[int, ...], object]:
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
        terms = _lift_shift(g)
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
