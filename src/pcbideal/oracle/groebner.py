"""Buchberger engine producing unique reduced Groebner bases.

Pairs are taken by sugar degree and pruned by the Gebauer-Moeller update
as each basis element arrives (see _buchberger). The final basis is
minimalized, tail-reduced and sorted, so equal ideals always produce
identical output under the same order.

Exponent arithmetic stays in C: divisibility is all(map(le, a, b)), shifts,
products and lcms are tuple(map(sub | add | max, a, b)), and coprimality is
not any(map(min, a, b)). Order keys come from a _KeyCache, so each monomial's
key is computed once per run and max(work, key=keyf) is a dict lookup.
"""

from __future__ import annotations

import heapq
from operator import add as _add
from operator import le as _le
from operator import sub as _sub
from typing import Dict, List, Sequence, Tuple

from .order import MonomialOrder
from .poly import Polynomial

Terms = Dict[Tuple[int, ...], object]
Entry = Tuple[Tuple[int, ...], Terms]  # (leading monomial, monic term dict)


class _KeyCache(dict):
    """Order keys by monomial, each computed on first lookup.

    Pass `_KeyCache(order.key).__getitem__` wherever a key function is taken:
    a hit is a C-level dict lookup. A cache lives for one Groebner run or one
    division, never longer: kept on each Ideal for its containments, the
    caches of the 1296 components of K_6 over F_7 took peak memory from 23 MB
    to 97 MB for no gain in time.
    """

    __slots__ = ("keyf",)

    def __init__(self, keyf):
        super().__init__()
        self.keyf = keyf

    def __missing__(self, m):
        k = self[m] = self.keyf(m)
        return k


def _nf_dict(work: Terms, basis: Sequence[Entry], field, keyf) -> Terms:
    """Full remainder of `work` modulo monic `basis`; consumes `work`."""
    remainder: Terms = {}
    zero = field.zero
    sub = field.sub
    mul = field.mul
    while work:
        m = max(work, key=keyf)
        c = work.pop(m)
        for lm, terms in basis:
            if all(map(_le, lm, m)):
                shift = tuple(map(_sub, m, lm))
                for e, ce in terms.items():
                    if e == lm:
                        continue  # the lead cancels against the popped term
                    k = tuple(map(_add, e, shift))
                    s = sub(work.get(k, zero), mul(c, ce))
                    if s == zero:
                        work.pop(k, None)
                    else:
                        work[k] = s
                break
        else:
            remainder[m] = c
    return remainder


def _spoly_dict(f: Entry, g: Entry, field) -> Terms:
    """S-polynomial of two monic entries; the lcm terms cancel by construction."""
    (flm, fterms), (glm, gterms) = f, g
    lcm = tuple(map(max, flm, glm))
    fs = tuple(map(_sub, lcm, flm))
    gs = tuple(map(_sub, lcm, glm))
    out: Terms = {}
    zero = field.zero
    add = field.add
    sub = field.sub
    for e, c in fterms.items():
        k = tuple(map(_add, e, fs))
        s = add(out.get(k, zero), c)
        if s == zero:
            out.pop(k, None)
        else:
            out[k] = s
    for e, c in gterms.items():
        k = tuple(map(_add, e, gs))
        s = sub(out.get(k, zero), c)
        if s == zero:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _buchberger(seeds: List[Terms], field, keyf) -> List[Entry]:
    """A Groebner basis of the ideal the seeds generate.

    Pairs leave a heap by smallest sugar, then smallest lcm in the order
    (Giovini et al., "One sugar cube, please", 1991). A seed's sugar is its
    total degree; an S-polynomial's is the larger of sugar_i + deg(lcm/lm_i)
    over its pair, and a nonzero remainder keeps it. Each new element h
    prunes the pairs with the Gebauer-Moeller update ("On an installation
    of Buchberger's algorithm", 1988):
      - B: a pending pair (i, j) goes when lm_h divides its lcm strictly
        beyond lcm(i, h) and lcm(j, h), since those two pairs cover it;
      - M, F: a new pair (g, h) stays only when no other new pair's lcm
        properly divides its lcm, and then only one pair per lcm;
      - coprime: a new pair with coprime leading monomials goes, and with
        it every new pair of the same lcm or a multiple of it.
    An element whose leading monomial a later one divides leaves the result,
    but its pending pairs stay until popped or pruned, and it still serves
    as a reducer: remainders are taken modulo all of G, oldest first. On one
    t-lifted intersection over F_7, reducing by the minimal elements alone
    took 14 times as long.
    """
    G: List[Entry] = []
    sugar: List[int] = []
    live: List[int] = []
    pending: Dict[Tuple[int, int], Tuple[int, ...]] = {}  # pair -> lcm; absent once pruned
    heap: list = []

    def add(terms: Terms, s: int) -> None:
        lmh = max(terms, key=keyf)
        lc = terms[lmh]
        if lc != field.one:
            inv = field.inv(lc)
            mul = field.mul
            terms = {e: mul(c, inv) for e, c in terms.items()}
        h = len(G)
        G.append((lmh, terms))
        sugar.append(s)
        dh = sum(lmh)
        for pair in [
            (i, j)
            for (i, j), lcm in pending.items()
            if all(map(_le, lmh, lcm))
            and lcm != tuple(map(max, G[i][0], lmh))
            and lcm != tuple(map(max, G[j][0], lmh))
        ]:
            del pending[pair]
        by_lcm: Dict[Tuple[int, ...], list] = {}  # lcm -> [(g, coprime)] over live g
        for g in live:
            lmg = G[g][0]
            by_lcm.setdefault(tuple(map(max, lmg, lmh)), []).append((g, not any(map(min, lmg, lmh))))
        minimal: List[Tuple[int, ...]] = []
        for lcm in sorted(by_lcm, key=sum):
            if any(all(map(_le, m, lcm)) for m in minimal):
                continue  # M: a smaller lcm divides it
            minimal.append(lcm)
            group = by_lcm[lcm]
            if any(coprime for _, coprime in group):
                continue  # coprime, and F: the others share its lcm
            g = group[-1][0]  # F: one pair per lcm
            dl = sum(lcm)
            pair_sugar = max(sugar[g] + dl - sum(G[g][0]), s + dl - dh)
            pending[(g, h)] = lcm
            heapq.heappush(heap, (pair_sugar, keyf(lcm), g, h))
        live[:] = [g for g in live if not all(map(_le, lmh, G[g][0]))]
        live.append(h)

    for terms in seeds:
        add(terms, max(map(sum, terms)))

    while heap:
        s, _, i, j = heapq.heappop(heap)
        if pending.pop((i, j), None) is None:
            continue
        r = _nf_dict(_spoly_dict(G[i], G[j], field), G, field, keyf)
        if r:
            add(r, s)
    return [G[g] for g in live]


def _reduce_basis(G: List[Entry], field, keyf) -> List[Entry]:
    kept: List[Entry] = []
    for idx in sorted(range(len(G)), key=lambda i: keyf(G[i][0])):
        lm = G[idx][0]
        if any(all(map(_le, klm, lm)) for klm, _ in kept):
            continue
        kept.append(G[idx])
    out: List[Entry] = []
    for i, (lm, terms) in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        red = _nf_dict(dict(terms), others, field, keyf)
        out.append((lm, red))
    out.sort(key=lambda entry: keyf(entry[0]))
    return out


def groebner_basis(gens: Sequence[Polynomial], order: MonomialOrder) -> Tuple[Polynomial, ...]:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    polys = [g for g in gens if g.terms]
    if not polys:
        return ()
    field = polys[0].field
    nvars = polys[0].nvars
    for g in polys:
        if g.field != field or g.nvars != nvars:
            raise ValueError("generators live in different rings")
    keyf = _KeyCache(order.key).__getitem__
    G = _buchberger([dict(g.terms) for g in polys], field, keyf)
    reduced = _reduce_basis(G, field, keyf)
    return tuple(Polynomial(field, nvars, terms) for _, terms in reduced)


def _entries(basis: Sequence[Polynomial], order: MonomialOrder) -> List[Entry]:
    """The (leading monomial, monic terms) reducers of the nonzero elements."""
    entries: List[Entry] = []
    for g in basis:
        if g.terms:
            monic = g.monic(order)
            entries.append((max(monic.terms, key=order.key), monic.terms))
    return entries


def normal_form(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Remainder of f under multivariate division by `basis`.

    Against a Groebner basis the remainder is canonical and vanishes exactly
    for ideal members; against an arbitrary family only divisibility of the
    result is guaranteed.
    """
    for g in basis:
        if g.terms and (g.field != f.field or g.nvars != f.nvars):
            raise ValueError("basis element lives in a different ring")
    red = _nf_dict(dict(f.terms), _entries(basis, order), f.field, _KeyCache(order.key).__getitem__)
    return Polynomial(f.field, f.nvars, red)


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    f._check_ring(g)
    fm = f.monic(order)
    gm = g.monic(order)
    out = _spoly_dict(
        (max(fm.terms, key=order.key), fm.terms),
        (max(gm.terms, key=order.key), gm.terms),
        f.field,
    )
    return Polynomial(f.field, f.nvars, out)
