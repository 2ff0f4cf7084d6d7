"""The Buchberger engine held against the one it replaced.

groebner._buchberger picks pairs by sugar and prunes them with the
Gebauer-Moeller update when an element arrives. _reference_buchberger is
the engine it replaced: the normal strategy (smallest lcm first), the
coprime criterion, and on each popped pair a scan over the whole basis for
the chain criterion. A reduced Groebner basis is unique, so both engines
must give identical reduced bases: on random binomial ideals, binomial
ideals plus a monomial and the t-lifted inputs of `intersect`, over GF(p)
and QQ, under degrevlex and elimination orders. Under degrevlex the bases
must also equal sympy's. On the ideals of every golden input the new engine
must make no more S-polynomials than the reference.
"""

import heapq
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbideal.decomp import embedded_component, enumerate_components, hull, pcb_ideal
from pcbideal.oracle import (
    DEGREVLEX,
    GF,
    QQ,
    BlockElimination,
    Polynomial,
    groebner_basis,
    ring_map_kernel,
)
from pcbideal.oracle import groebner as gb

from conftest import load_golden


def _reference_buchberger(seeds, field, keyf) -> List[gb.Entry]:
    G: List[gb.Entry] = []

    def append(terms) -> None:
        lm = max(terms, key=keyf)
        lc = terms[lm]
        if lc != field.one:
            inv = field.inv(lc)
            mul = field.mul
            terms = {e: mul(c, inv) for e, c in terms.items()}
        G.append((lm, terms))

    for terms in seeds:
        append(terms)

    heap: list = []
    pending = set()

    def push_pairs(j: int) -> None:
        lmj = G[j][0]
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(G[i][0], lmj))
            heapq.heappush(heap, (keyf(lcm), i, j))
            pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lmi = G[i][0]
        lmj = G[j][0]
        if all(a == 0 or b == 0 for a, b in zip(lmi, lmj)):
            continue
        lcm = tuple(max(a, b) for a, b in zip(lmi, lmj))
        settled = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if all(a <= b for a, b in zip(G[k][0], lcm)):
                p1 = (i, k) if i < k else (k, i)
                p2 = (j, k) if j < k else (k, j)
                if p1 not in pending and p2 not in pending:
                    settled = True
                    break
        if settled:
            continue
        s = gb._spoly_dict(G[i], G[j], field)
        r = gb._nf_dict(s, G, field, keyf)
        if r:
            append(r)
            push_pairs(len(G) - 1)
    return G


def _reference_basis(gens, order):
    polys = [g for g in gens if g.terms]
    field, nvars = polys[0].field, polys[0].nvars
    G = _reference_buchberger([dict(g.terms) for g in polys], field, order.key)
    return tuple(Polynomial(field, nvars, terms) for _, terms in gb._reduce_basis(G, field, order.key))


FIELDS = [GF(2), GF(3), GF(7), QQ]


@st.composite
def binomials(draw, field, nvars, count):
    out = []
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    for _ in range(count):
        a, b = draw(exps), draw(exps)
        c = draw(st.integers(min_value=1, max_value=4))
        f = Polynomial.from_terms(field, nvars, [(1, a), (-c, b)])
        if f.terms:
            out.append(f)
    return out


@st.composite
def binomial_inputs(draw):
    """(generators, order): binomials, binomials plus a monomial, or the
    t-lifted generators t*a, (1 - t)*b of an intersection."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["binomial", "plus monomial", "t-lifted"]))
    if kind == "t-lifted":
        nvars = draw(st.integers(min_value=2, max_value=3))
        a = draw(binomials(field, nvars, draw(st.integers(min_value=1, max_value=2))))
        b = draw(binomials(field, nvars, draw(st.integers(min_value=1, max_value=2))))
        gens = [Polynomial(field, nvars + 1, {(1,) + e: c for e, c in f.terms.items()}) for f in a]
        for f in b:
            terms = {(0,) + e: c for e, c in f.terms.items()}
            terms.update({(1,) + e: field.neg(c) for e, c in f.terms.items()})
            gens.append(Polynomial(field, nvars + 1, terms))
        return gens, BlockElimination(1)
    nvars = draw(st.integers(min_value=2, max_value=4))
    gens = draw(binomials(field, nvars, draw(st.integers(min_value=1, max_value=4))))
    if kind == "plus monomial":
        m = draw(st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars))
        gens.append(Polynomial.monomial(field, nvars, m))
    block = draw(st.integers(min_value=0, max_value=nvars - 1))
    return gens, BlockElimination(block) if block else DEGREVLEX


@settings(max_examples=150, deadline=None)
@given(binomial_inputs())
def test_engine_matches_the_reference(case):
    gens, order = case
    if not gens:
        return
    assert groebner_basis(gens, order) == _reference_basis(gens, order)


@st.composite
def degrevlex_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.integers(min_value=2, max_value=4))
    gens = draw(binomials(GF(p), nvars, draw(st.integers(min_value=1, max_value=4))))
    if draw(st.booleans()):
        m = draw(st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars))
        gens.append(Polynomial.monomial(GF(p), nvars, m))
    return p, nvars, gens


@settings(max_examples=40, deadline=None)
@given(degrevlex_inputs())
def test_engine_matches_sympy_grevlex(case):
    sympy = pytest.importorskip("sympy")
    p, nvars, gens = case
    if not gens:
        return
    xs = sympy.symbols(f"x0:{nvars}")
    exprs = [
        sum(int(c) * sympy.prod([x**e for x, e in zip(xs, exps)]) for exps, c in g.terms.items())
        for g in gens
    ]
    theirs = sympy.groebner(exprs, *xs, order="grevlex", modulus=p)
    expected = {
        frozenset((tuple(exps), int(c) % p) for exps, c in g.terms())
        for g in theirs.polys
    }
    ours = {frozenset(g.terms.items()) for g in groebner_basis(gens, DEGREVLEX)}
    assert ours == expected


GOLDEN_CASES = [
    ("diag_n3.json", 7),
    ("n3_doubled.json", 7),
    ("n2_64.json", 3),
    ("onecomp_n4.json", 2),
    ("simplest_n4.json", 5),
    ("n3_mixed.json", 2),
    ("diag_n5.json", 11),
]


def _golden_ideals(P, field):
    """I, S, E (n >= 4) and the trivial-character kernel, each built afresh."""
    yield "I", lambda: pcb_ideal(P, field).groebner()
    yield "S", lambda: hull(P, field).groebner()
    if P.n >= 4:
        yield "E", lambda: embedded_component(P, field).groebner()
    weights = enumerate_components(P)[0].weights
    yield "kernel", lambda: ring_map_kernel(
        [Polynomial.monomial(field, 1, (w,)) for w in weights]
    ).groebner()


@pytest.mark.parametrize("name,p", GOLDEN_CASES)
def test_engine_makes_no_more_spolynomials_on_goldens(name, p, monkeypatch):
    count = [0]
    spoly = gb._spoly_dict

    def counted(*args):
        count[0] += 1
        return spoly(*args)

    monkeypatch.setattr(gb, "_spoly_dict", counted)
    engine = gb._buchberger
    for label, build in _golden_ideals(load_golden(name), GF(p)):
        count[0] = 0
        ours, new = build(), count[0]
        monkeypatch.setattr(gb, "_buchberger", _reference_buchberger)
        count[0] = 0
        theirs, old = build(), count[0]
        monkeypatch.setattr(gb, "_buchberger", engine)
        assert ours == theirs, label
        assert new <= old, (label, new, old)
