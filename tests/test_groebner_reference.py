"""The Buchberger engine held against the one it replaced.

groebner._buchberger picks pairs by sugar and prunes them with the
Gebauer-Moeller update when an element arrives. _reference_buchberger is
the engine it replaced: the normal strategy (smallest lcm first), the
coprime criterion, and on each popped pair a scan over the whole basis for
the chain criterion. It divides, builds S-polynomials and reduces with its
own generator-based kernels (_reference_nf, _reference_spoly,
_reference_reduce), not with the engine's C-level exponent arithmetic and
key cache, so the comparison never holds the engine against itself.

A reduced Groebner basis is unique, so both engines must give identical
reduced bases: on random binomial ideals, binomial ideals plus a monomial
and the t-lifted inputs of `intersect`, over GF(p) and QQ, under degrevlex
and elimination orders. Under degrevlex the bases must also equal sympy's,
and normal_form must give the reference division's remainder. On the ideals
of every golden input the new engine must make no more S-polynomials than
the reference, and its S-polynomials, reductions to zero, elements added
and largest basis are pinned exactly.
"""

import heapq
import sys
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
    normal_form,
    ring_map_kernel,
)
from pcbideal.oracle import groebner as gb

from conftest import load_golden


def _reference_nf(work, basis, field, keyf):
    """Full remainder of `work` modulo monic `basis`; consumes `work`."""
    remainder = {}
    zero = field.zero
    sub = field.sub
    mul = field.mul
    while work:
        m = max(work, key=keyf)
        c = work.pop(m)
        for lm, terms in basis:
            if all(a <= b for a, b in zip(lm, m)):
                shift = tuple(b - a for a, b in zip(lm, m))
                for e, ce in terms.items():
                    if e == lm:
                        continue
                    k = tuple(a + b for a, b in zip(e, shift))
                    s = sub(work.get(k, zero), mul(c, ce))
                    if s == zero:
                        work.pop(k, None)
                    else:
                        work[k] = s
                break
        else:
            remainder[m] = c
    return remainder


def _reference_spoly(f, g, field):
    (flm, fterms), (glm, gterms) = f, g
    lcm = tuple(max(a, b) for a, b in zip(flm, glm))
    fs = tuple(l - a for l, a in zip(lcm, flm))
    gs = tuple(l - a for l, a in zip(lcm, glm))
    out = {}
    zero = field.zero
    add = field.add
    sub = field.sub
    for e, c in fterms.items():
        k = tuple(a + b for a, b in zip(e, fs))
        s = add(out.get(k, zero), c)
        if s == zero:
            out.pop(k, None)
        else:
            out[k] = s
    for e, c in gterms.items():
        k = tuple(a + b for a, b in zip(e, gs))
        s = sub(out.get(k, zero), c)
        if s == zero:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _reference_reduce(G, field, keyf):
    kept = []
    for idx in sorted(range(len(G)), key=lambda i: keyf(G[i][0])):
        lm = G[idx][0]
        if any(all(a <= b for a, b in zip(klm, lm)) for klm, _ in kept):
            continue
        kept.append(G[idx])
    out = []
    for i, (lm, terms) in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        out.append((lm, _reference_nf(dict(terms), others, field, keyf)))
    out.sort(key=lambda entry: keyf(entry[0]))
    return out


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
        s = _reference_spoly(G[i], G[j], field)
        r = _reference_nf(s, G, field, keyf)
        if r:
            append(r)
            push_pairs(len(G) - 1)
    return G


def _reference_basis(gens, order):
    polys = [g for g in gens if g.terms]
    field, nvars = polys[0].field, polys[0].nvars
    G = _reference_buchberger([dict(g.terms) for g in polys], field, order.key)
    return tuple(Polynomial(field, nvars, terms) for _, terms in _reference_reduce(G, field, order.key))


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


def _monic_entries(basis, order):
    entries = []
    for g in basis:
        monic = g.monic(order)
        entries.append((max(monic.terms, key=order.key), monic.terms))
    return entries


@settings(max_examples=100, deadline=None)
@given(binomial_inputs(), st.data())
def test_normal_form_matches_the_reference_division(case, data):
    """Division by the drawn family, whose remainder depends on the reducer
    scan, and by its reduced basis; f is a monomial multiple of a generator
    plus a few drawn terms."""
    gens, order = case
    if not gens:
        return
    field, nvars = gens[0].field, gens[0].nvars
    exps = st.tuples(*[st.integers(min_value=0, max_value=4)] * nvars)
    g = data.draw(st.sampled_from(gens))
    f = Polynomial.monomial(field, nvars, data.draw(exps)) * g + Polynomial.from_terms(
        field, nvars, data.draw(st.lists(st.tuples(st.integers(1, 6), exps), max_size=4))
    )
    for basis in (gens, groebner_basis(gens, order)):
        expected = _reference_nf(dict(f.terms), _monic_entries(basis, order), field, order.key)
        assert normal_form(f, basis, order) == Polynomial(field, nvars, expected)


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

    def counting(spoly):
        def counted(*args):
            count[0] += 1
            return spoly(*args)

        return counted

    monkeypatch.setattr(gb, "_spoly_dict", counting(gb._spoly_dict))
    monkeypatch.setattr(sys.modules[__name__], "_reference_spoly", counting(_reference_spoly))
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


def _engine_work(build, monkeypatch):
    """(S-polynomials, reductions to zero, elements added, largest basis grown)
    over the Buchberger runs of build(): the first three summed, the last
    the largest final G of any one run."""
    work = {"spolys": 0, "zeros": 0, "added": 0, "largest": 0}
    reducing = [False]
    spoly, nf, engine = gb._spoly_dict, gb._nf_dict, gb._buchberger

    def counted_spoly(*args):
        work["spolys"] += 1
        reducing[0] = True  # _buchberger divides each S-polynomial right away
        return spoly(*args)

    def counted_nf(*args):
        r = nf(*args)
        if reducing[0]:
            reducing[0] = False
            work["zeros"] += not r
        return r

    def counted_engine(seeds, *args):
        kept = work["spolys"] - work["zeros"]
        G = engine(seeds, *args)
        grown = len(seeds) + work["spolys"] - work["zeros"] - kept  # G never shrinks
        work["added"] += grown
        work["largest"] = max(work["largest"], grown)
        return G

    with monkeypatch.context() as m:
        m.setattr(gb, "_spoly_dict", counted_spoly)
        m.setattr(gb, "_nf_dict", counted_nf)
        m.setattr(gb, "_buchberger", counted_engine)
        build()
    return tuple(work.values())


# (S-polynomials, reductions to zero, elements added, largest basis grown) of
# the engine on each golden ideal, recorded before its exponent arithmetic
# moved to C: any change in pair selection or reducer choice moves them.
PINNED_WORK = {
    "diag_n3.json": {"I": (2, 2, 3, 3), "S": (12, 7, 9, 9), "kernel": (2, 0, 5, 5)},
    "n3_doubled.json": {"I": (2, 2, 3, 3), "S": (12, 7, 9, 9), "kernel": (2, 0, 5, 5)},
    "n2_64.json": {"I": (1, 1, 2, 2), "S": (1, 1, 2, 2), "kernel": (5, 2, 5, 5)},
    "onecomp_n4.json": {
        "I": (24, 17, 11, 11), "S": (76, 55, 26, 26), "E": (41, 30, 16, 16), "kernel": (103, 68, 39, 39),
    },
    "simplest_n4.json": {
        "I": (12, 9, 7, 7), "S": (56, 40, 21, 21), "E": (34, 25, 14, 14), "kernel": (3, 0, 7, 7),
    },
    "n3_mixed.json": {"I": (2, 2, 3, 3), "S": (15, 9, 10, 10), "kernel": (17, 9, 11, 11)},
    "diag_n5.json": {
        "I": (92, 70, 27, 27), "S": (267, 212, 61, 61), "E": (193, 153, 46, 46), "kernel": (4, 0, 9, 9),
    },
}


@pytest.mark.parametrize("name,p", GOLDEN_CASES)
def test_engine_work_is_pinned_on_goldens(name, p, monkeypatch):
    work = {
        label: _engine_work(build, monkeypatch)
        for label, build in _golden_ideals(load_golden(name), GF(p))
    }
    assert work == PINNED_WORK[name]
