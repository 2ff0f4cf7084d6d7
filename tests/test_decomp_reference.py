"""The cheap proofs in decomp held against the brute-force routines they replaced.

_chain_checks proves that the isolated components meet in the hull by a
degree count, with the hull inside every component from one containment
and the twist, and irredundancy from primality: the isolated components
are distinct primes of dimension one holding no monomial. Two proofs it
replaced stay here as references: _reference_kernel_chain intersects the
kernels in one chain of d - 1 intersections and compares the result with
the hull, and _reference_chain drops each component in turn and
intersects the rest (prefix, suffix and middle intersections).
realize_over_prime_field twists one kernel into all d;
_reference_kernels eliminates once per character.
_primary_to_maximal reads finite colength off the leading ideal;
_reference_primary_to_maximal searches a power of every variable inside
the ideal, bounded by the dimension of the quotient. embedded_checks reads
S : x^{b(n)} = S and S ∩ E = I off the saturation of the hull by x_1;
_reference_embedded_checks computes the colon and the intersection.
verify_full_decomposition computes the hull once, as the saturation by
x_1, and proves it equal to I : x^{b(n)} and J : x^{b(n)} by one division
sweep into J = (f_1, ..., f_{n-1}); _reference_hull_checks computes the
colons I : x^{b(n)} and J : x^{b(n)} and the saturation and compares them.
Every colon and saturation of the package is graded by nu and divides a
weighted reverse-lex basis by powers of one variable; the colon and the
saturation with an auxiliary variable are its references. The two sides
must agree, on real inputs and on altered component lists.
"""

import dataclasses
import functools
import itertools
import random
from collections import Counter
from typing import List, Optional, Sequence, Tuple

import pytest

from pcbideal import decomp
from pcbideal.core import associated_vector, normalized_snf
from pcbideal.decomp import (
    VerificationFailed,
    _chain_checks,
    _char2_checks,
    _hull_checks,
    _hull_swept,
    _primary_to_maximal,
    embedded_checks,
    embedded_component,
    enumerate_components,
    least_primitive_root,
    pcb_ideal,
    realize_over_prime_field,
    socle_monomial,
    verify_full_decomposition,
)
from pcbideal.oracle import (
    DEGREVLEX,
    GF,
    QQ,
    Ideal,
    Polynomial,
    WeightedRevLex,
    colon,
    groebner_basis,
    intersect,
    ring_map_kernel,
    saturate,
)
from pcbideal.oracle import ideal as oracle_ideal

from conftest import load_golden, random_pcb


def _reference_kernels(P, p: int) -> List[Ideal]:
    """One elimination per character: the kernel of x_i -> zeta^{e_i} t^{nu_i}."""
    field = GF(p)
    specs = enumerate_components(P)
    r = specs[0].root_order
    zeta = pow(least_primitive_root(p), (p - 1) // r, p) if r > 1 else 1
    kernels = []
    for s in specs:
        images = [
            Polynomial.monomial(field, 1, (s.weights[i],), pow(zeta, s.coeff_exponents[i], p))
            for i in range(P.n)
        ]
        kernels.append(ring_map_kernel(images))
    return kernels


def _reference_kernel_chain(kernels: Sequence[Ideal], I: Ideal, S: Ideal, meets: Optional[bool]):
    """Intersect the kernels in one chain and compare with S; then the same
    irredundancy argument as _chain_checks. Returns the checks and the count."""
    whole = S == I if meets is None else meets
    if not whole or functools.reduce(intersect, kernels) != S:
        raise VerificationFailed("intersection of all components is not the ideal")
    checks = [("intersection of all components equals the ideal", True)]
    bases = Counter(K.groebner() for K in kernels)
    for j, K in enumerate(kernels):
        if bases[K.groebner()] > 1:
            raise VerificationFailed(f"component {j + 1} is redundant", index=j)
    k = len(kernels)
    if meets is not None:
        k += 1
        if S == I:
            raise VerificationFailed(f"component {k} is redundant", index=k - 1)
    checks.append(("every component is irredundant", True))
    return checks, k


def _reference_chain(parts: Sequence[Ideal], I: Ideal) -> int:
    """Intersect every component back to I, then drop each one in turn and
    check the rest no longer meet in I; returns the number of components."""
    k = len(parts)
    prefix: List[Ideal] = [parts[0]]
    for j in range(1, k):
        prefix.append(intersect(prefix[-1], parts[j]))
    suffix: List[Ideal] = [parts[-1]]
    for j in range(k - 2, -1, -1):
        suffix.append(intersect(suffix[-1], parts[j]))
    suffix.reverse()
    if prefix[-1] != I:
        raise VerificationFailed("intersection of all components is not the ideal")
    for j in range(k):
        if k == 1:
            break
        if j == 0:
            dropped = suffix[1]
        elif j == k - 1:
            dropped = prefix[k - 2]
        else:
            dropped = intersect(prefix[j - 1], suffix[j + 1])
        if dropped == I:
            raise VerificationFailed(f"component {j + 1} is redundant", index=j)
    return k


def _reference_embedded_checks(I: Ideal, S: Ideal, E: Ideal, xb: Polynomial):
    """The embedded checks with S : x^{b(n)} = S and S ∩ E = I computed."""
    verified = colon(S, xb) == S and S != I and _primary_to_maximal(E)
    return [
        ("embedded component verified", verified),
        ("hull meets embedded component in the ideal", intersect(S, E) == I),
    ]


def _pure_power_bounds(basis: Sequence[Polynomial], nvars: int) -> List[Optional[int]]:
    bounds: List[Optional[int]] = [None] * nvars
    for g in basis:
        lm, _ = g.leading_term(DEGREVLEX)
        support = [i for i, e in enumerate(lm) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
    return bounds


def _reference_primary_to_maximal(comp: Ideal) -> bool:
    """Whether every variable has a power inside the ideal, searched up to
    the dimension of the quotient."""
    basis = comp.groebner()
    n = comp.nvars
    bounds = _pure_power_bounds(basis, n)
    if any(b is None for b in bounds):
        return False
    lms = [g.leading_term(DEGREVLEX)[0] for g in basis]
    vdim = sum(
        1
        for mono in itertools.product(*(range(b) for b in bounds))
        if not any(all(a <= b for a, b in zip(lm, mono)) for lm in lms)
    )
    for i in range(n):
        x = Polynomial.variable(comp.field, n, i)
        power = x
        for _ in range(vdim + 1):
            if comp.contains(power):
                break
            power = power * x
        else:
            return False
    return True


CHECKS = [
    ("intersection of all components equals the ideal", True),
    ("every component is irredundant", True),
]


def _outcome(run) -> Tuple[Optional[str], Optional[int], Optional[int]]:
    """(message, index, None) when the proof fails, else (None, None, k).
    The message is cut before the witness, which only _chain_checks gives."""
    try:
        k = run()
    except VerificationFailed as err:
        return str(err).split(": ")[0], err.index, None
    return None, None, k


def _new(real, I, S, meets, nu, saturated):
    checks, k = _chain_checks(real, I, S, meets, nu, saturated)
    assert checks == CHECKS
    return k


def _kernel_chain(kernels, I, S, meets):
    checks, k = _reference_kernel_chain(kernels, I, S, meets)
    assert checks == CHECKS
    return k


def _least_good_prime(P) -> int:
    r = normalized_snf(P).invariant_factors[-1]
    p = r + 1
    while any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        p += r
    return p


def _setup(P, p: int):
    """The realization, I, the hull S, E (None for n <= 3), whether
    S ∩ E = I, nu, and whether the saturation of I by x_1 is S."""
    field = GF(p)
    I = pcb_ideal(P, field)
    S = colon(I, socle_monomial(P, field))
    E = embedded_component(P, field) if P.n >= 4 else None
    meets = None if E is None else intersect(S, E) == I
    saturated = saturate(I, Polynomial.variable(field, P.n, 0))[0] == S
    nu = associated_vector(P)[2]
    return realize_over_prime_field(P, p), I, S, E, meets, nu, saturated


def _with_specs(real, specs):
    """The realization with other characters: its kernels are the twists
    of the same trivial-character kernel by them."""
    return dataclasses.replace(real, specs=tuple(specs))


def _non_character(spec):
    """x_1 -> zeta t^{nu_1}, x_i -> t^{nu_i} otherwise: no character of the
    torsion group when r does not divide every entry of the first row of L."""
    n = len(spec.coeff_exponents)
    return dataclasses.replace(spec, coeff_exponents=(1,) + (0,) * (n - 1))


def _agree(real, I, S, E, meets, nu, saturated):
    kernels = list(real.kernels)
    parts = kernels + ([E] if E is not None else [])
    new = _outcome(lambda: _new(real, I, S, meets, nu, saturated))
    assert new == _outcome(lambda: _kernel_chain(kernels, I, S, meets))
    assert new == _outcome(lambda: _reference_chain(parts, I))
    return new


GOLDEN_CASES = [
    ("diag_n3.json", 7),
    ("n3_doubled.json", 7),
    ("n2_64.json", 3),
    ("onecomp_n4.json", 2),
    ("simplest_n4.json", 5),
    ("n3_mixed.json", 2),
]


@pytest.mark.parametrize("name,p", GOLDEN_CASES)
def test_chain_agrees_with_the_reference_on_goldens(name, p):
    P = load_golden(name)
    real, I, S, E, meets, nu, saturated = _setup(P, p)
    expected = len(real.kernels) + (E is not None)
    assert _agree(real, I, S, E, meets, nu, saturated) == (None, None, expected)


def test_chain_agrees_with_the_reference_on_random_n3():
    rng = random.Random(83)
    for _ in range(12):
        P = random_pcb(rng, 3, max_entry=2)
        real, I, S, E, meets, nu, saturated = _setup(P, _least_good_prime(P))
        assert _agree(real, I, S, E, meets, nu, saturated) == (None, None, len(real.kernels))


@pytest.fixture(scope="module")
def diag_n3_f7():
    return _setup(load_golden("diag_n3.json"), 7)


def test_duplicated_kernel_is_redundant(diag_n3_f7):
    real, I, S, E, meets, nu, saturated = diag_n3_f7
    doubled = _with_specs(real, real.specs + real.specs[:1])
    with pytest.raises(VerificationFailed, match="component 1 is redundant") as err:
        _chain_checks(doubled, I, S, meets, nu, saturated)
    assert err.value.index == 0
    assert _agree(doubled, I, S, E, meets, nu, saturated)[:2] == ("component 1 is redundant", 0)


def test_embedded_component_over_its_hull_is_redundant(diag_n3_f7):
    # over n = 3, S = I: any (x)-primary E containing I meets S in I and
    # adds nothing, so it must be named as the last component
    real, I, S, _, _, nu, saturated = diag_n3_f7
    assert S == I
    field = I.field
    E = Ideal(field, 3, list(I.gens) + [Polynomial.variable(field, 3, i) for i in range(3)])
    k = len(real.kernels) + 1
    with pytest.raises(VerificationFailed, match=f"component {k} is redundant") as err:
        _chain_checks(real, I, S, True, nu, saturated)
    assert err.value.index == k - 1
    assert _agree(real, I, S, E, True, nu, saturated)[:2] == (f"component {k} is redundant", k - 1)


def test_wrong_kernel_breaks_the_intersection(diag_n3_f7):
    real, I, S, E, meets, nu, saturated = diag_n3_f7
    field = I.field
    # x1 -> 2t, x2 -> t, x3 -> t is no character of the torsion group: its
    # kernel is a prime that does not hold I. Over F_7 with r = 3, zeta = 2,
    # so it is the twist of the trivial kernel by e = (1, 0, 0)
    wrong = ring_map_kernel([Polynomial.monomial(field, 1, (1,), c) for c in (2, 1, 1)])
    assert not wrong.includes(I)
    swapped = _with_specs(real, (_non_character(real.specs[0]),) + real.specs[1:])
    assert swapped.kernels[0] == wrong
    with pytest.raises(VerificationFailed, match="intersection of all components is not the ideal"):
        _chain_checks(swapped, I, S, meets, nu, saturated)
    assert _agree(swapped, I, S, E, meets, nu, saturated)[0] == "intersection of all components is not the ideal"
    dropped = _with_specs(real, real.specs[1:])
    assert _agree(dropped, I, S, E, meets, nu, saturated)[0] == "intersection of all components is not the ideal"


def test_chain_takes_the_embedded_meet_as_given(diag_n3_f7):
    # n >= 4 reads S ∩ E = I from embedded_checks; a False there fails the chain
    real, I, S, _, _, nu, saturated = diag_n3_f7
    with pytest.raises(VerificationFailed, match="intersection of all components is not the ideal"):
        _chain_checks(real, I, S, False, nu, saturated)


@pytest.fixture(scope="module")
def simplest_n4_f5():
    return _setup(load_golden("simplest_n4.json"), 5)


def _fails_with(message, real, I, S, meets, nu, saturated):
    with pytest.raises(VerificationFailed) as err:
        _chain_checks(real, I, S, meets, nu, saturated)
    assert str(err.value) == message
    return err.value.index


@pytest.mark.parametrize("case", ["diag_n3_f7", "simplest_n4_f5"])
def test_dropped_kernel_fails_the_degree_count(case, request):
    real, I, S, E, meets, nu, saturated = request.getfixturevalue(case)
    d = len(real.kernels)
    message = (
        "intersection of all components is not the ideal: "
        f"deg S = {d}, sum of component degrees = {d - 1}"
    )
    for dropped in (0, d - 1):
        rest = _with_specs(real, real.specs[:dropped] + real.specs[dropped + 1 :])
        assert _fails_with(message, rest, I, S, meets, nu, saturated) is None
        assert _agree(rest, I, S, E, meets, nu, saturated)[0] == message.split(": ")[0]


@pytest.mark.parametrize("case", ["diag_n3_f7", "simplest_n4_f5"])
def test_duplicated_kernel_passes_the_degree_count_and_is_redundant(case, request):
    # the degrees are summed over distinct components, so a repeat is named
    # as redundant, not as a failed intersection
    real, I, S, E, meets, nu, saturated = request.getfixturevalue(case)
    doubled = _with_specs(real, real.specs + real.specs[:1])
    assert _fails_with("component 1 is redundant", doubled, I, S, meets, nu, saturated) == 0
    assert _agree(doubled, I, S, E, meets, nu, saturated)[:2] == ("component 1 is redundant", 0)


def test_non_character_kernel_leaves_the_hull_outside(diag_n3_f7):
    # the first component is checked by normal forms; a later one by the
    # congruence that its twist fixes the hull, and the witness names it
    real, I, S, E, meets, nu, saturated = diag_n3_f7
    field = I.field
    wrong = ring_map_kernel([Polynomial.monomial(field, 1, (1,), c) for c in (2, 1, 1)])
    d = len(real.specs)
    witnesses = {
        0: "a hull generator has a nonzero normal form modulo component 1",
        d - 1: f"the twist to component {d} moves a hull generator",
    }
    for j, witness in witnesses.items():
        specs = list(real.specs)
        specs[j] = _non_character(specs[j])
        swapped = _with_specs(real, specs)
        assert swapped.kernels[j] == wrong
        message = f"intersection of all components is not the ideal: {witness}"
        assert _fails_with(message, swapped, I, S, meets, nu, saturated) is None
        assert _agree(swapped, I, S, E, meets, nu, saturated)[0] == message.split(": ")[0]


@pytest.mark.parametrize("case", ["diag_n3_f7", "simplest_n4_f5"])
def test_wrong_trivial_kernel_leaves_the_hull_outside(case, request):
    # every component is a twist of the trivial kernel, so a wrong one moves
    # them all; the one containment, modulo component 1, names it
    real, I, S, E, meets, nu, saturated = request.getfixturevalue(case)
    field = I.field
    images = [Polynomial.monomial(field, 1, (1,), c) for c in [2] + [1] * (I.nvars - 1)]
    wrong = dataclasses.replace(real, trivial=ring_map_kernel(images))
    message = (
        "intersection of all components is not the ideal: "
        "a hull generator has a nonzero normal form modulo component 1"
    )
    assert _fails_with(message, wrong, I, S, meets, nu, saturated) is None
    assert _agree(wrong, I, S, E, meets, nu, saturated)[0] == message.split(": ")[0]


@pytest.mark.parametrize("case", ["diag_n3_f7", "simplest_n4_f5"])
def test_unsaturated_hull_fails_the_certificate(case, request):
    real, I, S, _, meets, nu, saturated = request.getfixturevalue(case)
    assert saturated
    message = "intersection of all components is not the ideal: hull not saturated by x_1"
    assert _fails_with(message, real, I, S, meets, nu, False) is None


def test_failed_meet_is_the_witness(diag_n3_f7, simplest_n4_f5):
    real, I, S, _, _, nu, saturated = simplest_n4_f5
    message = (
        "intersection of all components is not the ideal: "
        "hull meets the embedded component outside the ideal"
    )
    assert _fails_with(message, real, I, S, False, nu, saturated) is None
    real, I, _, _, _, nu, saturated = diag_n3_f7
    S = Ideal(I.field, 3, I.gens[:-1])
    message = "intersection of all components is not the ideal: hull differs from the ideal"
    assert _fails_with(message, real, I, S, None, nu, saturated) is None


def _assert_twists_match(P, p):
    twisted = realize_over_prime_field(P, p).kernels
    reference = _reference_kernels(P, p)
    assert len(twisted) == len(reference)
    for K, R in zip(twisted, reference):
        assert [g.terms for g in K.groebner()] == [g.terms for g in R.groebner()]
    return len(twisted)


@pytest.mark.parametrize("name,p", GOLDEN_CASES + [("diag_n5.json", 11)])
def test_twisted_kernels_equal_the_per_character_eliminations(name, p):
    P = load_golden(name)
    assert _assert_twists_match(P, p) == associated_vector(P)[1]


@pytest.mark.parametrize("n,count", [(3, 12), (4, 6)])
def test_twisted_kernels_equal_the_eliminations_on_random_inputs(n, count):
    # inputs with d >= 2, where there is a twist to test, and sum(nu) <= 200,
    # which admits n = 4 curves of weight sum 84 and 105 and keeps the test
    # under a second
    rng = random.Random(97 + n)
    seen = 0
    while seen < count:
        P = random_pcb(rng, n, max_entry=2)
        _, d, nu = associated_vector(P)
        if d < 2 or sum(nu) > 200:
            continue
        assert _assert_twists_match(P, _least_good_prime(P)) == d
        seen += 1


def _ideals(P, field):
    I = pcb_ideal(P, field)
    S = colon(I, socle_monomial(P, field))
    return embedded_component(P, field), I, S


@pytest.mark.parametrize("name", ["simplest_n4.json", "onecomp_n4.json"])
@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=lambda f: f.tag)
def test_primary_to_maximal_agrees_with_the_power_search(name, field):
    E, I, S = _ideals(load_golden(name), field)
    assert [_primary_to_maximal(J) for J in (E, I, S)] == [True, False, False]
    for J in (E, I, S):
        assert _primary_to_maximal(J) == _reference_primary_to_maximal(J)


def test_primary_to_maximal_agrees_on_random_n4():
    rng = random.Random(89)
    for _ in range(15):
        P = random_pcb(rng, 4, max_entry=2)
        for J in _ideals(P, QQ):
            assert _primary_to_maximal(J) == _reference_primary_to_maximal(J)


N4_GOLDENS = [("onecomp_n4.json", 2), ("simplest_n4.json", 5), ("diag_n5.json", 11)]


def _embedded_agree(P, field, good: bool = True) -> bool:
    """embedded_checks on the boolean verify_full_decomposition hands it
    against the computed colon and intersection; returns that boolean."""
    I = pcb_ideal(P, field)
    xb = socle_monomial(P, field)
    S = colon(I, xb)
    E = embedded_component(P, field)
    x1 = Polynomial.variable(field, P.n, 0)
    saturated = saturate(I, x1)[0] == S if good else colon(S, x1) == S
    reference = _reference_embedded_checks(I, S, E, xb)
    assert embedded_checks(I, S, E, saturated) == reference
    assert saturated == (colon(S, xb) == S) == (intersect(S, E) == I)
    return saturated


@pytest.mark.parametrize("name,p", N4_GOLDENS)
def test_embedded_checks_agree_with_the_colon_and_the_meet_on_goldens(name, p):
    P = load_golden(name)
    assert _embedded_agree(P, QQ)
    assert _embedded_agree(P, GF(p))


def test_embedded_checks_agree_with_the_colon_and_the_meet_in_char_2():
    assert _embedded_agree(load_golden("simplest_n4.json"), GF(2), good=False)


@pytest.mark.parametrize("n,count", [(4, 8), (5, 2)])
def test_embedded_checks_agree_with_the_colon_and_the_meet_on_random_inputs(n, count):
    rng = random.Random(61 + n)
    for _ in range(count):
        P = random_pcb(rng, n, max_entry=2)
        assert _embedded_agree(P, QQ)
        assert _embedded_agree(P, GF(_least_good_prime(P)))


def _variable_cuts_to_the_origin(P) -> bool:
    """Lemma A's premise in embedded_checks: I + (x_k) is primary to
    (x_1, ..., x_n) for every k."""
    I = pcb_ideal(P, QQ)
    return all(
        _primary_to_maximal(Ideal(QQ, P.n, I.gens + (Polynomial.variable(QQ, P.n, k),)))
        for k in range(P.n)
    )


@pytest.mark.parametrize(
    "name", ["diag_n3.json", "diag_n5.json", "n2_64.json", "n3_doubled.json", "n3_mixed.json", "onecomp_n4.json", "simplest_n4.json"]
)
def test_one_variable_cuts_the_ideal_to_the_origin_on_goldens(name):
    assert _variable_cuts_to_the_origin(load_golden(name))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_one_variable_cuts_the_ideal_to_the_origin_on_random_inputs(n):
    rng = random.Random(67 + n)
    for _ in range(10):
        assert _variable_cuts_to_the_origin(random_pcb(rng, n, max_entry=3))


def _graded_agrees(P, field) -> None:
    """The colons I : x^{b(n)}, J : x^{b(n)} and S : x_1 and the saturation
    I : x_1^∞, graded by nu and with the auxiliary variable, each from
    fresh ideals: equal degrevlex reduced bases and equal steps."""
    nu = associated_vector(P)[2]
    xb = socle_monomial(P, field)
    x1 = Polynomial.variable(field, P.n, 0)
    S = colon(pcb_ideal(P, field), xb)
    cases = [
        (lambda: pcb_ideal(P, field), xb),
        (lambda: pcb_ideal(P, field, omit_last=True), xb),
        (lambda: Ideal(field, P.n, S.groebner()), x1),
    ]
    for build, f in cases:
        assert colon(build(), f, nu).groebner() == colon(build(), f).groebner()
    graded, steps = saturate(pcb_ideal(P, field), x1, nu)
    reference, reference_steps = saturate(pcb_ideal(P, field), x1)
    assert graded.groebner() == reference.groebner() == S.groebner()
    assert steps == reference_steps
    assert (steps == 0) == (P.n <= 3)


@pytest.mark.parametrize(
    "name,field",
    [(name, f) for name, p in GOLDEN_CASES + [("diag_n5.json", 11)] for f in (QQ, GF(p))]
    + [("simplest_n4.json", GF(2))],
    ids=lambda v: getattr(v, "tag", v),
)
def test_graded_colon_and_saturation_match_the_auxiliary_variable_on_goldens(name, field):
    _graded_agrees(load_golden(name), field)


@pytest.mark.parametrize("n,count", [(3, 10), (4, 6), (5, 2)])
def test_graded_colon_and_saturation_match_the_auxiliary_variable_on_random_inputs(n, count):
    rng = random.Random(71 + n)
    for _ in range(count):
        P = random_pcb(rng, n, max_entry=2)
        _graded_agrees(P, QQ)
        _graded_agrees(P, GF(_least_good_prime(P)))


def test_full_verification_checks_one_containment_and_intersects_nothing(monkeypatch):
    # K_5 over F_11 (d = 125): the hull lies in P_1 by |basis(S)| normal
    # forms, and the mixedness witness makes the other two membership tests;
    # no colon or saturation intersects, so the one elimination left is the
    # trivial-character kernel
    P = load_golden("diag_n5.json")
    field = GF(11)
    hull_size = len(colon(pcb_ideal(P, field), socle_monomial(P, field)).groebner())
    calls = []
    contains = Ideal.contains
    eliminations = []
    eliminate = oracle_ideal.eliminate

    def counted(self, f):
        calls.append(f)
        return contains(self, f)

    def counted_eliminate(ideal, k):
        eliminations.append(k)
        return eliminate(ideal, k)

    def forbidden(*args):
        raise AssertionError("verify_full_decomposition intersected two ideals")

    imported = hasattr(decomp, "intersect")
    monkeypatch.setattr(Ideal, "contains", counted)
    monkeypatch.setattr(oracle_ideal, "intersect", forbidden)
    monkeypatch.setattr(oracle_ideal, "eliminate", counted_eliminate)
    monkeypatch.setattr("pcbideal.oracle.intersect", forbidden)
    report = verify_full_decomposition(P, 11)
    assert report.component_count == 126
    assert all(ok for _, ok in report.checks)
    assert len(calls) <= hull_size + 2
    assert eliminations == [1]
    assert not imported


def _reference_hull_checks(P, field):
    """The three-way hull the division sweep replaced: the colons
    I : x^{b(n)} and J : x^{b(n)} and the saturation I : x_1^∞, each graded
    by nu and computed from fresh ideals. Returns the colon I : x^{b(n)} and
    the two hull checks it decides."""
    nu = associated_vector(P)[2]
    xb = socle_monomial(P, field)
    S = colon(pcb_ideal(P, field), xb, nu)
    sat, _ = saturate(pcb_ideal(P, field), Polynomial.variable(field, P.n, 0), nu)
    return S, [
        ("colon by x^{b(n)} agrees from I and from J", colon(pcb_ideal(P, field, omit_last=True), xb, nu) == S),
        ("saturation by x_1 agrees with the colon", sat == S),
    ]


def _hull(P, field):
    """I, the hull S as verify_full_decomposition computes it, the steps of
    its saturation, and nu."""
    nu = associated_vector(P)[2]
    I = pcb_ideal(P, field)
    S, steps = saturate(I, Polynomial.variable(field, P.n, 0), nu)
    return I, S, steps, nu


def _hull_agrees(P, field) -> None:
    """The sweep's booleans against the three-way reference, and the
    saturation's reduced degrevlex basis against the colon's."""
    I, S, steps, nu = _hull(P, field)
    swept = _hull_swept(P, S, nu)
    colon_hull, reference = _reference_hull_checks(P, field)
    assert _hull_checks(P, I, S, steps, swept)[:2] == reference
    assert S.groebner() == colon_hull.groebner()
    assert swept


@pytest.mark.parametrize(
    "name,field",
    [(name, f) for name, p in GOLDEN_CASES + [("diag_n5.json", 11)] for f in (QQ, GF(p))]
    + [("simplest_n4.json", GF(2))],
    ids=lambda v: getattr(v, "tag", v),
)
def test_hull_sweep_agrees_with_the_three_way_hull_on_goldens(name, field):
    _hull_agrees(load_golden(name), field)


@pytest.mark.parametrize("n,count", [(3, 10), (4, 6), (5, 2)])
def test_hull_sweep_agrees_with_the_three_way_hull_on_random_inputs(n, count):
    rng = random.Random(101 + n)
    for _ in range(count):
        P = random_pcb(rng, n, max_entry=2)
        _hull_agrees(P, QQ)
        _hull_agrees(P, GF(_least_good_prime(P)))


def _sweep_premise(P, field) -> None:
    """J = (f_1, ..., f_{n-1}) is its own Groebner basis under
    WeightedRevLex(nu, n - 1): the leading monomials are the x_j^{a_jj}."""
    n = P.n
    order = WeightedRevLex(associated_vector(P)[2], n - 1)
    basis = groebner_basis(pcb_ideal(P, field, omit_last=True).gens, order)
    leads = [g.leading_term(order)[0] for g in basis]
    assert sorted(leads) == sorted(tuple(P.a[j][j] if i == j else 0 for i in range(n)) for j in range(n - 1))


@pytest.mark.parametrize(
    "name", ["diag_n3.json", "diag_n5.json", "n2_64.json", "n3_doubled.json", "n3_mixed.json", "onecomp_n4.json", "simplest_n4.json"]
)
def test_sweep_divisors_are_a_groebner_basis_on_goldens(name):
    for field in (QQ, GF(2), GF(5)):
        _sweep_premise(load_golden(name), field)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sweep_divisors_are_a_groebner_basis_on_random_inputs(n):
    rng = random.Random(103 + n)
    for _ in range(10):
        P = random_pcb(rng, n)
        _sweep_premise(P, QQ)
        _sweep_premise(P, GF(2))


def _outside_the_hull(S, field, nu):
    """A binomial of the trivial-character prime x_i -> t^{nu_i} that the
    hull does not hold: a lattice binomial of ker nu outside J : x^{b(n)}."""
    kernel = ring_map_kernel([Polynomial.monomial(field, 1, (w,)) for w in nu])
    return next(g for g in kernel.groebner() if not S.contains(g))


def _wrong_hulls(P, field):
    """I, the hull's steps, nu and the wrong hulls: I itself (n >= 4) and the
    hull with one binomial from outside J : x^{b(n)} added."""
    I, S, steps, nu = _hull(P, field)
    wrong = [Ideal(field, P.n, S.gens + (_outside_the_hull(S, field, nu),))]
    if P.n >= 4:
        wrong.append(I)
    return I, steps, nu, wrong


@pytest.mark.parametrize(
    "name,field",
    [("simplest_n4.json", QQ), ("simplest_n4.json", GF(5)), ("simplest_n4.json", GF(2)), ("diag_n5.json", GF(11)), ("diag_n3.json", GF(7))],
    ids=lambda v: getattr(v, "tag", v),
)
def test_failed_sweep_reports_false(name, field):
    P = load_golden(name)
    I, steps, nu, wrong = _wrong_hulls(P, field)
    for S in wrong:
        swept = _hull_swept(P, S, nu)
        assert not swept
        assert [ok for _, ok in _hull_checks(P, I, S, steps, swept)[:2]] == [False, False]
        if P.n >= 4:
            E = embedded_component(P, field)
            assert [ok for _, ok in embedded_checks(I, S, E, swept)] == [False, False]


@pytest.mark.parametrize("name,p", [("simplest_n4.json", 5), ("diag_n5.json", 11)])
def test_failed_sweep_fails_the_chain(name, p):
    # with the embedded meet taken as given, the sweep alone stops the chain
    P = load_golden(name)
    I, _, nu, wrong = _wrong_hulls(P, GF(p))
    real = realize_over_prime_field(P, p)
    message = "intersection of all components is not the ideal: hull not saturated by x_1"
    for S in wrong:
        assert _fails_with(message, real, I, S, True, nu, _hull_swept(P, S, nu)) is None


def test_failed_sweep_fails_the_char2_collapse():
    # the hull plus x1 - x4 still holds a^[4] and a^7 and lies in a, so with
    # the embedded facts taken as given the sweep alone raises
    P = load_golden("simplest_n4.json")
    field = GF(2)
    I, S, _, nu = _hull(P, field)
    wrong = Ideal(field, P.n, S.gens + (_outside_the_hull(S, field, nu),))
    E = embedded_component(P, field)
    with pytest.raises(VerificationFailed, match="^char-2 check failed: hull saturated by x_1$"):
        _char2_checks(P, I, wrong, embedded_checks(I, S, E, True), _hull_swept(P, wrong, nu))


@pytest.mark.parametrize("p", [None, 5, 2])
def test_wrong_saturation_never_reports_ok(p, monkeypatch):
    # end to end: a saturation that returned the hull plus a binomial
    # outside it gives False hull and embedded checks over Q and raises
    # over F_p, good or char-2
    P = load_golden("simplest_n4.json")
    field = QQ if p is None else GF(p)
    _, steps, _, (wrong, _) = _wrong_hulls(P, field)
    monkeypatch.setattr(decomp, "saturate", lambda *args: (wrong, steps))
    names = [
        "colon by x^{b(n)} agrees from I and from J",
        "saturation by x_1 agrees with the colon",
        "embedded component verified",
        "hull meets embedded component in the ideal",
    ]
    if p is None:
        checks = dict(verify_full_decomposition(P).checks)
        assert [checks[name] for name in names] == [False] * 4
    else:
        with pytest.raises(VerificationFailed):
            verify_full_decomposition(P, p)


def _counted(calls, fn):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


@pytest.mark.parametrize("name,p", [("diag_n5.json", 11), ("simplest_n4.json", 2)])
def test_full_verification_runs_one_saturation_and_no_colon(name, p, monkeypatch):
    # the hull is one saturation by x_1; neither I : x^{b(n)} nor
    # J : x^{b(n)} is computed, and J's generators are divided by as they
    # stand, once per element of the hull's basis, with no Groebner run on
    # them
    P = load_golden(name)
    field = GF(p)
    J = pcb_ideal(P, field, omit_last=True).gens
    j_order = WeightedRevLex(associated_vector(P)[2], P.n - 1)
    calls = {"colon": [], "saturate": [], "groebner_basis": [], "normal_form": []}
    for module, attr in [(decomp, "colon"), (decomp, "saturate"), (decomp, "normal_form"), (oracle_ideal, "groebner_basis")]:
        monkeypatch.setattr(module, attr, _counted(calls[attr], getattr(module, attr)))
    report = verify_full_decomposition(P, p)
    assert all(ok for _, ok in report.checks)
    assert calls["colon"] == []
    ((I, x1, nu),) = calls["saturate"]
    hull_size = len(saturate(I, x1, nu)[0].groebner(WeightedRevLex(nu, 0)))
    assert [(tuple(divisors), order) for _, divisors, order in calls["normal_form"]] == [(J, j_order)] * hull_size
    runs = calls["groebner_basis"]
    assert runs
    assert not any(frozenset(gens) == frozenset(J) or order == j_order for gens, order in runs)

