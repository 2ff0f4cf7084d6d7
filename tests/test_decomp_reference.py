"""The cheap proofs in decomp held against the brute-force routines they replaced.

_chain_checks proves that the isolated components meet in the hull, and
that none is redundant, from integers and one Hilbert series, and
realizes and lists no component: the hull's basis is lattice binomials,
the n - 1 generators of the character group kill the lattice, the SNF's
left transform inverts the basis of ker nu up to sign, so the d
characters have distinct residue vectors and distinct components of
degree one, and deg S counts them. _reference_character_chain is the
per-character certificate it replaced: it lists the d characters, checks
each against every column of L and compares their residue vectors
pairwise. Three older proofs stay here as references, each on the
realized components: _reference_degree_chain twists the
trivial-character kernel into every component, divides the hull by the
first one and compares deg S with the degrees and the reduced bases of
the kernels; _reference_kernel_chain intersects the kernels in one chain
of d - 1 intersections and compares the result with the hull; and
_reference_chain drops each component in turn and intersects the rest
(prefix, suffix and middle intersections). realize_over_prime_field
twists one kernel into all d; _reference_kernels eliminates once per
character. embedded_checks proves E primary to (x_1, ..., x_n) from the
positivity of L and b(n) != 0 (_primary_to_origin); _primary_to_maximal
reads finite colength off E's leading ideal, and
_reference_primary_to_maximal searches a power of every variable inside
the ideal, bounded by the dimension of the quotient. embedded_checks
reads S : x^{b(n)} = S and S ∩ E = I off the saturation of the hull by
x_1; _reference_embedded_checks computes the colon and the intersection.
verify_full_decomposition computes the hull once, as the saturation by
x_1, and proves it equal to I : x^{b(n)} and J : x^{b(n)} by one division
sweep into J = (f_1, ..., f_{n-1}); _reference_hull_checks computes the
colons I : x^{b(n)} and J : x^{b(n)} and the saturation and compares them.
Every colon and saturation of the package is graded by nu and divides a
weighted reverse-lex basis by powers of one variable; the saturation by
a power of one variable does so once, and reads its steps off the
variable's orders in that basis. hull is that saturation by x_1; the
colon I : x^{b(n)}, and the colon and the saturation with an auxiliary
variable, are its references. The two sides
must agree, on real inputs and on altered component lists.
"""

import dataclasses
import functools
import itertools
import math
import random
from collections import Counter
from operator import mul
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbideal import decomp, validate
from pcbideal.core import PcbMatrix, associated_vector, normalized_snf
from pcbideal.decomp import (
    PrimeFieldRealization,
    VerificationFailed,
    _chain_checks,
    _char2_checks,
    _hull_checks,
    _hull_swept,
    _kernel_vectors,
    _leading_monomials,
    _primary_to_origin,
    embedded_checks,
    embedded_component,
    enumerate_components,
    hull,
    least_primitive_root,
    pcb_ideal,
    realize_over_prime_field,
    socle_monomial,
    verify_full_decomposition,
)
from pcbideal.intmat import IntMatrix, lattice_contains
from pcbideal.oracle import (
    DEGREVLEX,
    GF,
    QQ,
    Ideal,
    Polynomial,
    WeightedRevLex,
    colon,
    dimension_one_degree,
    groebner_basis,
    intersect,
    normal_form,
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


def _primary_to_maximal(comp: Ideal) -> bool:
    """Whether the ideal is primary to (x_1, ..., x_n): whether the
    leading ideal holds a pure power of every variable.

    The test is exact for ideals homogeneous for the positive grading
    deg x_i = nu_i, such as I, whose generators f_j are homogeneous
    because nu L = 0, S = I : x^{b(n)}, and E = I + (x^{b(n)}), the f_j
    plus a monomial. Let J be such an ideal. If J is the whole ring its
    basis is (1), which is no pure power of a variable, and the answer
    False is right. Otherwise J lies in (x), so its zero set over the
    algebraic closure holds 0. The zero set is stable under
    x_i -> s^{nu_i} x_i, so any other point in it lies on a whole curve in
    it. Hence J is (x)-primary, that is rad J = (x), exactly when its zero
    set is finite, that is when the quotient by J is finite-dimensional.
    By Macaulay's basis theorem the standard monomials span the quotient,
    so that holds exactly when the leading ideal holds a pure power of
    every variable.
    """
    powered = set()
    for g in comp.groebner():
        lm, _ = g.leading_term(DEGREVLEX)
        support = [i for i, e in enumerate(lm) if e]
        if len(support) == 1:
            powered.add(support[0])
    return len(powered) == comp.nvars


def _reference_degree_witness(
    real: PrimeFieldRealization, S: Ideal, nu: Sequence[int], saturated: bool
) -> Optional[str]:
    """None when the degree certificate on the realized kernels proves
    S = P_1 ∩ ... ∩ P_d, else the first fact that fails: S ⊆ P_1 by
    normal forms, S ⊆ P_i by the twist from P_1 fixing S, and deg S
    against deg P_1 times the number of distinct reduced bases."""
    if not saturated:
        return "hull not saturated by x_1"
    P1 = real.kernels[0]
    hull_basis = S.groebner()
    if not all(P1.contains(g) for g in hull_basis):
        return "a hull generator has a nonzero normal form modulo component 1"
    e1 = real.specs[0].coeff_exponents
    for i, s in enumerate(real.specs[1:], start=2):
        e = [a - b for a, b in zip(s.coeff_exponents, e1)]
        if any(len({sum(map(mul, e, a)) % real.r for a in g.terms}) > 1 for g in hull_basis):
            return f"the twist to component {i} moves a hull generator"
    degree = dimension_one_degree(_leading_monomials(P1.groebner()), nu)
    if degree is None:
        return "component 1 is not of dimension one"
    # a repeated component adds no prime; irredundancy reports it
    total = degree * len({K.groebner() for K in real.kernels})
    hull_degree = dimension_one_degree(_leading_monomials(hull_basis), nu)
    if hull_degree is None:
        return "hull is not of dimension one"
    if hull_degree != total:
        return f"deg S = {hull_degree}, sum of component degrees = {total}"
    return None


def _reference_degree_chain(real: PrimeFieldRealization, I: Ideal, S: Ideal, meets: Optional[bool], nu, saturated: bool):
    """The degree certificate on the realized kernels, then irredundancy by
    a Counter of their d reduced bases. Returns the checks and the count."""
    if meets is None:
        witness = None if S == I else "hull differs from the ideal"
    else:
        witness = None if meets else "hull meets the embedded component outside the ideal"
    witness = witness or _reference_degree_witness(real, S, nu, saturated)
    if witness:
        raise VerificationFailed(f"intersection of all components is not the ideal: {witness}")
    checks = [("intersection of all components equals the ideal", True)]
    bases = Counter(K.groebner() for K in real.kernels)
    for j, K in enumerate(real.kernels):
        if bases[K.groebner()] > 1:
            raise VerificationFailed(f"component {j + 1} is redundant", index=j)
    k = len(real.kernels)
    if meets is not None:
        k += 1
        if S == I:
            raise VerificationFailed(f"component {k} is redundant", index=k - 1)
    checks.append(("every component is irredundant", True))
    return checks, k


def _reference_lattice(P: PcbMatrix, S: Ideal) -> bool:
    """The lattice check on S's reduced degrevlex basis: every element is
    x^u - x^v with u - v in the column lattice and killed by the weights."""
    m = associated_vector(P)[0]
    one = S.field.one
    for g in S.groebner():
        terms = sorted(g.terms.items(), key=lambda t: DEGREVLEX.key(t[0]), reverse=True)
        if len(terms) != 2 or terms[0][1] != one or terms[1][1] != S.field.neg(one):
            return False
        member, _ = lattice_contains(P.signed, [a - b for a, b in zip(terms[0][0], terms[1][0])])
        if not member or g.substitute_powers(m).terms:
            return False
    return True


def _reference_residue_vectors(specs, kernel) -> List[Tuple[int, ...]]:
    """(e.w_j mod r)_j for the character e of each spec and each kernel
    vector w_j: equal exactly when the components are."""
    return [tuple(sum(map(mul, s.coeff_exponents, w)) % s.root_order for w in kernel) for s in specs]


def _reference_character_witness(P, specs, kernel, distinct: int, S: Ideal, saturated: bool, lattice: bool) -> Optional[str]:
    """The witness of the per-character certificate: every listed
    character against every column of L, every kernel vector against nu,
    and deg S against the number of distinct residue vectors."""
    if not saturated:
        return "hull not saturated by x_1"
    if not lattice:
        return "hull basis is not lattice binomials"
    columns = P.signed.transpose().data
    for i, s in enumerate(specs, start=1):
        if any(sum(map(mul, s.coeff_exponents, col)) % s.root_order for col in columns):
            return f"the character of component {i} does not kill the lattice"
    nu = decomp.associated_vector(P)[2]
    if math.gcd(*nu) != 1:
        return "the weights have a common factor"
    for j, w in enumerate(kernel, start=1):
        if sum(map(mul, nu, w)):
            return f"the weights do not kill kernel vector {j}"
    order = WeightedRevLex(nu, 0)
    hull_degree = dimension_one_degree(_leading_monomials(S.groebner(order), order), nu)
    if hull_degree is None:
        return "hull is not of dimension one"
    if hull_degree != distinct:
        return f"deg S = {hull_degree}, sum of component degrees = {distinct}"
    return None


def _reference_character_chain(P, specs, I: Ideal, S: Ideal, meets: Optional[bool], saturated: bool, lattice: bool):
    """The chain certificate on a list of characters, one loop over the
    list per fact: the components meet in S when every character kills
    the lattice and deg S is the number of distinct residue vectors, and
    a repeated residue vector names the first redundant component. Reads
    the kernel vectors and the weights through decomp, so a patch there
    reaches it. Returns the checks and the count."""
    kernel = decomp._kernel_vectors(P)
    classes = _reference_residue_vectors(specs, kernel)
    if meets is None:
        witness = None if S == I else "hull differs from the ideal"
    else:
        witness = None if meets else "hull meets the embedded component outside the ideal"
    witness = witness or _reference_character_witness(P, specs, kernel, len(set(classes)), S, saturated, lattice)
    if witness:
        raise VerificationFailed(f"intersection of all components is not the ideal: {witness}")
    checks = [("intersection of all components equals the ideal", True)]
    repeats = Counter(classes)
    for j, c in enumerate(classes):
        if repeats[c] > 1:
            raise VerificationFailed(f"component {j + 1} is redundant", index=j)
    k = len(specs)
    if meets is not None:
        k += 1
        if S == I:
            raise VerificationFailed(f"component {k} is redundant", index=k - 1)
    checks.append(("every component is irredundant", True))
    return checks, k


CHECKS = [
    ("intersection of all components equals the ideal", True),
    ("every component is irredundant", True),
]


def _outcome(run) -> Tuple[Optional[str], Optional[int], Optional[int]]:
    """(message, index, None) when the proof fails, else (None, None, k).
    The message is cut before the witness, which only the degree
    certificates give."""
    try:
        k = run()
    except VerificationFailed as err:
        return str(err).split(": ")[0], err.index, None
    return None, None, k


def _rebuilt(real: PrimeFieldRealization, specs=None, trivial=None) -> PrimeFieldRealization:
    """real with other specs or another trivial kernel; its kernels are
    twisted afresh on first use."""
    return PrimeFieldRealization(
        real.p, real.r, real.zeta, real.specs if specs is None else specs, real.trivial if trivial is None else trivial
    )


@dataclasses.dataclass(frozen=True)
class Chain:
    """The chain's arguments on one input over F_p, each computed by the
    brute-force route: the realization, whose specs the per-character
    reference takes, I, the hull S as the colon I : x^{b(n)}, E (None
    for n <= 3), whether S ∩ E = I, nu, whether the saturation of I by
    x_1 is S, and whether S's reduced degrevlex basis is lattice
    binomials."""

    P: PcbMatrix
    real: PrimeFieldRealization
    I: Ideal
    S: Ideal
    E: Optional[Ideal]
    meets: Optional[bool]
    nu: Tuple[int, ...]
    saturated: bool
    lattice: bool

    def run(self):
        """The per-character reference on the realization's specs."""
        return _reference_character_chain(
            self.P, self.real.specs, self.I, self.S, self.meets, self.saturated, self.lattice
        )

    def certify(self):
        """The generator certificate of decomp, which takes no specs."""
        return _chain_checks(self.P, self.I, self.S, self.meets, self.saturated, self.lattice)

    def with_specs(self, specs) -> "Chain":
        """The same input with other characters: the realization's kernels
        are the twists of the same trivial-character kernel by them."""
        return dataclasses.replace(self, real=_rebuilt(self.real, specs=tuple(specs)))


def _new(c: Chain):
    checks, k = c.run()
    assert checks == CHECKS
    return k


def _degree_chain(c: Chain):
    checks, k = _reference_degree_chain(c.real, c.I, c.S, c.meets, c.nu, c.saturated)
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


def _setup(P, p: int) -> Chain:
    field = GF(p)
    I = pcb_ideal(P, field)
    S = colon(I, socle_monomial(P, field))
    E = embedded_component(P, field) if P.n >= 4 else None
    meets = None if E is None else intersect(S, E) == I
    saturated = saturate(I, Polynomial.variable(field, P.n, 0))[0] == S
    nu = associated_vector(P)[2]
    return Chain(P, realize_over_prime_field(P, p), I, S, E, meets, nu, saturated, _reference_lattice(P, S))


def _non_character(spec):
    """x_1 -> zeta t^{nu_1}, x_i -> t^{nu_i} otherwise: no character of the
    torsion group when r does not divide every entry of the first row of L."""
    n = len(spec.coeff_exponents)
    return spec._replace(coeff_exponents=(1,) + (0,) * (n - 1))


def _shifted_by_nu(spec, nu):
    """The character e + nu (mod r): the same on ker nu, so the same
    component, with other coefficient exponents whenever r does not
    divide every weight."""
    r = spec.root_order
    return spec._replace(coeff_exponents=tuple((e + w) % r for e, w in zip(spec.coeff_exponents, nu)))


def _certified(c: Chain):
    checks, k = c.certify()
    assert checks == CHECKS
    return k


def _agree(c: Chain):
    """The per-character reference against the three realized ones, on
    c's specs, which may be corrupted; returns the common outcome."""
    kernels = list(c.real.kernels)
    parts = kernels + ([c.E] if c.E is not None else [])
    new = _outcome(lambda: _new(c))
    assert new == _outcome(lambda: _degree_chain(c))
    assert new == _outcome(lambda: _kernel_chain(kernels, c.I, c.S, c.meets))
    assert new == _outcome(lambda: _reference_chain(parts, c.I))
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
    c = _setup(load_golden(name), p)
    expected = len(c.real.kernels) + (c.E is not None)
    assert _agree(c) == _outcome(lambda: _certified(c)) == (None, None, expected)


def test_chain_agrees_with_the_reference_on_random_n3():
    rng = random.Random(83)
    for _ in range(12):
        P = random_pcb(rng, 3, max_entry=2)
        c = _setup(P, _least_good_prime(P))
        assert _agree(c) == _outcome(lambda: _certified(c)) == (None, None, len(c.real.kernels))


def _complete_graph(n: int) -> PcbMatrix:
    return validate([[n - 1 if i == j else -1 for j in range(n)] for i in range(n)])


def _verify_inputs(P, p: int):
    """I, S, meets, the sweep and the lattice check over F_p, computed as
    verify_full_decomposition computes them."""
    field = GF(p)
    nu = associated_vector(P)[2]
    I = pcb_ideal(P, field)
    S, steps = saturate(I, Polynomial.variable(field, P.n, 0), nu)
    swept = _hull_swept(P, I, S, nu)
    meets = embedded_checks(P, I, S, embedded_component(P, field), swept)[1][1] if P.n >= 4 else None
    lattice = _hull_checks(P, I, S, steps, swept)[-1][1]
    return I, S, meets, swept, lattice


def _whole_outcome(run):
    """(message, index) when run raises VerificationFailed, witness
    included, else (checks, count)."""
    try:
        return run()
    except VerificationFailed as err:
        return str(err), err.index


def _certificate_matches_the_character_chain(P, p: int) -> int:
    """The generator certificate and the per-character reference give the
    same witness (or none) and the same count, on verify's own arguments
    and with each of the meet, the sweep and the lattice check failed;
    and the closed-form residue vectors ε((r / d_l) k_l mod r)_l equal the
    reference's, element for element. Returns d."""
    I, S, meets, swept, lattice = _verify_inputs(P, p)
    specs = enumerate_components(P)
    cases = [(meets, swept, lattice), (meets, False, lattice), (meets, swept, False)]
    if meets is not None:
        cases.append((False, swept, lattice))
    outcomes = []
    for args in cases:
        new = _whole_outcome(lambda: _chain_checks(P, I, S, *args))
        assert new == _whole_outcome(lambda: _reference_character_chain(P, specs, I, S, *args))
        outcomes.append(new)
    assert outcomes[0] == (CHECKS, len(specs) + (meets is not None))
    snf = normalized_snf(P)
    factors, kernel = snf.invariant_factors, _kernel_vectors(P)
    sign = sum(map(mul, snf.P.row(0), kernel[0]))
    r = factors[-1]
    closed = [tuple(sign * (r // dl) * kl % r for dl, kl in zip(factors, s.lambda_index)) for s in specs]
    assert closed == _reference_residue_vectors(specs, kernel)
    assert len(set(closed)) == len(specs) == associated_vector(P)[1]
    return len(specs)


@pytest.mark.parametrize("name,p", GOLDEN_CASES + [("diag_n5.json", 11)])
def test_certificate_matches_the_character_chain_on_goldens(name, p):
    _certificate_matches_the_character_chain(load_golden(name), p)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_certificate_matches_the_character_chain_on_complete_graphs(n):
    P = _complete_graph(n)
    assert _certificate_matches_the_character_chain(P, _least_good_prime(P)) == n ** (n - 2)


@pytest.mark.parametrize("n,count", [(3, 32), (4, 32), (5, 20), (6, 8)])
def test_certificate_matches_the_character_chain_on_random_inputs(n, count):
    rng = random.Random(131 + n)
    for _ in range(count):
        P = random_pcb(rng, n, max_entry=2)
        _certificate_matches_the_character_chain(P, _least_good_prime(P))


@pytest.fixture(scope="module")
def diag_n3_f7():
    return _setup(load_golden("diag_n3.json"), 7)


def test_duplicated_kernel_is_redundant(diag_n3_f7):
    c = diag_n3_f7
    doubled = c.with_specs(c.real.specs + c.real.specs[:1])
    with pytest.raises(VerificationFailed, match="component 1 is redundant") as err:
        doubled.run()
    assert err.value.index == 0
    assert _agree(doubled)[:2] == ("component 1 is redundant", 0)


def test_embedded_component_over_its_hull_is_redundant(diag_n3_f7):
    # over n = 3, S = I: any (x)-primary E containing I meets S in I and
    # adds nothing, so it must be named as the last component
    c = diag_n3_f7
    assert c.S == c.I
    field = c.I.field
    E = Ideal(field, 3, list(c.I.gens) + [Polynomial.variable(field, 3, i) for i in range(3)])
    over = dataclasses.replace(c, E=E, meets=True)
    k = len(c.real.kernels) + 1
    for run in (over.run, over.certify):
        with pytest.raises(VerificationFailed, match=f"component {k} is redundant") as err:
            run()
        assert err.value.index == k - 1
    assert _agree(over)[:2] == (f"component {k} is redundant", k - 1)


def test_wrong_kernel_breaks_the_intersection(diag_n3_f7):
    c = diag_n3_f7
    field = c.I.field
    # x1 -> 2t, x2 -> t, x3 -> t is no character of the torsion group: its
    # kernel is a prime that does not hold I. Over F_7 with r = 3, zeta = 2,
    # so it is the twist of the trivial kernel by e = (1, 0, 0)
    wrong = ring_map_kernel([Polynomial.monomial(field, 1, (1,), v) for v in (2, 1, 1)])
    assert not wrong.includes(c.I)
    swapped = c.with_specs((_non_character(c.real.specs[0]),) + c.real.specs[1:])
    assert swapped.real.kernels[0] == wrong
    with pytest.raises(VerificationFailed, match="intersection of all components is not the ideal"):
        swapped.run()
    assert _agree(swapped)[0] == "intersection of all components is not the ideal"
    dropped = c.with_specs(c.real.specs[1:])
    assert _agree(dropped)[0] == "intersection of all components is not the ideal"


def test_chain_takes_the_embedded_meet_as_given(diag_n3_f7):
    # n >= 4 reads S ∩ E = I from embedded_checks; a False there fails the chain
    failed = dataclasses.replace(diag_n3_f7, meets=False)
    for run in (failed.run, failed.certify):
        with pytest.raises(VerificationFailed, match="intersection of all components is not the ideal"):
            run()


@pytest.fixture(scope="module")
def simplest_n4_f5():
    return _setup(load_golden("simplest_n4.json"), 5)


def _fails_with(message, c: Chain, certified: bool = False):
    """The index the per-character reference names when it raises
    message on c; with certified, the generator certificate must raise
    the same message too."""
    with pytest.raises(VerificationFailed) as err:
        c.run()
    assert str(err.value) == message
    if certified:
        with pytest.raises(VerificationFailed) as new:
            c.certify()
        assert str(new.value) == message
        assert new.value.index == err.value.index
    return err.value.index


@pytest.mark.parametrize("case", ["diag_n3_f7", "simplest_n4_f5"])
def test_dropped_kernel_fails_the_degree_count(case, request):
    c = request.getfixturevalue(case)
    d = len(c.real.kernels)
    message = (
        "intersection of all components is not the ideal: "
        f"deg S = {d}, sum of component degrees = {d - 1}"
    )
    for dropped in (0, d - 1):
        rest = c.with_specs(c.real.specs[:dropped] + c.real.specs[dropped + 1 :])
        assert _fails_with(message, rest) is None
        assert _agree(rest)[0] == message.split(": ")[0]


def test_hull_of_the_wrong_degree_fails_the_degree_count(simplest_n4_f5):
    # the trivial-character component in place of the hull, with the meet,
    # the sweep and the lattice check taken as given: it lies in every
    # component and has dimension one, but degree one, not d
    c = simplest_n4_f5
    d = len(c.real.kernels)
    message = f"intersection of all components is not the ideal: deg S = 1, sum of component degrees = {d}"
    assert _fails_with(message, dataclasses.replace(c, S=c.real.trivial), certified=True) is None


@pytest.mark.parametrize("case", ["diag_n3_f7", "simplest_n4_f5"])
def test_duplicated_kernel_passes_the_degree_count_and_is_redundant(case, request):
    # the degrees are summed over distinct components, so a repeat is named
    # as redundant, not as a failed intersection
    c = request.getfixturevalue(case)
    doubled = c.with_specs(c.real.specs + c.real.specs[:1])
    assert _fails_with("component 1 is redundant", doubled) == 0
    assert _agree(doubled)[:2] == ("component 1 is redundant", 0)


@pytest.mark.parametrize("case", ["diag_n3_f7", "simplest_n4_f5"])
def test_character_repeated_modulo_ker_nu_is_redundant(case, request):
    # e + nu differs from e but agrees with it on ker nu: the same
    # component, so its first copy is named, as for a verbatim repeat
    c = request.getfixturevalue(case)
    first = c.real.specs[0]
    shifted = _shifted_by_nu(first, c.nu)
    assert shifted.coeff_exponents != first.coeff_exponents
    repeated = c.with_specs(c.real.specs + (shifted,))
    assert repeated.real.kernels[-1] == repeated.real.kernels[0]
    assert _fails_with("component 1 is redundant", repeated) == 0
    assert _agree(repeated)[:2] == ("component 1 is redundant", 0)


def test_non_character_kernel_leaves_the_hull_outside(diag_n3_f7):
    # every character is checked to kill the lattice, and the witness
    # names the first one that does not
    c = diag_n3_f7
    field = c.I.field
    wrong = ring_map_kernel([Polynomial.monomial(field, 1, (1,), v) for v in (2, 1, 1)])
    d = len(c.real.specs)
    for j in (0, d - 1):
        specs = list(c.real.specs)
        specs[j] = _non_character(specs[j])
        swapped = c.with_specs(specs)
        assert swapped.real.kernels[j] == wrong
        message = (
            "intersection of all components is not the ideal: "
            f"the character of component {j + 1} does not kill the lattice"
        )
        assert _fails_with(message, swapped) is None
        assert _agree(swapped)[0] == message.split(": ")[0]


@pytest.mark.parametrize("case", ["diag_n3_f7", "simplest_n4_f5"])
def test_wrong_trivial_kernel_leaves_the_hull_outside(case, request):
    # the realized certificate: every component is a twist of the trivial
    # kernel, so a wrong one moves them all; the one containment, modulo
    # component 1, names it, and the kernel chain agrees
    c = request.getfixturevalue(case)
    field = c.I.field
    images = [Polynomial.monomial(field, 1, (1,), v) for v in [2] + [1] * (c.I.nvars - 1)]
    wrong = dataclasses.replace(c, real=_rebuilt(c.real, trivial=ring_map_kernel(images)))
    message = (
        "intersection of all components is not the ideal: "
        "a hull generator has a nonzero normal form modulo component 1"
    )
    with pytest.raises(VerificationFailed) as err:
        _degree_chain(wrong)
    assert str(err.value) == message
    kernels = list(wrong.real.kernels)
    assert _outcome(lambda: _kernel_chain(kernels, c.I, c.S, c.meets))[0] == message.split(": ")[0]


@pytest.mark.parametrize("case", ["diag_n3_f7", "simplest_n4_f5"])
def test_unsaturated_hull_fails_the_certificate(case, request):
    c = request.getfixturevalue(case)
    assert c.saturated
    message = "intersection of all components is not the ideal: hull not saturated by x_1"
    assert _fails_with(message, dataclasses.replace(c, saturated=False), certified=True) is None


@pytest.mark.parametrize("case", ["diag_n3_f7", "simplest_n4_f5"])
def test_hull_of_other_than_lattice_binomials_fails_the_certificate(case, request):
    c = request.getfixturevalue(case)
    assert c.lattice
    message = "intersection of all components is not the ideal: hull basis is not lattice binomials"
    assert _fails_with(message, dataclasses.replace(c, lattice=False), certified=True) is None


NOT_INVERSE = (
    "intersection of all components is not the ideal: "
    "the SNF's left transform times the kernel vectors is not ±[I; 0]"
)


def test_kernel_vector_outside_ker_nu_fails_the_certificate(diag_n3_f7, monkeypatch):
    c = diag_n3_f7
    monkeypatch.setattr(decomp, "_kernel_vectors", lambda P: [(1, 0, 0), (0, 1, -1)])
    message = "intersection of all components is not the ideal: the weights do not kill kernel vector 1"
    assert _fails_with(message, c) is None
    with pytest.raises(VerificationFailed) as err:
        c.certify()
    assert str(err.value) == NOT_INVERSE
    assert err.value.index is None


@pytest.mark.parametrize("case", ["diag_n3_f7", "simplest_n4_f5"])
def test_kernel_vectors_that_do_not_invert_the_transform_fail_the_certificate(case, request, monkeypatch):
    # W with P W != ±[I; 0]: every column doubled, the first column
    # doubled, the first two swapped, or the first negated alone; each
    # still lies in ker nu, so the last row of P W stays zero
    c = request.getfixturevalue(case)
    W = _kernel_vectors(c.P)
    assert len(W) >= 2
    for wrong in (
        [tuple(2 * v for v in w) for w in W],
        [tuple(2 * v for v in W[0])] + W[1:],
        [W[1], W[0]] + W[2:],
        [tuple(-v for v in W[0])] + W[1:],
    ):
        monkeypatch.setattr(decomp, "_kernel_vectors", lambda P, wrong=wrong: wrong)
        with pytest.raises(VerificationFailed) as err:
            c.certify()
        assert str(err.value) == NOT_INVERSE
        assert err.value.index is None


def _with_left_row(snf, j: int, row):
    """snf with row j of its left transform replaced."""
    rows = snf.P.to_rows()
    rows[j] = list(row)
    return snf._replace(P=IntMatrix(rows))


@pytest.mark.parametrize("case", ["diag_n3_f7", "simplest_n4_f5"])
def test_generator_that_does_not_kill_the_lattice_fails_the_certificate(case, request, monkeypatch):
    # row_j(P) + row_1 of the identity: its product with L gains row 1 of
    # L, which no invariant factor d_j > 1 divides on these inputs, so the
    # generator (r / d_j) row_j(P) no longer kills L modulo r; the
    # characters the reference lists from it fail the lattice too
    c = request.getfixturevalue(case)
    snf = normalized_snf(c.P)
    j = next(j for j, dj in enumerate(snf.invariant_factors) if dj > 1)
    row = [v + (i == 0) for i, v in enumerate(snf.P.row(j))]
    wrong = _with_left_row(snf, j, row)
    assert any(v % snf.invariant_factors[j] for v in (wrong.P @ c.P.signed).row(j))
    monkeypatch.setattr(decomp, "normalized_snf", lambda P: wrong)
    message = (
        "intersection of all components is not the ideal: "
        f"generator {j + 1} of the character group does not kill the lattice"
    )
    with pytest.raises(VerificationFailed) as err:
        c.certify()
    assert str(err.value) == message
    assert err.value.index is None
    listed = c.with_specs(enumerate_components(c.P))
    with pytest.raises(VerificationFailed, match="does not kill the lattice$"):
        listed.run()


def test_invariant_factor_that_does_not_divide_r_fails_the_certificate(diag_n3_f7, monkeypatch):
    # (1, 3) read as (3, 1), with row_1(P) tripled so that 3 divides
    # row_1(P) L: r = 1, and (r / d_1) row_1(P) is no integer vector
    c = diag_n3_f7
    snf = normalized_snf(c.P)
    assert snf.invariant_factors == (1, 3)
    wrong = _with_left_row(snf, 0, [3 * v for v in snf.P.row(0)])._replace(invariant_factors=(3, 1))
    assert not any(v % 3 for v in (wrong.P @ c.P.signed).row(0))
    monkeypatch.setattr(decomp, "normalized_snf", lambda P: wrong)
    message = (
        "intersection of all components is not the ideal: "
        "generator 1 of the character group does not kill the lattice"
    )
    with pytest.raises(VerificationFailed) as err:
        c.certify()
    assert str(err.value) == message


def test_full_verification_lists_no_character(monkeypatch):
    # the certificate reads the n - 1 generators; the d characters are
    # listed only for decompose
    P = load_golden("simplest_n4.json")

    def forbidden(P):
        raise AssertionError("verify_full_decomposition listed the characters")

    monkeypatch.setattr(decomp, "enumerate_components", forbidden)
    report = verify_full_decomposition(P, 5)
    assert report.component_count == 17
    assert all(ok for _, ok in report.checks)


def test_weights_with_a_common_factor_fail_the_certificate(diag_n3_f7, monkeypatch):
    c = diag_n3_f7
    m, d, nu = associated_vector(c.P)
    monkeypatch.setattr(decomp, "associated_vector", lambda P: (m, d, tuple(2 * v for v in nu)))
    message = "intersection of all components is not the ideal: the weights have a common factor"
    assert _fails_with(message, c, certified=True) is None


def test_failed_meet_is_the_witness(diag_n3_f7, simplest_n4_f5):
    message = (
        "intersection of all components is not the ideal: "
        "hull meets the embedded component outside the ideal"
    )
    assert _fails_with(message, dataclasses.replace(simplest_n4_f5, meets=False), certified=True) is None
    c = diag_n3_f7
    S = Ideal(c.I.field, 3, c.I.gens[:-1])
    message = "intersection of all components is not the ideal: hull differs from the ideal"
    assert _fails_with(message, dataclasses.replace(c, S=S, meets=None), certified=True) is None


def _theory_premises(P, p: int) -> None:
    """The facts the per-character reference takes from theory, on the
    realized components: P_0 has degree one and holds S; the kernel vectors lie in
    ker nu and are ± the first n - 1 columns of the inverse of the SNF's
    left transform; and two specs, one of them a character repeated
    modulo ker nu, have equal residue vectors exactly when their twisted
    kernels have equal reduced bases."""
    field = GF(p)
    nu = associated_vector(P)[2]
    real = realize_over_prime_field(P, p)
    P0 = real.trivial.groebner()
    assert dimension_one_degree(_leading_monomials(P0), nu) == 1
    order = WeightedRevLex(nu, 0)
    S, _ = saturate(pcb_ideal(P, field), Polynomial.variable(field, P.n, 0), nu)
    assert not any(normal_form(g, P0, DEGREVLEX) for g in S.groebner(order))
    kernel = _kernel_vectors(P)
    assert len(kernel) == P.n - 1
    assert all(sum(map(mul, nu, w)) == 0 for w in kernel)
    left = normalized_snf(P).P
    product = left @ IntMatrix(list(zip(*kernel)))
    sign = product[0, 0]
    assert sign in (1, -1)
    assert product == IntMatrix([[sign if i == j else 0 for j in range(P.n - 1)] for i in range(P.n)])
    specs = real.specs + (_shifted_by_nu(real.specs[-1], nu),)
    classes = _reference_residue_vectors(specs, kernel)
    bases = [K.groebner() for K in _rebuilt(real, specs=specs).kernels]
    assert classes[-1] == classes[-2] and bases[-1] == bases[-2]
    for (a, ka), (b, kb) in itertools.combinations(zip(classes, bases), 2):
        assert (a == b) == (ka == kb)


@pytest.mark.parametrize("name,p", GOLDEN_CASES + [("diag_n5.json", 11)])
def test_theory_premises_on_goldens(name, p):
    _theory_premises(load_golden(name), p)


@pytest.mark.parametrize("n,count", [(3, 8), (4, 4), (5, 2)])
def test_theory_premises_on_random_inputs(n, count):
    # d >= 2, so there is a twist, and sum(nu) <= 200, as for the twists
    rng = random.Random(107 + n)
    seen = 0
    while seen < count:
        P = random_pcb(rng, n, max_entry=2)
        _, d, nu = associated_vector(P)
        if d < 2 or sum(nu) > 200:
            continue
        _theory_premises(P, _least_good_prime(P))
        seen += 1


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


def _origin_agrees(P, field) -> None:
    """_primary_to_origin against the leading-ideal test on E = I + (x^{b(n)})
    and on I, for any n. E is (x)-primary for n >= 3 too, where it is no
    component; for n = 2, b(n) = 0 and E is the whole ring."""
    I = pcb_ideal(P, field)
    E = Ideal(field, P.n, I.gens + (socle_monomial(P, field),))
    for J in (E, I):
        assert _primary_to_origin(P, I, J) == _primary_to_maximal(J)
    assert _primary_to_origin(P, I, E) == (P.n >= 3)


ALL_GOLDENS = ["diag_n3.json", "diag_n5.json", "n2_64.json", "n3_doubled.json", "n3_mixed.json", "onecomp_n4.json", "simplest_n4.json"]


@pytest.mark.parametrize("name", ALL_GOLDENS)
@pytest.mark.parametrize("field", [QQ, GF(2)], ids=lambda f: f.tag)
def test_primary_to_origin_agrees_with_the_leading_ideal_on_goldens(name, field):
    _origin_agrees(load_golden(name), field)


@pytest.mark.parametrize("n,count", [(4, 8), (5, 4), (6, 2)])
def test_primary_to_origin_agrees_with_the_leading_ideal_on_random_inputs(n, count):
    rng = random.Random(113 + n)
    for _ in range(count):
        P = random_pcb(rng, n, max_entry=2)
        _origin_agrees(P, QQ)
        _origin_agrees(P, GF(_least_good_prime(P)))


# every golden over Q and over its good F_p, and simplest_n4 over F_2
GOLDEN_FIELDS = [(name, f) for name, p in GOLDEN_CASES + [("diag_n5.json", 11)] for f in (QQ, GF(p))] + [
    ("simplest_n4.json", GF(2))
]
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
    assert embedded_checks(P, I, S, E, saturated) == reference
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


@pytest.mark.parametrize("name", ALL_GOLDENS)
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
        (lambda: Ideal(field, P.n, pcb_ideal(P, field).gens[:-1]), xb),
        (lambda: Ideal(field, P.n, S.groebner()), x1),
    ]
    for build, f in cases:
        assert colon(build(), f, nu).groebner() == colon(build(), f).groebner()
    graded, steps = saturate(pcb_ideal(P, field), x1, nu)
    reference, reference_steps = saturate(pcb_ideal(P, field), x1)
    assert graded.groebner() == reference.groebner() == S.groebner()
    assert steps == reference_steps
    assert (steps == 0) == (P.n <= 3)


@pytest.mark.parametrize("name,field", GOLDEN_FIELDS, ids=lambda v: getattr(v, "tag", v))
def test_graded_colon_and_saturation_match_the_auxiliary_variable_on_goldens(name, field):
    _graded_agrees(load_golden(name), field)


@pytest.mark.parametrize("n,count", [(3, 10), (4, 6), (5, 2)])
def test_graded_colon_and_saturation_match_the_auxiliary_variable_on_random_inputs(n, count):
    rng = random.Random(71 + n)
    for _ in range(count):
        P = random_pcb(rng, n, max_entry=2)
        _graded_agrees(P, QQ)
        _graded_agrees(P, GF(_least_good_prime(P)))


@st.composite
def _power_of_one_variable(draw):
    """A PCB matrix with n = 3..5, a good F_p for it, and x_j^k with k <= 3."""
    n = draw(st.integers(min_value=3, max_value=5))
    rows = []
    for i in range(n):
        off = draw(st.lists(st.integers(min_value=1, max_value=2), min_size=n - 1, max_size=n - 1))
        row = off[:i] + [sum(off)] + off[i:]
        rows.append([v if c == i else -v for c, v in enumerate(row)])
    P = validate(rows)
    j, k = draw(st.integers(min_value=0, max_value=n - 1)), draw(st.integers(min_value=1, max_value=3))
    field = GF(_least_good_prime(P))
    return P, field, Polynomial.monomial(field, n, tuple(k if i == j else 0 for i in range(n)))


@settings(max_examples=25, deadline=None)
@given(_power_of_one_variable())
def test_graded_saturation_by_a_power_of_one_variable_matches_the_auxiliary_variable(case):
    # the graded path reads N off the x_j-orders of one basis; the lifted
    # path iterates the colon until it stops moving
    P, field, f = case
    graded, steps = saturate(pcb_ideal(P, field), f, associated_vector(P)[2])
    lifted, lifted_steps = saturate(pcb_ideal(P, field), f)
    assert graded.groebner() == lifted.groebner()
    assert steps == lifted_steps


@pytest.mark.parametrize("name,field", GOLDEN_FIELDS, ids=lambda v: getattr(v, "tag", v))
def test_graded_saturation_by_x1_divides_once_on_goldens(name, field, monkeypatch):
    # one Buchberger run, then one tail reduction of the divided basis
    # exactly when I : x_1 != I, that is for n >= 4; no colon
    P = load_golden(name)
    nu = associated_vector(P)[2]
    calls = {"groebner_basis": [], "_reduce_basis": [], "colon": []}
    for attr, seen in calls.items():
        monkeypatch.setattr(oracle_ideal, attr, _counted(seen, getattr(oracle_ideal, attr)))
    _, steps = saturate(pcb_ideal(P, field), Polynomial.variable(field, P.n, 0), nu)
    assert [order for _, order in calls["groebner_basis"]] == [WeightedRevLex(nu, 0)]
    assert len(calls["_reduce_basis"]) == (P.n >= 4) == (steps > 0)
    assert calls["colon"] == []


@pytest.mark.parametrize("name,field", GOLDEN_FIELDS, ids=lambda v: getattr(v, "tag", v))
def test_hull_is_one_saturation_and_equals_the_lifted_colon_on_goldens(name, field, monkeypatch):
    P = load_golden(name)
    runs = []
    with monkeypatch.context() as m:
        m.setattr(oracle_ideal, "groebner_basis", _counted(runs, oracle_ideal.groebner_basis))
        S = hull(P, field)
    assert [order for _, order in runs] == [WeightedRevLex(associated_vector(P)[2], 0)]
    assert S.groebner() == colon(pcb_ideal(P, field), socle_monomial(P, field)).groebner()


def test_full_verification_checks_one_containment_and_intersects_nothing(monkeypatch):
    # K_5 over F_11 (d = 125): no component is realized, so nothing is
    # eliminated; the hull lies in every component by integer checks and
    # the mixedness witness is decided by normal forms against the cached
    # nu-graded bases, so no membership test runs; no colon or saturation
    # intersects
    P = load_golden("diag_n5.json")
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
    assert calls == []
    assert eliminations == []
    assert not imported


@pytest.mark.parametrize("name,p", [("diag_n3.json", 7), ("diag_n5.json", 11)])
def test_full_verification_realizes_nothing_and_runs_one_groebner_basis(name, p, monkeypatch):
    # the one Buchberger run is the saturation's, under WeightedRevLex(nu, 0):
    # no component, no degrevlex basis of I, S or E
    P = load_golden(name)
    calls = {"realize_over_prime_field": [], "ring_map_kernel": [], "groebner_basis": []}
    for module, attr in [
        (decomp, "realize_over_prime_field"),
        (decomp, "ring_map_kernel"),
        (oracle_ideal, "ring_map_kernel"),
        (oracle_ideal, "groebner_basis"),
    ]:
        monkeypatch.setattr(module, attr, _counted(calls[attr], getattr(module, attr)))
    report = verify_full_decomposition(P, p)
    assert all(ok for _, ok in report.checks)
    assert report.component_count == associated_vector(P)[1] + (P.n >= 4)
    assert calls["realize_over_prime_field"] == calls["ring_map_kernel"] == []
    assert [order for _, order in calls["groebner_basis"]] == [WeightedRevLex(associated_vector(P)[2], 0)]


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
        ("colon by x^{b(n)} agrees from I and from J", colon(Ideal(field, P.n, pcb_ideal(P, field).gens[:-1]), xb, nu) == S),
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
    swept = _hull_swept(P, I, S, nu)
    colon_hull, reference = _reference_hull_checks(P, field)
    checks = _hull_checks(P, I, S, steps, swept)
    assert checks[:2] == reference
    assert checks[-1] == ("hull basis is lattice binomials killed by the weights", _reference_lattice(P, S))
    assert checks[-1][1]
    assert S.groebner() == colon_hull.groebner()
    assert swept


@pytest.mark.parametrize("name,field", GOLDEN_FIELDS, ids=lambda v: getattr(v, "tag", v))
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
    basis = groebner_basis(pcb_ideal(P, field).gens[:-1], order)
    leads = [g.leading_term(order)[0] for g in basis]
    assert sorted(leads) == sorted(tuple(P.a[j][j] if i == j else 0 for i in range(n)) for j in range(n - 1))


@pytest.mark.parametrize("name", ALL_GOLDENS)
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
        swept = _hull_swept(P, I, S, nu)
        assert not swept
        checks = _hull_checks(P, I, S, steps, swept)
        assert [ok for _, ok in checks[:2]] == [False, False]
        assert checks[-1][1] == _reference_lattice(P, S)
        if P.n >= 4:
            E = embedded_component(P, field)
            assert [ok for _, ok in embedded_checks(P, I, S, E, swept)] == [False, False]


@pytest.mark.parametrize("name,p", [("simplest_n4.json", 5), ("diag_n5.json", 11)])
def test_failed_sweep_fails_the_chain(name, p):
    # with the embedded meet taken as given, the sweep alone stops the chain
    P = load_golden(name)
    I, _, nu, wrong = _wrong_hulls(P, GF(p))
    specs = enumerate_components(P)
    message = "intersection of all components is not the ideal: hull not saturated by x_1"
    for S in wrong:
        swept = _hull_swept(P, I, S, nu)
        lattice = _hull_checks(P, I, S, 1, swept)[-1][1]
        for run in (
            lambda: _chain_checks(P, I, S, True, swept, lattice),
            lambda: _reference_character_chain(P, specs, I, S, True, swept, lattice),
        ):
            with pytest.raises(VerificationFailed) as err:
                run()
            assert str(err.value) == message
            assert err.value.index is None


def test_failed_sweep_fails_the_char2_collapse():
    # the hull plus x1 - x4 still holds a^[4] and a^7 and lies in a, so with
    # the embedded facts taken as given the sweep alone raises
    P = load_golden("simplest_n4.json")
    field = GF(2)
    I, S, _, nu = _hull(P, field)
    wrong = Ideal(field, P.n, S.gens + (_outside_the_hull(S, field, nu),))
    E = embedded_component(P, field)
    with pytest.raises(VerificationFailed, match="^char-2 check failed: hull saturated by x_1$"):
        _char2_checks(P, I, wrong, embedded_checks(P, I, S, E, True), _hull_swept(P, I, wrong, nu))


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
    # the hull is one saturation by x_1, which runs no colon; neither
    # I : x^{b(n)} nor J : x^{b(n)} is computed, and J's generators are
    # divided by as they stand, once per element of the hull's basis, with
    # no Groebner run on them
    P = load_golden(name)
    field = GF(p)
    J = pcb_ideal(P, field).gens[:-1]
    j_order = WeightedRevLex(associated_vector(P)[2], P.n - 1)
    calls = {"colon": [], "saturate": [], "groebner_basis": [], "normal_form": []}
    for module, attr in [(oracle_ideal, "colon"), (decomp, "saturate"), (decomp, "normal_form"), (oracle_ideal, "groebner_basis")]:
        monkeypatch.setattr(module, attr, _counted(calls[attr], getattr(module, attr)))
    report = verify_full_decomposition(P, p)
    assert all(ok for _, ok in report.checks)
    assert calls["colon"] == []
    assert not hasattr(decomp, "colon")
    ((I, x1, nu),) = calls["saturate"]
    order = WeightedRevLex(nu, 0)
    basis = saturate(I, x1, nu)[0].groebner(order)
    expected = [(J, j_order)] * len(basis)
    if p != 2:
        # the good path also decides the mixedness witness, by one normal
        # form against each of the cached nu-graded bases of S and I
        expected += [(basis, order), (I.groebner(order), order)]
    assert [(tuple(divisors), o) for _, divisors, o in calls["normal_form"]] == expected
    runs = calls["groebner_basis"]
    assert runs
    assert not any(frozenset(gens) == frozenset(J) or order == j_order for gens, order in runs)

