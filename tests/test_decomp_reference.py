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
The sweep rewrites exponent vectors and forms no polynomial;
_reference_hull_swept forms each x^{b(n)} g as a polynomial and divides
it by normal_form, and _reference_lattice sorts each basis element's
terms, maps it by x_i -> t^{m_i} and solves for u - v in the lattice by
a fresh Smith form, where _lattice_binomials reads the leading monomial
once, compares m.u with m.v and reads u - v in L off the sweep, solving
by lattice_contains only when the sweep failed.
Every colon and saturation of the package is graded by nu and divides a
weighted reverse-lex basis by powers of one variable; the saturation by
a power of one variable does so once, and reads its steps off the
variable's orders in that basis. hull is that saturation by x_1; the
colon I : x^{b(n)}, and the colon and the saturation with an auxiliary
variable, are its references. When p divides r = q r′, q the p-part of
r, _chain_checks proves the hull the meet of d′ primary components, one
for each character of the part of the torsion group prime to p, from
n - 1 normal forms of Frobenius powers x^{r w+} - x^{r w-};
_reference_primary_hull realizes those d′ primes, one elimination each,
and checks that they are distinct, that each holds S and that the image
of their meet's basis under x_i -> x_i^q lies in S. The two sides must
agree, on real inputs and on altered component lists.
"""

import dataclasses
import functools
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbideal import decomp, decompose, intmat, validate
from pcbideal.core import PcbMatrix, associated_vector, normalized_snf
from pcbideal.decomp import (
    VerificationFailed,
    _chain_checks,
    _hull_checks,
    _hull_record,
    _hull_swept,
    _intersection_witness,
    _kernel_vectors,
    _lattice_binomials,
    _leading_monomials,
    _primary_to_origin,
    embedded_checks,
    hull,
    pcb_ideal,
    unmixedness_test,
    verify_full_decomposition,
)
from pcbideal.decompose import (
    ComponentSpec,
    PrimeFieldRealization,
    embedded_component,
    enumerate_components,
    least_primitive_root,
    realize_over_prime_field,
    socle_monomial,
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
    normal_form,
    saturate,
)
from pcbideal.oracle import elimination
from pcbideal.oracle import ideal as oracle_ideal
from pcbideal.oracle.elimination import intersect, ring_map_kernel

from conftest import load_golden, random_pcb


def _eliminated(p: int, zeta: int, spec, scale: Optional[Sequence[int]] = None) -> Ideal:
    """One elimination: the kernel of x_i -> scale_i zeta^{e_i} t^{nu_i}
    over F_p, for e the character of spec and scale all ones by default."""
    field = GF(p)
    scale = scale or [1] * len(spec.weights)
    return ring_map_kernel([
        Polynomial.monomial(field, 1, (w,), c * pow(zeta, e, p))
        for c, e, w in zip(scale, spec.coeff_exponents, spec.weights)
    ])


def _reference_kernels(P, p: int) -> List[Ideal]:
    """One elimination per character: the kernel of x_i -> zeta^{e_i} t^{nu_i}."""
    specs = enumerate_components(P)
    r = specs[0].root_order
    zeta = pow(least_primitive_root(p), (p - 1) // r, p) if r > 1 else 1
    return [_eliminated(p, zeta, s) for s in specs]


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
        if any(len({sum(map(mul, e, a)) % s.root_order for a in g.terms}) > 1 for g in hull_basis):
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


def _reference_lattice_binomial(P: PcbMatrix, g: Polynomial, order) -> bool:
    """Whether g is x^u - x^v, x^u its leading monomial under the order,
    with u - v in the column lattice and killed by the weights: its terms
    sorted by the order's key, a fresh Smith form of L, and the image
    under x_i -> t^{m_i} as a polynomial."""
    one = g.field.one
    terms = sorted(g.terms.items(), key=lambda t: order.key(t[0]), reverse=True)
    if len(terms) != 2 or terms[0][1] != one or terms[1][1] != g.field.neg(one):
        return False
    member, _ = lattice_contains(P.signed, [a - b for a, b in zip(terms[0][0], terms[1][0])])
    return member and not g.substitute_powers(associated_vector(P)[0]).terms


def _reference_lattice(P: PcbMatrix, S: Ideal, order=DEGREVLEX) -> bool:
    """The lattice check on S's reduced basis under the order, degrevlex
    unless given: every element is x^u - x^v with u - v in the column
    lattice and killed by the weights."""
    return all(_reference_lattice_binomial(P, g, order) for g in S.groebner(order))


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


def _rebuilt(real: PrimeFieldRealization, specs, scale: Optional[Sequence[int]] = None) -> PrimeFieldRealization:
    """real with other specs, or with every map scaled by x_i -> scale_i x_i:
    a kernel real already holds is reused, and any other is eliminated
    afresh."""
    known = {} if scale else {s.coeff_exponents: K for s, K in zip(real.specs, real.kernels)}
    kernels = [
        known[s.coeff_exponents] if s.coeff_exponents in known else _eliminated(real.p, real.zeta, s, scale)
        for s in specs
    ]
    return real._replace(specs=tuple(specs), kernels=tuple(kernels))


@dataclasses.dataclass(frozen=True)
class Chain:
    """The chain's arguments on one input over F_p, each computed by the
    brute-force route: the realization, whose specs the per-character
    reference takes, I, the hull S as the colon I : x^{b(n)}, E (None
    for n <= 3), whether S ∩ E = I, nu, whether the saturation of I by
    x_1 is S, and whether S's reduced degrevlex basis is lattice
    binomials. The references read meets; the certificate reads
    saturated alone, which for n >= 4 also decides the meet."""

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

    @functools.cached_property
    def hull(self):
        """The hull record of S, with saturated and lattice in place of
        its own sweep and lattice check."""
        return _hull_record(self.P, self.I, self.S)._replace(swept=self.saturated, lattice=self.lattice)

    def certify(self):
        """The generator certificate of decomp, which takes no specs."""
        return _chain_checks(self.P, self.hull, 1)

    def with_specs(self, specs) -> "Chain":
        """The same input with other characters and their kernels."""
        return dataclasses.replace(self, real=_rebuilt(self.real, specs))


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
    assert meets in (None, saturated)
    nu = associated_vector(P)[2]
    c = Chain(P, realize_over_prime_field(P, p), I, S, E, meets, nu, saturated, _reference_lattice(P, S))
    # the record's own sweep and lattice check agree with the brute-force
    # ones; built here, it is clear of the patches a test makes to decomp
    assert c.hull == _hull_record(P, I, S)
    return c


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
    """I and the hull record (_hull_record) over F_p, computed as
    verify_full_decomposition computes them."""
    field = GF(p)
    I = pcb_ideal(P, field)
    S, _ = saturate(I, Polynomial.variable(field, P.n, 0), associated_vector(P)[2])
    return I, _hull_record(P, I, S)


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
    and with each of the sweep and the lattice check failed; the
    reference takes the sweep as the meet for n >= 4, as verify does; and
    the closed-form residue vectors ε((r / d_l) k_l mod r)_l equal the
    reference's, element for element. Returns d."""
    I, H = _verify_inputs(P, p)
    S = H.S
    specs = enumerate_components(P)
    outcomes = []
    for swept, lattice in [(H.swept, H.lattice), (False, H.lattice), (H.swept, False)]:
        meets = swept if P.n >= 4 else None
        new = _whole_outcome(lambda: _chain_checks(P, H._replace(swept=swept, lattice=lattice), 1))
        assert new == _whole_outcome(lambda: _reference_character_chain(P, specs, I, S, meets, swept, lattice))
        outcomes.append(new)
    assert outcomes[0] == (CHECKS, len(specs) + (P.n >= 4))
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


def _p_prime_kernels(P, p: int) -> List[Ideal]:
    """The d′ primes of the characters of the part of the torsion group
    prime to p, over F_p, one elimination each: for r = q r′, q the
    p-part of r, the kernels of x_i -> zeta^{e_i} t^{nu_i}, zeta a
    primitive r′-th root of unity and e = Σ_j k_j (r′ / d′_j) row_j(P)
    mod r′, 0 <= k_j < d′_j, d′_j the part of d_j prime to p. For r a
    power of p this is the one trivial-character prime P_0."""
    snf = normalized_snf(P)
    rest = decomp._prime_to(snf.invariant_factors[-1], p)
    zeta = pow(least_primitive_root(p), (p - 1) // rest, p)
    parts = [decomp._prime_to(dj, p) for dj in snf.invariant_factors]
    columns = list(zip(*([(rest // dj) * v for v in row] for dj, row in zip(parts, snf.P.data))))
    nu = associated_vector(P)[2]
    return [
        _eliminated(p, zeta, ComponentSpec(k, tuple(sum(map(mul, k, col)) % rest for col in columns), nu, rest))
        for k in itertools.product(*(range(dj) for dj in parts))
    ]


def _reference_primary_hull(P, p: int, q: int) -> bool:
    """Whether the hull over F_p is the meet of primary components of the
    realized primes of _p_prime_kernels, up to the exponent q: the primes
    are pairwise distinct, each holds S, and the image g^[q] of every
    element g of their meet's reduced basis, x_i -> x_i^q, lies in S. For
    q a power of p, g^[q] = g^q, so then (P_1 ∩ ... ∩ P_{d′})^[q] ⊆ S and
    rad S = P_1 ∩ ... ∩ P_{d′}."""
    field = GF(p)
    S = hull(P, field)
    primes = _p_prime_kernels(P, p)
    meet = functools.reduce(intersect, primes)
    images = [Polynomial(field, P.n, {tuple(q * e for e in a): c for a, c in g.terms.items()}) for g in meet.groebner()]
    return (
        all(a != b for a, b in itertools.combinations(primes, 2))
        and all(k.includes(S) for k in primes)
        and all(S.contains(g) for g in images)
    )


def _p_group_certificate_agrees(P, p: int) -> None:
    """verify over F_p, r a power of p, accepts with one isolated component,
    and the reference holds; with the exponent r / p in place of r (when
    it is above 1) the chain raises the Frobenius witness and the
    reference fails: the exponent is sharp."""
    r = normalized_snf(P).invariant_factors[-1]
    report = verify_full_decomposition(P, p)
    assert report.component_count == 1 + (P.n >= 4)
    assert all(ok for _, ok in report.checks)
    assert _reference_primary_hull(P, p, r)
    if r > p:
        _, H = _verify_inputs(P, p)
        with pytest.raises(VerificationFailed, match=f"to the power {r // p} is not in the hull$"):
            _chain_checks(P, H, r // p)
        assert not _reference_primary_hull(P, p, r // p)


P_GROUP_GOLDENS = [("simplest_n4.json", 2), ("diag_n3.json", 3), ("n2_64.json", 2), ("diag_n5.json", 5)]


@pytest.mark.parametrize("name,p", P_GROUP_GOLDENS)
def test_p_group_certificate_agrees_with_the_realized_prime_on_goldens(name, p):
    _p_group_certificate_agrees(load_golden(name), p)


@pytest.mark.parametrize("n,p", [(4, 2), (5, 5)])
def test_p_group_certificate_agrees_with_the_realized_prime_on_complete_graphs(n, p):
    _p_group_certificate_agrees(_complete_graph(n), p)


@pytest.mark.parametrize("n", [3, 4])
def test_p_group_certificate_agrees_with_the_realized_prime_on_random_inputs(n):
    # 60 seeded inputs per n whose r is a power of a prime p and d <= 400
    rng = random.Random(151 + n)
    seen, exponents = 0, set()
    while seen < 60:
        P = random_pcb(rng, n, max_entry=3)
        r = normalized_snf(P).invariant_factors[-1]
        primes = decompose._prime_factors(r)
        if len(primes) == 1 and associated_vector(P)[1] <= 400:
            _p_group_certificate_agrees(P, primes[0])
            seen += 1
            exponents.add(r > primes[0])
    assert exponents == {False, True}


def test_frobenius_exponent_r_over_p_fails_the_certificate(monkeypatch):
    # simplest_n4 over F_2 has r = 4; the exponent 2 leaves
    # x^{2 w_2+} - x^{2 w_2-} outside the hull (w_1 lies in L, d_1 = 1)
    P = load_golden("simplest_n4.json")
    monkeypatch.setattr(decomp, "prime_field_for", lambda P, p: (GF(2), 2))
    with pytest.raises(VerificationFailed) as err:
        verify_full_decomposition(P, 2)
    assert str(err.value) == (
        "intersection of all components is not the ideal: kernel binomial 2 to the power 2 is not in the hull"
    )


def _mixed_certificate_agrees(P, p: int) -> int:
    """verify over F_p, p | r = q r′ with q the p-part of r and r′ > 1,
    accepts with d′ isolated components, d′ the part of d prime to p; the
    reference holds with the exponent q and fails with q / p; and the
    chain raises the Frobenius witness with the exponent r / p and with q
    alone in place of r: r is sharp. Returns d′."""
    r = normalized_snf(P).invariant_factors[-1]
    q = r // decomp._prime_to(r, p)
    assert q > 1 and r > q
    report = verify_full_decomposition(P, p)
    count = decomp._prime_to(associated_vector(P)[1], p)
    assert report.component_count == count + (P.n >= 4)
    assert all(ok for _, ok in report.checks)
    assert _reference_primary_hull(P, p, q)
    assert not _reference_primary_hull(P, p, q // p)
    _, H = _verify_inputs(P, p)
    for exponent in (r // p, q):
        with pytest.raises(VerificationFailed, match=f"to the power {exponent} is not in the hull$"):
            _chain_checks(P, H, exponent)
    return count


def test_mixed_certificate_agrees_with_the_realized_primes_on_n3_doubled():
    # r = 6 over F_3: q = 3, r′ = 2, d = 12 and d′ = 4
    assert _mixed_certificate_agrees(load_golden("n3_doubled.json"), 3) == 4


def test_mixed_certificate_counts_the_p_prime_part_on_k6():
    # K_6 over F_3: d = 6^4, d′ = 2^4, and 17 components with E
    report = verify_full_decomposition(_complete_graph(6), 3)
    assert all(ok for _, ok in report.checks)
    assert report.component_count == 17


def test_mixed_certificate_agrees_with_the_realized_primes_on_random_inputs():
    # 60 seeded n = 3, 4 inputs whose r has two prime factors and d <= 400,
    # each at every p | r with p = 1 (mod r′)
    rng = random.Random(161)
    seen, draws = Counter(), 0
    while sum(seen.values()) < 60:
        n = 3 + draws % 2
        draws += 1
        P = random_pcb(rng, n, max_entry=3)
        r = normalized_snf(P).invariant_factors[-1]
        primes = decompose._prime_factors(r)
        accepted = [p for p in primes if (p - 1) % decomp._prime_to(r, p) == 0]
        if len(primes) == 2 and accepted and associated_vector(P)[1] <= 400:
            for p in accepted:
                _mixed_certificate_agrees(P, p)
            seen[n] += 1
    assert set(seen) == {3, 4}


@pytest.mark.parametrize("exponent", [2, 3])
def test_frobenius_exponent_below_r_fails_the_mixed_certificate(monkeypatch, exponent):
    # n3_doubled over F_3 has r = 6: neither r / p = 2 nor the p-part 3
    # puts x^{e w_l+} - x^{e w_l-} in the hull
    P = load_golden("n3_doubled.json")
    monkeypatch.setattr(decomp, "prime_field_for", lambda P, p: (GF(3), exponent))
    with pytest.raises(VerificationFailed) as err:
        verify_full_decomposition(P, 3)
    assert re.fullmatch(
        f"intersection of all components is not the ideal: kernel binomial [12] to the power {exponent} is not in the hull",
        str(err.value),
    )


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
    # the references take it; the certificate reads n from P and takes no E
    over = dataclasses.replace(c, E=E, meets=True)
    k = len(c.real.kernels) + 1
    with pytest.raises(VerificationFailed, match=f"component {k} is redundant") as err:
        over.run()
    assert err.value.index == k - 1
    assert _agree(over)[:2] == (f"component {k} is redundant", k - 1)
    assert _certified(over) == k - 1


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
    assert _fails_with(message, dataclasses.replace(c, S=c.real.kernels[0]), certified=True) is None


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
    # kernel, so a wrong one, from x_1 -> 2 t^{nu_1}, moves them all; the
    # one containment, modulo component 1, names it, and the kernel chain
    # agrees
    c = request.getfixturevalue(case)
    scale = [2] + [1] * (c.I.nvars - 1)
    wrong = dataclasses.replace(c, real=_rebuilt(c.real, c.real.specs, scale))
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
    # for n >= 4 the sweep also proves S ∩ E = I, so a failed one is a
    # failed meet, and that is the witness
    c = request.getfixturevalue(case)
    assert c.saturated
    if c.meets is None:
        failed, witness = dataclasses.replace(c, saturated=False), "hull not saturated by x_1"
    else:
        failed, witness = dataclasses.replace(c, saturated=False, meets=False), "hull meets the embedded component outside the ideal"
    message = f"intersection of all components is not the ideal: {witness}"
    assert _fails_with(message, failed, certified=True) is None


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
    monkeypatch.setattr(decompose, "normalized_snf", lambda P: wrong)
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

    monkeypatch.setattr(decompose, "enumerate_components", forbidden)
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
    failed = dataclasses.replace(simplest_n4_f5, meets=False, saturated=False)
    assert _fails_with(message, failed, certified=True) is None
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
    P0 = real.kernels[0].groebner()
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
    bases = [K.groebner() for K in _rebuilt(real, specs).kernels]
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
def test_first_kernel_is_the_trivial_character_kernel(name, p):
    # lambda_index (0, ..., 0) is the character 0, whose twist changes no term
    P = load_golden(name)
    real = realize_over_prime_field(P, p)
    assert real.specs[0].coeff_exponents == (0,) * P.n
    nu = associated_vector(P)[2]
    trivial = ring_map_kernel([Polynomial.monomial(GF(p), 1, (w,)) for w in nu])
    assert [g.terms for g in real.kernels[0].groebner()] == [g.terms for g in trivial.groebner()]


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
    """_primary_to_origin against the leading-ideal test on E = I + (x^{b(n)}),
    for any n, and I, which is never (x)-primary. E is (x)-primary for
    n >= 3 too, where it is no component; for n = 2, b(n) = 0 and E is the
    whole ring."""
    I = pcb_ideal(P, field)
    E = Ideal(field, P.n, I.gens + (socle_monomial(P, field),))
    assert _primary_to_origin(P) == _primary_to_maximal(E) == (P.n >= 3)
    assert not _primary_to_maximal(I)


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


# every golden over Q and over its least p = 1 (mod r), and simplest_n4 over F_2
GOLDEN_FIELDS = [(name, f) for name, p in GOLDEN_CASES + [("diag_n5.json", 11)] for f in (QQ, GF(p))] + [
    ("simplest_n4.json", GF(2))
]
N4_GOLDENS = [("onecomp_n4.json", 2), ("simplest_n4.json", 5), ("diag_n5.json", 11)]


def _embedded_agree(P, field) -> bool:
    """embedded_checks on the hull record, whose sweep must say whether
    the saturation by x_1 is the colon, against the computed colon and
    intersection; returns that boolean."""
    I = pcb_ideal(P, field)
    xb = socle_monomial(P, field)
    S = colon(I, xb)
    E = embedded_component(P, field)
    saturated = saturate(I, Polynomial.variable(field, P.n, 0))[0] == S
    reference = _reference_embedded_checks(I, S, E, xb)
    H = _hull_record(P, I, S)
    assert H.swept == saturated
    assert embedded_checks(P, H) == reference
    assert saturated == (colon(S, xb) == S) == (intersect(S, E) == I)
    return saturated


@pytest.mark.parametrize("name,p", N4_GOLDENS)
def test_embedded_checks_agree_with_the_colon_and_the_meet_on_goldens(name, p):
    P = load_golden(name)
    assert _embedded_agree(P, QQ)
    assert _embedded_agree(P, GF(p))


def test_embedded_checks_agree_with_the_colon_and_the_meet_in_char_2():
    assert _embedded_agree(load_golden("simplest_n4.json"), GF(2))


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
    I = pcb_ideal(P, field)
    graded, steps = saturate(I, x1, nu)
    reference, reference_steps = saturate(pcb_ideal(P, field), x1)
    assert graded.groebner() == reference.groebner() == S.groebner()
    assert steps == reference_steps
    assert (steps == 0) == (P.n <= 3)
    # S = I exactly when I : x_1 = I, which verify reads in place of steps
    assert (graded == I) == (reference == pcb_ideal(P, field)) == (steps == 0)


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
    eliminate = elimination.eliminate

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
    # the oracle's name first: it is looked up in elimination, and patched
    # after it would be restored to the patched function
    monkeypatch.setattr("pcbideal.oracle.intersect", forbidden)
    monkeypatch.setattr(elimination, "intersect", forbidden)
    monkeypatch.setattr(elimination, "eliminate", counted_eliminate)
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
        (decompose, "realize_over_prime_field"),
        (decompose, "ring_map_kernel"),
        (elimination, "ring_map_kernel"),
        (oracle_ideal, "groebner_basis"),
    ]:
        monkeypatch.setattr(module, attr, _counted(calls[attr], getattr(module, attr)))
    report = verify_full_decomposition(P, p)
    assert all(ok for _, ok in report.checks)
    assert report.component_count == associated_vector(P)[1] + (P.n >= 4)
    assert calls["realize_over_prime_field"] == calls["ring_map_kernel"] == []
    assert [order for _, order in calls["groebner_basis"]] == [WeightedRevLex(associated_vector(P)[2], 0)]


@pytest.mark.parametrize(
    "name,p", [("simplest_n4.json", 5), ("simplest_n4.json", 2), ("onecomp_n4.json", 2), ("diag_n3.json", 7)]
)
def test_full_verification_builds_the_ideal_once_and_no_embedded_component(name, p, monkeypatch):
    # E = I + (x^{b(n)}) is a definition: its checks read P, I and S
    P = load_golden(name)
    built = []

    def forbidden(*args):
        raise AssertionError("verify_full_decomposition built the embedded component")

    monkeypatch.setattr(decomp, "pcb_ideal", _counted(built, decomp.pcb_ideal))
    monkeypatch.setattr(decompose, "embedded_component", forbidden)
    report = verify_full_decomposition(P, p)
    assert all(ok for _, ok in report.checks)
    assert len(built) == 1


SWEEP = ["colon by x^{b(n)} agrees from I and from J", "saturation by x_1 agrees with the colon"]
LATTICE = "hull basis is lattice binomials killed by the weights"


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


def _reference_sweep_remainder(P, I, g, nu) -> Polynomial:
    """The normal form of x^{b(n)} g modulo J = (f_1, ..., f_{n-1}) under
    WeightedRevLex(nu, n - 1): the product formed as a Polynomial and
    divided by normal_form."""
    return normal_form(socle_monomial(P, g.field) * g, I.gens[:-1], WeightedRevLex(nu, P.n - 1))


def _reference_hull_swept(P, I, S, nu) -> bool:
    """The division sweep that _hull_swept's exponent rewriting replaced:
    x_1 divides no element of S's reduced WeightedRevLex(nu, 0) basis, and
    x^{b(n)} g reduces to zero modulo J for every element g."""
    basis = S.groebner(WeightedRevLex(nu, 0))
    stable = not any(min(e[0] for e in g.terms) for g in basis)
    return stable and not any(_reference_sweep_remainder(P, I, g, nu) for g in basis)


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
    I, S, _, _ = _hull(P, field)
    H = _hull_record(P, I, S)
    colon_hull, reference = _reference_hull_checks(P, field)
    checks = dict(_hull_checks(P, H))
    assert [(name, checks[name]) for name, _ in reference] == reference
    assert checks[LATTICE] == _reference_lattice(P, S)
    assert checks[LATTICE]
    assert S.groebner() == colon_hull.groebner()
    assert H.swept


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


def _around(P, basis, rng) -> List[Polynomial]:
    """Polynomials near S's basis, for the element-wise differential: each
    element times a monomial, a combination of two such multiples, the
    element plus a monomial, its tail rescaled by 2, the element negated,
    and the element with its terms shifted apart by a vector w of
    ker nu ∩ Z^n (_kernel_vectors), which lies in L or not. A w with
    entries summing past 12 in absolute value is left out: the reference
    division rewrites one x_j^{a_jj} at a time, and at n = 6 such a shift
    takes it thousands of steps per term."""
    field, n = basis[0].field, P.n
    kernel = [w for w in _kernel_vectors(P) if sum(map(abs, w)) <= 12]

    def monomial(c=1):
        return Polynomial.monomial(field, n, [rng.randint(0, 2) for _ in range(n)], c)

    out = []
    for g in basis:
        out += [
            monomial() * g,
            monomial(rng.randint(1, 6)) * g + monomial() * rng.choice(basis),
            g + monomial(),
            Polynomial.from_terms(field, n, [(c if i == 0 else 2 * c, e) for i, (e, c) in enumerate(g.terms.items())]),
            -g,
        ] + [
            Polynomial.from_terms(field, n, [
                (c, [a + max(v if i == 0 else -v, 0) for a, v in zip(e, w)]) for i, (e, c) in enumerate(g.terms.items())
            ])
            for w in kernel[:1] + rng.sample(kernel, min(1, len(kernel)))
        ]
    return [f for f in out if f.terms]


def _sweep_and_lattice_agree(P, I, S, nu, rng) -> Counter:
    """The sweep and the lattice check of the hull record against
    _reference_hull_swept and _reference_lattice on S's basis as a whole,
    then _hull_swept and _lattice_binomials element by element on S's
    basis and on _around it, each element its own one-element basis and
    its own sweep. A call counter on decomp's lattice_contains shows which
    path the lattice check took: the Smith form solve runs only where the
    element's sweep failed, and on a swept hull never for its basis.
    Returns how often each (sweep, lattice, solved) outcome came up among
    the elements _around the basis, solved whether lattice_contains ran."""
    H = _hull_record(P, I, S)
    assert H.swept == _reference_hull_swept(P, I, S, nu)
    assert H.lattice == _reference_lattice(P, S, H.order) == _reference_lattice(P, S)
    around, seen, solves = _around(P, H.basis, rng), Counter(), []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomp, "lattice_contains", _counted(solves, lattice_contains))
        for k, g in enumerate(list(H.basis) + around):
            before = len(solves)
            swept = _hull_swept(P, (g,))
            assert swept == (min(e[0] for e in g.terms) == 0 and not _reference_sweep_remainder(P, I, g, nu))
            lattice = _lattice_binomials(P, (g,), (g.leading_term(H.order)[0],), swept)
            assert lattice == _reference_lattice_binomial(P, g, H.order)
            solved = len(solves) > before
            assert not (swept and solved)
            if k >= len(H.basis):
                seen[swept, lattice, solved] += 1
            elif H.swept:
                assert swept and not solved
    return seen


@pytest.mark.parametrize("name,field", GOLDEN_FIELDS, ids=lambda v: getattr(v, "tag", v))
def test_integer_sweep_agrees_with_the_division_on_goldens(name, field):
    P = load_golden(name)
    I, S, _, nu = _hull(P, field)
    seen = _sweep_and_lattice_agree(P, I, S, nu, random.Random(name))
    assert {swept for swept, _, _ in seen} == {True, False}
    assert {lattice for _, lattice, _ in seen} == {True, False}
    # both paths of the lattice check run on the elements around the
    # basis: u - v in L read off a holding sweep, and the Smith form solve
    assert seen[True, True, False] and {solved for _, _, solved in seen} == {True, False}


@pytest.mark.parametrize("n,count", [(3, 8), (4, 4), (5, 3), (6, 2)])
def test_integer_sweep_agrees_with_the_division_on_random_inputs(n, count):
    rng = random.Random(107 + n)
    for _ in range(count):
        P = random_pcb(rng, n, max_entry=2)
        for field in (QQ, GF(_least_good_prime(P))):
            I, S, _, nu = _hull(P, field)
            _sweep_and_lattice_agree(P, I, S, nu, rng)


WRONG_HULL_CASES = [
    ("simplest_n4.json", QQ), ("simplest_n4.json", GF(5)), ("simplest_n4.json", GF(2)), ("diag_n5.json", GF(11)), ("diag_n3.json", GF(7))
]


@pytest.mark.parametrize("name,field", WRONG_HULL_CASES, ids=lambda v: getattr(v, "tag", v))
def test_integer_sweep_agrees_with_the_division_on_wrong_hulls(name, field):
    P = load_golden(name)
    I, _, nu, wrong = _wrong_hulls(P, field)
    rng = random.Random(name)
    for S in wrong:
        assert not _reference_hull_swept(P, I, S, nu)
        _sweep_and_lattice_agree(P, I, S, nu, rng)


@pytest.mark.parametrize("name,field", WRONG_HULL_CASES, ids=lambda v: getattr(v, "tag", v))
def test_failed_sweep_reports_false(name, field):
    P = load_golden(name)
    I, _, _, wrong = _wrong_hulls(P, field)
    for S in wrong:
        H = _hull_record(P, I, S)
        assert not H.swept
        checks = dict(_hull_checks(P, H))
        assert [checks[name] for name in SWEEP] == [False, False]
        assert checks[LATTICE] == _reference_lattice(P, S)
        if P.n >= 4:
            assert [ok for _, ok in embedded_checks(P, H)] == [False, False]


@pytest.mark.parametrize("name,field", WRONG_HULL_CASES, ids=lambda v: getattr(v, "tag", v))
def test_wrong_hull_degree_reports_deg_s_as_a_fraction(name, field):
    # the hull plus one binomial from outside it, taken past the sweep and
    # the lattice check: the integer degree test fails it with deg S
    # written as dimension_one_degree's Fraction prints
    P = load_golden(name)
    I, _, nu, (S, *_) = _wrong_hulls(P, field)
    H = _hull_record(P, I, S)._replace(swept=True, lattice=True)
    d = associated_vector(P)[1]
    degree = dimension_one_degree(H.leads, nu)
    assert degree is not None and degree != d
    assert _intersection_witness(P, H, 1) == f"deg S = {degree}, sum of component degrees = {d}"


@pytest.mark.parametrize("value,product", [(5, 15), (7, 2), (32, 2), (48, 3), (-3, 6), (16, 1), (160, 10), (17, 16), (33, 2), (51, 3)])
def test_degree_text_matches_the_fraction(value, product, monkeypatch):
    # every residue (value, product) is refused unless value = d product,
    # and the refusal prints the reduced Fraction value / product
    P = load_golden("simplest_n4.json")
    H = _hull_record(P, *_hull(P, GF(5))[:2])
    d = associated_vector(P)[1]
    monkeypatch.setattr(decomp, "dimension_one_residue", lambda leads, nu: (value, product))
    degree = Fraction(value, product)
    expected = None if degree == d else f"deg S = {degree}, sum of component degrees = {d}"
    assert _intersection_witness(P, H, 1) == expected


@pytest.mark.parametrize("name,p", [("simplest_n4.json", 5), ("diag_n5.json", 11)])
def test_failed_sweep_fails_the_chain(name, p):
    # for n >= 4 the sweep also proves S ∩ E = I, so a failed sweep stops
    # the chain with the meet as its witness
    P = load_golden(name)
    I, _, _, wrong = _wrong_hulls(P, GF(p))
    specs = enumerate_components(P)
    message = "intersection of all components is not the ideal: hull meets the embedded component outside the ideal"
    for S in wrong:
        H = _hull_record(P, I, S)
        for run in (
            lambda: _chain_checks(P, H, 1),
            lambda: _reference_character_chain(P, specs, I, S, H.swept, H.swept, H.lattice),
        ):
            with pytest.raises(VerificationFailed) as err:
                run()
            assert str(err.value) == message
            assert err.value.index is None


def test_failed_sweep_fails_the_char2_collapse():
    # the hull plus x1 - x4 still holds a^[4] and a^7 and lies in a; over
    # F_2, r = 4 a power of 2, the one chain stops at the meet, as it does
    # over a p = 1 (mod r)
    P = load_golden("simplest_n4.json")
    field = GF(2)
    I, S, _, nu = _hull(P, field)
    wrong = Ideal(field, P.n, S.gens + (_outside_the_hull(S, field, nu),))
    message = "intersection of all components is not the ideal: hull meets the embedded component outside the ideal"
    with pytest.raises(VerificationFailed) as err:
        _chain_checks(P, _hull_record(P, I, wrong), 4)
    assert str(err.value) == message


@pytest.mark.parametrize("p", [None, 5, 2])
def test_wrong_saturation_never_reports_ok(p, monkeypatch):
    # end to end: a saturation that returned the hull plus a binomial
    # outside it gives False hull and embedded checks over Q and raises
    # over F_p, p = 1 (mod r) or r a power of p
    P = load_golden("simplest_n4.json")
    field = QQ if p is None else GF(p)
    _, steps, _, (wrong, _) = _wrong_hulls(P, field)
    monkeypatch.setattr(decomp, "saturate", lambda *args: (wrong, steps))
    names = SWEEP + [
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


# every golden over Q and over its least p = 1 (mod r), and simplest_n4 over F_2
VERIFY_CASES = [("diag_n5.json", 11), ("simplest_n4.json", 2), ("diag_n5.json", None)] + [
    (name, f) for name, p in GOLDEN_CASES for f in (None, p)
]


@pytest.mark.parametrize("name,p", VERIFY_CASES)
def test_full_verification_runs_one_saturation_and_no_colon(name, p, monkeypatch):
    # the hull is one saturation by x_1, which runs no colon; neither
    # I : x^{b(n)} nor J : x^{b(n)} is computed, and the sweep into J
    # rewrites exponent vectors: no normal form is taken modulo J's
    # generators and no Groebner run is made on them. decomp builds one
    # order, WeightedRevLex(nu, 0), and no WeightedRevLex(nu, n - 1).
    # S = I is decided once: one Ideal comparison, of S with I. The
    # lattice check reads u - v in L off the sweep: no Smith form solve
    P = load_golden(name)
    field, q = (QQ, 1) if p is None else decomp.prime_field_for(P, p)
    J = pcb_ideal(P, field).gens[:-1]
    j_order = WeightedRevLex(associated_vector(P)[2], P.n - 1)
    calls = {"colon": [], "saturate": [], "groebner_basis": [], "normal_form": [], "WeightedRevLex": [], "__eq__": [], "lattice_contains": []}
    for module, attr in [
        (decomp, "lattice_contains"),
        (intmat, "lattice_contains"),
        (oracle_ideal, "colon"),
        (decomp, "saturate"),
        (decomp, "normal_form"),
        (oracle_ideal, "groebner_basis"),
        (decomp, "WeightedRevLex"),
        (Ideal, "__eq__"),
    ]:
        monkeypatch.setattr(module, attr, _counted(calls[attr], getattr(module, attr)))
    report = verify_full_decomposition(P, p)
    compared = list(calls["__eq__"])
    assert all(ok for _, ok in report.checks)
    assert calls["colon"] == []
    assert calls["lattice_contains"] == []
    assert not hasattr(decomp, "colon")
    ((I, x1, nu),) = calls["saturate"]
    assert calls["WeightedRevLex"] == [(nu, 0)]
    order = WeightedRevLex(nu, 0)
    S = saturate(I, x1, nu)[0]
    basis = S.groebner(order)
    # the mixedness witness, for n >= 4, by one normal form against each
    # of the cached nu-graded bases of S and I; when r is a power of p
    # (simplest_n4 over F_2, r = 4), the chain adds one normal form
    # modulo S per kernel vector
    expected = [(basis, order), (I.groebner(order), order)] if P.n >= 4 else []
    if q > 1:
        expected += [(basis, order)] * (P.n - 1)
    assert [(tuple(divisors), o) for _, divisors, o in calls["normal_form"]] == expected
    assert not any(frozenset(divisors) == frozenset(J) or o == j_order for _, divisors, o in calls["normal_form"])
    runs = calls["groebner_basis"]
    assert runs
    assert not any(frozenset(gens) == frozenset(J) or order == j_order for gens, order in runs)
    # the one comparison is of the saturation's result with I itself
    # (the same object when I : x_1 = I, that is for n <= 3)
    ((left, right),) = compared
    assert left is I or right is I
    other = right if left is I else left
    assert other.groebner(order) == basis
    assert (other is I) == (P.n <= 3)


@pytest.mark.parametrize("name,p,steps", [("simplest_n4.json", 5, 0), ("diag_n3.json", 7, 1)])
def test_full_verification_never_reads_the_step_count(name, p, steps, monkeypatch):
    # the true hull with a wrong step count: 0 claims I : x_1 = I on an
    # n = 4 input, 1 claims I : x_1 != I on an n = 3 one. verify and
    # unmixedness_test decide S = I by comparing S with I, so neither
    # moves, over Q or over F_p
    P = load_golden(name)
    fields = [(None, QQ), (p, GF(p))]
    expected = [(verify_full_decomposition(P, k), unmixedness_test(P, f)) for k, f in fields]
    monkeypatch.setattr(decomp, "saturate", lambda *args: (saturate(*args)[0], steps))
    assert [(verify_full_decomposition(P, k), unmixedness_test(P, f)) for k, f in fields] == expected
    assert [unmixed for _, unmixed in expected] == [P.n <= 3] * 2
