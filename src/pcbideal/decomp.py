"""Primary decomposition pipeline for PCB ideals.

The isolated part of a PCB ideal is cut out by the characters of the finite
torsion group of the column lattice: each character lifts to a monomial
curve map whose kernel is one isolated component. From dimension four on,
one extra component primary to the irrelevant maximal ideal appears, and it
is the ideal plus the single syzygy monomial x^{b(n)}. Everything here is
verified computation: candidates are produced by formula and then checked
against the Groebner oracle. verify_full_decomposition is the one place
that does so: it builds the ideal, its hull and the embedded component once
and decides every verification question on them. Over F_p one elimination
realizes the trivial-character component and torus twists give the others;
that they meet in the hull is certified by a Hilbert-series degree count,
not by intersecting them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import (
    Binomial,
    DimensionTooSmall,
    PcbMatrix,
    associated_vector,
    generators,
    mixedness_witness,
    normalized_snf,
    syzygy_vectors,
)
from .intmat import lattice_contains
from .oracle import (
    DEGREVLEX,
    GF,
    QQ,
    Ideal,
    Polynomial,
    PrimeField,
    colon,
    dimension_one_degree,
    intersect,
    ring_map_kernel,
    saturate,
)


class BadPrime(ValueError):
    def __init__(self, p: int, r: int, reason: str = ""):
        self.p = p
        self.r = r
        if not reason:
            reason = f"need a prime p with p = 1 (mod {r})"
        super().__init__(f"BadPrime(p={p}, r={r}): {reason}")


class VerificationFailed(RuntimeError):
    def __init__(self, message: str, index: Optional[int] = None):
        self.index = index
        super().__init__(message)


def binomial_to_polynomial(b: Binomial, field, nvars: int) -> Polynomial:
    return Polynomial.from_terms(field, nvars, [(1, b.plus), (-1, b.minus)])


def pcb_ideal(P: PcbMatrix, field, omit_last: bool = False) -> Ideal:
    """The ideal of column binomials; omit_last drops f_n for colon cross-checks."""
    gens = generators(P)
    if omit_last:
        gens = gens[:-1]
    return Ideal(field, P.n, [binomial_to_polynomial(g, field, P.n) for g in gens])


@dataclass(frozen=True)
class ComponentSpec:
    """One isolated component, described before any field is chosen.

    lambda_index enumerates the character group factor by factor; the map
    sends x_i to zeta^{coeff_exponents[i]} * t^{weights[i]} where zeta is a
    fixed primitive root of unity of order root_order.
    """

    lambda_index: Tuple[int, ...]
    coeff_exponents: Tuple[int, ...]
    weights: Tuple[int, ...]
    root_order: int

    def map_strings(self) -> Tuple[str, ...]:
        out = []
        for e, w in zip(self.coeff_exponents, self.weights):
            t = "t" if w == 1 else f"t^{w}"
            if e == 0:
                out.append(t)
            elif e == 1:
                out.append(f"zeta*{t}")
            else:
                out.append(f"zeta^{e}*{t}")
        return tuple(out)


def enumerate_components(P: PcbMatrix) -> Tuple[ComponentSpec, ...]:
    """All d isolated component specs, lambda_index in lexicographic order."""
    snf = normalized_snf(P)
    _, _, nu = associated_vector(P)
    factors = snf.invariant_factors
    r = factors[-1]
    n = P.n
    L = P.signed
    rows = snf.P.data
    specs = []
    for k in itertools.product(*(range(di) for di in factors)):
        e = tuple(
            sum(kj * (r // dj) * rows[j][i] for j, (kj, dj) in enumerate(zip(k, factors))) % r
            for i in range(n)
        )
        for col in range(n):
            if sum(ei * L[i, col] for i, ei in enumerate(e)) % r:
                raise AssertionError("character fails to kill a lattice column")
        specs.append(ComponentSpec(k, e, nu, r))
    return tuple(specs)


def hull_is_prime(P: PcbMatrix) -> bool:
    """The hull is prime exactly when the torsion order is 1."""
    _, d, _ = associated_vector(P)
    return d == 1


@dataclass(frozen=True)
class ComponentCount:
    isolated: int
    embedded: int
    assumption: str
    at_most: int


def component_count(P: PcbMatrix) -> ComponentCount:
    """Component counts under the good-characteristic assumption.

    Over an arbitrary field the same numbers are only an upper bound, which
    at_most records.
    """
    _, d, _ = associated_vector(P)
    embedded = 1 if P.n >= 4 else 0
    return ComponentCount(
        isolated=d,
        embedded=embedded,
        assumption=(
            "the coefficient field contains a primitive root of unity for every "
            "invariant factor and its characteristic does not divide their product"
        ),
        at_most=d + embedded,
    )


def socle_monomial(P: PcbMatrix, field) -> Polynomial:
    """x^{b(n)}, the monomial that both cuts the hull and completes the ideal."""
    return Polynomial.monomial(field, P.n, syzygy_vectors(P)[P.n - 1])


def hull(P: PcbMatrix, field) -> Ideal:
    """Intersection of the isolated components, computed as a colon ideal."""
    return colon(pcb_ideal(P, field), socle_monomial(P, field))


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


def embedded_component(P: PcbMatrix, field) -> Ideal:
    """The component primary to (x_1, ..., x_n): the ideal plus x^{b(n)}.

    embedded_checks proves the claim; verify_full_decomposition runs it.
    """
    n = P.n
    if n < 4:
        raise DimensionTooSmall(f"embedded component needs n >= 4, got n = {n}")
    I = pcb_ideal(P, field)
    return Ideal(field, n, I.gens + (socle_monomial(P, field),))


def embedded_checks(I: Ideal, S: Ideal, E: Ideal, xb: Polynomial) -> List[Tuple[str, bool]]:
    """Prove E the embedded component of I, with hull S = I : x^{b(n)}.

    "embedded component verified": the colon by x^{b(n)} stabilizes after
    one step (S : x^{b(n)} = S), S differs from I, and the leading ideal
    of E holds a pure power of every variable, so E is primary to
    (x_1, ..., x_n) (see _primary_to_maximal). "hull meets
    embedded component in the ideal": S meets E in I.
    """
    verified = colon(S, xb) == S and S != I and _primary_to_maximal(E)
    return [
        ("embedded component verified", verified),
        ("hull meets embedded component in the ideal", intersect(S, E) == I),
    ]


def unmixedness_test(P: PcbMatrix, field) -> bool:
    """True when I : x_1 = I, which happens exactly for n <= 3."""
    I = pcb_ideal(P, field)
    return colon(I, Polynomial.variable(field, P.n, 0)) == I


def _prime_factors(n: int) -> Tuple[int, ...]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def least_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    qs = _prime_factors(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1


def _is_all_ones_n4(P: PcbMatrix) -> bool:
    return P.n == 4 and all(
        P.a[i][j] == 1 for i in range(4) for j in range(4) if i != j
    )


def prime_field(p: int) -> PrimeField:
    """GF(p) for any `--field fp:<p>` request; BadPrime unless p is a prime
    below 2**31. Every command asks this first, whatever it does with F_p."""
    try:
        return GF(p)
    except ValueError as err:
        raise BadPrime(p, 0, str(err)) from None


def prime_field_for(P: PcbMatrix, p: int) -> Tuple[PrimeField, bool]:
    """GF(p) for a `--field fp:<p>` request, and whether p is a good characteristic.

    The rule is decided here and nowhere else. With p = 1 (mod r), r the
    last invariant factor, F_p holds the r-th roots of unity and the d
    isolated components are realized apart: the answer is (GF(p), True).
    Otherwise only the worked char-2 case is covered, the all-ones 4x4
    matrix over F_2, whose components collapse into one hull: (GF(2),
    False). Anything else, a p that is not prime included, is BadPrime.
    """
    field = prime_field(p)
    r = normalized_snf(P).invariant_factors[-1]
    if (p - 1) % r == 0:
        return field, True
    if p == 2 and _is_all_ones_n4(P):
        return field, False
    raise BadPrime(p, r)


@dataclass(frozen=True)
class PrimeFieldRealization:
    p: int
    r: int
    zeta: int
    specs: Tuple[ComponentSpec, ...]
    kernels: Tuple[Ideal, ...]


def realize_over_prime_field(P: PcbMatrix, p: int) -> PrimeFieldRealization:
    """Instantiate every isolated component over F_p, p = 1 (mod r).

    zeta is g^((p-1)/r) for the least primitive root g, so the realization
    is reproducible. One elimination computes P_0, the kernel of the
    trivial-character map psi_0: x_i -> t^{nu_i}; every other kernel is a
    twist of it (Eisenbud-Sturmfels, "Binomial ideals"). Write psi_e for
    x_i -> zeta^{e_i} t^{nu_i} and D_e for the substitution
    x_i -> zeta^{e_i} x_i. Then psi_e = psi_0 o D_e, so
    ker psi_e = D_e^{-1}(ker psi_0) = D_{-e}(P_0). D_{-e} multiplies each
    term c x^a by the unit zeta^{-e.a}, so it keeps every leading and every
    standard monomial: applied to the reduced basis of P_0 and made monic
    again, it gives the reduced basis of ker psi_e exactly.
    """
    field, good = prime_field_for(P, p)
    specs = enumerate_components(P)
    r = specs[0].root_order
    if not good:
        raise BadPrime(p, r)  # the components collapse; none is realized apart
    zeta = pow(least_primitive_root(p), (p - 1) // r, p) if r > 1 else 1
    powers = [pow(zeta, k, p) for k in range(r)]
    trivial = ring_map_kernel([Polynomial.monomial(field, 1, (w,)) for w in specs[0].weights])
    basis = trivial.groebner()
    kernels = []
    for s in specs:
        e = s.coeff_exponents
        twisted = []
        for g, lm in zip(basis, _leading_monomials(basis)):
            lead = sum(a * b for a, b in zip(e, lm))
            # c x^a -> c zeta^{-e.a} x^a, divided by the new leading coefficient
            twisted.append(Polynomial(field, P.n, {
                a: field.mul(c, powers[(lead - sum(x * y for x, y in zip(e, a))) % r])
                for a, c in g.terms.items()
            }))
        kernels.append(Ideal._with_basis(field, P.n, twisted, DEGREVLEX))
    return PrimeFieldRealization(p, r, zeta, specs, tuple(kernels))


@dataclass(frozen=True)
class DecompositionReport:
    component_count: Optional[int]  # None over Q, where no component is realized
    checks: Tuple[Tuple[str, bool], ...]


def diagonal_prime_gens(P: PcbMatrix, field) -> List[Polynomial]:
    """Generators x_i - x_n of the prime fixing the all-ones point."""
    n = P.n
    last = tuple(1 if i == n - 1 else 0 for i in range(n))
    return [
        Polynomial.from_terms(
            field, n, [(1, tuple(1 if j == i else 0 for j in range(n))), (-1, last)]
        )
        for i in range(n - 1)
    ]


def _power_inside(S: Ideal, gens: Sequence[Polynomial], power: int) -> bool:
    for combo in itertools.combinations_with_replacement(gens, power):
        product = combo[0]
        for f in combo[1:]:
            product = product * f
        if not S.contains(product):
            return False
    return True


def prime_power_in_hull(P: PcbMatrix, field, power: int) -> bool:
    """Whether every product of `power` generators of the diagonal prime
    lands in the hull. Checking generator products suffices because they
    generate the ordinary power."""
    return _power_inside(hull(P, field), diagonal_prime_gens(P, field), power)


def _hull_checks(P: PcbMatrix, I: Ideal, S: Ideal, xb: Polynomial) -> List[Tuple[str, bool]]:
    """Hull S = I : x^{b(n)} recomputed two more ways, the unmixedness
    dichotomy, the mixedness witness and the lattice shape of S's basis."""
    field = I.field
    n = P.n
    sat, steps = saturate(I, Polynomial.variable(field, n, 0))
    J = pcb_ideal(P, field, omit_last=True)
    checks = [
        ("colon by x^{b(n)} agrees from I and from J", colon(J, xb) == S),
        ("saturation by x_1 agrees with the colon", sat == S),
        # the saturation stops after no step exactly when I : x_1 = I
        ("unmixed exactly when n <= 3", (steps == 0) == (n <= 3)),
    ]
    if n >= 4:
        g = binomial_to_polynomial(mixedness_witness(P), field, n)
        checks.append(("witness sits in the colon but not the ideal", S.contains(g) and not I.contains(g)))
    m, _, _ = associated_vector(P)
    snf = normalized_snf(P)
    lattice_ok = True
    for g in S.groebner():
        terms = sorted(g.terms.items(), key=lambda t: DEGREVLEX.key(t[0]), reverse=True)
        if len(terms) != 2 or terms[0][1] != field.one or terms[1][1] != field.neg(field.one):
            lattice_ok = False
            break
        u, v = terms[0][0], terms[1][0]
        member, _ = lattice_contains(P.signed, [a - b for a, b in zip(u, v)], snf)
        if not member or g.substitute_powers(m).terms:
            lattice_ok = False
            break
    checks.append(("hull basis is lattice binomials killed by the weights", lattice_ok))
    return checks


def _char2_checks(
    P: PcbMatrix, I: Ideal, S: Ideal, embedded: List[Tuple[str, bool]]
) -> List[Tuple[str, bool]]:
    """Verification for the one worked char-2 case, p | d.

    Roots of unity collapse over F_2, so instead of separate isolated
    components the hull S = I : x^{b(n)} is proved primary to the diagonal
    prime a = (x1 - x4, x2 - x4, x3 - x4), and S together with the embedded
    component E are proved to be the only two primary components.

    The checks: the fourth power of each generator of a lies in S (over
    F_2, (x_i - x_4)^4 = x_i^4 - x_4^4, so these generate the Frobenius
    power a^[4]); the seventh ordinary power a^7 lies in S (seventh is
    sharp: a^6 is not inside, and neither is (x1-x4)^2(x2-x4)^2 in a^4);
    S sits inside a; S differs from I; S : x1 = S; and S meets E in I.

    Why they suffice. a^7 <= S <= a with a prime gives rad S = a, so every
    associated prime of S contains a. S is homogeneous, so its associated
    primes are homogeneous, and the only homogeneous prime strictly above
    the height-three prime a is the irrelevant ideal, which contains x1.
    S : x1 = S makes x1 a nonzerodivisor modulo S, so the irrelevant ideal
    is not associated and S is a-primary. E is primary to the irrelevant
    ideal (embedded_checks proves this; a failure raises here too), so S
    meets E in I is a primary decomposition with distinct radicals.
    Neither part is redundant: dropping E leaves S, which differs from I,
    and dropping S leaves E, which contains a power of x1 and so is not
    inside a, while I is.
    """
    field = I.field
    n = P.n
    a_gens = diagonal_prime_gens(P, field)
    x1 = Polynomial.variable(field, n, 0)
    verified, meets = embedded
    checks = [
        ("fourth power of each prime generator inside the hull", all(S.contains(g * g * g * g) for g in a_gens)),
        ("seventh power of the diagonal prime inside the hull", _power_inside(S, a_gens, 7)),
        ("hull inside the diagonal prime", Ideal(field, n, a_gens).includes(S)),
        ("hull differs from the ideal", S != I),
        ("hull saturated by x_1", colon(S, x1) == S),
        meets,
    ]
    for name, ok in [verified] + checks:
        if not ok:
            raise VerificationFailed(f"char-2 check failed: {name}")
    return checks


def _leading_monomials(basis: Sequence[Polynomial]) -> Tuple[Tuple[int, ...], ...]:
    return tuple(g.leading_term(DEGREVLEX)[0] for g in basis)


def _intersection_witness(
    kernels: Sequence[Ideal], S: Ideal, nu: Sequence[int], saturated: bool
) -> Optional[str]:
    """None when the degree certificate proves S = P_1 ∩ ... ∩ P_d (see
    _chain_checks), else the first fact that fails."""
    if not saturated:
        return "hull not saturated by x_1"
    hull_basis = S.groebner()
    for i, K in enumerate(kernels):
        if not all(K.contains(g) for g in hull_basis):
            return f"a hull generator has a nonzero normal form modulo component {i + 1}"
    degrees = {}
    seen = set()
    total = 0
    for i, K in enumerate(kernels):
        basis = K.groebner()
        if basis in seen:
            continue  # a repeated component adds no prime; irredundancy reports it
        seen.add(basis)
        lead = _leading_monomials(basis)
        if lead not in degrees:
            degrees[lead] = dimension_one_degree(lead, nu)
        if degrees[lead] is None:
            return f"component {i + 1} is not of dimension one"
        total += degrees[lead]
    hull_degree = dimension_one_degree(_leading_monomials(hull_basis), nu)
    if hull_degree is None:
        return "hull is not of dimension one"
    if hull_degree != total:
        return f"deg S = {hull_degree}, sum of component degrees = {total}"
    return None


def _chain_checks(
    kernels: Sequence[Ideal],
    I: Ideal,
    S: Ideal,
    meets: Optional[bool],
    nu: Sequence[int],
    saturated: bool,
) -> Tuple[List[Tuple[str, bool]], int]:
    """Prove I = P_1 ∩ ... ∩ P_d (∩ E) and that no component is redundant;
    returns the checks and the number of components.

    kernels are the realized isolated components P_i, S is the hull
    I : x^{b(n)}, and meets says whether S ∩ E = I (embedded_checks
    computed it); it is None for n <= 3, where there is no E. nu is the
    weight vector, and saturated says whether I : x_1^∞ = S (the hull check
    "saturation by x_1 agrees with the colon").

    Intersection. No ideal is intersected. Grade by deg x_i = nu_i: I is
    homogeneous because nu L = 0, hence so is S, and so is every P_i, the
    kernel of x_i -> zeta^{e_i} t^{nu_i}. Each P_i is prime, as the kernel
    of a map into the domain F_p[t]. S = P_1 ∩ ... ∩ P_d follows from:
    1. S : x_1 = S, because S is a saturation by x_1, which one more colon
       by x_1 does not move. So x_1 is a nonzerodivisor modulo S, and the
       irrelevant ideal (x_1, ..., x_n) is not associated to S.
    2. S ⊆ P_i for every i: each element of S's reduced basis has normal
       form zero modulo the reduced basis of P_i.
    3. The P_i are pairwise distinct: their reduced bases are.
    4. dim S = 1, each P_i has dimension one, and deg S = Σ deg P_i over
       the distinct P_i. Dimension and degree come from the nu-graded
       Hilbert series of the leading ideal (oracle.dimension_one_degree,
       after Bayer-Stillman), which for a homogeneous ideal equals the
       ideal's own; each degree is computed once per leading ideal.
    By 2 and 4 each P_i is a minimal prime of S of dimension one. The
    associativity formula gives deg S = Σ_P length(S_P) deg P over all
    minimal primes P of S of dimension one, every deg P > 0, so by 3 and 4
    every length at a P_i is one and S has no other minimal prime of
    dimension one. A homogeneous ideal of dimension one has no further
    associated prime but the irrelevant ideal, which 1 excludes. Hence S
    is unmixed and its P_i-primary component is S_{P_i} ∩ R = P_i, so
    S = P_1 ∩ ... ∩ P_d. Then for n >= 4, S ∩ E = I gives the whole
    intersection; for n <= 3, S = I does. A failure raises
    VerificationFailed with one witness after the message: S ∩ E != I (or
    S != I), an unsaturated hull, the first component modulo which a hull
    generator has a nonzero normal form, a dimension other than one, or
    the two degrees that differ.

    Irredundancy. Each P_i has dimension one and holds no monomial (a
    monomial maps to a nonzero term). Suppose P_j is redundant: the meet
    of the other components lies in P_j. A prime that holds a finite
    intersection of ideals holds one of them, so some P_i lies in P_j with
    i != j, or E does. P_i in P_j makes them equal, because both primes
    have dimension one, and the kernels' reduced bases are checked
    pairwise distinct. E in P_j is impossible: E holds the monomial
    x^{b(n)}. E itself is redundant exactly when the P_i meet in I, that
    is when S = I, so S != I is checked. A failure raises
    VerificationFailed naming the first redundant component.
    """
    if meets is None:
        witness = None if S == I else "hull differs from the ideal"
    else:
        witness = None if meets else "hull meets the embedded component outside the ideal"
    witness = witness or _intersection_witness(kernels, S, nu, saturated)
    if witness:
        raise VerificationFailed(f"intersection of all components is not the ideal: {witness}")
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


def verify_full_decomposition(P: PcbMatrix, p: Optional[int] = None) -> DecompositionReport:
    """Every check of `pcb verify --level full`, over F_p, or over Q when p is None.

    The ideal I, its hull S = I : x^{b(n)} and, for n >= 4, the embedded
    component E = I + (x^{b(n)}) are built once here, and S meets E once;
    every check below shares them. Over Q and over a good F_p (see
    prime_field_for) the hull checks and the embedded-component checks
    run; over F_p the isolated components are then realized, certified to
    meet in S by a degree count and proved irredundant from their
    primality (see _chain_checks). In the char-2 case the collapse
    checks run instead. A failed chain or char-2 check raises
    VerificationFailed; the others report False.
    """
    field, good = (QQ, True) if p is None else prime_field_for(P, p)
    I = pcb_ideal(P, field)
    xb = socle_monomial(P, field)
    S = colon(I, xb)
    E = embedded_component(P, field) if P.n >= 4 else None
    embedded = embedded_checks(I, S, E, xb) if E is not None else []
    count = None
    if not good:
        checks, count = _char2_checks(P, I, S, embedded), 2
    else:
        checks = _hull_checks(P, I, S, xb) + embedded
        if p is not None:
            meets = embedded[1][1] if embedded else None
            saturated = dict(checks)["saturation by x_1 agrees with the colon"]
            kernels = realize_over_prime_field(P, p).kernels
            chain, count = _chain_checks(kernels, I, S, meets, associated_vector(P)[2], saturated)
            checks += chain
    if count is not None:
        checks.append((f"component count is {count}", True))
    return DecompositionReport(component_count=count, checks=tuple(checks))
