"""Primary decomposition pipeline for PCB ideals.

The isolated part of a PCB ideal is cut out by the characters of the finite
torsion group of the column lattice: each character lifts to a monomial
curve map whose kernel is one isolated component. From dimension four on,
one extra component primary to the irrelevant maximal ideal appears, and it
is the ideal plus the single syzygy monomial x^{b(n)}. Everything here is
verified computation: candidates are produced by formula and then checked
against the Groebner oracle. verify_full_decomposition is the one place
that does so: it builds the ideal, its hull and the embedded component once
and decides every verification question on them, each fact once. Every
ideal here is homogeneous for deg x_i = nu_i, because nu L = 0. The hull
S has one route, the saturation I : x_1^∞ on the nu-graded path of the
oracle: one Buchberger run under a weighted reverse-lex order, each basis
element divided by its whole power of x_1, and one tail reduction, with
no colon, no auxiliary variable and no intersection (see
oracle.saturate). hull, unmixedness_test and verify_full_decomposition
all read it (see _saturation). In verify, one division sweep into
f_1, ..., f_{n-1}, which are already a Groebner basis, proves S equal to
I : x^{b(n)} (see _hull_checks). S and the embedded component E meet in
the ideal, and S is stable under the colon by x^{b(n)}, because S is
saturated by x_1 (see embedded_checks); no fact is recomputed. Over
F_p verify realizes no component and lists no character: the hull's
basis is lattice binomials, and that S is the meet of the d isolated
components, each once, follows from one Hilbert series and integer
checks on the n - 1 generators of the character group, read off the
normalized SNF (see _chain_checks). Only decompose lists the d
characters and realizes their components: one elimination gives the
trivial-character component and torus twists give the others (see
PrimeFieldRealization).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

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
from .intmat import adjugate, lattice_contains
from .oracle import (
    DEGREVLEX,
    GF,
    QQ,
    Ideal,
    Polynomial,
    PrimeField,
    WeightedRevLex,
    dimension_one_degree,
    normal_form,
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


def pcb_ideal(P: PcbMatrix, field) -> Ideal:
    """The ideal of the column binomials f_1, ..., f_n, generated in that order."""
    return Ideal(field, P.n, [binomial_to_polynomial(g, field, P.n) for g in generators(P)])


class ComponentSpec(NamedTuple):
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
    """All d isolated component specs, lambda_index in lexicographic order.

    The character of lambda_index k is e = sum_j k_j (r / d_j) row_j of the
    normalized SNF's left transform, modulo r. decompose lists them;
    verify lists none: it proves that every one kills L and that their
    components are distinct from the n - 1 generators (r / d_j) row_j
    alone (see _chain_checks)."""
    snf = normalized_snf(P)
    _, _, nu = associated_vector(P)
    factors = snf.invariant_factors
    r = factors[-1]
    columns = list(zip(*([(r // dj) * v for v in row] for dj, row in zip(factors, snf.P.data))))
    return tuple(
        ComponentSpec(k, tuple(sum(map(mul, k, col)) % r for col in columns), nu, r)
        for k in itertools.product(*(range(dj) for dj in factors))
    )


def hull_is_prime(P: PcbMatrix) -> bool:
    """The hull is prime exactly when the torsion order is 1."""
    _, d, _ = associated_vector(P)
    return d == 1


class ComponentCount(NamedTuple):
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


def _saturation(P: PcbMatrix, I: Ideal) -> Tuple[Ideal, int]:
    """saturate(I, x_1, nu): the hull S = I : x_1^∞, from one Buchberger
    run whose basis is divided by powers of x_1 unless I : x_1 = I, and
    steps, which is zero exactly when I : x_1 = I (see oracle.saturate)."""
    return saturate(I, Polynomial.variable(I.field, P.n, 0), associated_vector(P)[2])


def hull(P: PcbMatrix, field) -> Ideal:
    """Intersection of the isolated components, the saturation I : x_1^∞
    graded by nu. No isolated component holds a variable, and the
    embedded one, for n >= 4, holds a power of x_1 (see embedded_checks),
    so this is also I : x^{b(n)}; verify_full_decomposition proves it."""
    return _saturation(P, pcb_ideal(P, field))[0]


def embedded_component(P: PcbMatrix, field) -> Ideal:
    """The component primary to (x_1, ..., x_n): the ideal plus x^{b(n)}.

    embedded_checks proves the claim; verify_full_decomposition runs it.
    """
    n = P.n
    if n < 4:
        raise DimensionTooSmall(f"embedded component needs n >= 4, got n = {n}")
    I = pcb_ideal(P, field)
    return Ideal(field, n, I.gens + (socle_monomial(P, field),))


def _primary_to_origin(P: PcbMatrix, I: Ideal, E: Ideal) -> bool:
    """Whether the premises hold that make E primary to (x_1, ..., x_n)
    with no Groebner basis of E: every a_ij > 0, b(n) != 0, and E is
    generated by the generators of I and x^{b(n)} (see embedded_checks)."""
    positive = all(v > 0 for row in P.a for v in row)
    xb = socle_monomial(P, I.field)
    return positive and xb.total_degree() > 0 and E.gens == I.gens + (xb,)


def embedded_checks(P: PcbMatrix, I: Ideal, S: Ideal, E: Ideal, saturated: bool) -> List[Tuple[str, bool]]:
    """Prove E = I + (x^{b(n)}) the embedded component of I, with hull
    S = I : x^{b(n)}. saturated is the hull sweep, already computed, that
    when True proves S = I : x^{b(n)} and S : x_1 = S for S the saturation
    I : x_1^∞ (see _hull_checks), on the good and the char-2 path alike.
    No colon, no intersection and no Groebner basis is computed here: the
    colon and the meet are read off saturated, and a False reports both
    checks False.

    Lemma A (positivity). Each generator is f_j = x_j^{a_jj} minus the
    product of x_i^{a_ij} over i != j, and every a_ij is positive. A prime
    that holds I and x_k holds, for each j != k, the product in f_j, which
    has x_k as a factor, hence x_j^{a_jj} and x_j: it holds every
    variable. Let T ⊇ I with T : x_1 = T. An associated prime of T that
    held a variable would be (x_1, ..., x_n) and would hold x_1, a
    nonzerodivisor modulo T. So every variable is a nonzerodivisor modulo
    T, and T : m = T for every monomial m. With T = S: S : x^{b(n)} = S.

    Lemma B. Write f = x^{b(n)}, so S = I : f, and let S : f = S. Take
    z = a + hf in S ∩ (I + (f)) with a in I. Then zf and af lie in I, so
    hf^2 does, h lies in I : f^2 = S : f = S, hf lies in I, and so does z.
    Hence S ∩ E = I.

    E is primary to (x) = (x_1, ..., x_n), by Lemma A again
    (_primary_to_origin checks its premises in integers):
    - every a_ij > 0, and b(n) != 0;
    - so E ⊆ (x): both terms of every f_j and x^{b(n)} are nonconstant
      monomials. Any prime holding E holds x^{b(n)}, hence a variable,
      hence all variables by Lemma A;
    - so (x) is the only prime over E, rad E = (x), and E, an ideal whose
      radical is maximal, is primary to it.

    "embedded component verified": S : x^{b(n)} = S (Lemma A), S differs
    from I, and E is (x)-primary. "hull meets embedded component in the
    ideal": S ∩ E = I (Lemma B).
    """
    return [
        ("embedded component verified", saturated and S != I and _primary_to_origin(P, I, E)),
        ("hull meets embedded component in the ideal", saturated),
    ]


def unmixedness_test(P: PcbMatrix, field) -> bool:
    """True when I : x_1 = I, which happens exactly for n <= 3: the
    saturation by x_1 that hull computes moves I by no step."""
    return _saturation(P, pcb_ideal(P, field))[1] == 0


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


class PrimeFieldRealization:
    """The isolated components over F_p: trivial is P_0, the kernel of the
    trivial-character map psi_0: x_i -> t^{nu_i}, and kernels[i] is its
    twist D_{-e}(P_0) by the character e of specs[i], so no component is
    stored apart from P_0 and its character.

    Write psi_e for x_i -> zeta^{e_i} t^{nu_i} and D_e for the substitution
    x_i -> zeta^{e_i} x_i (Eisenbud-Sturmfels, "Binomial ideals"). Then
    psi_e = psi_0 o D_e, so ker psi_e = D_e^{-1}(ker psi_0) = D_{-e}(P_0).
    D_{-e} multiplies each term c x^a by the unit zeta^{-e.a}, so it keeps
    every leading and every standard monomial: applied to the reduced basis
    of P_0 and made monic again, it gives the reduced basis of ker psi_e
    exactly.

    Immutable and equal by its five fields; kernels is computed on first
    use and kept.
    """

    def __init__(self, p: int, r: int, zeta: int, specs: Tuple[ComponentSpec, ...], trivial: Ideal):
        self.__dict__.update(p=p, r=r, zeta=zeta, specs=specs, trivial=trivial)

    def __setattr__(self, name, value):
        raise AttributeError(f"PrimeFieldRealization is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PrimeFieldRealization is immutable: cannot delete {name!r}")

    def _key(self):
        return self.p, self.r, self.zeta, self.specs, self.trivial

    def __eq__(self, other):
        if other.__class__ is not PrimeFieldRealization:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # the trivial kernel, an Ideal, is unhashable

    @cached_property
    def kernels(self) -> Tuple[Ideal, ...]:
        field, n = self.trivial.field, self.trivial.nvars
        powers = [pow(self.zeta, k, self.p) for k in range(self.r)]
        basis = self.trivial.groebner()
        kernels = []
        for s in self.specs:
            e = s.coeff_exponents
            twisted = []
            for g, lm in zip(basis, _leading_monomials(basis)):
                lead = sum(map(mul, e, lm))
                # c x^a -> c zeta^{-e.a} x^a, divided by the new leading coefficient
                twisted.append(Polynomial(field, n, {
                    a: field.mul(c, powers[(lead - sum(map(mul, e, a))) % self.r])
                    for a, c in g.terms.items()
                }))
            kernels.append(Ideal._with_basis(field, n, twisted, DEGREVLEX))
        return tuple(kernels)


def realize_over_prime_field(P: PcbMatrix, p: int) -> PrimeFieldRealization:
    """Instantiate every isolated component over F_p, p = 1 (mod r).

    zeta is g^((p-1)/r) for the least primitive root g, so the realization
    is reproducible. One elimination computes P_0; the realization twists
    it into every other component (see PrimeFieldRealization).
    """
    field, good = prime_field_for(P, p)
    specs = enumerate_components(P)
    r = specs[0].root_order
    if not good:
        raise BadPrime(p, r)  # the components collapse; none is realized apart
    zeta = pow(least_primitive_root(p), (p - 1) // r, p) if r > 1 else 1
    trivial = ring_map_kernel([Polynomial.monomial(field, 1, (w,)) for w in specs[0].weights])
    return PrimeFieldRealization(p, r, zeta, specs, trivial)


class DecompositionReport(NamedTuple):
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


def _hull_swept(P: PcbMatrix, I: Ideal, S: Ideal, nu: Sequence[int]) -> bool:
    """Whether S : x_1 = S and x^{b(n)} g lies in J = (f_1, ..., f_{n-1}),
    the generators of I but the last, for every g in S's reduced
    WeightedRevLex(nu, 0) basis, which for S ⊇ I homogeneous for nu proves
    S = I : x^{b(n)} = J : x^{b(n)} (see _hull_checks). No Groebner basis
    of J is computed."""
    basis = S.groebner(WeightedRevLex(nu, 0))
    J, xb = I.gens[:-1], socle_monomial(P, S.field)
    order = WeightedRevLex(nu, P.n - 1)
    stable = not any(min(e[0] for e in g.terms) for g in basis)
    return stable and not any(normal_form(xb * g, J, order).terms for g in basis)


def _hull_checks(P: PcbMatrix, I: Ideal, S: Ideal, steps: int, swept: bool) -> List[Tuple[str, bool]]:
    """The hull checks: the hull computed once and proved by one division
    sweep, the unmixedness dichotomy, the mixedness witness and the
    lattice shape of S's basis.

    S is the saturation I : x_1^∞ and steps the least N with I : x_1^N
    saturated, both as _saturation returns them: one division of I's
    reduced WeightedRevLex(nu, 0) basis by powers of x_1, with steps the
    largest x_1-order in that basis (see oracle.saturate). swept is
    _hull_swept(P, I, S, nu). No colon by x^{b(n)} is computed, from
    I or from J = (f_1, ..., f_{n-1}); the sweep proves
    S = I : x^{b(n)} = J : x^{b(n)}:
    1. The generators of J are a Groebner basis under
       WeightedRevLex(nu, n - 1), in every characteristic. Both terms of
       f_j have the same nu-degree, because nu L = 0. Among them the order
       prefers less x_n: x_j^{a_jj} has no x_n, and the other term has
       x_n-exponent a_nj > 0, so the leading monomial of f_j is
       x_j^{a_jj}. These are pairwise coprime, so every S-polynomial
       reduces to zero (Buchberger's first criterion), and a polynomial
       lies in J exactly when its normal form modulo f_1, ..., f_{n-1} is
       zero: one division, with no Buchberger run.
    2. S contains I and S : x_1 = S. A saturation holds both, and
       _hull_swept reads the second off S's reduced WeightedRevLex(nu, 0)
       basis: by Bayer-Stillman (see oracle.colon) S : x_1 = S exactly
       when x_1 divides no element of it. Lemma A of embedded_checks then
       gives S : x^{b(n)} = S.
    3. If x^{b(n)} g lies in J for every g in that basis, then
       S ⊆ J : x^{b(n)} ⊆ I : x^{b(n)} ⊆ S : x^{b(n)} = S, by J ⊆ I,
       I ⊆ S and 2. So S = I : x^{b(n)} = J : x^{b(n)}.
    The one boolean swept therefore answers both "colon by x^{b(n)}
    agrees from I and from J" and "saturation by x_1 agrees with the
    colon", and a failed sweep reports both False. It is also the
    `saturated` that embedded_checks and _chain_checks take, and the
    char-2 check "hull saturated by x_1". steps is zero exactly when no
    element of I's basis holds x_1, that is when I : x_1 = I, which
    decides the unmixedness dichotomy.

    No Groebner basis is computed here either. The saturation leaves the
    reduced WeightedRevLex(nu, 0) bases of I and of S cached, and every
    check reads them: the mixedness witness lies in S and not in I when
    its normal form is zero modulo S's basis and nonzero modulo I's, and
    the lattice check runs over S's basis. Its boolean, the last check,
    is the `lattice` that _chain_checks takes.
    """
    field, n = I.field, P.n
    m, _, nu = associated_vector(P)
    order = WeightedRevLex(nu, 0)
    basis = S.groebner(order)
    checks = [
        ("colon by x^{b(n)} agrees from I and from J", swept),
        ("saturation by x_1 agrees with the colon", swept),
        ("unmixed exactly when n <= 3", (steps == 0) == (n <= 3)),
    ]
    if n >= 4:
        g = binomial_to_polynomial(mixedness_witness(P), field, n)
        inside = not normal_form(g, basis, order) and bool(normal_form(g, I.groebner(order), order))
        checks.append(("witness sits in the colon but not the ideal", inside))
    snf = normalized_snf(P)
    L = P.signed
    lattice_ok = True
    for g in basis:
        terms = sorted(g.terms.items(), key=lambda t: order.key(t[0]), reverse=True)
        if len(terms) != 2 or terms[0][1] != field.one or terms[1][1] != field.neg(field.one):
            lattice_ok = False
            break
        u, v = terms[0][0], terms[1][0]
        member, _ = lattice_contains(L, [a - b for a, b in zip(u, v)], snf)
        if not member or g.substitute_powers(m).terms:
            lattice_ok = False
            break
    checks.append(("hull basis is lattice binomials killed by the weights", lattice_ok))
    return checks


def _char2_checks(
    P: PcbMatrix, I: Ideal, S: Ideal, embedded: List[Tuple[str, bool]], saturated: bool
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
    S sits inside a; S differs from I; S : x1 = S (saturated, the hull
    sweep of the caller: S is the saturation I : x1^∞, proved equal to
    I : x^{b(n)} by one division into f_1, f_2, f_3, see _hull_checks);
    and S meets E in I, which embedded_checks reads off the same sweep
    (its Lemma B).

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
    a_gens = diagonal_prime_gens(P, I.field)
    verified, meets = embedded
    checks = [
        ("fourth power of each prime generator inside the hull", all(S.contains(g * g * g * g) for g in a_gens)),
        ("seventh power of the diagonal prime inside the hull", _power_inside(S, a_gens, 7)),
        ("hull inside the diagonal prime", Ideal(I.field, P.n, a_gens).includes(S)),
        ("hull differs from the ideal", S != I),
        ("hull saturated by x_1", saturated),
        meets,
    ]
    for name, ok in [verified] + checks:
        if not ok:
            raise VerificationFailed(f"char-2 check failed: {name}")
    return checks


def _leading_monomials(basis: Sequence[Polynomial], order=DEGREVLEX) -> Tuple[Tuple[int, ...], ...]:
    return tuple(g.leading_term(order)[0] for g in basis)


def _kernel_vectors(P: PcbMatrix) -> List[Tuple[int, ...]]:
    """w_1, ..., w_{n-1}: the first n - 1 columns of the adjugate of the
    normalized SNF's left transform, a basis of ker nu ∩ Z^n when it is
    unimodular (_chain_checks proves what it needs of them)."""
    adj = adjugate(normalized_snf(P).P)
    return [adj.column(j) for j in range(P.n - 1)]


def _intersection_witness(P: PcbMatrix, S: Ideal, saturated: bool, lattice: bool) -> Optional[str]:
    """None when the certificate proves S = P_1 ∩ ... ∩ P_d (see
    _chain_checks), else the first fact that fails."""
    if not saturated:
        return "hull not saturated by x_1"
    if not lattice:
        return "hull basis is not lattice binomials"
    snf = normalized_snf(P)
    left, factors = snf.P, snf.invariant_factors
    r = factors[-1]
    for j, (dj, row) in enumerate(zip(factors, (left @ P.signed).data), start=1):
        if r % dj or any(v % dj for v in row):
            return f"generator {j} of the character group does not kill the lattice"
    kernel = _kernel_vectors(P)
    product = [[sum(map(mul, row, w)) for w in kernel] for row in left.data]
    sign = product[0][0]
    if sign not in (1, -1) or product != [[sign if i == j else 0 for j in range(P.n - 1)] for i in range(P.n)]:
        return "the SNF's left transform times the kernel vectors is not ±[I; 0]"
    _, d, nu = associated_vector(P)
    if math.gcd(*nu) != 1:
        return "the weights have a common factor"
    order = WeightedRevLex(nu, 0)
    hull_degree = dimension_one_degree(_leading_monomials(S.groebner(order), order), nu)
    if hull_degree is None:
        return "hull is not of dimension one"
    if hull_degree != d:
        return f"deg S = {hull_degree}, sum of component degrees = {d}"
    return None


def _chain_checks(
    P: PcbMatrix,
    I: Ideal,
    S: Ideal,
    meets: Optional[bool],
    saturated: bool,
    lattice: bool,
) -> Tuple[List[Tuple[str, bool]], int]:
    """Prove I = P_1 ∩ ... ∩ P_d (∩ E) and that no component is redundant;
    returns the checks and the number of components.

    Write P L Q = D for the normalized SNF, d_1 | ... | d_{n-1} = r its
    invariant factors, d their product, and nu its left transform's last
    row (see associated_vector). The character group of the torsion group
    of Z^n / L is generated by e^(j) = (r / d_j) row_j(P), j < n, and its
    d elements are e_k = Σ_j k_j e^(j) mod r for 0 <= k_j < d_j, the
    characters that enumerate_components lists for decompose. P_k is the
    kernel of x_i -> zeta^{(e_k)_i} t^{nu_i}, zeta a primitive r-th root
    of unity, which F_p holds because p = 1 (mod r) (see prime_field_for).
    No P_k is realized and no character is listed: every fact about them
    below is a fact about the n - 1 generators, in integers
    (Eisenbud-Sturmfels, "Binomial ideals", 1996). S is the hull
    I : x^{b(n)}, and meets says whether S ∩ E = I (embedded_checks
    decided it); it is None for n <= 3, where there is no E. saturated is
    the hull sweep (S : x_1 = S, see _hull_checks), and lattice is the
    hull check "hull basis is lattice binomials killed by the weights":
    every element of S's reduced basis is x^u - x^v with u - v in the
    column lattice L.

    Facts from integers, each checked here on one matrix product; none
    needs Q or the unimodularity of P:
    a. Kill. d_j divides r, and row_j(P) L = 0 (mod d_j) for every
       j < n, read off the rows of P L. Then e^(j) is an integer vector
       and e^(j) L = (r / d_j) row_j(P) L = 0 (mod r), so every e_k kills
       every column of L modulo r, and S ⊆ P_k: a basis element x^u - x^v
       of S maps to (zeta^{e.u} - zeta^{e.v}) t^{nu.u} = 0, because
       nu.u = nu.v by nu L = 0 and e.(u - v) = 0 (mod r) for u - v in L.
    b. Distinct. P W = ε[I_{n-1}; 0] with ε = ±1, for W the columns
       w_1, ..., w_{n-1} of _kernel_vectors. The last row, nu, gives
       nu.w_l = 0, and the others give e_k.w_l = ε (r / d_l) k_l, so the
       residue vector (e_k.w_l mod r)_l of e_k is ε((r / d_l) k_l mod r)_l,
       which differs for distinct k, because 0 <= (r / d_l) k_l < r. And
       P_k != P_k' when (e_k - e_k').w != 0 (mod r) for some w in
       ker nu ∩ Z^n: x^{w+} - zeta^{e_k.w} x^{w-} lies in P_k and not in
       P_k'. So the d components are pairwise distinct.
    c. Count. deg P_k = 1, because gcd(nu) = 1 (checked): F_p[x]/P_k is
       isomorphic to F_p[t^{nu_1}, ..., t^{nu_n}], which is
       one-dimensional in every large degree. So d distinct components of
       degree one hold S.

    Intersection. No ideal is intersected. Grade by deg x_i = nu_i: I is
    homogeneous because nu L = 0, hence so is S, and each P_k is a
    homogeneous prime of dimension one, the kernel of a graded map into
    the domain F_p[t]. S = P_1 ∩ ... ∩ P_d follows from:
    1. S : x_1 = S, because S is a saturation by x_1. So x_1 is a
       nonzerodivisor modulo S, and the irrelevant ideal (x_1, ..., x_n)
       is not associated to S.
    2. S ⊆ P_k for every k (a).
    3. dim S = 1, and deg S = d. deg S comes from the nu-graded Hilbert
       series of the leading ideal of S's reduced WeightedRevLex(nu, 0)
       basis, the one the saturation left cached
       (oracle.dimension_one_degree, after Bayer-Stillman), which for a
       homogeneous ideal equals the ideal's own under any order.
    By 2 each P_k, of dimension one like S, is a minimal prime of S, and
    by b they are d distinct primes. The associativity formula gives
    deg S = Σ_P length(S_P) deg P over all minimal primes P of S of
    dimension one, every deg P > 0, so by c and 3 every length at a P_k
    is one and S has no other minimal prime of dimension one. A
    homogeneous ideal of dimension one has no further associated prime
    but the irrelevant ideal, which 1 excludes. Hence S is unmixed and
    its P_k-primary component is S_{P_k} ∩ R = P_k, so
    S = P_1 ∩ ... ∩ P_d. Then for n >= 4, S ∩ E = I gives the whole
    intersection; for n <= 3, S = I does. A failure raises
    VerificationFailed with one witness after the message: S ∩ E != I (or
    S != I), an unsaturated hull, a hull basis of other than lattice
    binomials, the first generator that does not kill the lattice, a W
    with P W != ±[I; 0], weights with a common factor, a hull of
    dimension other than one, or the two degrees that differ.

    Irredundancy. Each P_k has dimension one and holds no monomial (a
    monomial maps to a nonzero term). Suppose P_j is redundant: the meet
    of the other components lies in P_j. A prime that holds a finite
    intersection of ideals holds one of them, so some P_k lies in P_j with
    k != j, or E does. P_k in P_j makes them equal, because both primes
    have dimension one, which b excludes. E in P_j is impossible: E holds
    the monomial x^{b(n)}. E itself is redundant exactly when the P_k
    meet in I, that is when S = I, so S != I is checked, and a failure
    raises VerificationFailed naming E, the last component.
    """
    if meets is None:
        witness = None if S == I else "hull differs from the ideal"
    else:
        witness = None if meets else "hull meets the embedded component outside the ideal"
    witness = witness or _intersection_witness(P, S, saturated, lattice)
    if witness:
        raise VerificationFailed(f"intersection of all components is not the ideal: {witness}")
    checks = [("intersection of all components equals the ideal", True)]
    k = associated_vector(P)[1]
    if meets is not None:
        k += 1
        if S == I:
            raise VerificationFailed(f"component {k} is redundant", index=k - 1)
    checks.append(("every component is irredundant", True))
    return checks, k


def verify_full_decomposition(P: PcbMatrix, p: Optional[int] = None) -> DecompositionReport:
    """Every check of `pcb verify --level full`, over F_p, or over Q when p is None.

    The ideal I, its hull S and, for n >= 4, the embedded component
    E = I + (x^{b(n)}) are built once here; every check below shares
    them. S is computed once, on every path, as the saturation
    I : x_1^∞ graded by nu (see _saturation), and one division sweep of
    its basis into f_1, ..., f_{n-1} proves S = I : x^{b(n)} (see
    _hull_checks); no colon by x^{b(n)} and no Groebner basis of
    (f_1, ..., f_{n-1}) is computed. That one boolean decides the embedded-component checks (see
    embedded_checks). Over Q and over a good F_p (see prime_field_for)
    the hull checks run; over F_p the d isolated components are then
    certified, without realizing or listing any of them, to meet in S by
    a degree count and to be irredundant, from the n - 1 generators of
    the character group (see _chain_checks). On this path the
    saturation's is the only Groebner run. In the char-2 case the
    collapse checks run instead, on the same boolean. A failed chain or char-2 check raises VerificationFailed;
    the others report False.
    """
    field, good = (QQ, True) if p is None else prime_field_for(P, p)
    nu = associated_vector(P)[2]
    I = pcb_ideal(P, field)
    S, steps = _saturation(P, I)
    swept = _hull_swept(P, I, S, nu)
    embedded = embedded_checks(P, I, S, embedded_component(P, field), swept) if P.n >= 4 else []
    count = None
    if not good:
        checks, count = _char2_checks(P, I, S, embedded, swept), 2
    else:
        hull_checks = _hull_checks(P, I, S, steps, swept)
        checks = hull_checks + embedded
        if p is not None:
            meets = embedded[1][1] if embedded else None
            lattice = hull_checks[-1][1]
            chain, count = _chain_checks(P, I, S, meets, swept, lattice)
            checks += chain
    if count is not None:
        checks.append((f"component count is {count}", True))
    return DecompositionReport(component_count=count, checks=tuple(checks))
