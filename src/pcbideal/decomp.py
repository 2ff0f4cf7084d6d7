"""Primary decomposition pipeline for PCB ideals.

The isolated part of a PCB ideal is cut out by the characters of the finite
torsion group of the column lattice: each character lifts to a monomial
curve map whose kernel is one isolated component. From dimension four on,
one extra component primary to the irrelevant maximal ideal appears, and it
is the ideal plus the single syzygy monomial x^{b(n)}. Everything here is
verified computation: candidates are produced by formula and then checked
against the Groebner oracle. verify_full_decomposition is the one place
that does so: it builds the ideal and its hull once and decides every
verification question on them, each fact once; the embedded component
E = I + (x^{b(n)}) is a definition, and verify builds no E. Every
ideal here is homogeneous for deg x_i = nu_i, because nu L = 0. The hull
S has one route, the saturation I : x_1^∞ on the nu-graded path of the
oracle: one Buchberger run under a weighted reverse-lex order, each basis
element divided by its whole power of x_1, and one tail reduction, with
no colon, no auxiliary variable and no intersection (see
oracle.saturate). hull, unmixedness_test and verify_full_decomposition
all read it (see _saturation). verify decides every fact about S once,
in one record built from P, I and S (see _hull_record), and every check
reads that record. One sweep of S's basis into f_1, ..., f_{n-1},
which are already a Groebner basis with the pure powers x_j^{a_jj} as
leading terms, proves S equal to I : x^{b(n)}: the division is integer
rewriting of exponent vectors, each term of x^{b(n)} g going to one
term with the same coefficient (see _hull_swept and _hull_checks). S
and E meet in the ideal, and S is stable under the colon by x^{b(n)},
because S is saturated by x_1 (see embedded_checks); the one sweep
decides both, and the meet the chain takes. Whether S differs from I,
the unmixedness dichotomy, is decided once too. verify accepts F_p
exactly when p = 1 (mod r′), r′ the part of r prime to p (see
prime_field_for), and over F_p it realizes no component and lists no
character: the hull's basis is lattice binomials, so S is the lattice
ideal I_L, and that S is the meet of d′ primary components, d′ the part
of d prime to p, each prime when p does not divide r, follows from one
Hilbert series and integer checks on the n - 1 generators of the
character group, read off the normalized SNF, with no normal form (see
_chain_checks); every accepted p runs that one certificate. Only decompose
lists the d characters and realizes their components, once each, for
p = 1 (mod r): one elimination gives the trivial-character component
and one loop of torus twists gives all d, in the decompose module (see
decompose.realize_over_prime_field), which no other command loads.
"""

from __future__ import annotations

import math
from operator import add, mul, sub
from typing import List, NamedTuple, Optional, Sequence, Tuple

# ComponentCount and component_count are core's, kept here under their old names
from .core import (
    Binomial,
    ComponentCount,
    PcbMatrix,
    analyze,
    associated_vector,
    component_count,
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
    dimension_one_residue,
    normal_form,
    saturate,
)


class BadPrime(ValueError):
    """r is None when p is refused before any matrix is read (p not prime)."""

    def __init__(self, p: int, r: Optional[int], reason: str = ""):
        self.p = p
        self.r = r
        if not reason:
            reason = f"need a prime p with p = 1 (mod {r})"
        head = f"BadPrime(p={p})" if r is None else f"BadPrime(p={p}, r={r})"
        super().__init__(f"{head}: {reason}")


class VerificationFailed(RuntimeError):
    def __init__(self, message: str, index: Optional[int] = None):
        self.index = index
        super().__init__(message)


def binomial_to_polynomial(b: Binomial, field, nvars: int) -> Polynomial:
    return Polynomial.from_terms(field, nvars, [(1, b.plus), (-1, b.minus)])


def pcb_ideal(P: PcbMatrix, field) -> Ideal:
    """The ideal of the column binomials f_1, ..., f_n, generated in that order."""
    return Ideal(field, P.n, [binomial_to_polynomial(g, field, P.n) for g in generators(P)])


def hull_is_prime(P: PcbMatrix) -> bool:
    """The hull is prime exactly when the torsion order is 1, as analyze
    reads it off component_count."""
    return analyze(P).hull_prime


def _saturation(P: PcbMatrix, I: Ideal) -> Ideal:
    """The hull S = I : x_1^∞ by saturate(I, x_1, nu): one Buchberger run
    whose basis is divided by powers of x_1 unless I : x_1 = I, in which
    case I itself comes back (see oracle.saturate). Its step count is
    not read: S = I exactly when I : x_1 = I, and whoever needs that
    compares S with I."""
    return saturate(I, Polynomial.variable(I.field, P.n, 0), associated_vector(P)[2])[0]


def hull(P: PcbMatrix, field) -> Ideal:
    """Intersection of the isolated components, the saturation I : x_1^∞
    graded by nu. No isolated component holds a variable, and the
    embedded one, for n >= 4, holds a power of x_1 (see embedded_checks),
    so this is also I : x^{b(n)}; verify_full_decomposition proves it."""
    return _saturation(P, pcb_ideal(P, field))


def _primary_to_origin(P: PcbMatrix) -> bool:
    """Whether the premises hold that make E = I + (x^{b(n)}) primary to
    (x_1, ..., x_n) with no Groebner basis of E: every a_ij > 0 and
    b(n) != 0 (see embedded_checks)."""
    return all(v > 0 for row in P.a for v in row) and any(syzygy_vectors(P)[P.n - 1])


def embedded_checks(P: PcbMatrix, H: _HullRecord) -> List[Tuple[str, bool]]:
    """Prove E = I + (x^{b(n)}) the embedded component of I, with hull
    S = I : x^{b(n)}. E is that sum by definition (it is
    decompose.embedded_component), so no ideal E is built or taken here: its
    facts are facts about P, I and S, read off the hull record H
    (_hull_record). H.swept, when True, proves S = I : x^{b(n)} and
    S : x_1 = S for S the saturation I : x_1^∞ (see _hull_checks), in
    every characteristic, and H.distinct is S != I. No colon, no
    intersection and no Groebner basis is computed here: the colon and
    the meet are read off H.swept, and a False reports both checks False.

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
        ("embedded component verified", H.swept and H.distinct and _primary_to_origin(P)),
        ("hull meets embedded component in the ideal", H.swept),
    ]


def unmixedness_test(P: PcbMatrix, field) -> bool:
    """True when I : x_1 = I, which happens exactly for n <= 3: then the
    saturation I : x_1^∞ that hull computes is I itself. Conversely
    I : x_1 ⊆ I : x_1^∞, so S = I gives I : x_1 = I."""
    I = pcb_ideal(P, field)
    return _saturation(P, I) == I


def prime_field(p: int) -> PrimeField:
    """GF(p) for any `--field fp:<p>` request; BadPrime unless p is a prime
    below 2**31. Every command asks this first, whatever it does with F_p."""
    try:
        return GF(p)
    except ValueError as err:
        raise BadPrime(p, None, str(err)) from None


def _prime_to(m: int, p: int) -> int:
    """m with every factor p removed: the part of m prime to p. A loop and
    not a recursion, so that no exponent of p, 2**5000 in m say, can
    exhaust the stack."""
    while m % p == 0:
        m //= p
    return m


def prime_field_for(P: PcbMatrix, p: int) -> PrimeField:
    """GF(p) for a `--field fp:<p>` request to `verify --level full`, or
    BadPrime: it accepts p or refuses it, and nothing else.

    The rule is decided here and nowhere else. r is the last invariant
    factor, the exponent of the torsion group G = Λ / L, Λ = ker nu ∩ Z^n.
    Write r = q r′, with q the p-part of r and r′ the part prime to p.
    How the hull splits over F_p depends only on G_p′, the part of G prime
    to p, whose exponent divides r′ (Eisenbud-Sturmfels, "Binomial
    ideals", Cor. 2.2). So p is accepted exactly when p = 1 (mod r′), that
    is when F_p holds the r′-th roots of unity, the values of the
    characters of G_p′ (see _chain_checks). q = 1 (p = 1 (mod r)) and
    r′ = 1 (r a power of p) are the two corners of the one rule, and one
    certificate covers both. Every other p, a p that is not prime
    included, is BadPrime; when p divides r the reason names r′. Nothing
    is factored: r′ is r with its factors p divided out, so refusing p
    costs no more than accepting it, whatever the size of r.
    """
    field = prime_field(p)
    r = normalized_snf(P).invariant_factors[-1]
    rest = _prime_to(r, p)
    if (p - 1) % rest:
        raise BadPrime(p, r, f"p divides r; need p = 1 (mod r' = {rest}), r' the part of r prime to p" if rest != r else "")
    return field


class DecompositionReport(NamedTuple):
    component_count: Optional[int]  # None over Q, where no component is realized
    checks: Tuple[Tuple[str, bool], ...]


class _HullRecord(NamedTuple):
    """Every fact verify decides about the hull S, each decided once, by
    _hull_record: the hull S, whose field the count reads; the leading
    monomial of each element of S's reduced WeightedRevLex(nu, 0) basis,
    which the saturation left cached, read once and shared by the lattice
    check and the degree; swept, the sweep of _hull_swept; lattice, the
    check of _lattice_binomials, which reads swept; distinct, whether
    S != I; and inside, for n >= 4, whether the mixedness witness lies in
    S and not in I (None for n <= 3). Every check reads this record, and
    none takes I."""

    S: Ideal
    leads: Tuple[Tuple[int, ...], ...]
    swept: bool
    lattice: bool
    distinct: bool
    inside: Optional[bool]


def _hull_record(P: PcbMatrix, I: Ideal, S: Ideal) -> _HullRecord:
    """The hull record of S, the saturation I : x_1^∞ (_saturation): the
    one verify helper that reads I. One Ideal comparison decides
    distinct, S != I; S and I both hold their reduced WeightedRevLex(nu, 0)
    bases, which the saturation left cached, so it compares those. The
    mixedness witness g lies in S and not in I when its normal form is
    zero modulo S's basis and nonzero modulo I's, both under that order
    (see _hull_checks)."""
    order = WeightedRevLex(associated_vector(P)[2], 0)
    basis = S.groebner(order)
    leads = _leading_monomials(basis, order)
    g = binomial_to_polynomial(mixedness_witness(P), S.field, P.n) if P.n >= 4 else None
    inside = None if g is None else not normal_form(g, basis, order) and bool(normal_form(g, I.groebner(order), order))
    swept = _hull_swept(P, basis)
    return _HullRecord(S, leads, swept, _lattice_binomials(P, basis, leads, swept), S != I, inside)


def _hull_swept(P: PcbMatrix, basis: Sequence[Polynomial]) -> bool:
    """Whether S : x_1 = S and x^{b(n)} g lies in J = (f_1, ..., f_{n-1}),
    the generators of I but the last, for every g in S's reduced
    WeightedRevLex(nu, 0) basis, which for S ⊇ I homogeneous for nu proves
    S = I : x^{b(n)} = J : x^{b(n)} (see _hull_checks). No Groebner basis
    of J is computed, and no polynomial is formed or divided: the sweep
    rewrites exponent vectors.

    Write f_j = x_j^{a_jj} - x^{t_j}. Then t_j = a_jj ε_j - L ε_j, for
    ε_j the j-th unit vector, so replacing x_j^{a_jj} by the tail x^{t_j}
    subtracts column j of L from the exponent vector. Let ν(e) take that
    step, k times at once for the largest k with k a_jj <= e_j, while
    some j < n allows one. Then the normal form of x^{b(n)} g modulo J is
    the sum of c x^{ν(b(n) + e)} over the terms c x^e of g, and
    x^{b(n)} g lies in J exactly when the coefficients that land on each
    exponent add up to zero:
    - f_1, ..., f_{n-1} are a Groebner basis under
      WeightedRevLex(nu, n - 1), with leading monomials x_j^{a_jj}
      (point 1 of _hull_checks), so a polynomial lies in J exactly when
      its normal form is zero;
    - the normal form modulo a Groebner basis is unique, whatever
      reducer each step applies, and linear;
    - f_j is monic with one other term, so a reduction step takes a term
      c x^e to the one term c x^{e - L ε_j}, and a monomial that no
      x_j^{a_jj} divides is its own normal form. So the normal form of
      x^e is x^{ν(e)};
    - ν terminates: each step keeps the nu-degree and raises the
      x_n-exponent by k a_nj > 0, and a nu-degree holds finitely many
      monomials, so every step strictly lowers the monomial in the
      well-order.
    Nothing here depends on the coefficients: the argument holds over Q
    and every F_p, F_2 included, and for any S, a wrong hull included."""
    if any(min(e[0] for e in g.terms) for g in basis):
        return False
    columns, shift = tuple(zip(*P.signed.data))[:-1], syzygy_vectors(P)[-1]
    for g in basis:
        field, image = g.field, {}
        for e, c in g.terms.items():
            x, moved = tuple(map(add, shift, e)), True
            while moved:
                moved = False
                for j, col in enumerate(columns):
                    if x[j] >= col[j]:
                        k = x[j] // col[j]
                        x, moved = tuple([v - k * w for v, w in zip(x, col)]), True
            image[x] = field.add(image.get(x, field.zero), c)
        if any(c != field.zero for c in image.values()):
            return False
    return True


def _hull_checks(P: PcbMatrix, H: _HullRecord) -> List[Tuple[str, bool]]:
    """The hull checks: the hull computed once and proved by one sweep of
    exponent vectors, the unmixedness dichotomy, the mixedness witness
    and the lattice shape of S's basis, each read off the hull record H
    (_hull_record).

    S is the saturation I : x_1^∞: one division of I's reduced
    WeightedRevLex(nu, 0) basis by powers of x_1 (see oracle.saturate).
    No colon by x^{b(n)} is computed, from I or from
    J = (f_1, ..., f_{n-1}); the sweep H.swept proves
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
       I ⊆ S and 2. So S = I : x^{b(n)} = J : x^{b(n)}. The division is
       exponent rewriting: the leading terms x_j^{a_jj} are pure powers
       and the f_j monic binomials, so it takes each term of x^{b(n)} g to
       one term with the same coefficient, and x^{b(n)} g lies in J when
       the coefficients of each exponent so reached cancel (see
       _hull_swept).
    The one boolean H.swept therefore answers both "colon by x^{b(n)}
    agrees from I and from J" and "saturation by x_1 agrees with the
    colon", and a failed sweep reports both False; embedded_checks and
    _chain_checks read it too.

    H.distinct, S != I, decides the unmixedness dichotomy: S = I exactly
    when I : x_1 = I. If I : x_1 = I then I : x_1^k = I for every k, so
    S = I; if S = I then I ⊆ I : x_1 ⊆ S = I. For n >= 4 the mixedness
    witness g shows I : x_1 != I: x_1 g lies in I, and H.inside is
    whether g lies in S and not in I, from its normal forms modulo the
    cached reduced WeightedRevLex(nu, 0) bases of S and of I. The lattice
    check H.lattice runs over S's basis (see _lattice_binomials).
    """
    checks = [
        ("colon by x^{b(n)} agrees from I and from J", H.swept),
        ("saturation by x_1 agrees with the colon", H.swept),
        ("unmixed exactly when n <= 3", H.distinct == (P.n >= 4)),
    ]
    if P.n >= 4:
        checks.append(("witness sits in the colon but not the ideal", H.inside))
    checks.append(("hull basis is lattice binomials killed by the weights", H.lattice))
    return checks


def _lattice_binomials(P: PcbMatrix, basis: Sequence[Polynomial], leads: Sequence[Tuple[int, ...]], swept: bool) -> bool:
    """Whether every element of S's basis is x^u - x^v with u - v in the
    column lattice L, killed by the weights x_i -> t^{m_i}; swept is
    _hull_swept of the same basis.

    The basis is reduced and monic, so an element is such a binomial
    exactly when it has two terms, its leading monomial u, read once in
    leads, with coefficient 1 and another v with coefficient -1, and
    u - v lies in L. Its image t^{m.u} - t^{m.v} is zero exactly when
    m.u = m.v, in every characteristic, F_2 included.

    When the sweep holds, u - v lies in L already, with no Smith form
    solve. A step of ν subtracts an integer multiple of a column of L, so
    ν(b(n) + u) = b(n) + u - L k and ν(b(n) + v) = b(n) + v - L k' for
    integer vectors k, k'. The sweep adds the coefficients 1 and -1 of the
    two terms on the exponents they land on, and it holds only when every
    such sum is zero. Two different exponents would carry the sums 1 and
    -1, nonzero in every field, so both terms landed on one exponent, and
    u - v = L (k - k'). Only a failed sweep
    solves D y = P (u - v) by lattice_contains, which checks its
    certificate against L."""
    m = associated_vector(P)[0]
    snf = None if swept else normalized_snf(P)
    for g, u in zip(basis, leads):
        v, one = next((e for e in g.terms if e != u), u), g.field.one
        if len(g.terms) != 2 or g.terms != {u: one, v: g.field.neg(one)} or sum(map(mul, m, u)) != sum(map(mul, m, v)):
            return False
        if not swept and not lattice_contains(P.signed, list(map(sub, u, v)), snf)[0]:
            return False
    return True


def _leading_monomials(basis: Sequence[Polynomial], order=DEGREVLEX) -> Tuple[Tuple[int, ...], ...]:
    return tuple(g.leading_term(order)[0] for g in basis)


def _kernel_vectors(P: PcbMatrix) -> List[Tuple[int, ...]]:
    """w_1, ..., w_{n-1}: the first n - 1 columns of the adjugate of the
    normalized SNF's left transform, a Z-basis of ker nu ∩ Z^n once
    P W = ±[I; 0] is checked (_chain_checks proves what it needs of them)."""
    adj = adjugate(normalized_snf(P).P)
    return [adj.column(j) for j in range(P.n - 1)]


def _intersection_witness(P: PcbMatrix, H: _HullRecord) -> Optional[str]:
    """None when the certificate proves S the meet of d′ primary
    components, each prime when p does not divide r (see _chain_checks),
    else the first fact that fails. H is the hull record (_hull_record)."""
    if not H.swept:
        return "hull not saturated by x_1"
    if not H.lattice:
        return "hull basis is not lattice binomials"
    snf = normalized_snf(P)
    left, factors = snf.P, snf.invariant_factors
    r = factors[-1]
    columns = tuple(zip(*P.signed.data))
    for j, (dj, row) in enumerate(zip(factors, left.data), start=1):
        if r % dj or any(sum(map(mul, row, col)) % dj for col in columns):
            return f"generator {j} of the character group does not kill the lattice"
    kernel = _kernel_vectors(P)
    product = [[sum(map(mul, row, w)) for w in kernel] for row in left.data]
    sign = product[0][0]
    if sign not in (1, -1) or product != [[sign if i == j else 0 for j in range(P.n - 1)] for i in range(P.n)]:
        return "the SNF's left transform times the kernel vectors is not ±[I; 0]"
    _, d, nu = associated_vector(P)
    if math.gcd(*nu) != 1:
        return "the weights have a common factor"
    residue = dimension_one_residue(H.leads, nu)
    if residue is None:
        return "hull is not of dimension one"
    value, product = residue
    if value != d * product:
        g = math.gcd(value, product)
        degree = value // g if g == product else f"{value // g}/{product // g}"
        return f"deg S = {degree}, sum of component degrees = {d}"
    return None


def _chain_checks(P: PcbMatrix, H: _HullRecord) -> Tuple[List[Tuple[str, bool]], int]:
    """Prove I = S (∩ E), S the meet of one primary component for each
    character of G_p′, and that no component is redundant; returns the
    checks and the number of components, d′ plus 1 for E when n >= 4.

    Notation. P L Q = D is the normalized SNF, d_1 | ... | d_{n-1} = r its
    invariant factors, d their product, and nu its left transform's last
    row (see associated_vector); Λ = ker nu ∩ Z^n and G = Λ / L, the
    torsion group of Z^n / L. p is the characteristic, r = q r′ with q the
    p-part of r, and d′, d′_j are d, d_j with every factor p removed.
    prime_field_for accepted p, so p = 1 (mod r′), and F_p holds a
    primitive r′-th root of unity zeta. One argument covers every accepted
    p; its two corners are q = 1 (p does not divide r: r′ = r, d′ = d)
    and r′ = 1 (G is a p-group: d′ = 1, q = r).
    Grade by deg x_i = nu_i: I is homogeneous because nu L = 0, and so is
    S = H.S, the hull I : x^{b(n)}; H is its record (_hull_record):
    H.swept is the hull sweep (S : x_1 = S, see _hull_checks), which for
    n >= 4 also proves S ∩ E = I (Lemma B of embedded_checks); H.lattice is
    the lattice check, every element of S's reduced basis x^u - x^v with
    u - v in the column lattice L, so S lies in the lattice ideal I_L;
    H.distinct is S != I. No P_k below is realized and no character is
    listed: every fact about them is a fact about n - 1 generators, in
    integers (Eisenbud-Sturmfels, "Binomial ideals", 1996).

    Facts from integers, each checked here on one matrix product; none
    needs Q or the unimodularity of P or Q:
    a. Kill. d_j divides r, and row_j(P) L = 0 (mod d_j) for every
       j < n, read off the rows of P L. d′_j divides r′ and d_j, so
       e^(j) = (r′ / d′_j) row_j(P) is an integer vector with
       e^(j) L = 0 (mod r′), and every character
       e_k = Σ_j k_j e^(j) mod r′, 0 <= k_j < d′_j, kills every column of
       L modulo r′. Let P_k be the kernel of x_i -> zeta^{(e_k)_i} t^{nu_i},
       a homogeneous prime of dimension one that holds no monomial. A basis
       element x^u - x^v of S maps to (zeta^{e.u} - zeta^{e.v}) t^{nu.u} = 0,
       because nu.u = nu.v by nu L = 0 and e.(u - v) = 0 (mod r′): S ⊆ P_k.
    b. Distinct. P W = ε[I_{n-1}; 0] with ε = ±1, for W the columns
       w_1, ..., w_{n-1} of _kernel_vectors. The last row, nu, gives
       nu.w_l = 0, and the others give e_k.w_l = ε (r′ / d′_l) k_l, so the
       residue vectors (e_k.w_l mod r′)_l differ for distinct k, because
       0 <= (r′ / d′_l) k_l < r′. P_k != P_k' when (e_k - e_k').w != 0
       (mod r′) for some w in Λ: x^{w+} - zeta^{e_k.w} x^{w-} lies in P_k
       and not in P_k'. So the d′ primes P_k are pairwise distinct. And W
       is a Z-basis of Λ: P W = ε[I; 0] with nu != 0 makes its columns
       independent in ker nu, so they span it over Q; for v in Λ and P' the
       first n - 1 rows of P, v - εW P'v is orthogonal to every row of P
       (P εW P'v = [P'v; 0] = P v) and lies in the Q-span of W, so it is 0:
       v = εW (P'v) has integer coordinates.
    c. Degree. deg P_k = 1, because gcd(nu) = 1 (checked): F_p[x]/P_k is
       isomorphic to F_p[t^{nu_1}, ..., t^{nu_n}], which is one-dimensional
       in every large degree. dim S = 1 and deg S = d, from the nu-graded
       Hilbert series of the leading ideal of S's reduced
       WeightedRevLex(nu, 0) basis, the one the saturation left cached,
       read off H.leads (oracle.dimension_one_residue, after
       Bayer-Stillman), which for a homogeneous ideal equals the ideal's
       own under any order. That residue is value / product, so
       deg S = d is checked in integers as value = d product.

    The hull is the lattice ideal: S = I_L. The lattice check gives
    S ⊆ I_L. The sweep gives S : x_1 = S, so by Lemma A of embedded_checks
    every monomial is a nonzerodivisor modulo S, and S ⊇ I gives
    S ⊇ I : (x_1 ... x_n)^∞, which is I_L because the columns of L, whose
    binomials are the f_j, generate L (Sturmfels, "Gröbner Bases and
    Convex Polytopes", Lemma 12.2, whose proof needs only that the vectors
    generate the lattice).

    The torsion group. In the basis W a column of L has the coordinates
    ε P'L (b), so by a, L lies in M = {Σ_l c_l w_l : d_l | c_l}, and
    Λ / M ≅ ⊕_j Z/d_j has order d. And deg I_L = [Λ : L] over every
    field: the monomials of one coset of L are one basis vector of
    F_p[x]/I_L, and in every large nu-degree each coset of L of that
    degree holds a monomial, because nu > 0. So [Λ : L] = deg S = d
    (c), L = M, and G ≅ ⊕_j Z/d_j has exponent r: rΛ ⊆ L. Let
    L~ = L + r′Λ. Then Λ / L~ = G / r′G ≅ G_p′ ≅ ⊕_j Z/d′_j has order d′,
    prime to p.

    The radical. For w in Λ, rw lies in L, so x^{rw+} - x^{rw-} lies in
    I_L = S with no normal form taken; in characteristic p it is
    (x^{r′w+} - x^{r′w-})^q, so the binomial of r′w lies in rad S. With
    the f_j, for the columns of L, the binomials of a set of generators of
    L~ lie in rad S. Every monomial is a nonzerodivisor modulo S, so no
    minimal prime of S holds one, every monomial is a nonzerodivisor
    modulo rad S, and rad S holds the saturation of those binomials by
    x_1 ... x_n, which is I_{L~} (Lemma 12.2 again). Conversely
    S = I_L ⊆ I_{L~}, and I_{L~} is radical, because p does not divide
    |Λ / L~| = d′ (Eisenbud-Sturmfels, Cor. 2.2). So rad S = I_{L~}, and
    when q = 1, r′Λ = rΛ lies in L, L~ = L and S = rad S. F_p holds the
    r′-th roots of unity, so by the same corollary I_{L~} is the meet of
    d′ distinct primes, one for each character of Λ / L~. Each P_k holds
    I_{L~}, because e_k kills L (a) and r′Λ modulo r′, and by b they are
    d′ distinct, so they are all of them: rad S = P_1 ∩ ... ∩ P_{d′}.

    Intersection. No ideal is intersected. The minimal primes of S are the
    P_k, and the only homogeneous prime above a P_k besides P_k itself is
    the irrelevant ideal (x_1, ..., x_n), which holds x_1 and so is not
    associated to S. Hence S is the meet of d′ primary components, the
    P_k-primary one S_{P_k} ∩ R. When q = 1, S is radical and d′ = d:
    S = P_1 ∩ ... ∩ P_d, each component prime. Then for n >= 4,
    S ∩ E = I gives the whole intersection; for n <= 3, S = I does. A
    failure raises VerificationFailed with one witness after the message:
    S ∩ E != I (a failed sweep, for n >= 4) or S != I (for n <= 3), an
    unsaturated hull, a hull basis of other than lattice binomials, the
    first generator that does not kill the lattice, a W with
    P W != ±[I; 0], weights with a common factor, a hull of dimension
    other than one, or the two degrees that differ.

    Irredundancy. Suppose the P_j-primary component is redundant: the
    meet of the other components lies in it, hence in P_j. A prime that
    holds a finite intersection of ideals holds one of them, so P_j holds
    the component of some P_k with k != j, hence P_k, or E. P_k in P_j
    makes them equal, because both primes have dimension one, which b
    excludes. E in P_j is impossible: E holds the monomial x^{b(n)}. E
    itself is redundant exactly when the P_k-primary components meet in I,
    that is when S = I, so S != I is checked, and a failure raises
    VerificationFailed naming E, the last component. So there are d′
    isolated components, plus E for n >= 4.
    """
    if P.n <= 3:
        witness = "hull differs from the ideal" if H.distinct else None
    else:
        witness = None if H.swept else "hull meets the embedded component outside the ideal"
    witness = witness or _intersection_witness(P, H)
    if witness:
        raise VerificationFailed(f"intersection of all components is not the ideal: {witness}")
    checks = [("intersection of all components equals the ideal", True)]
    k = _prime_to(associated_vector(P)[1], H.S.field.p) + (P.n >= 4)
    if P.n >= 4 and not H.distinct:
        raise VerificationFailed(f"component {k} is redundant", index=k - 1)
    checks.append(("every component is irredundant", True))
    return checks, k


def verify_full_decomposition(P: PcbMatrix, p: Optional[int] = None) -> DecompositionReport:
    """Every check of `pcb verify --level full`, over F_p, or over Q when p is None.

    The ideal I and its hull S are built once here, and every check
    below shares them. The embedded component E = I + (x^{b(n)}) is a
    definition, so no ideal E is built: its checks read P, I and S (see
    embedded_checks). S is computed once, on every path, as the
    saturation I : x_1^∞ graded by nu (see _saturation). Every fact about
    S is then decided once, into one record (_hull_record), the one place
    that reads I: S's basis under WeightedRevLex(nu, 0), that order and
    the basis's leading monomials; one sweep of that basis, rewriting
    exponent vectors modulo f_1, ..., f_{n-1}, which proves
    S = I : x^{b(n)} (see _hull_swept), with no colon by x^{b(n)}, no
    Groebner basis of (f_1, ..., f_{n-1}) and no polynomial divided; the
    lattice check; whether S != I, by one comparison; and for n >= 4 the
    mixedness witness. Every check reads that record: the sweep decides
    the embedded-component checks and the meet S ∩ E = I that the chain
    takes, and S != I decides the unmixedness dichotomy, the redundancy
    of E and, for n <= 3, the meet. The hull checks run over Q and over
    every F_p that prime_field_for accepts, p = 1 (mod r′) for r′ the
    part of r prime to p; over F_p the isolated components are then
    certified, without realizing or listing any of them, to meet in S
    and to be irredundant, from the n - 1 generators of the character
    group and one Hilbert series, one certificate for every accepted p,
    whether it divides r or not: the lattice check and the sweep make S
    the lattice ideal I_L (see _chain_checks). They number d′, the part
    of d prime to p. The saturation's is the only Groebner run. A failed
    chain check raises VerificationFailed; the others report False.
    """
    field = QQ if p is None else prime_field_for(P, p)
    I = pcb_ideal(P, field)
    H = _hull_record(P, I, _saturation(P, I))
    checks = _hull_checks(P, H) + (embedded_checks(P, H) if P.n >= 4 else [])
    count = None
    if p is not None:
        chain, count = _chain_checks(P, H)
        checks += chain + [(f"component count is {count}", True)]
    return DecompositionReport(component_count=count, checks=tuple(checks))
