"""What only `pcb decompose` runs: the d isolated components listed as
monomial curves and realized over F_p, and the embedded component.

enumerate_components lists the characters of the torsion group, one
ComponentSpec each, read off the normalized SNF; realize_over_prime_field
computes one kernel by elimination (oracle.elimination.ring_map_kernel)
and twists it into all d; embedded_component builds E = I + (x^{b(n)}).
verify lists no character and realizes no component (see
decomp.verify_full_decomposition), so no other command loads this module:
cli imports it in the decompose branch, and the package root on the first
lookup of one of its names.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Tuple

from .core import (
    DimensionTooSmall,
    PcbMatrix,
    associated_vector,
    component_count,
    normalized_snf,
    syzygy_vectors,
)
from .decomp import BadPrime, _leading_monomials, pcb_ideal, prime_field
from .oracle import DEGREVLEX, GF, Ideal, Polynomial, render
from .oracle.elimination import ring_map_kernel


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


def socle_monomial(P: PcbMatrix, field) -> Polynomial:
    """x^{b(n)}, the monomial that both cuts the hull and completes the ideal."""
    return Polynomial.monomial(field, P.n, syzygy_vectors(P)[P.n - 1])


def embedded_component(P: PcbMatrix, field) -> Ideal:
    """The component primary to (x_1, ..., x_n): the ideal plus x^{b(n)}.

    decompose prints its basis. embedded_checks proves the claim from P,
    I and S, and verify_full_decomposition builds no E.
    """
    n = P.n
    if n < 4:
        raise DimensionTooSmall(f"embedded component needs n >= 4, got n = {n}")
    return Ideal(field, n, pcb_ideal(P, field).gens + (socle_monomial(P, field),))


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


class PrimeFieldRealization(NamedTuple):
    """The d isolated components over F_p: kernels[i] is the component of
    the character of specs[i], as an ideal with its reduced degrevlex
    basis, and zeta the primitive r-th root of unity the maps use, for
    r = specs[0].root_order. kernels[0] is the trivial-character
    component P_0."""

    p: int
    zeta: int
    specs: Tuple[ComponentSpec, ...]
    kernels: Tuple[Ideal, ...]


def realize_over_prime_field(P: PcbMatrix, p: int) -> PrimeFieldRealization:
    """Instantiate every isolated component over F_p, p = 1 (mod r), or
    raise BadPrime. The rule is decompose's own, not verify's
    (decomp.prime_field_for): F_p must hold the r-th roots of unity. When
    p divides r, verify may accept p, but the isolated components over
    F_p are then primary and not prime, and none is realized: BadPrime
    says so.

    zeta is g^((p-1)/r) for the least primitive root g, so the realization
    is reproducible. One elimination computes P_0, the kernel of the
    trivial-character map psi_0: x_i -> t^{nu_i}, and one loop twists its
    reduced basis into every component, P_0 itself first: the character
    of lambda_index (0, ..., 0) is 0, and its twist changes no term.

    Write psi_e for x_i -> zeta^{e_i} t^{nu_i} and D_e for the substitution
    x_i -> zeta^{e_i} x_i (Eisenbud-Sturmfels, "Binomial ideals"). Then
    psi_e = psi_0 o D_e, so ker psi_e = D_e^{-1}(ker psi_0) = D_{-e}(P_0).
    D_{-e} multiplies each term c x^a by the unit zeta^{-e.a}, so it keeps
    every leading and every standard monomial: applied to the reduced basis
    of P_0 and made monic again, it gives the reduced basis of ker psi_e
    exactly.
    """
    field = prime_field(p)
    r = normalized_snf(P).invariant_factors[-1]
    if (p - 1) % r:
        reason = "over F_p the isolated components are primary and not prime, and decompose realizes prime components only"
        raise BadPrime(p, r, f"p divides r, so {reason}" if r % p == 0 else "")
    specs = enumerate_components(P)
    zeta = pow(least_primitive_root(p), (p - 1) // r, p) if r > 1 else 1
    powers = [pow(zeta, k, p) for k in range(r)]
    basis = ring_map_kernel([Polynomial.monomial(field, 1, (w,)) for w in specs[0].weights]).groebner()
    leads = _leading_monomials(basis)
    kernels = []
    for s in specs:
        e = s.coeff_exponents
        twisted = []
        for g, lm in zip(basis, leads):
            lead = sum(map(mul, e, lm))
            # c x^a -> c zeta^{-e.a} x^a, divided by the new leading coefficient
            twisted.append(Polynomial(field, P.n, {
                a: field.mul(c, powers[(lead - sum(map(mul, e, a))) % r]) for a, c in g.terms.items()
            }))
        kernels.append(Ideal._with_basis(field, P.n, twisted, DEGREVLEX))
    return PrimeFieldRealization(p, zeta, specs, tuple(kernels))


def result(P: PcbMatrix, p: Optional[int]) -> Dict:
    """The result object of `pcb decompose`: symbolic when p is None, else
    over F_p with every component's kernel and the embedded component's basis."""
    realization = None if p is None else realize_over_prime_field(P, p)
    specs = enumerate_components(P) if realization is None else realization.specs
    counts = component_count(P)
    payload: Dict = {
        "field": "symbolic" if p is None else f"fp:{p}",
        "root_order": specs[0].root_order,
        "counts": {
            "isolated": counts.isolated,
            "embedded": counts.embedded,
            "at_most": counts.at_most,
        },
    }
    if realization is not None:
        payload["p"] = realization.p
        payload["zeta"] = realization.zeta
    components: List[Dict] = []
    for i, s in enumerate(specs):
        comp = {
            "lambda_index": list(s.lambda_index),
            "coeff_exponents": list(s.coeff_exponents),
            "weights": list(s.weights),
            "map": list(s.map_strings()),
        }
        if realization is not None:
            comp["kernel"] = [render(g, DEGREVLEX) for g in realization.kernels[i].groebner()]
        components.append(comp)
    payload["components"] = components
    payload["embedded"] = None
    if P.n >= 4:
        payload["embedded"] = {"monomial": list(syzygy_vectors(P)[P.n - 1])}
        if realization is not None:
            gens = embedded_component(P, GF(p)).groebner()
            payload["embedded"]["generators"] = [render(g, DEGREVLEX) for g in gens]
    return payload
