"""Randomized invariant suites shared by the acceptance gate.

Each run_* function draws its own seeded RNG, checks one contract on at
least a hundred generated cases, and returns the number of cases it
actually verified so the caller can assert the volume.
"""

import random

from pcbideal.core import associated_vector, normalized_snf, syzygy_identity_residual
from pcbideal.decompose import enumerate_components
from pcbideal.intmat import IntMatrix, adjugate, determinant, lattice_contains, smith_normal_form

from conftest import random_pcb
from test_core import minors_gcd


def _random_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def run_snf_contract(cases=120, seed=9001):
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        n = rng.randint(1, 5)
        M = _random_matrix(rng, n)
        res = smith_normal_form(M)
        assert res.P @ M @ res.Q == res.D
        assert abs(determinant(res.P)) == 1
        assert abs(determinant(res.Q)) == 1
        facs = res.invariant_factors
        assert all(f > 0 for f in facs)
        assert all(facs[i + 1] % facs[i] == 0 for i in range(len(facs) - 1))
        prev = 1
        for t, f in enumerate(facs, start=1):
            delta = minors_gcd(M, t)
            assert delta == prev * f
            prev = delta
        assert minors_gcd(M, len(facs) + 1) == 0 or len(facs) == n
        done += 1
    return done


def run_adjugate_rows(cases=120, seed=9002):
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        P = random_pcb(rng, rng.randint(2, 6), max_entry=5)
        adj = adjugate(P.signed)
        first = adj.row(0)
        assert all(v > 0 for v in first)
        assert all(adj.row(i) == first for i in range(P.n))
        done += 1
    return done


def run_torsion_order(cases=120, seed=9003):
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        P = random_pcb(rng, rng.randint(2, 5), max_entry=4)
        _, d, _ = associated_vector(P)
        product = 1
        for f in normalized_snf(P).invariant_factors:
            product *= f
        assert product == d
        done += 1
    return done


def run_syzygy_identity(cases=120, seed=9004):
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        P = random_pcb(rng, rng.randint(2, 6), max_entry=4)
        assert syzygy_identity_residual(P) == {}
        done += 1
    return done


def run_lattice_membership(cases=120, seed=9005):
    """Membership verdicts against an independent oracle.

    For nonsingular M the column lattice contains v exactly when adj(M) @ v
    vanishes mod det(M); singular draws fall back to planted members, where
    only the positive verdict is provable.
    """
    rng = random.Random(seed)
    done = 0
    while done < cases:
        n = rng.randint(2, 4)
        M = _random_matrix(rng, n, -4, 4)
        det = determinant(M)
        if det != 0:
            v = tuple(rng.randint(-8, 8) for _ in range(n))
            adj_v = adjugate(M) @ v
            expected = all(c % det == 0 for c in adj_v)
        else:
            coeffs = tuple(rng.randint(-6, 6) for _ in range(n))
            v = tuple(M @ coeffs)
            expected = True
        member, cert = lattice_contains(M, v)
        assert member == expected
        if member:
            assert tuple(M @ cert) == v
        else:
            assert cert is None
        done += 1
    return done


def run_component_characters(cases=100, seed=9006):
    rng = random.Random(seed)
    done = 0
    while done < cases:
        P = random_pcb(rng, rng.randint(2, 4), max_entry=2)
        _, d, _ = associated_vector(P)
        if d > 40:
            continue
        snf = normalized_snf(P)
        r = snf.invariant_factors[-1]
        specs = enumerate_components(P)
        assert len(specs) == d
        L = P.signed
        for s in specs:
            assert s.root_order == r
            for j in range(P.n):
                acc = sum(s.coeff_exponents[i] * L[i, j] for i in range(P.n))
                assert acc % r == 0
        done += 1
    return done


ALL_SUITES = (
    run_snf_contract,
    run_adjugate_rows,
    run_torsion_order,
    run_syzygy_identity,
    run_lattice_membership,
    run_component_characters,
)
