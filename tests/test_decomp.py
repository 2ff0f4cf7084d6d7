import itertools
import random

import pytest

import pcbideal
from pcbideal import core, decomp, validate
from pcbideal.core import DimensionTooSmall, analyze, associated_vector, normalized_snf, syzygy_vectors
from pcbideal.decomp import (
    BadPrime,
    _hull_record,
    component_count,
    embedded_checks,
    hull,
    hull_is_prime,
    pcb_ideal,
    unmixedness_test,
    verify_full_decomposition,
)
from pcbideal.decompose import embedded_component, enumerate_components, realize_over_prime_field, socle_monomial
from pcbideal.intmat import lattice_contains
from pcbideal.oracle import (
    DEGREVLEX,
    GF,
    QQ,
    Ideal,
    Polynomial,
    colon,
)
from pcbideal.oracle.elimination import intersect, ring_map_kernel

from conftest import GOLDEN, LARGE_WEIGHTS, load_golden, prime_power_in_hull, random_pcb

# the sixteen coefficient tuples for the all-ones n=4 matrix, written as
# powers of a primitive fourth root: t -> 0, i*t -> 1, -t -> 2, -i*t -> 3
SIXTEEN = {
    (0, 0, 0, 0),
    (0, 3, 1, 0),
    (0, 2, 2, 0),
    (0, 1, 3, 0),
    (3, 1, 0, 0),
    (3, 0, 1, 0),
    (3, 3, 2, 0),
    (3, 2, 3, 0),
    (2, 2, 0, 0),
    (2, 1, 1, 0),
    (2, 0, 2, 0),
    (2, 3, 3, 0),
    (1, 3, 0, 0),
    (1, 2, 1, 0),
    (1, 1, 2, 0),
    (1, 0, 3, 0),
}


class TestEnumerate:
    def test_simplest_count_and_order(self, simplest):
        specs = enumerate_components(simplest)
        assert len(specs) == 16
        assert specs[0].lambda_index == (0, 0, 0)
        assert specs[-1].lambda_index == (0, 3, 3)
        assert all(s.root_order == 4 for s in specs)
        assert all(s.weights == (1, 1, 1, 1) for s in specs)

    def test_simplest_exponent_set(self, simplest):
        # frozen table; the exponent set does not depend on the transform choice
        specs = enumerate_components(simplest)
        assert {s.coeff_exponents for s in specs} == SIXTEEN

    def test_identity_map_comes_first(self, simplest):
        assert enumerate_components(simplest)[0].map_strings() == ("t", "t", "t", "t")

    def test_onecomp_single(self, onecomp):
        specs = enumerate_components(onecomp)
        assert len(specs) == 1
        assert specs[0].map_strings() == ("t^20", "t^24", "t^31", "t^25")

    def test_exponents_kill_columns(self):
        rng = random.Random(61)
        for _ in range(20):
            P = random_pcb(rng, rng.randint(2, 4))
            snf = normalized_snf(P)
            r = snf.invariant_factors[-1]
            L = P.signed
            for s in enumerate_components(P):
                for j in range(P.n):
                    acc = sum(s.coeff_exponents[i] * L[i, j] for i in range(P.n))
                    assert acc % r == 0


class TestCounts:
    def test_simplest(self, simplest):
        c = component_count(simplest)
        assert (c.isolated, c.embedded, c.at_most) == (16, 1, 17)

    def test_n3(self):
        c = component_count(load_golden("diag_n3.json"))
        assert (c.isolated, c.embedded, c.at_most) == (3, 0, 3)

    def test_hull_prime_iff_d_one(self, simplest, onecomp):
        assert not hull_is_prime(simplest)
        assert hull_is_prime(onecomp)

    def test_counts_are_computed_once_in_core(self):
        # decomp and the package root re-export core's count, and analyze
        # and hull_is_prime read it
        assert decomp.component_count is core.component_count is pcbideal.component_count
        assert decomp.ComponentCount is core.ComponentCount is pcbideal.ComponentCount
        for path in sorted(GOLDEN.glob("*.json")):
            P = load_golden(path.name)
            c, a = component_count(P), analyze(P)
            assert (a.isolated_components, a.embedded_components) == (c.isolated, c.embedded)
            assert hull_is_prime(P) == a.hull_prime == (c.isolated == 1)

    def test_part_prime_to_p(self):
        # a loop: a power of p past the recursion limit comes down to 1
        assert decomp._prime_to(2**5000, 2) == 1
        assert decomp._prime_to(3 * 2**1500, 2) == 3
        assert [decomp._prime_to(m, 3) for m in (1, 2, 6, 9, 18, 7 * 3**40)] == [1, 2, 2, 1, 2, 7]


class TestHull:
    def test_simplest_extra_quartics(self, simplest):
        I = pcb_ideal(simplest, QQ)
        S = hull(simplest, QQ)
        x = [Polynomial.variable(QQ, 4, i) for i in range(4)]
        quartics = [
            x[0] * x[0] * x[1] * x[1] - x[2] * x[2] * x[3] * x[3],
            x[0] * x[0] * x[2] * x[2] - x[1] * x[1] * x[3] * x[3],
            x[0] * x[0] * x[3] * x[3] - x[1] * x[1] * x[2] * x[2],
        ]
        assert S == Ideal(QQ, 4, list(I.gens) + quartics)
        for q in quartics:
            assert not I.contains(q)

    def test_onecomp_hull_is_the_herzog_kernel(self, onecomp):
        m, d, _ = associated_vector(onecomp)
        assert d == 1
        K = ring_map_kernel([Polynomial.monomial(QQ, 1, (w,)) for w in m])
        assert hull(onecomp, QQ) == K

    def test_hull_gb_is_lattice_binomials(self):
        rng = random.Random(67)
        for _ in range(8):
            P = random_pcb(rng, rng.randint(3, 4), max_entry=2)
            m, _, _ = associated_vector(P)
            S = hull(P, QQ)
            for g in S.groebner():
                terms = sorted(g.terms.items(), key=lambda t: DEGREVLEX.key(t[0]), reverse=True)
                assert len(terms) == 2
                assert terms[0][1] == QQ.one
                assert terms[1][1] == -QQ.one
                diff = [a - b for a, b in zip(terms[0][0], terms[1][0])]
                member, _ = lattice_contains(P.signed, diff)
                assert member
                assert g.substitute_powers(m).is_zero()


class TestUnmixedness:
    def test_dichotomy_on_goldens(self, simplest, onecomp):
        # over Q and over each golden's least p = 1 (mod r)
        for field in (QQ, GF(5)):
            assert not unmixedness_test(simplest, field)
        for field in (QQ, GF(2)):
            assert not unmixedness_test(onecomp, field)
            assert unmixedness_test(load_golden("n3_mixed.json"), field)
        for field in (QQ, GF(7)):
            assert unmixedness_test(load_golden("diag_n3.json"), field)
        for field in (QQ, GF(3)):
            assert unmixedness_test(load_golden("n2_64.json"), field)


class TestEmbedded:
    def test_simplest_verified(self, simplest):
        checks = dict(verify_full_decomposition(simplest).checks)
        assert checks["embedded component verified"]
        assert checks["hull meets embedded component in the ideal"]
        comp = embedded_component(simplest, QQ)
        assert comp.contains(socle_monomial(simplest, QQ))

    def test_unsaturated_hull_verifies_nothing(self, simplest):
        # both embedded facts are read off S : x_1 = S; without it neither holds
        I = pcb_ideal(simplest, QQ)
        S = hull(simplest, QQ)
        saturated = colon(S, Polynomial.variable(QQ, 4, 0)) == S
        H = _hull_record(simplest, I, S)._replace(swept=saturated)
        assert all(ok for _, ok in embedded_checks(simplest, H))
        assert not any(ok for _, ok in embedded_checks(simplest, H._replace(swept=False)))

    def test_simplest_alternative_presentation(self, simplest):
        # adding x1 instead of the socle monomial also lands m-primary:
        # I + (x1) = (x1, x2 x3 x4, x2^3, x3^3, x4^3)
        I = pcb_ideal(simplest, QQ)
        x = [Polynomial.variable(QQ, 4, i) for i in range(4)]
        left = Ideal(QQ, 4, list(I.gens) + [x[0]])
        right = Ideal(
            QQ,
            4,
            [
                x[0],
                x[1] * x[2] * x[3],
                x[1] * x[1] * x[1],
                x[2] * x[2] * x[2],
                x[3] * x[3] * x[3],
            ],
        )
        assert left == right

    def test_intersection_recovers_ideal(self, onecomp):
        checks = dict(verify_full_decomposition(onecomp).checks)
        assert checks["embedded component verified"]
        assert checks["hull meets embedded component in the ideal"]
        I = pcb_ideal(onecomp, QQ)
        S = hull(onecomp, QQ)
        comp = embedded_component(onecomp, QQ)
        assert intersect(S, comp) == I

    def test_needs_dimension_four(self):
        with pytest.raises(DimensionTooSmall):
            embedded_component(load_golden("diag_n3.json"), QQ)


class TestRealization:
    def test_bad_primes(self, simplest):
        for p in (3, 7, 11):
            with pytest.raises(BadPrime):
                realize_over_prime_field(simplest, p)

    def test_not_prime(self, simplest):
        with pytest.raises(BadPrime):
            realize_over_prime_field(simplest, 8)

    def test_p5(self, simplest):
        real = realize_over_prime_field(simplest, 5)
        assert real.zeta == 2
        assert len(real.kernels) == 16
        distinct = {
            tuple(sorted(str(g.terms) for g in k.groebner())) for k in real.kernels
        }
        assert len(distinct) == 16

    def test_p13(self, simplest):
        real = realize_over_prime_field(simplest, 13)
        assert real.zeta == 8
        assert pow(real.zeta, 4, 13) == 1
        assert pow(real.zeta, 2, 13) != 1

    def test_kernels_contain_the_ideal(self, simplest):
        real = realize_over_prime_field(simplest, 5)
        I = pcb_ideal(simplest, GF(5))
        for k in real.kernels:
            assert k.includes(I)

    def test_large_weight_kernel_is_the_hull(self):
        # d = 1, so the hull is the one prime: the elimination and the colon
        # compute the same ideal independently
        P = validate(LARGE_WEIGHTS)
        assert associated_vector(P)[1:] == (1, (75, 61, 52, 63))
        (kernel,) = realize_over_prime_field(P, 2).kernels
        assert kernel.groebner() == hull(P, GF(2)).groebner()


class TestFullVerification:
    def test_simplest_f5(self, simplest):
        report = verify_full_decomposition(simplest, 5)
        assert report.component_count == 17
        assert all(ok for _, ok in report.checks)

    def test_n3_f7(self):
        report = verify_full_decomposition(load_golden("diag_n3.json"), 7)
        assert report.component_count == 3
        assert all(ok for _, ok in report.checks)

    def test_k6_f7(self):
        # K_6, d = 6^4 = 1296: b(6) has four nonzero entries, so the hull
        # is four successive graded colons
        P = validate([[5 if i == j else -1 for j in range(6)] for i in range(6)])
        assert sum(1 for b in syzygy_vectors(P)[5] if b) == 4
        report = verify_full_decomposition(P, 7)
        assert report.component_count == 1297
        assert all(ok for _, ok in report.checks)

    def test_n2_f3(self):
        report = verify_full_decomposition(load_golden("n2_64.json"), 3)
        assert report.component_count == 2

    def test_char2_collapse(self, simplest):
        # r = 4 is a power of 2: the sixteen components collapse into the
        # hull, primary to one prime, and F_2 runs the checks of F_5
        report = verify_full_decomposition(simplest, 2)
        assert report.component_count == 2
        names = [name for name, _ in report.checks]
        assert "hull meets embedded component in the ideal" in names
        assert "every component is irredundant" in names
        assert names[:-1] == [name for name, _ in verify_full_decomposition(simplest, 5).checks][:-1]
        assert all(ok for _, ok in report.checks)

    def test_char2_power_chain_is_sharp(self, simplest):
        # ordinary powers: sixth still escapes the hull, seventh lands inside
        assert not prime_power_in_hull(simplest, GF(2), 6)
        assert prime_power_in_hull(simplest, GF(2), 7)

    def test_char2_power_chain_agrees_with_sympy(self, simplest):
        # the same facts from an engine other than the package's own oracle:
        # the F_2 hull recomputed as the saturation I : x1^oo, which also
        # confirms that it equals the package's colon by x^{b(4)}
        sympy = pytest.importorskip("sympy")
        t, x1, x2, x3, x4 = sympy.symbols("t x1:5")
        xs = (x1, x2, x3, x4)
        gens = [
            x1**3 - x2 * x3 * x4,
            x2**3 - x1 * x3 * x4,
            x3**3 - x1 * x2 * x4,
            x4**3 - x1 * x2 * x3,
        ]
        G = sympy.groebner(gens + [1 - t * x1], t, *xs, order="lex", modulus=2)
        S = sympy.groebner(
            [g for g in G.exprs if t not in g.free_symbols], *xs, order="grevlex", modulus=2
        )
        a = [x1 - x4, x2 - x4, x3 - x4]

        def power_in(k):
            return all(
                S.contains(sympy.Mul(*combo))
                for combo in itertools.combinations_with_replacement(a, k)
            )

        assert not power_in(6)
        assert power_in(7)
        assert all(S.contains(g**4) for g in a)
        assert not S.contains((x1 - x4) ** 2 * (x2 - x4) ** 2)
        ours = hull(simplest, GF(2))
        as_sympy = [
            sum(
                int(c) * sympy.Mul(*(v**e for v, e in zip(xs, mono)))
                for mono, c in g.terms.items()
            )
            for g in ours.gens
        ]
        assert sympy.groebner(as_sympy, *xs, order="grevlex", modulus=2).exprs == S.exprs

    def test_bad_prime_propagates(self, simplest):
        with pytest.raises(BadPrime):
            verify_full_decomposition(simplest, 3)

    def test_over_q_has_no_chain(self, simplest):
        report = verify_full_decomposition(simplest)
        assert report.component_count is None
        names = [name for name, _ in report.checks]
        assert "unmixed exactly when n <= 3" in names
        assert not any(name.startswith("component count") for name in names)


class TestConjugatePairing:
    def test_i24_over_f5(self, simplest):
        # components for (t, -i t, i t, t) and (t, i t, -i t, t) intersect to
        # the rational prime (x1 - x4, x2 + x3, x3^2 + x4^2), reduced mod 5
        real = realize_over_prime_field(simplest, 5)
        by_exps = {s.coeff_exponents: k for s, k in zip(real.specs, real.kernels)}
        a2 = by_exps[(0, 3, 1, 0)]
        a4 = by_exps[(0, 1, 3, 0)]
        F = GF(5)
        x = [Polynomial.variable(F, 4, i) for i in range(4)]
        expected = Ideal(
            F,
            4,
            [x[0] - x[3], x[1] + x[2], x[2] * x[2] + x[3] * x[3]],
        )
        assert intersect(a2, a4) == expected
