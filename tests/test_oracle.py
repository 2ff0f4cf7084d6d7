import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pcbideal
from pcbideal.oracle import (
    DEGREVLEX,
    LEX,
    GF,
    QQ,
    BlockElimination,
    Ideal,
    NonTermImage,
    Polynomial,
    colon,
    eliminate,
    exact_divide,
    groebner_basis,
    intersect,
    is_prime,
    normal_form,
    render,
    ring_map_kernel,
    saturate,
    spolynomial,
    WeightedRevLex,
)


def poly(field, nvars, *items):
    return Polynomial.from_terms(field, nvars, items)


class TestFields:
    def test_is_prime(self):
        primes = {2, 3, 5, 7, 11, 13, 2147483647}
        for p in primes:
            assert is_prime(p)
        for c in (0, 1, 4, 9, 561, 2147483647 * 3):
            assert not is_prime(c)

    def test_is_prime_refuses_strong_pseudoprimes_to_the_first_four_bases(self):
        # each is a strong pseudoprime to 2, 3, 5 and 7; 3215031751 = 151 * 751 * 28351
        for c in (
            3215031751,
            2152302898747,
            3474749660383,
            341550071728321,
            3825123056546413051,
            318665857834031151167461,
        ):
            assert not is_prime(c)

    def test_is_prime_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        assert all(is_prime(n) == sympy.isprime(n) for n in range(10**4))
        rng = random.Random(20)
        sample = [rng.getrandbits(64) | 1 for _ in range(2000)]
        assert [is_prime(n) for n in sample] == [sympy.isprime(n) for n in sample]
        # the bound is sharp: the least strong pseudoprime to all 13 bases
        assert is_prime(3317044064679887385961981) and not sympy.isprime(3317044064679887385961981)

    def test_gf_ops(self):
        F = GF(13)
        assert F.add(9, 9) == 5
        assert F.mul(7, 2) == 1
        assert F.inv(7) == 2
        assert F.neg(0) == 0
        assert F.of(-1) == 12

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 2.9, 2.0, Fraction(4, 2)])
    def test_gf_of_refuses_non_integers(self, bad):
        # int() would truncate: 1/2 to 0 and 2.9 to 2
        with pytest.raises(TypeError):
            GF(7).of(bad)

    def test_gf_of_takes_integers(self):
        assert GF(7).of(9) == 2
        assert GF(7).of(True) == 1

    def test_gf_rejects(self):
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ValueError):
            GF(2**31 + 11)

    def test_gf_cached(self):
        assert GF(5) is GF(5)

    def test_qq(self):
        assert QQ.inv(Fraction(3, 2)) == Fraction(2, 3)
        assert QQ.of(7) == Fraction(7)
        assert QQ.of(True) == QQ.one and QQ.inv(-2) == Fraction(-1, 2)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)

    @pytest.mark.parametrize("bad", [0.1, 2.0, "3/4", "1", 1j, None])
    def test_qq_of_refuses_non_rationals(self, bad):
        # Fraction() would read 0.1 as 3602879701896397/36028797018963968
        # and parse "3/4"
        with pytest.raises(TypeError):
            QQ.of(bad)
        with pytest.raises(TypeError):
            QQ.inv(bad)
        with pytest.raises(TypeError):
            Polynomial.constant(QQ, 1, bad)

    def test_qq_binds_the_rationals_once_on_first_use(self):
        # importing the oracle loads no fractions; the first use of QQ binds
        # zero, one, of and inv as class attributes, so later calls import
        # nothing and never reach __getattr__ again
        probe = (
            "import sys\n"
            "from pcbideal.oracle import QQ, RationalField\n"
            "before = 'fractions' in sys.modules\n"
            "QQ.of(3)\n"
            "bound = sorted(set(vars(RationalField)) & {'zero', 'one', 'of', 'inv'})\n"
            "print(before, 'fractions' in sys.modules, *bound, hasattr(QQ, 'p'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(pcbideal.__file__).parent.parent))
        done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["False", "True", "inv", "of", "one", "zero", "False"]


class TestOrders:
    def test_lex(self):
        assert LEX.key((1, 0, 0)) > LEX.key((0, 9, 9))

    def test_degrevlex(self):
        # same degree: the one with the smaller LAST exponent wins
        assert DEGREVLEX.key((1, 1, 0)) > DEGREVLEX.key((0, 2, 0))
        assert DEGREVLEX.key((0, 2, 0)) > DEGREVLEX.key((1, 0, 1))
        # degree dominates
        assert DEGREVLEX.key((0, 0, 3)) > DEGREVLEX.key((2, 0, 0))

    def test_weighted_revlex(self):
        order = WeightedRevLex((2, 1, 3), 1)
        # weighted degree dominates: 2*0 + 3*1 = 3 beats 2*1 = 2
        assert order.key((0, 0, 1)) > order.key((1, 0, 0))
        # equal weight 4: less of x_2, the last variable, wins
        assert order.key((2, 0, 0)) > order.key((1, 2, 0))
        assert order.key((0, 1, 1)) > order.key((1, 2, 0))
        # equal weight and x_2-exponent: revlex on x_3, then x_1
        assert order.key((3, 0, 0)) > order.key((0, 0, 2))
        assert order.label != WeightedRevLex((2, 1, 3), 0).label
        assert order == WeightedRevLex([2, 1, 3], 1)
        with pytest.raises(ValueError):
            WeightedRevLex((1, 0, 1), 0)
        with pytest.raises(ValueError):
            WeightedRevLex((1, 1), 2)

    @pytest.mark.parametrize("bad", [(2.5, 1, 3), (Fraction(2), 1, 3)])
    def test_weighted_revlex_refuses_non_integer_weights(self, bad):
        # int() would have truncated 2.5 to 2
        with pytest.raises(TypeError):
            WeightedRevLex(bad, 0)

    def test_block(self):
        order = BlockElimination(1)
        # any positive power of the head variable beats none
        assert order.key((1, 0, 0)) > order.key((0, 9, 9))
        # ties in the head block fall through to degrevlex on the tail
        assert order.key((1, 1, 0)) > order.key((1, 0, 1))


class TestPolynomial:
    def test_arith(self):
        x = Polynomial.variable(QQ, 2, 0)
        y = Polynomial.variable(QQ, 2, 1)
        f = (x + y) * (x - y)
        assert f == x * x - y * y
        assert (f - f).is_zero()

    def test_cancellation_drops_terms(self):
        F = GF(3)
        x = Polynomial.variable(F, 1, 0)
        assert (x + x + x).is_zero()

    def test_monomial_rejects_negative(self):
        with pytest.raises(ValueError):
            Polynomial.monomial(QQ, 2, (1, -1))

    @pytest.mark.parametrize("bad", [(1.5, 0), (Fraction(1), 2), (2.0, 0)])
    def test_monomial_refuses_non_integer_exponents(self, bad):
        with pytest.raises(TypeError):
            Polynomial.monomial(QQ, 2, bad)

    @pytest.mark.parametrize("bad", [(1.5, 0), (Fraction(1), 2), (2.0, 0)])
    def test_from_terms_refuses_non_integer_exponents(self, bad):
        with pytest.raises(TypeError):
            Polynomial.from_terms(QQ, 2, [(1, (0, 1)), (1, bad)])

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 2.9, Fraction(2)])
    def test_prime_field_coefficients_refuse_non_integers(self, bad):
        # F_7 coefficients are integers modulo 7; QQ takes fractions, not floats
        F = GF(7)
        x = Polynomial.variable(F, 1, 0)
        with pytest.raises(TypeError):
            Polynomial.constant(F, 1, bad)
        with pytest.raises(TypeError):
            Polynomial.monomial(F, 1, (1,), bad)
        with pytest.raises(TypeError):
            Polynomial.from_terms(F, 1, [(1, (0,)), (bad, (1,))])
        with pytest.raises(TypeError):
            x.scale(bad)
        if isinstance(bad, Fraction):
            assert Polynomial.monomial(QQ, 1, (1,), bad).terms == {(1,): bad}
        else:
            with pytest.raises(TypeError):
                Polynomial.monomial(QQ, 1, (1,), bad)

    def test_substitute_powers(self):
        # x^2 y - y^3 under weights (3, 1): t^7 - t^3
        f = poly(QQ, 2, (1, (2, 1)), (-1, (0, 3)))
        g = f.substitute_powers((3, 1))
        assert g.terms == {(7,): Fraction(1), (3,): Fraction(-1)}

    def test_substitute_powers_vanishing(self):
        f = poly(QQ, 2, (1, (2, 0)), (-1, (0, 3)))
        assert f.substitute_powers((3, 2)).is_zero()

    def test_render(self):
        f = poly(QQ, 4, (1, (2, 0, 0, 2)), (-1, (0, 2, 2, 0)))
        assert render(f, DEGREVLEX) == "Q| -1 [0,2,2,0] +1 [2,0,0,2]"
        assert render(Polynomial.zero(QQ, 4), DEGREVLEX) == "Q| 0"


class TestGroebner:
    def test_known_lex_basis(self):
        # twisted cubic style curve: (t^2 - x, t^3 - y), eliminate t
        g1 = poly(QQ, 3, (1, (2, 0, 0)), (-1, (0, 1, 0)))
        g2 = poly(QQ, 3, (1, (3, 0, 0)), (-1, (0, 0, 1)))
        gb = groebner_basis([g1, g2], LEX)
        rendered = {render(g, LEX) for g in gb}
        assert rendered == {
            "Q| +1 [2,0,0] -1 [0,1,0]",
            "Q| +1 [1,1,0] -1 [0,0,1]",
            "Q| +1 [1,0,1] -1 [0,2,0]",
            "Q| +1 [0,3,0] -1 [0,0,2]",
        }

    def test_buchberger_criterion(self):
        rng = random.Random(7)
        for _ in range(15):
            nvars = 3
            gens = []
            for _ in range(3):
                items = [
                    (QQ.of(rng.randint(-3, 3)), tuple(rng.randint(0, 2) for _ in range(nvars)))
                    for _ in range(3)
                ]
                f = Polynomial.from_terms(QQ, nvars, items)
                if not f.is_zero():
                    gens.append(f)
            if not gens:
                continue
            gb = groebner_basis(gens, DEGREVLEX)
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    s = spolynomial(gb[i], gb[j], DEGREVLEX)
                    assert normal_form(s, gb, DEGREVLEX).is_zero()

    def test_reduced_and_sorted(self):
        x = Polynomial.variable(QQ, 2, 0)
        y = Polynomial.variable(QQ, 2, 1)
        gb = groebner_basis([x + y, x - y], DEGREVLEX)
        assert [render(g, DEGREVLEX) for g in gb] == ["Q| +1 [0,1]", "Q| +1 [1,0]"]

    def test_seeds_with_divisible_leads(self):
        # only a seed can have a leading monomial that an earlier one
        # divides: a proper multiple leaves the basis, an equal one replaces
        x = Polynomial.variable(QQ, 2, 0)
        y = Polynomial.variable(QQ, 2, 1)
        cases = [
            ([x, x * x + y], ["Q| +1 [0,1]", "Q| +1 [1,0]"]),
            ([x * y, x * x * y + y, x * x * y * y], ["Q| +1 [0,1]"]),
            ([x * x + y, x * x, x * y * y + y], ["Q| +1 [0,1]", "Q| +1 [2,0]"]),
            ([x * x, x * x + y * y * y], ["Q| +1 [2,0]", "Q| +1 [0,3]"]),
        ]
        for gens, expected in cases:
            gb = groebner_basis(gens, DEGREVLEX)
            assert [render(g, DEGREVLEX) for g in gb] == expected

    def test_normal_form_is_canonical(self):
        x = Polynomial.variable(QQ, 2, 0)
        y = Polynomial.variable(QQ, 2, 1)
        gb = groebner_basis([x * x - y, y * y - x], DEGREVLEX)
        f = x * x * x * x
        r1 = normal_form(f, gb, DEGREVLEX)
        r2 = normal_form(normal_form(f, list(reversed(gb)), DEGREVLEX), gb, DEGREVLEX)
        assert r1 == r2


class TestIdealOps:
    def setup_method(self):
        self.x = Polynomial.variable(QQ, 2, 0)
        self.y = Polynomial.variable(QQ, 2, 1)

    def test_eliminate(self):
        g1 = poly(QQ, 3, (1, (2, 0, 0)), (-1, (0, 1, 0)))
        g2 = poly(QQ, 3, (1, (3, 0, 0)), (-1, (0, 0, 1)))
        I = Ideal(QQ, 3, [g1, g2])
        J = eliminate(I, 1)
        assert J.nvars == 2
        assert [render(g, DEGREVLEX) for g in J.groebner()] == [
            "Q| +1 [3,0] -1 [0,2]"
        ]

    def test_intersect_principal(self):
        x, y = self.x, self.y
        a = Ideal(QQ, 2, [x])
        b = Ideal(QQ, 2, [y])
        meet = intersect(a, b)
        assert meet == Ideal(QQ, 2, [x * y])

    def test_intersect_f5(self):
        F = GF(5)
        x = Polynomial.variable(F, 2, 0)
        y = Polynomial.variable(F, 2, 1)
        two = Polynomial.constant(F, 2, 2)
        a = Ideal(F, 2, [x - two * y])
        b = Ideal(F, 2, [x + two * y])
        meet = intersect(a, b)
        # (x-2y)(x+2y) = x^2 - 4y^2 = x^2 + y^2 over F5
        assert meet == Ideal(F, 2, [x * x + y * y])

    def test_intersect_zero(self):
        x = self.x
        z = Ideal(QQ, 2, [])
        assert intersect(z, Ideal(QQ, 2, [x])) == z

    def test_exact_divide(self):
        x, y = self.x, self.y
        f = (x + y) * (x - y)
        assert exact_divide(f, x + y) == x - y
        with pytest.raises(ValueError):
            exact_divide(x * x, x + y)

    def test_colon_monomial(self):
        x, y = self.x, self.y
        I = Ideal(QQ, 2, [x * x * y, y * y])
        J = colon(I, y)
        assert J == Ideal(QQ, 2, [x * x, y])

    def test_colon_general(self):
        x, y = self.x, self.y
        I = Ideal(QQ, 2, [(x - y) * x, (x - y) * y])
        J = colon(I, x - y)
        assert J == Ideal(QQ, 2, [x, y])

    def test_colon_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            colon(Ideal(QQ, 2, [self.x]), Polynomial.zero(QQ, 2))

    def test_saturate(self):
        x, y = self.x, self.y
        I = Ideal(QQ, 2, [x * x * y * y])
        S, steps = saturate(I, x)
        assert S == Ideal(QQ, 2, [y * y])
        assert steps == 2

    def test_saturate_stable_ideal(self):
        x, y = self.x, self.y
        I = Ideal(QQ, 2, [y])
        S, steps = saturate(I, x)
        assert steps == 0
        assert S == I

    def test_graded_colon_rejects_what_it_cannot_prove(self):
        x, y = self.x, self.y
        I = Ideal(QQ, 2, [x * x - y])
        with pytest.raises(ValueError, match="not homogeneous"):
            colon(I, y, (1, 1))
        with pytest.raises(ValueError, match="not homogeneous"):
            saturate(I, y, (1, 1))
        with pytest.raises(ValueError, match="monomial"):
            colon(I, x + y, (1, 2))
        with pytest.raises(ValueError, match="monomial"):
            saturate(I, x + y, (1, 2))
        with pytest.raises(ValueError, match="one weight per variable"):
            colon(I, y, (1, 2, 3))
        # a foreign ring or a zero f fails as on the path without weights
        for op in (colon, saturate):
            with pytest.raises(ValueError, match="different ring"):
                op(I, Polynomial.variable(GF(5), 2, 1), (1, 2))
            with pytest.raises(ValueError, match="different ring"):
                op(I, Polynomial.variable(QQ, 1, 0), (1, 2))
            with pytest.raises(ZeroDivisionError):
                op(I, Polynomial.constant(QQ, 2, 0), (1, 2))

    def test_graded_colon_and_saturation_match_the_auxiliary_variable(self):
        # homogeneous for w = (2, 1, 3), of weights 10, 12 and 10
        F = GF(7)
        x, y, z = (Polynomial.variable(F, 3, i) for i in range(3))
        I = Ideal(F, 3, [
            poly(F, 3, (1, (3, 4, 0)), (-1, (2, 3, 1))),
            poly(F, 3, (1, (1, 4, 2)), (-3, (3, 3, 1))),
            poly(F, 3, (1, (5, 0, 0)), (-1, (0, 1, 3))),
        ])
        w = (2, 1, 3)
        for f in (y, y * y, x * z, x * y * y * z, Polynomial.constant(F, 3, 1)):
            assert colon(I, f, w).groebner() == colon(I, f).groebner()
            graded, steps = saturate(I, f, w)
            reference, reference_steps = saturate(I, f)
            assert graded.groebner() == reference.groebner()
            assert steps == reference_steps

    def test_saturation_steps_round_up_for_a_power(self):
        x, y = self.x, self.y
        I = Ideal(QQ, 2, [x * x * x * y])
        assert saturate(I, x * x, (1, 1)) == saturate(I, x * x)
        assert saturate(I, x * x, (1, 1))[1] == 2

    def test_saturation_by_two_variables_is_not_read_off_the_orders(self):
        # the largest x-order in the basis is 5, but I : xy = (x^4, y) and
        # I : (xy)^2 = (1): two colons move I, on both paths
        x, y = self.x, self.y
        I = Ideal(QQ, 2, [Polynomial.monomial(QQ, 2, (5, 1)), y * y])
        assert max(min(e[0] for e in g.terms) for g in I.groebner(WeightedRevLex((1, 1), 0))) == 5
        assert colon(I, x * y) == Ideal(QQ, 2, [Polynomial.monomial(QQ, 2, (4, 0)), y])
        for weights in ((1, 1), None):
            S, steps = saturate(I, x * y, weights)
            assert S == Ideal(QQ, 2, [Polynomial.constant(QQ, 2, 1)])
            assert steps == 2

    def test_graded_saturation_by_one_variable_divides_once(self, monkeypatch):
        # one Buchberger run under WeightedRevLex(w, j), one tail reduction
        # when some basis element holds x_j and none otherwise, and no colon;
        # steps is the largest x_j-order over k, rounded up
        from pcbideal.oracle import ideal as oracle_ideal

        F = GF(7)
        x, y, z = (Polynomial.variable(F, 3, i) for i in range(3))
        # homogeneous for w = (2, 1, 3); the largest x-, y- and z-orders of
        # the first ideal's bases are 17, 4 and 3, the second's z-order is 0
        binomials = [poly(F, 3, (1, (3, 4, 0)), (-1, (2, 3, 1))), poly(F, 3, (1, (5, 0, 0)), (-1, (0, 1, 3)))]
        w = (2, 1, 3)
        calls = {"groebner_basis": [], "_reduce_basis": [], "colon": []}
        for attr, seen in calls.items():
            fn = getattr(oracle_ideal, attr)
            monkeypatch.setattr(oracle_ideal, attr, lambda *args, fn=fn, seen=seen: seen.append(args) or fn(*args))
        cases = [(binomials, y * y, 1, 2), (binomials, z * z * z, 2, 1), (binomials, x * x * x, 0, 6), ([x - y * y], z, 2, 0)]
        for gens, f, j, expected in cases:
            for seen in calls.values():
                seen.clear()
            I = Ideal(F, 3, gens)
            S, steps = saturate(I, f, w)
            assert [order for _, order in calls["groebner_basis"]] == [WeightedRevLex(w, j)]
            assert len(calls["_reduce_basis"]) == (expected > 0)
            assert calls["colon"] == []
            assert steps == expected
            assert (S is I) == (steps == 0)

    def test_equality_reads_a_shared_basis(self):
        x, y = self.x, self.y
        order = WeightedRevLex((1, 1), 0)
        a = Ideal(QQ, 2, [x * y, y * y])
        b = Ideal(QQ, 2, [x * y + y * y, y * y])
        c = Ideal(QQ, 2, [x * y])
        for ideal in (a, b, c):
            ideal.groebner(order)
        assert a == b and a != c
        assert not any(DEGREVLEX.label in ideal._bases for ideal in (a, b, c))

    def test_ring_map_kernel_collapsed_torus(self):
        # all four variables sent to t: kernel is the diagonal
        F = GF(5)
        images = [Polynomial.monomial(F, 1, (1,)) for _ in range(4)]
        K = ring_map_kernel(images)
        x = [Polynomial.variable(F, 4, i) for i in range(4)]
        assert K == Ideal(F, 4, [x[0] - x[3], x[1] - x[3], x[2] - x[3]])

    def test_ring_map_kernel_weights(self):
        # x1 -> t^2, x2 -> t^3: kernel is the cusp
        images = [Polynomial.monomial(QQ, 1, (2,)), Polynomial.monomial(QQ, 1, (3,))]
        K = ring_map_kernel(images)
        x1 = Polynomial.variable(QQ, 2, 0)
        x2 = Polynomial.variable(QQ, 2, 1)
        assert K == Ideal(QQ, 2, [x1 * x1 * x1 - x2 * x2])

    def test_ring_map_kernel_rejects_sums(self):
        t = Polynomial.variable(QQ, 1, 0)
        with pytest.raises(NonTermImage):
            ring_map_kernel([t + t * t, t])

    def test_ideal_eq_ignores_generator_presentation(self):
        x, y = self.x, self.y
        assert Ideal(QQ, 2, [x, y]) == Ideal(QQ, 2, [x + y, x - y, x])
