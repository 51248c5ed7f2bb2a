import math
import random
from fractions import Fraction

import numpy as np
import pytest

from arakelov import places, suite
from arakelov.errors import AllZero, FactorizationTooLarge, NonFiniteResult, TooFewValues, ZeroInput
from arakelov.suite import random_rational

V3 = places.finite(3)
V7 = places.finite(7)


class TestValuation:
    def test_unit(self):
        assert places.padic_valuation(1, 5) == 0

    def test_twelve(self):
        assert places.padic_valuation(12, 2) == 2

    def test_zero_is_infinite(self):
        assert places.padic_valuation(0, 7) == math.inf

    def test_additive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y = random_rational(rng, 200), random_rational(rng, 200)
            for p in (2, 3, 5):
                assert places.padic_valuation(x * y, p) == places.padic_valuation(
                    x, p
                ) + places.padic_valuation(y, p)

    def test_needs_prime(self):
        with pytest.raises(ValueError):
            places.padic_valuation(3, 6)


class TestLogAbs:
    def test_one_ninth_at_three(self):
        assert places.log_abs(Fraction(1, 9), V3) == 2 * math.log(3)

    def test_trivial_place(self):
        assert places.log_abs(7, places.TRIVIAL) == 0.0
        assert places.log_abs(0, places.TRIVIAL) == -math.inf
        assert str(places.TRIVIAL) == "v_0"

    def test_flow_scaling(self):
        v = places.Place("archimedean", None, 0.5)
        assert places.log_abs(2, v) == 0.5 * math.log(2)

    def test_zero_sentinel(self):
        assert places.log_abs(0, V3) == -math.inf
        assert places.log_abs(0, places.ARCH) == -math.inf

    def test_multiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x, y = random_rational(rng, 200), random_rational(rng, 200)
            for v in (V3, V7, places.ARCH):
                assert places.log_abs(x * y, v) == pytest.approx(
                    places.log_abs(x, v) + places.log_abs(y, v), abs=1e-12
                )

    def test_finite_place_skips_the_prime_check(self, monkeypatch):
        # Place has validated its prime, so log_abs does not test it again
        v5 = places.finite(5)

        def refuse(n):
            raise AssertionError("is_prime called")

        monkeypatch.setattr(places, "is_prime", refuse)
        assert places.log_abs(Fraction(10, 3), v5) == -math.log(5)
        with pytest.raises(AssertionError):
            places.padic_valuation(10, 5)

    def test_flow_linearity_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = random_rational(rng, 200)
            base = places.log_abs(x, V3)
            assert places.log_abs(x, places.finite(3, 0.25)) == 0.25 * base


class TestProductFormula:
    def test_six(self):
        assert places.product_formula_residual(6) == pytest.approx(0.0, abs=1e-12)

    def test_one(self):
        assert places.product_formula_residual(1) == 0.0

    def test_negative_fraction(self):
        assert places.product_formula_residual(Fraction(-35, 4)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            places.product_formula_residual(0)

    def test_thousand_randoms(self):
        assert suite.product_formula_residual(np.random.default_rng(5), 1000, 500) <= 1e-12


class TestPlaceSum:
    def test_walks_infinity_then_the_primes_in_order(self):
        seen = []

        def stat(logs):
            seen.append(logs)
            return logs[0]

        x, y = Fraction(12, 5), Fraction(7, 3)
        total = places.place_sum([x, y], [5, 2, 3], stat)
        order = [places.ARCH, places.finite(5), places.finite(2), places.finite(3)]
        assert seen == [[places.log_abs(x, v), places.log_abs(y, v)] for v in order]
        expected = 0.0
        for logs in seen:
            expected += logs[0]
        assert total == expected

    def test_no_primes_is_the_archimedean_term(self):
        assert places.place_sum([Fraction(1, 3)], [], max) == -math.log(3)

    def test_heights_read_it_with_max(self):
        xs = [Fraction(4, 9), Fraction(-6), Fraction(10, 3)]
        primes = places.support_primes(xs)
        assert places.projective_height(xs) == places.place_sum(xs, primes, max)
        x = Fraction(-35, 4)
        assert places.product_formula_residual(x) == places.place_sum([x], [2, 5, 7], max)


def reference_split(n, p):
    """(m, k) with n = m p^k and p not dividing m, for n != 0: the plain loop."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return n, k


def reference_prime_factors(n):
    n, out, d = abs(n), [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            n = reference_split(n, d)[0]
        d += 1
    return out + [n] if n > 1 else out


def test_valuations_match_a_reference_loop():
    rng = random.Random(31)
    primes = [2, 3, 5, 7, 11, 101]
    ints = [0, 1, -1, *(s * p**k for p in primes for k in range(12) for s in (1, -1))]
    ints += [rng.randrange(-10**9, 10**9) for _ in range(300)]
    ints += [rng.randrange(1, 10**4) * rng.choice(primes) ** rng.randrange(30) for _ in range(300)]
    for n in ints:
        assert places.prime_factors(n) == reference_prime_factors(n), n
    for _ in range(1000):
        p = rng.choice(primes)
        x, y = (Fraction(rng.choice(ints), rng.choice([i for i in ints if i])) for _ in range(2))
        want = math.inf if x == 0 else reference_split(x.numerator, p)[1] - reference_split(
            x.denominator, p)[1]
        assert places.padic_valuation(x, p) == want
        v = places.finite(p, rng.choice([1.0, 0.3]))
        d = x - y
        k = reference_split(d.numerator, p)[1] - reference_split(d.denominator, p)[1] if d else None
        want = -math.inf if d == 0 else v.epsilon * (-k * math.log(p))
        assert places.log_abs_diff(x, y, v) == want


class TestAsComplex:
    def test_in_range_matches_complex(self):
        for x in (Fraction(1, 3), Fraction(-10**300), 7, Fraction(1, 10**400)):
            assert places.as_complex(x) == complex(x)

    @pytest.mark.parametrize("x", [Fraction(10**400), -(10**400), Fraction(10**400, 3)],
                             ids=["fraction", "negative-int", "thirds"])
    def test_beyond_float_range_raises(self, x):
        with pytest.raises(NonFiniteResult, match=r"near 2\^13\d\d lies beyond float range"):
            places.as_complex(x)


class TestHeights:
    def test_one_two(self):
        assert places.projective_height([1, 2]) == pytest.approx(math.log(2), abs=1e-14)

    def test_equal_coords(self):
        assert places.projective_height([1, 1]) == 0.0

    def test_scaling_invariance(self):
        assert places.projective_height([2, 4]) == pytest.approx(
            places.projective_height([1, 2]), abs=1e-12
        )

    def test_all_zero(self):
        with pytest.raises(AllZero):
            places.projective_height([0, 0])

    def test_affine_half(self):
        assert places.affine_height(Fraction(1, 2)) == pytest.approx(math.log(2), abs=1e-14)

    def test_affine_one(self):
        assert places.affine_height(1) == 0.0

    def test_affine_two_three(self):
        # sum over places of log+ max(|2|_v, |3|_v): only infinity contributes
        assert places.affine_height([2, 3]) == pytest.approx(math.log(3), abs=1e-14)

    def test_reciprocal_symmetry(self):
        assert suite.reciprocal_height(np.random.default_rng(7), 200, 200) <= 1e-12

    def test_random_scaling_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            xs = [random_rational(rng, 30) for _ in range(3)]
            c = random_rational(rng, 30)
            assert places.projective_height([c * x for x in xs]) == pytest.approx(
                places.projective_height(xs), abs=1e-11
            )


class TestSubmax:
    def test_basic(self):
        assert places.submax([1, 3, 2]) == 2

    def test_ties(self):
        assert places.submax([5, 5]) == 5

    def test_negative(self):
        assert places.submax([-1, 0, -2, 7]) == 0

    def test_too_few(self):
        with pytest.raises(TooFewValues):
            places.submax([1])


class TestFactorization:
    def test_small_factors(self):
        assert places.prime_factors(-(2**80) * 3 * 999983) == [2, 3, 999983]

    def test_largest_prime_below_trial_square(self):
        assert places.prime_factors(999999999989) == [999999999989]

    @pytest.mark.parametrize("n", [10**16 + 61, 1000003 * 1000033, 6 * (10**16 + 61)])
    def test_large_cofactor_refused(self, n):
        with pytest.raises(FactorizationTooLarge):
            places.prime_factors(n)


class TestPlaceValidation:
    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            places.Place("finite", 3, 0.0)

    def test_arch_epsilon_capped(self):
        with pytest.raises(ValueError):
            places.Place("archimedean", None, 1.5)
        places.Place("archimedean", None, 1.0)

    def test_finite_needs_prime(self):
        with pytest.raises(ValueError):
            places.Place("finite", 4)


class TestSerialization:
    def test_rational_roundtrip(self):
        for s in ("3/4", "-35/4", "7", "0"):
            assert places.format_rational(places.parse_rational(s)) == s

    @pytest.mark.parametrize("value", [0.5, 2.0, 1j, None, [1]])
    def test_non_rational_type_rejected(self, value):
        # a float is never converted: 1/9 as a float would change the finite places
        with pytest.raises(TypeError, match=type(value).__name__):
            places.parse_rational(value)
        with pytest.raises(TypeError, match=type(value).__name__):
            places.parse_p1_point(value)

    def test_infinity_token(self):
        assert places.parse_p1_point("inf") is places.INFINITY
        assert places.format_p1_point(places.INFINITY) == "inf"

    def test_place_to_json(self):
        assert places.place_to_json(V3) == {"kind": "finite", "epsilon": 1.0, "p": 3}
        assert places.place_to_json(places.ARCH) == {"kind": "archimedean", "epsilon": 1.0}
        assert places.place_to_json(places.TRIVIAL) == {"kind": "trivial"}
        assert places.place_to_json(places.finite(5, 0.5)) == {
            "kind": "finite",
            "epsilon": 0.5,
            "p": 5,
        }
