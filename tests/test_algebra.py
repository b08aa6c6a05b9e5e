import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from jsob.algebra import (
    NotDivisible,
    ONE_MINUS_X2,
    Polynomial,
    ScaledPolynomial,
    Surd,
    clear_poles,
    integrate_weighted,
)
from jsob.jacobi import JacobiParams
from jsob.operators import Classical, inner_product
from reference_data import integral_by_antiderivative


def poly(*coeffs):
    return Polynomial(coeffs)


def surd_product(a, b):
    # How the operators build a Gram entry: coefficients and radicands multiply.
    return Surd(a.coeff * b.coeff, a.radicand * b.radicand)


class TestPolynomialArithmetic:
    def test_multiply_difference_of_squares(self):
        assert poly(-1, 1) * poly(1, 1) == poly(-1, 0, 1)

    def test_differentiate(self):
        assert poly(-1, 0, 1).derivative() == poly(0, 2)

    def test_differentiate_drops_degree_by_one(self):
        rng = random.Random(7)
        for _ in range(20):
            p = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(2, 9))] + [1])
            assert p.derivative().degree == p.degree - 1

    def test_evaluate_at_root(self):
        assert poly(-1, 0, 1)(Fraction(1)) == 0

    def test_evaluate_exact(self):
        p = poly(Fraction(1, 3), Fraction(-2, 7), 1)
        x = Fraction(5, 11)
        assert p(x) == Fraction(1, 3) - Fraction(2, 7) * x + x * x

    def test_ring_axioms_random(self):
        rng = random.Random(11)
        for _ in range(25):
            a = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
            b = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
            c = Polynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a + b) - b == a

    def test_zero_normalization(self):
        assert Polynomial((0, 0, 0)).is_zero
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)



class TestIntegerForm:
    """int_form = (ints, den) is a polynomial's one stored field, in lowest terms."""

    @staticmethod
    def assert_canonical(p):
        ints, den = p.int_form
        assert den > 0 and gcd(den, *ints) == 1
        assert not ints or ints[-1] != 0

    def test_common_factor_is_divided_out(self):
        p = Polynomial.from_int_form([6, -4, 2], 4)
        assert p.int_form == ((3, -2, 1), 2)
        assert p.coeffs == (Fraction(3, 2), -1, Fraction(1, 2))

    def test_fractions_share_their_least_common_denominator(self):
        assert poly(Fraction(1, 6), Fraction(-3, 4), 2).int_form == ((2, -9, 24), 12)

    def test_trailing_zeros_are_dropped(self):
        assert Polynomial.from_int_form([2, 0, 0], 6).int_form == ((1,), 3)
        assert poly(1, Fraction(1, 2), 0, 0).int_form == ((2, 1), 2)

    @pytest.mark.parametrize(
        "make",
        [Polynomial, lambda: poly(0, 0), lambda: Polynomial.from_int_form([0, 0], 7),
         lambda: Polynomial.from_int_form([], 5), lambda: poly(1, 2) - poly(1, 2)],
    )
    def test_zero_polynomial(self, make):
        p = make()
        assert p.int_form == ((), 1)
        assert p.coeffs == () and p.is_zero and p.degree == -1 and p.leading == 0
        assert p == Polynomial.zero() and hash(p) == hash(Polynomial.zero())

    def test_from_int_form_matches_fraction_constructor_random(self):
        rng = random.Random(23)
        for _ in range(200):
            den = rng.randint(1, 60)
            ints = [rng.randint(-30, 30) for _ in range(rng.randint(0, 7))] + [0] * rng.randint(0, 2)
            fractions = [Fraction(c, den) for c in ints]
            a, b = Polynomial.from_int_form(ints, den), Polynomial(fractions)
            assert a.int_form == b.int_form
            assert a == b and hash(a) == hash(b)
            while fractions and fractions[-1] == 0:
                fractions.pop()
            assert a.coeffs == b.coeffs == tuple(fractions)
            assert a.degree == len(fractions) - 1
            assert a.leading == (fractions[-1] if fractions else 0)
            assert [a.coeff(i) for i in range(-1, 9)] == [
                fractions[i] if 0 <= i < len(fractions) else 0 for i in range(-1, 9)
            ]
            self.assert_canonical(a)

    def test_arithmetic_results_are_canonical(self):
        rng = random.Random(29)
        for _ in range(50):
            a = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, 6))])
            b = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, 6))])
            for p in (a + b, a - b, a * b, Fraction(6, 5) * a, a.derivative(), a - a):
                self.assert_canonical(p)

    def test_one_stored_field_and_a_lazy_view(self):
        p = poly(Fraction(1, 2), 3)
        assert vars(p) == {"int_form": ((1, 6), 2)}
        assert repr(p) == "Polynomial(int_form=((1, 6), 2))"
        assert p.coeffs == (Fraction(1, 2), 3)
        assert p.coeffs is p.coeffs
        with pytest.raises(AttributeError):
            p.coeffs = ()
        with pytest.raises(AttributeError):
            p.int_form = ((1,), 1)


class TestIntegrateWeighted:
    def test_weight_one_mass(self):
        assert integrate_weighted(Polynomial.one(), 1) == Fraction(4, 3)

    def test_negative_weight_constant_integrand(self):
        assert integrate_weighted(poly(-1, 0, 1), -1) == -2

    def test_negative_weight_derived(self):
        p = poly(-1, 0, 1) * poly(-1, 0, 1)
        # oracle: the integrand reduces to 1 - x^2
        assert integral_by_antiderivative(Polynomial.one(), 1) == Fraction(4, 3)
        assert integrate_weighted(p, -1) == Fraction(4, 3)

    def test_linearity(self):
        rng = random.Random(3)
        for m in range(0, 4):
            p = Polynomial([rng.randint(-9, 9) for _ in range(7)])
            q = Polynomial([rng.randint(-9, 9) for _ in range(5)])
            assert integrate_weighted(p + q, m) == integrate_weighted(
                p, m
            ) + integrate_weighted(q, m)

    def test_division_bridge(self):
        rng = random.Random(5)
        for _ in range(20):
            q = Polynomial([rng.randint(-9, 9) for _ in range(6)])
            assert integrate_weighted(ONE_MINUS_X2 * q, -1) == integrate_weighted(q, 0)

    def test_odd_polynomials_integrate_to_zero(self):
        rng = random.Random(9)
        for m in range(0, 4):
            coeffs = [0] * 9
            for i in range(1, 9, 2):
                coeffs[i] = rng.randint(-9, 9)
            assert integrate_weighted(Polynomial(coeffs), m) == 0

    def test_antiderivative_oracle_random(self):
        rng = random.Random(13)
        for _ in range(60):
            p = Polynomial(
                [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(9)]
            )
            m = rng.randint(0, 3)
            assert integrate_weighted(p, m) == integral_by_antiderivative(p, m)

    def test_minus_one_needs_both_endpoints(self):
        # 1 - x^2 divides p only when p vanishes at both x = 1 and x = -1.
        with pytest.raises(NotDivisible, match="x = -1"):
            integrate_weighted(poly(-1, 1), -1)
        with pytest.raises(NotDivisible, match="x = 1"):
            integrate_weighted(poly(1, 1), -1)

    def test_rejects_exponent_below_minus_one(self):
        with pytest.raises(ValueError):
            integrate_weighted(Polynomial.one(), -2)


class TestIntegrateJacobiWeight:
    def test_matches_symmetric_weight(self):
        rng = random.Random(17)
        for m in range(0, 3):
            p = Polynomial([rng.randint(-9, 9) for _ in range(8)])
            spec = Classical(JacobiParams(m, m))
            assert inner_product(p, Polynomial.one(), spec).to_fraction() == integrate_weighted(p, m)

    def test_mixed_negative_exponent(self):
        # p = (1 - x) q integrates against (1-x)^(-1) as plain q
        q = poly(2, 0, 3)
        p = poly(1, -1) * q
        cleared, a, b = clear_poles(p, -1, 0)
        assert (a, b) == (0, 0)
        assert integrate_weighted(cleared, 0) == integrate_weighted(q, 0)

    def test_positive_exponents_pass_through(self):
        p = poly(1, 2, 3)
        assert clear_poles(p, 2, 0) == (p, 2, 0)

    def test_mixed_not_divisible(self):
        with pytest.raises(NotDivisible):
            clear_poles(poly(1, 1), -1, 0)

    def test_rejects_exponent_below_minus_one(self):
        with pytest.raises(ValueError):
            clear_poles(Polynomial.one(), 0, -2)


class TestSurd:
    def test_multiply(self):
        two = Surd(Fraction(1), Fraction(2))
        assert surd_product(two, two) == Surd.from_rational(2)

    def test_canonicalize_square_fraction(self):
        assert Surd(Fraction(2), Fraction(9, 4)) == Surd.from_rational(3)

    def test_multiply_half_sqrt6(self):
        s = Surd(Fraction(1, 2), Fraction(6))
        assert surd_product(s, s) == Surd.from_rational(Fraction(3, 2))

    def test_zero_normal_form(self):
        assert Surd(Fraction(0), Fraction(17)) == Surd.zero()
        assert Surd(Fraction(5), Fraction(0)) == Surd.zero()

    def test_rejects_negative_radicand(self):
        with pytest.raises(ValueError):
            Surd(Fraction(1), Fraction(-2))

    def test_canonicalization_idempotent(self):
        rng = random.Random(23)
        for _ in range(100):
            s = Surd(
                Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
                Fraction(rng.randint(0, 400), rng.randint(1, 20)),
            )
            again = Surd(s.coeff, s.radicand)
            assert again == s

    def test_multiplication_commutative_associative(self):
        rng = random.Random(29)
        for _ in range(100):
            a, b, c = (
                Surd(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                    Fraction(rng.randint(1, 60)),
                )
                for _ in range(3)
            )
            assert surd_product(a, b) == surd_product(b, a)
            assert surd_product(surd_product(a, b), c) == surd_product(a, surd_product(b, c))

    def test_equality_is_exact_beyond_trial_primes(self):
        # 101^2 is a square factor no small-prime trial division would find;
        # the stored square 20402 is the same for both, so is the string.
        a = Surd(Fraction(1), Fraction(2 * 101**2))
        b = Surd(Fraction(101), Fraction(2))
        assert a == b and hash(a) == hash(b)
        assert a != Surd(Fraction(-101), Fraction(2))
        assert a != Surd(Fraction(101), Fraction(3))
        assert str(a) == str(b) == "sqrt(20402)"
        assert str(Surd(Fraction(-101), Fraction(2))) == "-sqrt(20402)"

    def test_equality_is_sign_and_square(self):
        def sign_and_square(c, r):
            q = c * c * r
            return ((c > 0) - (c < 0) if q else 0), q

        # Drawn from a small pool so that distinct (c, r) pairs often share a value.
        rng = random.Random(31)
        draws = [
            (Fraction(rng.choice((-1, 1)) * rng.randint(0, 12), rng.randint(1, 6)),
             Fraction(rng.randint(0, 36), rng.randint(1, 9)))
            for _ in range(300)
        ]
        for c, r in draws[:60]:
            s = Surd(c, r)
            for c2, r2 in draws:
                same = sign_and_square(c, r) == sign_and_square(c2, r2)
                assert (s == Surd(c2, r2)) is same
                if same:
                    assert hash(s) == hash(Surd(c2, r2))
            q = c * c * r
            perfect = all(isqrt(v) ** 2 == v for v in (q.numerator, q.denominator))
            assert s.is_rational is perfect
            if perfect:
                value = s.to_fraction()
                assert value * value == q and value * c >= 0
                again = Surd.from_rational(value)
                assert again == s and again.to_fraction() == value
            else:
                with pytest.raises(ValueError):
                    s.to_fraction()


class TestScaledPolynomial:
    def test_zero_pins_scale(self):
        z = ScaledPolynomial(Fraction(7), Polynomial.zero())
        assert z.scale_sq == 1 and z.is_zero

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            ScaledPolynomial(Fraction(0), Polynomial.one())

    def test_same_function_matches_scaling(self):
        # sqrt(4) * (x/2) equals sqrt(1) * x
        a = ScaledPolynomial(Fraction(4), Polynomial((0, Fraction(1, 2))))
        b = ScaledPolynomial(Fraction(1), Polynomial.x())
        assert a.same_function(b)

    def test_same_function_sign_sensitive(self):
        a = ScaledPolynomial(Fraction(1), Polynomial.x())
        b = ScaledPolynomial(Fraction(1), -1 * Polynomial.x())
        assert not a.same_function(b)
