import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import divmod_stripping, ratpoly_eval_fraction, resultant, squarefree_kernel
from rankjump.arith import DomainError
from rankjump.polynomial import (
    PLACE_AT_INFINITY,
    Place,
    RatPoly,
    factor_rational,
    poly_discriminant,
    poly_gcd,
    valuation,
    yun_squarefree,
)

T = RatPoly([0, 1])


def rand_poly(rng, deg, span=9):
    return RatPoly([Fraction(rng.randint(-span, span)) for _ in range(deg + 1)])


class TestRingOps:
    def test_trim_and_degree(self):
        assert RatPoly([1, 2, 0, 0]).degree == 1
        assert RatPoly().degree == -1
        assert RatPoly([0]).is_zero()

    def test_divmod(self):
        p = T**3 - T
        q, r = divmod(p, T - 1)
        assert q * (T - 1) + r == p and r.is_zero()

    def test_divmod_random(self):
        rng = random.Random(5)
        for _ in range(50):
            a = rand_poly(rng, rng.randint(0, 6))
            b = rand_poly(rng, rng.randint(0, 4))
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree or r.is_zero()

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-9, 9))
    def test_evaluation_is_ring_hom(self, a, b, x):
        p = RatPoly([a, 1, b])
        q = RatPoly([b, a, -2, 1])
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)


COEFFICIENTS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)))
# the empty list is the zero polynomial, one coefficient a constant
POLYS = st.lists(COEFFICIENTS, max_size=9).map(RatPoly)
PARAMETERS = st.one_of(
    st.just(0),
    st.integers(-10**12, 10**12),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12)))


class TestEvaluation:
    """__call__ runs homogeneous Horner on integer numerators over one
    denominator, built on the first call; the oracle is Horner on Fractions."""

    @settings(max_examples=400, deadline=None)
    @given(POLYS, PARAMETERS)
    @example(RatPoly(), Fraction(-7, 3))
    @example(RatPoly([Fraction(5, 6)]), 10**12)
    @example(RatPoly([0, 0, 0, 0, 0, 0, 0, 0, Fraction(-1, 10**6)]), Fraction(-10**12, 10**12 - 1))
    @example(RatPoly([Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)]), Fraction(6, 7))
    def test_matches_fraction_horner(self, p, x):
        want = ratpoly_eval_fraction(p, Fraction(x))
        first, second = p(x), p(x)
        assert type(first) is Fraction and first == second == want


class TestDivision:
    """divmod is one descending loop over the quotient degrees, and a product
    with 0 runs the general loop; the oracle is the long division by nested
    strip-and-break loops that the loop replaced."""

    @settings(max_examples=400, deadline=None)
    @given(POLYS, POLYS.filter(bool))
    @example(RatPoly(), T**2 + 1)                                 # zero dividend
    @example(T**3 - 2 * T, RatPoly([Fraction(-3, 5)]))            # constant divisor
    @example(T + 1, T**3 - T)                                     # shorter dividend
    @example(T**6 + 1, T**2)                                      # zero quotient terms
    @example(RatPoly([Fraction(7, 2)]), RatPoly([Fraction(7, 2)]))
    def test_matches_stripping_division(self, a, b):
        q, r = divmod(a, b)
        assert (q, r) == divmod_stripping(a, b)
        assert q * b + r == a and r.degree < b.degree

    @given(POLYS)
    def test_product_with_zero(self, p):
        assert (p * RatPoly()).is_zero() and (RatPoly() * p).is_zero() and (p * 0).is_zero()


class TestDiscriminant:
    def test_cubic(self):
        # oracle -4p^3 - 27q^2 for x^3 + p x + q with p = -1, q = 0
        assert poly_discriminant(T**3 - T) == 4

    def test_quadratic(self):
        # oracle b^2 - 4ac
        assert poly_discriminant(T**2 - 2) == 8

    def test_repeated_root(self):
        assert poly_discriminant(T**3) == 0

    def test_unsupported_degree(self):
        with pytest.raises(DomainError):
            poly_discriminant(T**4 + 1)

    @given(st.sampled_from([2, 3]),
           st.lists(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9)),
                    min_size=4, max_size=4))
    def test_discriminant_is_the_resultant_with_the_derivative(self, n, cs):
        # disc(p) = (-1)^(n(n-1)/2) res(p, p') / lc(p) for p of degree n
        p = RatPoly(cs[:n] + [cs[n] or 1])
        sign = (-1) ** (n * (n - 1) // 2)
        assert poly_discriminant(p) == sign * resultant(p, p.derivative()) / p.leading()

    def test_gcd_detects_separability(self):
        rng = random.Random(7)
        for _ in range(60):
            p = rand_poly(rng, rng.choice([2, 3]))
            if p.degree < 2:
                continue
            sep = poly_gcd(p, p.derivative()).degree == 0
            assert sep == (poly_discriminant(p) != 0)


class TestGcdResultant:
    def test_gcd(self):
        assert poly_gcd((T - 1) * (T + 2), (T - 1) * (T - 5)) == T - 1

    def test_resultant_shares_root(self):
        assert resultant((T - 1) * (T + 1), (T - 1) * (T - 3)) == 0

    def test_resultant_value(self):
        # res(t^2 - 2, t^2 - 3) = (sqrt2^2 - 3)^2 = 1
        assert resultant(T**2 - 2, T**2 - 3) == 1

    def test_resultant_multiplicative(self):
        rng = random.Random(9)
        for _ in range(30):
            a = rand_poly(rng, 2)
            b = rand_poly(rng, 2)
            c = rand_poly(rng, 1)
            if a.is_zero() or b.is_zero() or c.is_zero():
                continue
            assert resultant(a * b, c) == resultant(a, c) * resultant(b, c)


class TestSquarefreeStructure:
    def test_yun(self):
        p = (T - 1) ** 3 * (T + 2) ** 2 * (T - 5)
        lc, blocks = yun_squarefree(4 * p)
        assert lc == 4
        assert dict((i, f) for f, i in blocks) == {3: T - 1, 2: T + 2, 1: T - 5}

    @pytest.mark.parametrize("c", [1, Fraction(-3, 2)])
    def test_yun_of_a_constant(self, c):
        # gcd(c, 0) = 1, so the loop yields no block
        assert yun_squarefree(RatPoly([c])) == (c, [])

    def test_kernel(self):
        lead, h = squarefree_kernel(RatPoly([0, 0, 3]))  # 3 t^2
        assert lead == 3 and h == RatPoly([1])
        lead, h = squarefree_kernel(12 * (T**2 - 1) * (T - 2) ** 2)
        assert lead == 12 and h == T**2 - 1

    def test_factor_rational(self):
        lc, factors = factor_rational(64 * (T**2 - 1) ** 6)
        assert lc == 64
        assert factors == [(T - 1, 6), (T + 1, 6)]

    def test_factor_irreducible(self):
        _, factors = factor_rational(T**2 - 2)
        assert factors == [(T**2 - 2, 1)]


class TestPlaces:
    def test_valuation_finite(self):
        place = Place(T - 1)
        assert valuation((T - 1) ** 3 * (T + 1), place) == 3
        assert valuation(T + 1, place) == 0
        assert valuation(RatPoly(), place) is None

    def test_valuation_infinity(self):
        assert valuation(T**3 - T, PLACE_AT_INFINITY) == -3
        assert valuation(RatPoly([5]), PLACE_AT_INFINITY) == 0

    def test_place_degree(self):
        assert Place(T**2 - 2).degree == 2
        assert PLACE_AT_INFINITY.degree == 1
