import random
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    factorint_sympy,
    hilbert_fraction,
    ternary_isotropic_at_fraction,
    ternary_obstruction_fraction,
)
from rankjump.arith import (
    DomainError,
    SquareClass,
    _factorint,
    hilbert,
    is_square,
    lagrange_descent,
    rational_sqrt,
    square_class,
    sqrt_mod_prime,
    ternary_obstruction,
)


class TestSquarefreePart:
    """The squarefree part s of q = s w^2 is square_class(q).s."""

    def test_basic(self):
        assert square_class(12) == SquareClass(3, (3,))

    def test_sign(self):
        assert square_class(-1) == SquareClass(-1, ())

    def test_product_of_cubic_values(self):
        # 144 = 6 * 24, the values of x^3 - x at 2 and 3
        assert square_class(144) == SquareClass(1, ())

    def test_rational(self):
        s = square_class(Fraction(8, 27)).s
        assert s == 6 and rational_sqrt(Fraction(8, 27) / s) == Fraction(2, 9)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            square_class(0)

    @given(st.fractions(min_value=Fraction(-4000), max_value=Fraction(4000),
                        max_denominator=500).filter(lambda q: q != 0))
    def test_recomposition(self, q):
        s, primes = square_class(q)
        w = rational_sqrt(q / s)
        assert w is not None and w > 0
        assert s * w * w == q and prod(primes) == abs(s)

    @given(st.integers(-10**12, 10**12).filter(bool))
    @example(1031 * 1031)
    @example(-4)
    def test_int_is_its_fraction(self, n):
        """An int and its Fraction have one class; the int needs no Fraction."""
        assert square_class(n) == square_class(Fraction(n))

    @given(st.integers(-10**9, 10**9).filter(bool), st.integers(-10**6, 10**6).filter(bool))
    @example(8, 2)
    @example(1031**3, 1031)
    def test_quotient_is_its_fraction(self, n, d):
        """square_class(n, d), n and d over their gcd factored apart, is the
        class of the Fraction n/d."""
        assert square_class(n, d) == square_class(Fraction(n, d))


#: primes on both sides of 2^10, the end of _factorint's trial division
EDGE_PRIMES = (2, 3, 997, 1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049)


@st.composite
def prime_powers(draw):
    return draw(st.sampled_from(EDGE_PRIMES + (65537,))) ** draw(st.integers(1, 8))


@st.composite
def edge_products(draw):
    """A product of two to four primes from both sides of the table's edge."""
    return prod(draw(st.lists(st.sampled_from(EDGE_PRIMES), min_size=2, max_size=4)))


@st.composite
def large_semiprimes(draw):
    """p q with primes p < q above 2^64; q is near p, so that sympy's
    factorint (Fermat's method) splits the product at once."""
    p = sympy.nextprime(2**64 + draw(st.integers(0, 2**32)))
    return p * sympy.nextprime(p + draw(st.integers(0, 2**12)))


class TestFactorint:
    """_factorint divides by the primes below 2^10 and hands only a cofactor
    above 2^20 to sympy; the result is sympy's factorint's."""

    @settings(max_examples=300)
    @given(st.one_of(st.integers(1, 2**40), prime_powers(), edge_products(), large_semiprimes(),
                     st.tuples(edge_products(), large_semiprimes()).map(prod)))
    @example(1)
    @example(1021)
    @example(1031)
    @example(1021 * 1031)
    @example(1031**2)
    @example(1021**2)
    @example(1019 * 1021 * 1031)
    @example((1 << 20) - 3)  # the largest prime below 2^20, by trial division alone
    def test_matches_sympy(self, n):
        assert _factorint(n) == factorint_sympy(n)


class TestIsSquare:
    def test_examples(self):
        assert is_square(144) and rational_sqrt(144) == 12
        assert not is_square(6)
        assert rational_sqrt(Fraction(36, 25)) == Fraction(6, 5)

    def test_zero_and_negative(self):
        assert is_square(0)
        assert not is_square(-4)

    @given(st.fractions(max_denominator=100, min_value=0, max_value=1000))
    def test_square_roundtrip(self, q):
        assert rational_sqrt(q * q) == abs(q)


class TestHilbertSymbol:
    PRIMES = [2, 3, 5, 7, 11, 13, 17]

    def test_known_values(self):
        assert hilbert(-1, -1, 3) == 1      # units at an odd prime
        assert hilbert(-1, -1, 2) == -1     # -x^2 - y^2 = z^2 is 2-adically trivial
        assert hilbert(2, 3, 5) == 1
        assert hilbert(3, 5, 5) == legendre_value(3, 5)
        assert hilbert(5, 5, 5) == legendre_value(-1, 5)

    def test_product_formula(self):
        rng = random.Random(11)
        for _ in range(60):
            a = rng.choice([-1, 1]) * rng.randint(1, 60)
            b = rng.choice([-1, 1]) * rng.randint(1, 60)
            places = {2} | set(prime_divisors(a)) | set(prime_divisors(b))
            prod = -1 if a < 0 and b < 0 else 1  # the symbol at the real place
            for p in places:
                prod *= hilbert(a, b, p)
            assert prod == 1

    def test_multiplicativity(self):
        rng = random.Random(12)
        for _ in range(40):
            a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 40) for _ in range(3))
            for p in self.PRIMES:
                assert hilbert(a * b, c, p) == hilbert(a, c, p) * hilbert(b, c, p)


PRIMES_TO_29 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


@st.composite
def rational_at(draw, p):
    """A nonzero rational times 1, 4 or 8 and a power of p, so that 2-adic
    valuations 2 and 3 and both parities of the p-adic one occur."""
    q = draw(st.fractions(min_value=-60, max_value=60, max_denominator=60).filter(bool))
    return q * draw(st.sampled_from((1, 4, 8))) * Fraction(p) ** draw(st.integers(-2, 3))


@st.composite
def hilbert_cases(draw):
    p = draw(st.sampled_from(PRIMES_TO_29))
    return draw(rational_at(p)), draw(rational_at(p)), p


class TestIntegerHilbert:
    """The integer Hilbert symbol and ternary decision against the Fraction
    ones of tests/conftest.py."""

    @settings(max_examples=400, deadline=None)
    @given(hilbert_cases())
    @example((8, 3, 2))
    @example((Fraction(3, 4), -1, 2))
    @example((Fraction(-5, 8), 24, 2))
    @example((12, Fraction(7, 9), 3))
    def test_matches_fraction_oracle(self, case):
        a, b, p = case
        assert hilbert(class_int(a), class_int(b), p) == hilbert_fraction(a, b, p)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PRIMES_TO_29).flatmap(lambda p: st.tuples(*[rational_at(p)] * 3)))
    def test_ternary_obstruction_matches_fraction_oracle(self, abc):
        assert obstruction_of(*abc) == ternary_obstruction_fraction(*abc)


def class_int(q) -> int:
    """An integer in the square class of the nonzero rational q: n/d ~ n d."""
    n, d = Fraction(q).as_integer_ratio()
    return n * d


def obstruction_of(a, b, c):
    """ternary_obstruction of the nonzero rationals a, b, c, by their classes."""
    return ternary_obstruction(*map(square_class, (a, b, c)))


def legendre_value(a, p):
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def prime_divisors(n):
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class TestTernaryForms:
    def test_known_obstruction(self):
        # u^2 - 2 w^2 = 6 z^2 fails 3-adically (and, by reciprocity, also
        # 2-adically; the reported obstruction is the smallest place)
        assert obstruction_of(1, -2, -6) == 2
        assert not ternary_isotropic_at_fraction(1, -2, -6, 3)
        assert not ternary_isotropic_at_fraction(1, -2, -6, 2)

    def test_solvable(self):
        assert obstruction_of(1, -2, -2) is None
        assert obstruction_of(1, 1, -1) is None

    def test_real_obstruction(self):
        assert obstruction_of(1, 2, 3) == 0

    def test_against_brute_force(self):
        rng = random.Random(13)
        for _ in range(40):
            a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(3))
            obstruction = obstruction_of(a, b, c)
            found = brute_force_zero(a, b, c, 40)
            if found:
                assert obstruction is None, (a, b, c, found)


def brute_force_zero(a, b, c, box):
    from math import isqrt

    for x in range(box):
        for y in range(-box, box):
            rhs = -(a * x * x + b * y * y)
            if c == 0:
                continue
            if rhs % c == 0 and rhs // c >= 0:
                z = isqrt(rhs // c)
                if z * z == rhs // c and (x, y, z) != (0, 0, 0):
                    return (x, y, z)
    return None


def test_sqrt_mod_prime_against_brute_force():
    """Every residue modulo every prime below 200, among them p = 1 mod 8,
    where Tonelli-Shanks runs its inner loop."""
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    assert any(p % 8 == 1 for p in primes)
    for p in primes:
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod_prime(a, p)
            if a in squares:
                assert r is not None and 0 <= r < p and r * r % p == a, (a, p)
            else:
                assert r is None, (a, p)


DESCENT_PRIMES = PRIMES_TO_29 + (31, 37, 41, 43, 97, 101, 257, 1009, 10007)


@st.composite
def square_classes(draw):
    """A squarefree integer, with its primes: a sign times distinct primes."""
    primes = sorted(draw(st.lists(st.sampled_from(DESCENT_PRIMES), unique=True, max_size=4)))
    return SquareClass(draw(st.sampled_from((1, -1))) * prod(primes), tuple(primes))


@st.composite
def norm_pairs(draw):
    """(a, b) with b the class of a value x^2 - a y^2, so that the form
    x^2 = a y^2 + b z^2 has a zero; random pairs mostly have none."""
    a = draw(square_classes())
    x, y = draw(st.integers(-300, 300)), draw(st.integers(1, 300))
    assume(x * x != a.s * y * y)
    return a, square_class(x * x - a.s * y * y)


class TestLagrangeDescent:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(square_classes(), square_classes()), norm_pairs()))
    @example((square_class(-1), square_class(-1)))
    @example((square_class(-1), square_class(2)))
    @example((square_class(2), square_class(-2)))
    @example((square_class(-6), square_class(-6)))
    @example((square_class(5), square_class(10)))
    def test_zero_exactly_when_solvable(self, ab):
        """A nonzero zero of x^2 = a y^2 + b z^2 when the Fraction oracle
        finds no obstruction, None when it finds one."""
        a, b = ab
        sol = lagrange_descent(a, b)
        if ternary_obstruction_fraction(1, -a.s, -b.s) is None:
            assert sol is not None and any(sol)
            x, y, z = sol
            assert x * x == a.s * y * y + b.s * z * z
        else:
            assert sol is None
