import random
from fractions import Fraction
from math import gcd, prod
from unittest.mock import patch

import pytest
from conftest import (
    coefficients,
    curve_of,
    ec_add,
    ec_mul,
    ec_on_curve,
    int_pair,
    integral_model_by_denominators,
    moved_point,
    pair_add,
    pair_torsion_order,
    point,
    pullback_fraction,
    ratios,
    relation_holds,
    scalar_mul,
    specialize_fraction,
    tate_normal_form,
    torsion_order_by_multiples,
    transport_fraction,
    triple,
)
from hypothesis import assume, example, given, settings, strategies as st

from rankjump import arith, curves
from rankjump.conics import DegenerateFibreError, conic_fibre
from rankjump.curves import (
    OffCurveError,
    SingularCurveError,
    SingularSpecializationError,
    specialize,
)
from rankjump.jumps import RankJumpCertificate, verify_certificate
from rankjump.polynomial import RatPoly
from rankjump.surfaces import KMFamily, TwistFamily

T = RatPoly([0, 1])


def rand_point_curve(rng, span=8):
    """A random curve through a random small point (B is solved for)."""
    while True:
        x = Fraction(rng.randint(-span, span), rng.randint(1, 3))
        y = Fraction(rng.randint(1, span), rng.randint(1, 3))
        A = Fraction(rng.randint(-span, span))
        B = y * y - x**3 - A * x
        try:
            return curve_of(A, B), point(x, y)
        except SingularCurveError:
            continue


class TestGroupLaw:
    def test_identity(self):
        E = curve_of(-36, 0)
        P = point(12, 36)
        assert pair_add(E, P, None) == P
        assert pair_add(E, None, P) == P

    def test_two_torsion_doubles_to_identity(self):
        E = curve_of(-36, 0)
        assert pair_add(E, point(0, 0), point(0, 0)) is None

    def test_duplication_example(self):
        # duplication formula for P = (12, 36) on y^2 = x^3 - 36x:
        # x(2P) = (x^4 + 72x^2 + 1296)/(4(x^3 - 36x)) = 25/4, y(2P) = -35/8
        E = curve_of(-36, 0)
        assert pair_add(E, point(12, 36), point(12, 36)) == point(Fraction(25, 4), Fraction(-35, 8))

    def test_off_curve_rejected(self):
        E = curve_of(-36, 0)
        with pytest.raises(OffCurveError):
            pair_add(E, point(1, 1), point(12, 36))

    def test_commutative_associative(self):
        rng = random.Random(41)
        for _ in range(12):
            E, P = rand_point_curve(rng)
            Q = pair_add(E, P, P)
            R = pair_add(E, Q, P)
            assert pair_add(E, P, Q) == pair_add(E, Q, P)
            assert pair_add(E, pair_add(E, P, Q), R) == pair_add(E, P, pair_add(E, Q, R))

    def test_scalar_mul_matches_repeated_add(self):
        rng = random.Random(42)
        E, P = rand_point_curve(rng)
        acc = None
        for n in range(1, 8):
            acc = pair_add(E, acc, P)
            assert scalar_mul(E, n, P) == acc
        P3 = scalar_mul(E, 3, P)
        assert scalar_mul(E, -3, P) == point(P3[0], -P3[1])

    def test_scalar_mul_adds_at_most_doublings_plus_bits(self, monkeypatch):
        # bit_length - 1 doublings and one addition per set bit; no doubling
        # past the top bit. scalar_mul runs on the integer law, so its steps
        # are the calls of curves._jac_add.
        E, P = curve_of(-36, 0), point(12, 36)
        calls = []
        add = curves._jac_add

        def counting_add(A, Q, R):
            calls.append(1)
            return add(A, Q, R)

        monkeypatch.setattr(curves, "_jac_add", counting_add)
        for n in range(1, 41):
            calls.clear()
            scalar_mul(E, n, P)
            assert len(calls) <= n.bit_length() - 1 + bin(n).count("1"), n


class TestTorsion:
    def test_two_torsion(self):
        E = curve_of(-36, 0)
        assert pair_torsion_order(E, point(0, 0)) == 2

    def test_nontorsion(self):
        E = curve_of(-36, 0)
        assert pair_torsion_order(E, point(12, 36)) is None

    def test_order_six(self):
        E = curve_of(0, 1)
        assert pair_torsion_order(E, point(2, 3)) == 6

    def test_order_three(self):
        # (0, m) on y^2 = x^3 + m^2 has order 3
        E = curve_of(0, 9)
        assert pair_torsion_order(E, point(0, 3)) == 3


small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


def no_factoring():
    return patch.object(arith, "_factorint", side_effect=AssertionError("factored"))


class TestTorsionAgainstMultiples:
    """torsion_order walks P, 2P, ... in integers to O or to a non-integral
    multiple; the oracle tries all 12 multiples in Fractions. On rational
    coefficients it runs on the lcm-scaled model, so it must not factor
    anything."""

    @settings(max_examples=150, deadline=None)
    @given(small_rationals, st.builds(Fraction, st.integers(0, 12), st.integers(1, 4)),
           small_rationals)
    def test_random_curves_and_points(self, x, y, A):
        B = y * y - x**3 - A * x  # y = 0 makes P a point of order 2
        assume(4 * A**3 + 27 * B**2 != 0)
        expected = torsion_order_by_multiples(A, (x, y))
        with no_factoring():
            assert pair_torsion_order(curve_of(A, B), point(x, y)) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([4, 5, 6, 7, 8, 9, 10, 12]), small_rationals)
    def test_every_mazur_order(self, n, t):
        # the multiples k P of a point of order n have order n / gcd(n, k):
        # with n = 4..10, 12 they cover every order 1..10 and 12
        try:
            A, B, P = tate_normal_form(n, t)
        except ZeroDivisionError:
            assume(False)
        assume(4 * A**3 + 27 * B**2 != 0)
        E = curve_of(A, B)
        kP = P
        for k in range(1, n + 1):
            expected = n // gcd(n, k)
            assert torsion_order_by_multiples(A, kP) == expected
            Q = None if kP is None else point(*kP)
            with no_factoring():
                assert pair_torsion_order(E, Q) == expected, (E, Q)
            kP = ec_add(A, kP, P)


@st.composite
def rationals_with_prime_powers(draw):
    """A rational whose numerator and denominator carry powers of small
    primes up to p^15."""
    powers = st.lists(st.tuples(st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, 15)),
                      max_size=3)
    num, den = draw(st.integers(-30, 30)), draw(st.integers(1, 30))
    for p, e in draw(powers):
        num *= p**e
    for p, e in draw(powers):
        den *= p**e
    return Fraction(num, den)


def reduced_results():
    """Patch curves._jac_add to check that every sum it returns is O or a
    reduced triple: Z > 0 and gcd(X, Z) = 1."""
    add = curves._jac_add

    def checked(A, P, Q):
        R = add(A, P, Q)
        assert R is None or R[2] > 0 and gcd(R[0], R[2]) == 1, R
        return R

    return patch.object(curves, "_jac_add", checked)


@st.composite
def curves_with_points(draw):
    """A curve whose coefficients carry prime powers in their denominators,
    through a drawn point (B is solved for; y = 0 makes it 2-torsion)."""
    x, A = draw(rationals_with_prime_powers()), draw(rationals_with_prime_powers())
    y = draw(st.one_of(st.just(Fraction(0)), rationals_with_prime_powers()))
    B = y * y - x**3 - A * x
    assume(4 * A**3 + 27 * B**2 != 0)
    return curve_of(A, B), point(x, y)


def kubert_point(n, t):
    """Kubert's curve with its point of order n at t, or None at a pole or
    a singular fibre."""
    try:
        A, B, P = tate_normal_form(n, t)
        return curve_of(A, B), point(*P)
    except (ZeroDivisionError, SingularCurveError):
        return None


class TestJacobianLawAgainstOracle:
    """add, scalar_mul and torsion_order run on integer Jacobian triples of
    the lcm-scaled model; the oracles are the Fraction chord-and-tangent
    formulas and every multiple up to 12."""

    def check(self, E, P, j, k):
        A = coefficients(E)[0]
        jP, kP = ec_mul(A, j, P), ec_mul(A, k, P)
        with reduced_results():
            jQ, kQ = scalar_mul(E, j, P), scalar_mul(E, k, P)
            assert (jQ, kQ) == (jP, kP)
            assert pair_add(E, jQ, kQ) == ec_add(A, jP, kP)
            assert pair_torsion_order(E, P) == torsion_order_by_multiples(A, P)

    @settings(max_examples=60, deadline=None)
    @given(curves_with_points(), st.integers(-20, 20), st.integers(-20, 20))
    def test_prime_power_denominators(self, curve_point, j, k):
        self.check(*curve_point, j, k)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([4, 5, 6, 7, 8, 9, 10, 12]), small_rationals,
           st.integers(-20, 20), st.integers(-20, 20))
    def test_kubert_points(self, n, t, j, k):
        curve_point = kubert_point(n, t)
        assume(curve_point is not None)
        self.check(*curve_point, j, k)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 12])
    def test_kubert_order(self, n):
        E, P = kubert_point(n, Fraction(-3, 2))
        with reduced_results():
            assert scalar_mul(E, n, P) is None
            assert pair_torsion_order(E, P) == n

    def test_special_sums(self):
        # (12, 36) on y^2 = x^3 - 36 x, scaled by x -> x/16, y -> y/64
        E, P = curve_of(Fraction(-9, 64), 0), point(Fraction(3, 4), Fraction(9, 16))
        T = point(0, 0)  # order 2
        with reduced_results():
            assert pair_add(E, P, P) == point(*ec_add(coefficients(E)[0], P, P))
            assert pair_add(E, P, point(P[0], -P[1])) is None
            assert pair_add(E, T, T) is None
            assert pair_add(E, P, None) == pair_add(E, None, P) == P
            assert scalar_mul(E, 0, P) is scalar_mul(E, 5, None) is None


class TestIntegralModel:
    def test_clears_denominators(self):
        E = curve_of(Fraction(-9, 64), 0)
        Ai, Bi, lam = E.integral_model
        assert Ai == -36 and Bi == 0 and lam == 4
        assert Fraction(Ai) == coefficients(E)[0] * lam**4

    def test_reduces_large_powers(self):
        E = curve_of(-16 * 36, 0)  # = -36 * 2^4
        Ai, _, lam = E.integral_model
        assert Ai == -36 and lam == Fraction(1, 2)

    def test_irreducible_pair_untouched(self):
        E = curve_of(-36, 0)
        Ai, Bi, lam = E.integral_model
        assert (Ai, Bi, lam) == (-36, 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(rationals_with_prime_powers(), rationals_with_prime_powers())
    @example(Fraction(5, 2**13 * 3**7), Fraction(-7 * 5**12, 2**5 * 7**11))
    @example(Fraction(0), Fraction(3**13, 2**7))
    @example(Fraction(2**9 * 7**8, 11), Fraction(0))
    def test_matches_model_by_denominators(self, A, B):
        # the reduced integral model with lam > 0 is unique, however it is found
        assume(4 * A**3 + 27 * B**2 != 0)
        model = curve_of(A, B).integral_model
        assert model == integral_model_by_denominators(A, B)


@st.composite
def coefficient_pairs(draw):
    """(A, B): drawn rationals, or a singular pair A = -3 c^2, B = 2 c^3."""
    if draw(st.booleans()):
        c = draw(rationals_with_prime_powers())
        return -3 * c * c, 2 * c**3
    return draw(rationals_with_prime_powers()), draw(rationals_with_prime_powers())


class TestScaledModel:
    @settings(max_examples=200, deadline=None)
    @given(coefficient_pairs())
    @example((Fraction(-3, 4), Fraction(1, 4)))  # c = 1/2
    @example((Fraction(0), Fraction(0)))
    def test_built_at_construction_in_integers(self, AB):
        # (A mu^4, B mu^6, mu) with mu = lcm(den A, den B), and the curve is
        # refused exactly when 4 A^3 + 27 B^2 = 0
        A, B = AB
        mu = A.denominator * B.denominator // gcd(A.denominator, B.denominator)
        if 4 * A**3 + 27 * B**2 == 0:
            with pytest.raises(SingularCurveError):
                curve_of(A, B)
        else:
            assert curve_of(A, B)._scaled_model == (int(A * mu**4), int(B * mu**6), mu)


def smooth(min_size=0):
    """Products of the primes 2, 3, 5, 7, often not squares."""
    return st.lists(st.sampled_from((2, 3, 5, 7)), min_size=min_size, max_size=6).map(prod)


@st.composite
def curves_with_mu(draw):
    """A curve whose A has a denominator > 1 of primes 2, 3, 5, 7, so mu > 1,
    through a point whose x and y have such denominators (B is solved for;
    y = 0 makes it 2-torsion)."""
    def rational(den):
        return Fraction(draw(st.integers(-60, 60)), draw(den))

    A, x = rational(smooth(1)), rational(smooth())
    y = rational(smooth()) if draw(st.booleans()) else Fraction(0)
    B = y * y - x**3 - A * x
    assume(4 * A**3 + 27 * B**2 != 0)
    E = curve_of(A, B)
    assume(E._scaled_model[2] > 1)
    return E, point(x, y)


TWELFTHS = (curve_of(Fraction(-5, 6), Fraction(551, 1728)),
            point(Fraction(1, 12), Fraction(1, 2)))


class TestEntryCheck:
    """is_on tests y^2 = x^3 + A x + B times b^3 e^2 mu^6 in integers on the
    scaled model; the oracle is the equation in Fractions."""

    @settings(max_examples=300, deadline=None)
    @given(curves_with_mu(), st.integers(1, 3), st.sampled_from(("on", "x", "y", "y=0")),
           st.fractions(min_value=-4, max_value=4, max_denominator=12).filter(bool))
    # x denominators 2 and 12, not squares: on the curve, and moved off it
    @example((curve_of(Fraction(1, 2), Fraction(-3, 8)), point(Fraction(1, 2), 0)),
             1, "on", Fraction(1))
    @example(TWELFTHS, 1, "on", Fraction(1))
    @example(TWELFTHS, 1, "x", Fraction(1, 3))
    def test_matches_fraction_equation(self, curve_point, k, move, delta):
        E, P = curve_point
        A, B = coefficients(E)
        Q = ec_mul(A, k, P)
        if Q is not None:
            x, y = Q
            Q = {"on": (x, y), "x": (x + delta, y), "y": (x, y + delta),
                 "y=0": (x, Fraction(0))}[move]
        on = ec_on_curve(A, B, Q)
        assert on or move != "on"
        if Q is None:  # O is on every curve, and enters the law as no triple
            assert on and triple(E, Q) is None
            return
        R = ratios(Q)
        assert E.is_on(R) == on
        if on:
            E._jac(R)
        else:
            with pytest.raises(OffCurveError):
                E._jac(R)


SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=3)
NONZERO = SMALL.map(lambda q: q or Fraction(1))


@st.composite
def fibre_cases(draw):
    """(surface, t0, spec, points): a twist or km surface whose fibre over t0
    passes through (x, y), one coefficient (the constant term of f, or of
    a0) solved for it, with spec = specialize at t0; points starts
    with (x, y) and (x, -y), then moves x, y or both off them."""
    t0, x, y = draw(SMALL), draw(SMALL), draw(NONZERO)
    try:
        if draw(st.booleans()):
            g = RatPoly([draw(SMALL) for _ in range(draw(st.sampled_from([1, 2])))] + [draw(NONZERO)])
            c1, c2, c3 = draw(SMALL), draw(SMALL), draw(NONZERO)
            c0 = g(t0) * y * y - c3 * x**3 - c2 * x**2 - c1 * x
            surface = TwistFamily(RatPoly([c0, c1, c2, c3]), g)
        else:
            a3, a2, a1 = (RatPoly([draw(SMALL) for _ in range(3)]) for _ in range(3))
            a01, a02 = draw(SMALL), draw(SMALL)
            a00 = y * y - a3(t0) * x**3 - a2(t0) * x**2 - a1(t0) * x - a01 * t0 - a02 * t0 * t0
            surface = KMFamily(a3, a2, a1, RatPoly([a00, a01, a02]))
        spec = specialize(surface, *int_pair(t0))
    except (arith.DomainError, SingularSpecializationError):
        assume(False)
    dx, dy = draw(NONZERO), draw(NONZERO)
    return surface, t0, spec, [(x, y), (x, -y), (x, y + dy), (x + dx, y), (x + dx, y + dy)]


class TestSpecialize:
    @settings(max_examples=150, deadline=None)
    @given(fibre_cases())
    def test_chart_is_an_isomorphism_of_the_fibre(self, case):
        # moved is unchecked: the curve equation at moved(x, y) must hold
        # exactly when the fibre relation of the oracle holds at (x, y)
        surface, t0, spec, points = case
        chart = specialize_fraction(surface, t0)[1]
        for x, y in points:
            P = moved_point(spec, x, y)
            assert pullback_fraction(chart, *P) == (x, y)
            try:
                fibre = conic_fibre(surface, *int_pair(x))
            except DegenerateFibreError:
                continue
            on = spec.curve.is_on(spec.moved(int_pair(x), int_pair(y)))
            assert relation_holds(fibre, t0, y) == on
        (x, y), (_, moved) = points[0], points[2]
        assert spec.curve.is_on(spec.moved(int_pair(x), int_pair(y)))
        on = spec.curve.is_on(spec.moved(int_pair(x), int_pair(moved)))
        assert on == (moved * moved == y * y)

    def test_twist_example(self):
        s = TwistFamily(T**3 - T, T)
        spec = specialize(s, 6)
        assert (spec.curve.A, spec.curve.B) == (int_pair(-36), int_pair(0))
        assert moved_point(spec, 2, 1) == point(12, 36)

    def test_twist_second_point(self):
        s = TwistFamily(T**3 - T, T)
        spec = specialize(s, 6)
        # fibre relation 6 y^2 = f(3) = 24 gives y = 2
        assert moved_point(spec, 3, 2) == point(18, 72)
        assert point(18, 72)[1] ** 2 == Fraction(18) ** 3 - 36 * 18

    def test_mordell_example(self):
        m = KMFamily(RatPoly([1]), RatPoly(), RatPoly(), T)
        spec = specialize(m, 3)
        assert (spec.curve.A, spec.curve.B) == (int_pair(0), int_pair(3))
        assert moved_point(spec, 1, 2) == point(1, 2)

    def test_singular_fibre_rejected(self):
        s = TwistFamily(T**3 - T, T)
        with pytest.raises(SingularSpecializationError):
            specialize(s, 0)

    def test_pullback_inverts_transport(self):
        s = TwistFamily(T**3 - T, T)
        spec, chart = specialize(s, 6), specialize_fraction(s, 6)[1]
        P = moved_point(spec, 2, 1)
        assert pullback_fraction(chart, *P) == (2, 1)
        Q = moved_point(spec, 3, 2)
        assert pullback_fraction(chart, *Q) == (3, 2)

    def test_transport_is_group_homomorphism(self):
        rng = random.Random(43)
        s = TwistFamily(T**3 - T, T)
        checked = 0
        for t0 in (6, 24, Fraction(3, 2), Fraction(2, 3), 15):
            spec = specialize(s, *int_pair(t0))
            fibre_pts = _fibre_points(s, t0, rng)
            for (x1, y1), (x2, y2) in zip(fibre_pts, fibre_pts[1:]):
                P1, P2 = moved_point(spec, x1, y1), moved_point(spec, x2, y2)
                fx, fy = _fibre_add(s, t0, (x1, y1), (x2, y2))
                assert moved_point(spec, fx, fy) == pair_add(spec.curve, P1, P2)
                checked += 1
        assert checked >= 4


@st.composite
def specialisation_cases(draw):
    """(surface, t0, points): a drawn twist or km surface, t0 drawn or a root
    r that the draw may have put in g, in a3 or in a0 (u(t0) = 0, or a
    singular fibre), and drawn fibre points (x, y)."""
    r = draw(SMALL)
    root = draw(st.sampled_from([None, "chart", "a0"]))
    linear = RatPoly([-r, 1])
    try:
        if draw(st.booleans()):
            f = RatPoly([draw(SMALL) for _ in range(3)] + [draw(NONZERO)])
            g = RatPoly([draw(SMALL), draw(NONZERO)])
            if draw(st.booleans()):
                g = g * linear if root == "chart" else g * RatPoly([draw(SMALL), 1])
            surface = TwistFamily(f, g)
        else:
            a3 = RatPoly([draw(NONZERO)] + [draw(SMALL) for _ in range(2)])
            a2, a1, a0 = (RatPoly([draw(SMALL) for _ in range(3)]) for _ in range(3))
            if root == "chart":
                a3 = linear * RatPoly([draw(NONZERO), draw(SMALL)])
            if root == "a0":
                a2 = a1 = RatPoly()
                a0 = linear * RatPoly([draw(NONZERO), draw(SMALL)])
            surface = KMFamily(a3, a2, a1, a0)
    except arith.DomainError:
        assume(False)
    t0 = r if root is not None and draw(st.booleans()) else draw(SMALL)
    return surface, t0, [(draw(SMALL), draw(SMALL)) for _ in range(3)]


class TestIntegerSpecialisation:
    """specialize, moved, the record's points read from the checked triples
    (_point) and the fibre check of verify_certificate run in integers; the
    Fraction path they replaced (conftest) must agree."""

    @settings(max_examples=300, deadline=None)
    @given(specialisation_cases())
    @example((KMFamily(RatPoly([1]), RatPoly(), RatPoly(), T - 2), 2, [(1, 1)]))
    @example((KMFamily(T - Fraction(1, 2), RatPoly(), RatPoly(), T + 1), Fraction(1, 2), []))
    @example((TwistFamily(T**3 - T, T), 0, []))
    @example((TwistFamily(T**3 - T, T), 6, [(2, 1), (3, 2), (Fraction(-1, 3), 0)]))
    def test_matches_the_fraction_path(self, case):
        surface, t0, points = case
        try:
            (A, B), chart = specialize_fraction(surface, t0)
        except SingularSpecializationError as exc:
            with pytest.raises(SingularSpecializationError) as raised:
                specialize(surface, *int_pair(t0))
            assert str(raised.value) == str(exc)
            return
        spec = specialize(surface, *int_pair(t0))
        assert (spec.curve.A, spec.curve.B) == (int_pair(A), int_pair(B))
        assert all(type(n) is type(d) is int for n, d in (spec.curve.A, spec.curve.B))
        assert all(d > 0 for _, d in spec.chart)
        assert tuple(Fraction(n, d) for n, d in spec.chart) == chart
        for x, y in points:
            P = moved_point(spec, x, y)
            assert P == transport_fraction(chart, x, y)
            (X, D), (Y, E) = spec.moved(int_pair(x), int_pair(y))
            assert D > 0 and E > 0 and (Fraction(X, D), Fraction(Y, E)) == P
            on = spec.curve.is_on(((X, D), (Y, E)))
            assert on == spec.curve.is_on(ratios(P))
            assert pullback_fraction(chart, *P) == (x, y)
            if on:  # the record's point, read back from the checked triple
                J = spec.curve._jac(spec.moved(int_pair(x), int_pair(y)))
                X1, Y1 = transport_fraction(chart, x, y)
                assert spec.curve._point(J) == (int_pair(X1), int_pair(Y1))

    @settings(max_examples=60, deadline=None)
    @given(fibre_cases(), SMALL)
    def test_verify_fibre_check_matches_the_pullback(self, case, other):
        # a curve point P of the fibre x = x0 recorded with provenance x0 or
        # another x: verify_certificate's cross-multiplied check fails it
        # exactly where the Fraction pullback of P misses the provenance
        surface, t0, spec, points = case
        chart = specialize_fraction(surface, t0)[1]
        x, y = points[0]
        P = moved_point(spec, x, y)
        for x0 in (x, other):
            cert = RankJumpCertificate(t0=int_pair(t0), curve=(spec.curve.A, spec.curve.B),
                                       points=[tuple(map(int_pair, P))],
                                       provenance=[int_pair(x0)],
                                       generic_rank_bound=0, rank_bound_exact=True,
                                       claimed_rank_lower_bound=1)
            reasons = verify_certificate(surface, cert)[1]
            missed = any("does not come from the fibre" in r for r in reasons)
            assert missed == (pullback_fraction(chart, *P)[0] != x0)


def _fibre_points(s, t0, rng, want=3):
    """Rational points on g(t0) y^2 = f(x), found by sweeping x."""
    from rankjump.arith import rational_sqrt

    g0 = s.g(t0)
    out = []
    for num in range(-40, 41):
        for den in (1, 2, 3, 4):
            x = Fraction(num, den)
            val = s.f(x) / g0
            if val == 0:
                continue
            y = rational_sqrt(val)
            if y:
                out.append((x, y))
                if len(out) >= want:
                    return out
    return out


def _fibre_add(s, t0, p1, p2):
    """Chord-tangent addition directly on the fibre model c y^2 = f(x)."""
    c = s.g(t0)
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2 and y1 == -y2:
        raise ValueError("sum is the identity; pick other points")
    if (x1, y1) == (x2, y2):
        lam = s.f.derivative()(x1) / (2 * c * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    l3 = s.f.leading()
    x3 = c * lam * lam / l3 - (s.f[2] / l3) - x1 - x2
    y3 = -(y1 + lam * (x3 - x1))
    assert c * y3 * y3 == s.f(x3)
    return x3, y3
