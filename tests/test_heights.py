import random
from fractions import Fraction
from math import gcd, isqrt, prod
from time import perf_counter

import mpmath
import pytest
from conftest import (
    canonical_height_doubling,
    ec_add,
    ec_mul,
    finite_corrections_fraction,
    formal_multiple_by_first_hits,
    lambda_infinity_mpmath,
    moved_point,
    pair_add,
    pair_height,
    pair_pairing,
    pair_regulator,
    pair_torsion_order,
    point,
    relation_by_enumeration,
    scalar_mul,
    tate_normal_form,
    triple,
)
from hypothesis import assume, example, given, settings, strategies as st
from test_conics import coeff, km_through, nonzero as nonzero_coeff
from test_curves import kubert_point

from rankjump import curves
from rankjump.arith import DomainError, prime_factors, val_unit
from rankjump.curves import (
    EllipticCurveQ,
    PrecisionError,
    SingularCurveError,
    SingularSpecializationError,
    _finite_corrections,
    _formal_multiple,
    _formal_order,
    _jac_mul,
    _lambda_infinity,
    _small_relation,
    _tail_constant,
    regulator,
    specialize,
)
from rankjump.kodaira import kodaira_type
from rankjump.polynomial import RatPoly
from rankjump.store import verify_store
from rankjump.surfaces import KMFamily, TwistFamily


#: y^2 = (6t^2 + t + 5) x^3 + x^2 + (4t + 4/3) x + 1. At t0 = 11/2 the fibres
#: x0 = 1/3 and 5/6 carry P and Q, whose multiples reach the formal group at 2
#: and 3 at m = 234, with Z of 14,468 and 62,350 bits.
KM_SLOW = KMFamily(RatPoly([5, 1, 6]), RatPoly([1]), RatPoly([Fraction(4, 3), 4]), RatPoly([1]))

#: the record of (P, Q) that `jump --rank 2 --budget 6,6,4 --timestamp 0`
#: stores on KM_SLOW; it claims rank at least 2, its point count, as the
#: generic rank bound 5 is not exact
KM_SLOW_RECORD = (
    '{"budget":[6,6,4],"claimed_rank_lower_bound":2,"curve":{"A":"13439/3","B":"955010/27"},'
    '"generic_rank_bound":5,"label":"kmslow","points":[["193/3","-768"],["481/3","-2208"]],'
    '"provenance":["1/3","5/6"],"rank_bound_exact":false,"regulator":{"determinant":'
    '0.08425410294465627,"error":6.463796571363049e-16},"surface":{"a0":["1"],'
    '"a1":["4/3","4"],"a2":["1"],"a3":["5","1","6"],"kind":"km","label":"kmslow"},'
    '"t0":"11/2","timestamp":"0","verified":true,"version":"0.1.0"}'
)


def curve_through(A, x, y):
    """(E, P): the curve y^2 = x^3 + A x + B through P = (x, y)."""
    return EllipticCurveQ(A, y * y - x**3 - A * x), point(x, y)


#: a point whose 2-adic walk needs its precision bookkeeping: m = 12 is
#: reached only while each step's e digits are taken off the modulus
WALK_BOOKKEEPING = curve_through(-2217132441215188849741248153095749464378,
                                 1144561273430837494885949696438,
                                 -1144561273430837494885949696427)


def rand_nontorsion(rng, span=9):
    while True:
        x = Fraction(rng.randint(-span, span), rng.randint(1, 3))
        y = Fraction(rng.randint(1, span), rng.randint(1, 3))
        A = Fraction(rng.randint(-span, span))
        B = y * y - x**3 - A * x
        try:
            E = EllipticCurveQ(A, B)
        except SingularCurveError:
            continue
        P = point(x, y)
        if pair_torsion_order(E, P) is None:
            return E, P


class TestCanonicalHeight:
    def test_reference_value(self):
        # generator of a rank-1 curve; the value below was frozen from the
        # doubling-limit oracle hhat(8P)/64 and is half the x-height limit
        E = EllipticCurveQ(-16, 16)
        h = pair_height(E, point(0, 4))
        assert h.error < 1e-10
        assert abs(h.value - 0.02555570411998442) < 1e-11

    def test_positive_example(self):
        E = EllipticCurveQ(-36, 0)
        h = pair_height(E, point(12, 36))
        assert h.value > 0.2
        assert h.error < 1e-10

    def test_torsion_is_zero(self):
        E = EllipticCurveQ(-36, 0)
        h = pair_height(E, point(0, 0))
        assert h.method == "torsion" and h.value == 0.0
        E6 = EllipticCurveQ(0, 1)
        assert pair_height(E6, point(2, 3)).value == 0.0

    def test_doubling_limit_agreement(self):
        E = EllipticCurveQ(-36, 0)
        P = point(12, 36)
        h = pair_height(E, P)
        hd = canonical_height_doubling(E, P)
        assert hd.method == "doubling-limit"
        assert abs(h.value - hd.value) <= 1e-10

    def test_quadraticity_small(self):
        E = EllipticCurveQ(-36, 0)
        P = point(12, 36)
        h1 = pair_height(E, P).value
        h2 = pair_height(E, pair_add(E, P, P)).value
        assert abs(h2 - 4 * h1) < 1e-10

    def test_quadraticity_random(self):
        rng = random.Random(51)
        for _ in range(6):
            E, P = rand_nontorsion(rng)
            h1 = pair_height(E, P)
            # non-torsion points have strictly positive height
            assert h1.value > h1.error
            nP = P
            for n in range(2, 6):
                nP = pair_add(E, nP, P)
                hn = pair_height(E, nP)
                err = h1.error * n * n + hn.error + 1e-12
                assert abs(hn.value - n * n * h1.value) < max(err, 1e-10), (E, P, n)

    def test_identity_rejected(self):
        E = EllipticCurveQ(-36, 0)
        with pytest.raises(ValueError):
            pair_height(E, None)

    def test_parallelogram_sample(self):
        # hhat(P+Q) + hhat(P-Q) = 2 hhat(P) + 2 hhat(Q)
        E = EllipticCurveQ(-36, 0)
        P, Q = point(12, 36), point(-3, 9)
        hs = [
            pair_height(E, pair_add(E, P, Q)).value,
            pair_height(E, pair_add(E, P, point(Q[0], -Q[1]))).value,
            pair_height(E, P).value,
            pair_height(E, Q).value,
        ]
        assert abs(hs[0] + hs[1] - 2 * hs[2] - 2 * hs[3]) < 1e-10


@st.composite
def integral_points(draw):
    """A non-torsion point on an integral curve y^2 = x^3 + A x + B: an
    integral point, or its double or triple."""
    x, y, A = draw(st.integers(-20, 20)), draw(st.integers(1, 40)), draw(st.integers(-40, 40))
    B = y * y - x**3 - A * x
    assume(4 * A**3 + 27 * B**2 != 0)
    E, P = EllipticCurveQ(A, B), point(x, y)
    assume(pair_torsion_order(E, P) is None)
    return E, scalar_mul(E, draw(st.integers(1, 3)), P)


def near_identity():
    """A point with x(2^k P) near 3^50 / 4^k: the series cuts X and Z from
    its first step on."""
    x, y = 3**50, isqrt(3**150) + 1
    return EllipticCurveQ(0, y * y - x**3), point(x, y)


def smooth_numbers():
    """Products of at most four of 2, 3, 5 and 7."""
    return st.lists(st.sampled_from((2, 3, 5, 7)), max_size=4).map(prod)


class TestIsomorphicModels:
    @settings(max_examples=40, deadline=None)
    @given(integral_points(), smooth_numbers(), smooth_numbers())
    @example((EllipticCurveQ(-36, 0), point(12, 36)), 6, 35)      # mu = 35^4, u = 6 * 35^3
    @example((EllipticCurveQ(-16, 16), point(0, 4)), 1, 2)        # mu = 4, u = 2
    @example((EllipticCurveQ(-16, 16), point(0, 4)), 14, 1)       # mu = 1, u = 14
    def test_height_is_invariant(self, curve_point, r, s):
        """(x, y) -> (lam^2 x, lam^3 y) carries E to (A lam^4, B lam^6) with
        the same integral model, so the height is the same float: s > 1 makes
        mu > 1, and a factor of r makes u = mu / lam > 1."""
        E, P = curve_point
        lam = Fraction(r, s)
        E2 = EllipticCurveQ(E.A * lam**4, E.B * lam**6)
        h, h2 = pair_height(E, P), pair_height(E2, point(P[0] * lam**2, P[1] * lam**3))
        assert (h2.value, h2.error) == (h.value, h.error)


class TestFormalMultiple:
    @settings(max_examples=80, deadline=None)
    @given(integral_points())
    @example((EllipticCurveQ(-12, 20), point(-2, 6)))     # lcm(k_2, k_3) = 72
    @example((EllipticCurveQ(5, 214), point(-5, 8)))      # 35
    @example((EllipticCurveQ(-12, 146), point(-5, 9)))    # 6
    @example(WALK_BOOKKEEPING)                            # 12
    def test_walk_matches_first_hits(self, curve_point):
        """The walk stops at the first multiple in the formal group at 2 and
        3, which is the lcm of the first hits at each."""
        E, P = curve_point
        m, (X, Y, Z) = _formal_multiple(E._scaled_model[0], triple(E, P))
        Q = (Fraction(X, Z * Z), Fraction(Y, Z**3))
        assert (m, Q) == formal_multiple_by_first_hits(E.A, P)

    def test_long_walks_keep_their_heights(self):
        """P and Q of KM_SLOW reach the formal group at m = 234, P + Q at
        m = 78; their heights are those of the walk through every multiple,
        float for float."""
        spec = specialize(KM_SLOW, Fraction(11, 2))
        E = spec.curve
        P = moved_point(spec, Fraction(1, 3), -4)
        Q = moved_point(spec, Fraction(5, 6), Fraction(-23, 2))
        assert (E.A, E.B, P, Q) == (Fraction(13439, 3), Fraction(955010, 27),
                                    point(Fraction(193, 3), -768), point(Fraction(481, 3), -2208))
        heights = [pair_height(E, R) for R in (P, Q, pair_add(E, P, Q))]
        assert [h.detail["multiple"] for h in heights] == [234, 234, 78]
        assert [h.value for h in heights] == [0.18320951094055973, 0.7893336539008481,
                                              0.48118044848843444]

    def test_km_record_verifies(self, tmp_path):
        """The stored record of P and Q verifies, its regulator too."""
        (tmp_path / "kmslow.jsonl").write_text(KM_SLOW_RECORD + "\n")
        [(_, results)] = verify_store(tmp_path)
        assert results == [(1, True, [])]

    def test_no_large_fraction_in_a_height(self, monkeypatch):
        """Between the group law and mpmath a height runs on the triple: no
        Fraction is built from an integer above 64 bits while Q's height,
        whose m Q has a Z of 62,350 bits, is computed."""
        E = EllipticCurveQ(Fraction(13439, 3), Fraction(955010, 27))
        Q, sizes = point(Fraction(481, 3), -2208), []

        def recorded(*args):
            for a in args:
                num, den = Fraction(a).as_integer_ratio()
                sizes.append(max(abs(num), den).bit_length())
            return Fraction(*args)

        monkeypatch.setattr(curves, "Fraction", recorded)
        assert pair_height(E, Q).value == 0.7893336539008481
        assert max(sizes, default=0) <= 64

    def test_km_multiple_past_the_size_cap(self):
        """11 Q on KM_SLOW reaches the formal group at m = 234 with a Z of
        about 121 * 62,350 bits; the walk through every multiple would run
        for days, and forming m J stops at the bit cap within a second."""
        E = EllipticCurveQ(Fraction(13439, 3), Fraction(955010, 27))
        R = scalar_mul(E, 11, point(Fraction(481, 3), -2208))
        start = perf_counter()
        with pytest.raises(PrecisionError):
            pair_height(E, R)
        assert perf_counter() - start < 1.0

    def test_size_cap(self, monkeypatch):
        """m J is formed only while its sums stay under the bit cap; a
        multiple already in the formal group is returned whatever its size."""
        E, P = EllipticCurveQ(-12, 20), point(-2, 6)
        A = E._scaled_model[0]
        m, Q = _formal_multiple(A, triple(E, P))
        assert m == 72
        monkeypatch.setattr(curves, "_FORMAL_GROUP_BITS_CAP", 0)
        with pytest.raises(PrecisionError):
            _formal_multiple(A, triple(E, P))
        assert _formal_multiple(A, Q) == (1, Q)

    def test_precision_error_retries_with_more_digits(self, monkeypatch):
        """Each PrecisionError of the series doubles the digits and adds 16
        terms, three times at most; the fourth is raised."""
        E, P = EllipticCurveQ(0, 17), point(-2, 3)
        exact, lambda_infinity, failures = pair_height(E, P), curves._lambda_infinity, [0]

        def failing(*args):
            if failures[0]:
                failures[0] -= 1
                raise PrecisionError("duplication series lost the real locus")
            return lambda_infinity(*args)

        monkeypatch.setattr(curves, "_lambda_infinity", failing)
        failures[0] = 1
        retried = pair_height(E, P)
        assert (retried.detail["digits"], retried.detail["terms"]) == (120, 64)
        assert exact.detail["digits"] == 60 and failures[0] == 0
        assert abs(retried.value - exact.value) <= retried.error + exact.error
        failures[0] = 4
        with pytest.raises(PrecisionError, match="height precision not reached: duplication"):
            pair_height(E, P)
        assert failures[0] == 0

    @pytest.mark.parametrize("curve_point", [
        *(kubert_point(n, t) for n in (4, 5, 6, 7, 8, 9, 10, 12)
          for t in (Fraction(-3, 2), Fraction(5, 7))),
        (EllipticCurveQ(-1, 0), point(0, 0)),      # order 2
        (EllipticCurveQ(-4, 0), point(2, 0)),      # order 2
        (EllipticCurveQ(0, 16), point(0, 4)),      # order 3
        (EllipticCurveQ(0, 1), point(0, 1)),       # order 3
    ])
    def test_torsion_has_no_formal_multiple(self, curve_point):
        """The walks need no step cap: on a torsion point each ends at its
        order, where m J = O, and DomainError follows at once."""
        E, P = curve_point
        n, J = pair_torsion_order(E, P), triple(E, P)
        A = E._scaled_model[0]
        start = perf_counter()
        assert _formal_order(A, J, 2) == _formal_order(A, J, 3) == n
        with pytest.raises(DomainError):
            _formal_multiple(A, J)
        assert perf_counter() - start < 1.0


def integral_triple(E, P):
    """(Ai, Bi, J): P as a reduced triple J of E's integral model."""
    Ai, Bi, lam = E.integral_model
    return Ai, Bi, triple(EllipticCurveQ(Ai, Bi), point(P[0] * lam**2, P[1] * lam**3))


def series_input(E, P):
    """(Ai, Bi, J) as canonical_height passes them to _lambda_infinity: J
    is the first multiple of P in the formal group at 2 and 3, on the
    integral model."""
    Ai, Bi, J = integral_triple(E, P)
    return Ai, Bi, _formal_multiple(Ai, J)[1]


class TestSeriesAgainstMpmath:
    """The integer duplication series against its term-by-term mpmath form."""

    @settings(max_examples=40, deadline=None)
    @given(integral_points())
    @example((EllipticCurveQ(-36, 0), point(12, 36)))
    @example((EllipticCurveQ(-16, 16), point(0, 4)))
    def test_height_equals_oracle_backed_copy(self, curve_point):
        E, P = curve_point
        h = pair_height(E, P)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("rankjump.curves._lambda_infinity", lambda_infinity_mpmath)
            oracle = pair_height(E, P)
        assert (h.value, h.error) == (oracle.value, oracle.error)
        assert h.detail == oracle.detail == {"multiple": h.detail["multiple"],
                                             "terms": 48, "digits": 60}

    @settings(max_examples=40, deadline=None)
    @given(integral_points(), st.sampled_from((1, 2, 8, 48)), st.sampled_from((60, 90)))
    @example(near_identity(), 48, 60)
    @example(near_identity(), 8, 90)
    def test_raw_series_within_1e_50(self, curve_point, terms, digits):
        """At 60 digits the series is within 1e-50 of the oracle run at 40
        more digits; at 90 digits, within 1e-80."""
        E, P = curve_point
        Ai, Bi, J = integral_triple(E, P)
        with mpmath.workdps(digits):
            value, scale = _lambda_infinity(Ai, Bi, J, terms, mpmath.mp)
        with mpmath.workdps(digits + 40):
            ref, ref_scale = lambda_infinity_mpmath(Ai, Bi, J, terms, mpmath.mp)
            assert scale == ref_scale
            assert abs(value - ref) < mpmath.mpf(10) ** (10 - digits)

    @settings(max_examples=80, deadline=None)
    @given(integral_points(), st.integers(1, 7))
    @example((EllipticCurveQ(Fraction(13439, 3), Fraction(955010, 27)),
              point(Fraction(481, 3), -2208)), 1)
    def test_first_duplication_gcd_leaves_out_z(self, curve_point, n):
        """_lambda_infinity reduces x(2P) = N/D, D = 4 Y^2 Z^2, by gcd(N, 4 Y^2),
        and by 1 where gcd(N, 2 Y) = 1: on a reduced triple gcd(X, Z) = 1 and
        N = X^4 (mod Z), so it is gcd(N, D)."""
        E, P = curve_point
        Ai, Bi, J = integral_triple(E, P)
        J = _jac_mul(Ai, n, J)
        assume(J is not None)
        X, Y, Z = J
        N = (X * X - Ai * Z**4) ** 2 - 8 * Bi * X * Z**6
        assert gcd(X, Z) == 1 and N % Z == X**4 % Z
        assert gcd(N, 4 * Y * Y * Z * Z) == gcd(N, 4 * Y * Y)
        assert gcd(N, 2 * Y) > 1 or gcd(N, 4 * Y * Y * Z * Z) == 1

    @settings(max_examples=25, deadline=None)
    @given(integral_points())
    @example((EllipticCurveQ(-34 * 34, 0), point(-16, 120)))
    def test_claimed_error_covers_the_truncation(self, curve_point):
        """The tail bound 4^-n _tail_constant that canonical_height claims at
        n terms bounds the distance of the series to its value at 120 terms."""
        E, P = curve_point
        Ai, Bi, J = series_input(E, P)
        with mpmath.workdps(60):
            ref, _ = _lambda_infinity(Ai, Bi, J, 120, mpmath.mp)
            for n in (2, 4, 8, 12, 24):
                value, scale = _lambda_infinity(Ai, Bi, J, n, mpmath.mp)
                assert abs(value - ref) <= scale * _tail_constant(Ai, Bi), (n, value, ref)


# v_p of (A, x, y) that put a point on the singular point of an additive
# fibre of each type, for units in A, x and y
ADDITIVE_EXPONENTS = {"III": (1, 1, 1), "IV": (2, 1, 1), "I0*": (2, 1, 2),
                      "IV*": (3, 2, 2), "III*": (3, 2, 3)}


@st.composite
def singular_reduction_points(draw):
    """(E, P, p): a non-torsion P on an integral curve E, minimal at p, that
    reduces to the singular point of E mod p. The fibre at p is additive of
    a type drawn from ADDITIVE_EXPONENTS (x, y and A divisible by p), I_m (a
    node at x = r), or I_m* (the I_m case twisted by p)."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    kind = draw(st.sampled_from((*ADDITIVE_EXPONENTS, "Im", "Im*")))
    power, unit = st.integers(1, 3), st.integers(1, p - 1)
    sign = st.sampled_from((1, -1))
    if kind in ADDITIVE_EXPONENTS:
        a, i, j = ADDITIVE_EXPONENTS[kind]
        A, x, y = (draw(sign) * p**k * draw(unit) for k in (a, i, j))
    else:
        r = draw(unit)
        A = -3 * r * r + p ** draw(power) * draw(sign) * draw(unit)
        x = r + p ** draw(power) * draw(sign) * draw(unit)
        y = p ** draw(power) * draw(sign) * draw(unit)
        if kind == "Im*":
            A, x, y = p * p * A, p * x, p * y
    B = y * y - x**3 - A * x
    assume(4 * A**3 + 27 * B**2 != 0)
    E, P = EllipticCurveQ(A, B), point(x, y)
    assume(E.integral_model[2] == 1 and pair_torsion_order(E, P) is None)
    return E, P, p


def _component_values(symbol: str) -> set:
    """Local height corrections, in units of log p, on the components of a
    Kodaira fibre other than the identity component."""
    fixed = {"III": Fraction(-1, 4), "IV": Fraction(-1, 3), "IV*": Fraction(-2, 3),
             "III*": Fraction(-3, 4), "I0*": Fraction(-1, 2)}
    if symbol in fixed:
        return {fixed[symbol]}
    if symbol.endswith("*"):
        m = int(symbol[1:-1])
        return {Fraction(-1, 2), Fraction(-(m + 4), 8)}
    m = int(symbol[1:])
    return {Fraction(-i * (m - i), 2 * m) for i in range(1, m)}


def _valuation(n: int, p: int) -> int | None:
    return val_unit(n, p)[0] if n else None


# I2* points: at 13, where the Kodaira chain once put P on the wrong
# component, at 13 again and at 11
I2_STAR_AT_13 = (EllipticCurveQ(507, 120977805), point(-65, 10985), 13)
I2_STAR_AGAIN = (EllipticCurveQ(-169, 3446462243497), point(39, 1856465), 13)
I2_STAR_AT_11 = (EllipticCurveQ(-484, 44352913), point(-44, 6655), 11)
# 3x^2 + A = 0 at P, which meets the node of the I2 fibre at 5; 4P has 5 | Z
SLOPE_ZERO_AT_5 = (*curve_through(-3, 1, 5), 5)


class TestSingularReduction:
    """Finite local heights at primes p >= 5 where a point meets the
    singular point of the reduced curve."""

    @settings(max_examples=60, deadline=None)
    @given(singular_reduction_points())
    @example(I2_STAR_AT_13)
    @example(I2_STAR_AGAIN)
    @example(I2_STAR_AT_11)
    def test_quadratic(self, case):
        E, P, _ = case
        h1 = pair_height(E, P)
        for n in (2, 3):
            hn = pair_height(E, scalar_mul(E, n, P))
            assert abs(hn.value - n * n * h1.value) <= n * n * h1.error + hn.error, (n, h1, hn)

    @settings(max_examples=60, deadline=None)
    @given(singular_reduction_points())
    @example(I2_STAR_AT_13)
    @example(I2_STAR_AGAIN)
    @example(I2_STAR_AT_11)
    def test_corrections_are_component_values(self, case):
        """P, 2P and 3P: the corrections read only the primes p >= 5, so
        they need no formal-group multiple; P itself meets the singular
        point at p."""
        E, P, p = case
        Ai, Bi, _ = E.integral_model
        disc = -16 * (4 * Ai**3 + 27 * Bi**2)
        for n in (1, 2, 3):
            Q = scalar_mul(E, n, P)
            if Q[0] == 0:
                continue
            corrections = dict(_finite_corrections(Ai, Bi, triple(E, Q)))
            assert n > 1 or p in corrections
            for q, c in corrections.items():
                ktype, shift = kodaira_type(_valuation(Ai, q), _valuation(Bi, q), _valuation(disc, q))
                assert shift == 0
                assert c in _component_values(ktype.symbol), (n, q, ktype, c)

    @settings(max_examples=60, deadline=None)
    @given(singular_reduction_points(), st.integers(1, 6))
    @example(SLOPE_ZERO_AT_5, 1)
    @example(I2_STAR_AT_13, 2)
    def test_integer_corrections_match_fractions(self, case, n):
        """_finite_corrections on the triple of n P, and of the first
        multiple with p | Z when it is at most 12 P, equals the Fraction
        oracle on its coordinates. The oracle reads every prime of the
        factored discriminant, 2 and 3 where they divide Z and the primes
        p >= 5 always; _finite_corrections finds its primes from the point."""
        E, P, p = case
        Ai, Bi, _ = E.integral_model
        disc, J = -16 * (4 * Ai**3 + 27 * Bi**2), triple(E, P)
        k = _formal_order(Ai, J, p)
        for K in (_jac_mul(Ai, n, J), *([_jac_mul(Ai, k, J)] if k <= 12 else [])):
            X, Y, Z = K
            primes = [q for q in prime_factors(disc) if q > 3 or Z % q == 0]
            assert _finite_corrections(Ai, Bi, K) == finite_corrections_fraction(
                Ai, Bi, disc, primes, Fraction(X, Z * Z), Fraction(Y, Z**3)), (E, P, n, K)

    def test_regulator_on_i2_star(self):
        E, P, _ = I2_STAR_AT_13
        for n in (2, 3):
            res = pair_regulator(E, [P, scalar_mul(E, n, P)])
            assert res.verdict == "dependent" and res.relation == (n, -1, 1), (n, res)


class TestRegulator:
    def test_dependent_classic_pair(self):
        E = EllipticCurveQ(-36, 0)
        res = pair_regulator(E, [point(12, 36), point(18, 72)])
        assert res.verdict == "dependent"
        a, b, order = res.relation
        R = pair_add(E, scalar_mul(E, a, point(12, 36)), scalar_mul(E, b, point(18, 72)))
        assert pair_torsion_order(E, R) == order

    def test_dependent_multiple(self):
        E = EllipticCurveQ(-36, 0)
        P = point(12, 36)
        res = pair_regulator(E, [P, pair_add(E, P, P)])
        # Q = 2 P is no size-2 relation, so the heights decide: error > 0
        assert res.verdict == "dependent" and res.relation == (2, -1, 1)
        assert res.error > 0

    def test_inverse_pair_dependent(self):
        # hhat(P + Q) = hhat(O) = 0 exactly; (1, 1) is the first relation
        E = EllipticCurveQ(-36, 0)
        P = point(12, 36)
        res = pair_regulator(E, [P, point(P[0], -P[1])])
        assert res.verdict == "dependent" and res.relation == (1, 1, 1)

    def test_independent_rank_two(self):
        E = EllipticCurveQ(-34 * 34, 0)
        res = pair_regulator(E, [point(-16, 120), point(-2, 48)])
        assert res.verdict == "independent"
        assert res.determinant > 1e-6 + res.error

    def test_never_independent_with_relation(self):
        # adversarial: constructed dependent pairs a P and b P + torsion
        rng = random.Random(52)
        for _ in range(4):
            E, P = rand_nontorsion(rng)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            res = pair_regulator(E, [scalar_mul(E, a, P), scalar_mul(E, b, P)])
            assert res.verdict != "independent", (E, P, a, b)

    def test_relation_beyond_the_bound_is_inconclusive(self):
        # y^2 = x^3 + 17, P = (-2, 3): the Gram matrix of (P, nP) is singular,
        # and nP - n P = O is a relation within |a|, |b| <= 20 only up to n = 20
        E, P = EllipticCurveQ(0, 17), point(-2, 3)
        res = pair_regulator(E, [P, scalar_mul(E, 20, P)])
        assert res.verdict == "dependent" and res.relation == (20, -1, 1)
        res = pair_regulator(E, [P, scalar_mul(E, 21, P)])
        assert res.verdict == "inconclusive" and res.relation is None
        assert abs(res.determinant) <= res.error

    def test_torsion_rejected(self):
        E = EllipticCurveQ(-36, 0)
        with pytest.raises(ValueError, match="non-torsion"):
            pair_regulator(E, [point(0, 0), point(12, 36)])

    def test_pairs_only(self):
        E = EllipticCurveQ(-36, 0)
        P, Q = point(12, 36), point(-3, 9)
        for points in ([P], [P, Q, pair_add(E, P, Q)]):
            with pytest.raises(ValueError, match="pairs"):
                pair_regulator(E, points)

    def test_pairing_symmetric_bilinear_sample(self):
        E = EllipticCurveQ(-34 * 34, 0)
        P, Q = point(-16, 120), point(-2, 48)
        v1, e1 = pair_pairing(E, P, Q)
        v2, e2 = pair_pairing(E, Q, P)
        assert abs(v1 - v2) <= e1 + e2 + 1e-12
        v2P, e2P = pair_pairing(E, pair_add(E, P, P), Q)
        assert abs(v2P - 2 * v1) <= e2P + 2 * e1 + 1e-10

    def test_pairing_with_the_identity_and_with_torsion_sums(self):
        # P + Q = O and P + Q = (0, 0), of order 2, both read hhat(P + Q) = 0
        E = EllipticCurveQ(-36, 0)
        P, minus_P = point(-3, 9), point(-3, -9)
        with pytest.raises(ValueError, match="identity"):
            pair_pairing(E, None, P)
        with pytest.raises(ValueError, match="identity"):
            pair_pairing(E, P, None)
        h = pair_height(E, P)
        for Q in (minus_P, pair_add(E, point(0, 0), minus_P)):
            value, error = pair_pairing(E, P, Q)
            assert abs(value + h.value) <= error + 1e-12, Q


def _torsion_curve(n, t, P):
    A, B, T = tate_normal_form(n, Fraction(t))
    return A, B, T, n, P


# (A, B, T, order of T, P): a torsion point T and a point P of infinite order
TORSION_CURVES = [
    (Fraction(-36), Fraction(0), (Fraction(0), Fraction(0)), 2, (Fraction(-3), Fraction(9))),
    (Fraction(0), Fraction(36), (Fraction(0), Fraction(6)), 3, (Fraction(-3), Fraction(3))),
    _torsion_curve(4, Fraction(-3, 2), (Fraction(-15), Fraction(162))),
    _torsion_curve(5, Fraction(1, 3), (Fraction(-44, 3), Fraction(12))),
    _torsion_curve(6, -5, (Fraction(-276), Fraction(2160))),
    _torsion_curve(7, Fraction(-5, 3), (Fraction(1, 27), Fraction(2560))),
    _torsion_curve(8, -3, (Fraction(97, 3), Fraction(384))),
]
nonzero = st.integers(-2, 2).filter(bool)


class TestRelationAgainstEnumeration:
    """regulator searches only the pairs its Gram matrix allows; the oracle
    tries every pair in the same order."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(TORSION_CURVES), nonzero, nonzero, st.integers(0, 7), st.integers(0, 7))
    @example(TORSION_CURVES[0], 1, 1, 0, 0)    # Q = P
    @example(TORSION_CURVES[2], 1, -1, 0, 0)   # Q = -P
    @example(TORSION_CURVES[4], 2, -1, 1, 3)   # torsion offsets of orders 6 and 2
    def test_dependent_pairs(self, curve, a, b, k1, k2):
        A, B, T, n, P = curve
        P1 = ec_add(A, ec_mul(A, a, P), ec_mul(A, k1 % n, T))
        P2 = ec_add(A, ec_mul(A, b, P), ec_mul(A, k2 % n, T))
        res = pair_regulator(EllipticCurveQ(A, B), [point(*P1), point(*P2)])
        assert res.verdict == "dependent"
        assert res.relation == relation_by_enumeration(A, P1, P2)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(TORSION_CURVES), st.sampled_from([1, -1]))
    def test_size_two_relations_need_no_height(self, curve, sign):
        # Q = +-P + k T makes P -+ Q torsion for every offset k; regulator
        # settles that exactly, so a height would be a wasted computation
        A, B, T, n, P = curve

        def no_height(*args, **kwargs):
            raise AssertionError("canonical_height called for a size-2 relation")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("rankjump.curves.canonical_height", no_height)
            for k in range(n):
                Q = ec_add(A, ec_mul(A, sign, P), ec_mul(A, k, T))
                res = pair_regulator(EllipticCurveQ(A, B), [point(*P), point(*Q)])
                assert res.verdict == "dependent"
                assert (res.determinant, res.error) == (0.0, 0.0)
                assert res.relation == relation_by_enumeration(A, P, Q)

    def test_relation_kept_within_the_errors(self):
        # Gram entries off by less than their errors still admit 2 P - Q = O
        E = EllipticCurveQ(-36, 0)
        P = point(-3, 9)
        h, e = pair_height(E, P).value, 1e-9
        gram = (h + e / 2, 4 * h - e / 2, 2 * h + e / 2)
        JP, JQ = triple(E, P), triple(E, scalar_mul(E, 2, P))
        assert _small_relation(E, JP, JQ, gram, (e, e, e), 20) == (2, -1, 1)


@st.composite
def surface_pairs(draw):
    """(E, P, Q) as jump2 meets a pair: a drawn twist or km surface
    specialised at t0, with the transported points of the fibres x1 != x2
    over t0. On the twist g(t) w^2 = f(x), g(t0) w_i^2 = f(x_i) fixes the
    linear part of f; on km, w_i^2 = q_i(t0) fixes the constant of q_i."""
    t0, x1, x2, w1, w2 = (draw(c) for c in (coeff, coeff, coeff, nonzero_coeff, nonzero_coeff))
    assume(x1 != x2)
    try:
        if draw(st.booleans()):
            g = RatPoly([draw(coeff), draw(coeff), draw(coeff)])
            lead, c2 = draw(nonzero_coeff), draw(coeff)
            r1, r2 = (g(t0) * w * w - lead * x**3 - c2 * x * x for x, w in ((x1, w1), (x2, w2)))
            a = (r1 - r2) / (x1 - x2)
            surface = TwistFamily(RatPoly([r1 - a * x1, a, c2, lead]), g)
        else:
            qs = {x: [draw(coeff) for _ in range(3)] for x in (x1, x2)}
            surface = km_through(draw, {x: RatPoly([q[0] + w * w - RatPoly(q)(t0), *q[1:]])
                                        for (x, q), w in zip(qs.items(), (w1, w2))})
        spec = specialize(surface, t0)
    except (DomainError, SingularSpecializationError):
        assume(False)
    E, P, Q = spec.curve, moved_point(spec, x1, w1), moved_point(spec, x2, w2)
    assume(pair_torsion_order(E, P) is None and pair_torsion_order(E, Q) is None)
    return E, P, Q


@st.composite
def curves_through_one_point(draw):
    """Two pairs (E, P, Q) and (E', P, R) on integral curves E != E' through
    one integral point P, with Q = (x + 1, .) and R = (x - 1, .). Both
    curves are their own integral models, so P is one reduced triple on
    both, and only (Ai, Bi) in the key keeps its two heights apart."""
    x, y = draw(st.integers(-10, 10)), draw(st.integers(1, 30))
    out = []
    for dx in (1, -1):
        y2 = draw(st.integers(-30, 30))
        A = (y2 * y2 - (x + dx) ** 3 - y * y + x**3) * dx
        B = y * y - x**3 - A * x
        assume(4 * A**3 + 27 * B**2 != 0)
        E, P, Q = EllipticCurveQ(A, B), point(x, y), point(x + dx, y2)
        assume(E.integral_model[2] == 1)
        assume(pair_torsion_order(E, P) is None and pair_torsion_order(E, Q) is None)
        out.append((E, P, Q))
    return out


def _verdict(fn):
    """fn(), or the PrecisionError it raises, by name."""
    try:
        return fn()
    except PrecisionError:
        return "PrecisionError"


class TestHeightTable:
    """One table of heights, keyed by the reduced integral model and triple,
    serves every curve a search meets: the regulator with a shared table
    returns, float for float, what it returns with a fresh one."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(surface_pairs(), min_size=1, max_size=2), curves_through_one_point(),
           smooth_numbers(), smooth_numbers())
    def test_shared_table_matches_a_fresh_regulator(self, pairs, through_one_point, r, s):
        """Each drawn pair is followed by its image on the isomorphic model
        (A lam^4, B lam^6), which adds nothing to the table."""
        lam, table = Fraction(r, s), {}
        cases = []
        for E, P, Q in pairs:
            cases.append((E, P, Q, False))
            cases.append((EllipticCurveQ(E.A * lam**4, E.B * lam**6),
                          point(P[0] * lam**2, P[1] * lam**3),
                          point(Q[0] * lam**2, Q[1] * lam**3), True))
        cases += [(E, P, Q, False) for E, P, Q in through_one_point]
        for E, P, Q, isomorphic in cases:
            before = len(table)
            shared = _verdict(lambda: regulator(E, triple(E, P), triple(E, Q), table))
            assert shared == _verdict(lambda: pair_regulator(E, [P, Q])), (E, P, Q)
            assert not isomorphic or len(table) == before


class TestFormalMultipleOnSurfaces:
    @settings(max_examples=40, deadline=None)
    @given(surface_pairs())
    def test_walk_matches_first_hits(self, pair):
        """The points jump2 meets, on the integral model of their scaled
        curve, where canonical_height keys them."""
        E, P, Q = pair
        Ai, Bi, lam = E.integral_model
        Ei = EllipticCurveQ(Ai, Bi)
        for R in (P, Q):
            Ri = point(R[0] * lam**2, R[1] * lam**3)
            m, (X, Y, Z) = _formal_multiple(Ai, triple(Ei, Ri))
            assert (m, (Fraction(X, Z * Z), Fraction(Y, Z**3))) == \
                formal_multiple_by_first_hits(Ai, Ri)
