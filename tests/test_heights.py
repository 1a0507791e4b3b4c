import random
from fractions import Fraction

import pytest
from conftest import ec_add, ec_mul, relation_by_enumeration, tate_normal_form
from hypothesis import example, given, settings, strategies as st

from rankjump.curves import (
    EllipticCurveQ,
    SingularCurveError,
    _small_relation,
    canonical_height,
    canonical_height_doubling,
    neron_tate_pairing,
    point,
    regulator,
)


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
        if E.torsion_order(P) is None:
            return E, P


class TestCanonicalHeight:
    def test_reference_value(self):
        # generator of a rank-1 curve; the value below was frozen from the
        # doubling-limit oracle hhat(8P)/64 and is half the x-height limit
        E = EllipticCurveQ(-16, 16)
        h = canonical_height(E, point(0, 4))
        assert h.error < 1e-10
        assert abs(h.value - 0.02555570411998442) < 1e-11

    def test_positive_example(self):
        E = EllipticCurveQ(-36, 0)
        h = canonical_height(E, point(12, 36))
        assert h.value > 0.2
        assert h.error < 1e-10

    def test_torsion_is_zero(self):
        E = EllipticCurveQ(-36, 0)
        h = canonical_height(E, point(0, 0))
        assert h.method == "torsion" and h.value == 0.0
        E6 = EllipticCurveQ(0, 1)
        assert canonical_height(E6, point(2, 3)).value == 0.0

    def test_doubling_limit_agreement(self):
        E = EllipticCurveQ(-36, 0)
        P = point(12, 36)
        h = canonical_height(E, P)
        hd = canonical_height_doubling(E, P)
        assert hd.method == "doubling-limit"
        assert abs(h.value - hd.value) <= 1e-10

    def test_quadraticity_small(self):
        E = EllipticCurveQ(-36, 0)
        P = point(12, 36)
        h1 = canonical_height(E, P).value
        h2 = canonical_height(E, E.add(P, P)).value
        assert abs(h2 - 4 * h1) < 1e-10

    def test_quadraticity_random(self):
        rng = random.Random(51)
        for _ in range(6):
            E, P = rand_nontorsion(rng)
            h1 = canonical_height(E, P)
            # non-torsion points have strictly positive height
            assert h1.value > h1.error
            nP = P
            for n in range(2, 6):
                nP = E.add(nP, P)
                hn = canonical_height(E, nP)
                err = h1.error * n * n + hn.error + 1e-12
                assert abs(hn.value - n * n * h1.value) < max(err, 1e-10), (E, P, n)

    def test_precision_env_raises_working_digits(self, monkeypatch):
        monkeypatch.setenv("RANKJUMP_PRECISION", "90")
        E = EllipticCurveQ(-36, 0)
        h = canonical_height(E, point(12, 36))
        assert h.detail["digits"] == 90
        assert abs(h.value - 0.4443129374198096) < 1e-12

    def test_identity_rejected(self):
        E = EllipticCurveQ(-36, 0)
        from rankjump.curves import IDENTITY

        with pytest.raises(ValueError):
            canonical_height(E, IDENTITY)

    def test_parallelogram_sample(self):
        # hhat(P+Q) + hhat(P-Q) = 2 hhat(P) + 2 hhat(Q)
        E = EllipticCurveQ(-36, 0)
        P, Q = point(12, 36), point(-3, 9)
        hs = [
            canonical_height(E, E.add(P, Q)).value,
            canonical_height(E, E.sub(P, Q)).value,
            canonical_height(E, P).value,
            canonical_height(E, Q).value,
        ]
        assert abs(hs[0] + hs[1] - 2 * hs[2] - 2 * hs[3]) < 1e-10


class TestRegulator:
    def test_dependent_classic_pair(self):
        E = EllipticCurveQ(-36, 0)
        res = regulator(E, [point(12, 36), point(18, 72)])
        assert res.verdict == "dependent"
        a, b, order = res.relation
        R = E.add(E.scalar_mul(a, point(12, 36)), E.scalar_mul(b, point(18, 72)))
        assert E.torsion_order(R) == order

    def test_dependent_multiple(self):
        E = EllipticCurveQ(-36, 0)
        P = point(12, 36)
        res = regulator(E, [P, E.add(P, P)])
        # Q = 2 P is no size-2 relation, so the heights decide: error > 0
        assert res.verdict == "dependent" and res.relation == (2, -1, 1)
        assert res.error > 0

    def test_inverse_pair_dependent(self):
        # hhat(P + Q) = hhat(O) = 0 exactly; (1, 1) is the first relation
        E = EllipticCurveQ(-36, 0)
        P = point(12, 36)
        res = regulator(E, [P, E.negate(P)])
        assert res.verdict == "dependent" and res.relation == (1, 1, 1)

    def test_single_point_independent(self):
        E = EllipticCurveQ(-36, 0)
        res = regulator(E, [point(12, 36)])
        assert res.verdict == "independent"
        assert res.determinant == pytest.approx(
            canonical_height(E, point(12, 36)).value, abs=1e-12
        )

    def test_independent_rank_two(self):
        E = EllipticCurveQ(-34 * 34, 0)
        res = regulator(E, [point(-16, 120), point(-2, 48)])
        assert res.verdict == "independent"
        assert res.determinant > 1e-6 + res.error

    def test_never_independent_with_relation(self):
        # adversarial: constructed dependent pairs a P and b P + torsion
        rng = random.Random(52)
        for _ in range(4):
            E, P = rand_nontorsion(rng)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            res = regulator(E, [E.scalar_mul(a, P), E.scalar_mul(b, P)])
            assert res.verdict != "independent", (E, P, a, b)

    def test_torsion_rejected(self):
        E = EllipticCurveQ(-36, 0)
        with pytest.raises(ValueError):
            regulator(E, [point(0, 0)])

    def test_pairing_symmetric_bilinear_sample(self):
        E = EllipticCurveQ(-34 * 34, 0)
        P, Q = point(-16, 120), point(-2, 48)
        v1, e1 = neron_tate_pairing(E, P, Q)
        v2, e2 = neron_tate_pairing(E, Q, P)
        assert abs(v1 - v2) <= e1 + e2 + 1e-12
        v2P, e2P = neron_tate_pairing(E, E.add(P, P), Q)
        assert abs(v2P - 2 * v1) <= e2P + 2 * e1 + 1e-10


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
        res = regulator(EllipticCurveQ(A, B), [point(*P1), point(*P2)])
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
                res = regulator(EllipticCurveQ(A, B), [point(*P), point(*Q)])
                assert res.verdict == "dependent"
                assert (res.determinant, res.error) == (0.0, 0.0)
                assert res.relation == relation_by_enumeration(A, P, Q)

    def test_relation_kept_within_the_errors(self):
        # Gram entries off by less than their errors still admit 2 P - Q = O
        E = EllipticCurveQ(-36, 0)
        P = point(-3, 9)
        h, e = canonical_height(E, P).value, 1e-9
        gram = (h + e / 2, 4 * h - e / 2, 2 * h + e / 2)
        assert _small_relation(E, P, E.scalar_mul(2, P), gram, (e, e, e), 20) == (2, -1, 1)
