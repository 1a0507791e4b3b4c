import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import classify_fibres_reversed
from rankjump.arith import DomainError
from rankjump.curves import EllipticCurveQ
from rankjump.kodaira import InvalidModelError, KodairaType, kodaira_type
from rankjump.polynomial import PLACE_AT_INFINITY, Place, RatPoly, yun_squarefree
from rankjump.surfaces import (
    FibreData,
    InconsistentClassification,
    KMFamily,
    NotRationalElliptic,
    TwistFamily,
    WeierstrassQt,
    classify_fibres,
    euler_number,
    is_twist_case,
    shioda_tate_bound,
    to_chatelet,
    to_weierstrass,
)

T = RatPoly([0, 1])
F_CUBIC = T**3 - T  # x^3 - x as a coefficient list


def mordell():
    return KMFamily(RatPoly([1]), RatPoly(), RatPoly(), T)


class TestToWeierstrass:
    def test_twist_quadratic_g(self):
        w = to_weierstrass(TwistFamily(F_CUBIC, T**2 - 1))
        assert w.A == -((T**2 - 1) ** 2)
        assert w.B.is_zero()
        assert w.delta == 64 * (T**2 - 1) ** 6

    def test_twist_linear_g(self):
        w = to_weierstrass(TwistFamily(F_CUBIC, T))
        assert w.A == -(T**2) and w.B.is_zero()

    def test_mordell(self):
        w = to_weierstrass(mordell())
        assert w.A.is_zero() and w.B == T
        assert w.delta == -432 * T**2

    def test_nonmonic_cubic_transport_consistency(self):
        # the normalisation must keep surface points on the fibre equation
        f = RatPoly([2, -3, 1, 4])
        s = TwistFamily(f, T)
        w = to_weierstrass(s)
        P, Q, l, c2 = s.short_cubic
        assert w.A == P * s.g**2 and w.B == Q * s.g**3

    @pytest.mark.parametrize("A, B, reduced", [
        (-(T**2 + 1) ** 4 * (T - 2), 3 * (T**2 + 1) ** 6, (2 - T, RatPoly([3]))),
        (-(T + 3) ** 8 * (T**2 + 2), RatPoly(), (-(T**2) - 2, RatPoly())),
        (RatPoly(), (T - 1) ** 6 * (T**2 + T + 1) * T**7, (RatPoly(), T**3 + T**2 + T)),
    ])
    def test_oversized_model_reduced(self, A, B, reduced):
        # each factor u with u^4 | A and u^6 | B is divided out, also where
        # A or B vanishes
        w = WeierstrassQt(A, B)
        assert (w.A, w.B) == reduced
        assert w.delta == -16 * (4 * w.A**3 + 27 * w.B**2)


class TestClassifyFibres:
    def test_two_i0star(self):
        fibres = classify_fibres(to_weierstrass(TwistFamily(F_CUBIC, T**2 - 1)))
        places = {fd.place: fd for fd in fibres}
        assert set(places) == {Place(T - 1), Place(T + 1)}
        assert all(fd.kodaira.symbol == "I0*" for fd in fibres)
        assert all(not fd.kodaira.reduced for fd in fibres)
        assert euler_number(fibres) == 12

    def test_linear_g_puts_second_star_at_infinity(self):
        fibres = classify_fibres(to_weierstrass(TwistFamily(F_CUBIC, T)))
        places = {fd.place: fd for fd in fibres}
        assert set(places) == {Place(T), PLACE_AT_INFINITY}
        assert all(fd.kodaira.symbol == "I0*" for fd in fibres)

    def test_mordell_types(self):
        fibres = classify_fibres(to_weierstrass(mordell()))
        by_place = {fd.place: fd.kodaira.symbol for fd in fibres}
        assert by_place[Place(T)] == "II"
        assert by_place[PLACE_AT_INFINITY] == "II*"
        assert euler_number(fibres) == 12

    def test_type_iv(self):
        fibres = classify_fibres(WeierstrassQt(RatPoly(), T**2))
        by_place = {fd.place: fd.kodaira.symbol for fd in fibres}
        assert by_place[Place(T)] == "IV"

    def test_quadratic_place(self):
        # g = t^2 - 2 is irreducible: one degree-2 place carrying I0*
        fibres = classify_fibres(to_weierstrass(TwistFamily(F_CUBIC, T**2 - 2)))
        assert len(fibres) == 1
        fd = fibres[0]
        assert fd.place == Place(T**2 - 2) and fd.place.degree == 2
        assert fd.kodaira.symbol == "I0*"
        assert euler_number(fibres) == 12

    def test_euler_conservation_random(self):
        rng = random.Random(21)
        count = 0
        while count < 25:
            f = RatPoly([rng.randint(-5, 5) for _ in range(3)] + [rng.choice([1, 2])])
            gdeg = rng.choice([1, 2])
            g = RatPoly([rng.randint(-5, 5) for _ in range(gdeg)] + [rng.choice([1, 3])])
            try:
                s = TwistFamily(f, g)
            except DomainError:
                continue
            fibres = classify_fibres(to_weierstrass(s))
            assert euler_number(fibres) == 12
            nonred = [fd for fd in fibres if not fd.kodaira.reduced]
            # two geometric I0* fibres, possibly conjugate over one place
            assert sum(fd.place.degree for fd in nonred) == 2
            assert all(fd.kodaira.symbol == "I0*" for fd in nonred)
            count += 1

    def test_km_at_most_one_nonreduced_when_not_twist(self):
        rng = random.Random(22)
        count = 0
        while count < 25:
            polys = [RatPoly([rng.randint(-3, 3) for _ in range(3)]) for _ in range(4)]
            try:
                s = KMFamily(*polys) if not polys[0].is_zero() else None
            except DomainError:
                continue
            if s is None:
                continue
            w = to_weierstrass(s)
            if is_twist_case(w) is not None:
                continue
            fibres = classify_fibres(w)
            assert euler_number(fibres) == 12
            geometric_nonreduced = sum(f.place.degree for f in fibres if not f.kodaira.reduced)
            assert geometric_nonreduced <= 1
            count += 1


@st.composite
def models(draw):
    """Short models of drawn twist (g of degree 1 or 2), km and weierstrass
    surfaces; a weierstrass A or B may be 0, or of any degree up to 4 or 6."""
    def poly(degree):
        # degree -1 draws the zero polynomial
        if degree < 0:
            return RatPoly()
        return RatPoly([draw(st.integers(-4, 4)) for _ in range(degree)]
                       + [draw(st.sampled_from([-2, -1, 1, 3]))])

    kind = draw(st.sampled_from(("twist", "km", "weierstrass")))
    try:
        if kind == "twist":
            return TwistFamily(poly(3), poly(draw(st.integers(1, 2)))).weierstrass
        if kind == "km":
            return KMFamily(*(poly(draw(st.integers(-1, 2))) for _ in range(4))).weierstrass
        return WeierstrassQt(poly(draw(st.integers(-1, 4))), poly(draw(st.integers(-1, 6))))
    except (DomainError, InvalidModelError, NotRationalElliptic):
        assume(False)


def _outcome(f, w):
    try:
        return f(w)
    except InvalidModelError as exc:
        return type(exc), str(exc)


class TestClassifyAtInfinity:
    """Infinity is one more place of classify_fibres' walk, its valuations
    shifted by (4, 6, 12); the oracle reads it from the model reversed in
    s = 1/t, in a block of its own."""

    @settings(max_examples=150, deadline=None)
    @given(models())
    @example(WeierstrassQt(RatPoly(), T))                          # A = 0: II, II*
    @example(WeierstrassQt(RatPoly(), T**2))                       # A = 0: IV, IV*
    @example(WeierstrassQt(-(T**2 - 1) ** 2, RatPoly()))           # B = 0
    @example(WeierstrassQt(-(T**2), RatPoly()))                    # deg g = 1: I0* at infinity
    @example(TwistFamily(F_CUBIC + 1, 3 * T - 2).weierstrass)      # the same, B != 0
    @example(WeierstrassQt(T**4, T**6))                            # non-minimal: Euler number 0
    @example(WeierstrassQt(RatPoly([1, 0, -2, 1]), RatPoly([3, 1, 0, 0, 0, -1])))
    def test_matches_reversed_model(self, w):
        assert _outcome(classify_fibres, w) == _outcome(classify_fibres_reversed, w)


class TestIsTwistCase:
    def test_recover_quadratic(self):
        w = WeierstrassQt(-((T**2 - 1) ** 2), RatPoly())
        s = is_twist_case(w)
        assert s is not None
        assert s.f == RatPoly([0, -1, 0, 1])
        assert s.g == T**2 - 1

    def test_mordell_is_not_twist(self):
        assert is_twist_case(to_weierstrass(mordell())) is None

    def test_direct_match(self):
        s = is_twist_case(WeierstrassQt(2 * T**2, 3 * T**3))
        assert s is not None
        assert s.f == RatPoly([3, 2, 0, 1]) and s.g == T

    @pytest.mark.parametrize("w", [
        WeierstrassQt(RatPoly(), T**3 * (T - 1)),   # D = c t^6 (t - 1)^2: two Yun blocks
        WeierstrassQt(RatPoly(), T**2 * (T - 1)),   # D = c t^4 (t - 1)^2: two blocks, no 6
        WeierstrassQt(RatPoly(), T),                # D = c t^2: one block of multiplicity 2
        WeierstrassQt(T**4, T**6),                  # D = c t^12: one block of multiplicity 12
        WeierstrassQt(RatPoly([-1]), RatPoly([Fraction(-3, 4)])),  # constant D: no block
    ], ids=["two-blocks-one-sextic", "two-blocks", "quadratic-block", "block-of-12", "constant"])
    def test_discriminant_not_a_sextic_power(self, w):
        assert is_twist_case(w) is None

    @settings(max_examples=150, deadline=None)
    @given(models())
    @example(WeierstrassQt(RatPoly(), T**3))
    @example(WeierstrassQt(-3 * (T**2 + 1) ** 2, (T**2 + 1) ** 3))
    def test_sextic_discriminant_is_a_twist(self, w):
        """D = c g^6 with g squarefree forces A = a g^2 and B = b g^3 on a
        rational elliptic surface: each place of g is I6 or I0* (v(D) = 6),
        and an I6 with the other fibre of Euler number 6, at the other place
        of g or at infinity, gives (6 - 1) + 4 > 8 in Shioda-Tate. So every
        drawn model with a sextic D is recovered, as is_twist_case asks no
        more of it."""
        blocks = yun_squarefree(w.delta)[1]
        s = is_twist_case(w)
        if len(blocks) == 1 and blocks[0][1] == 6:
            assert s is not None and s.g == blocks[0][0]
            assert (w.A, w.B) == (s.weierstrass.A, s.weierstrass.B)
        else:
            assert s is None

    @pytest.mark.parametrize("degrees, bound, count", [((4, 6), 1, 8), ((2, 3), 3, 62)])
    def test_every_sextic_discriminant_in_a_box_is_a_twist(self, degrees, bound, count):
        """Every model with A and B of the given degree bounds and integer
        coefficients of absolute value at most bound whose D = 4A^3 + 27B^2
        is c g^6, g monic and squarefree, has A = a g^2 and B = b g^3 with a,
        b constant, and is_twist_case recovers it: the Shioda-Tate argument
        of its docstring, checked exhaustively (531,441 and 823,543 models).
        g is read from D's top coefficients (c = D12 and g = t^2 + p t + q,
        D11 = 6 c p, D10 = c (15 p^2 + 6 q); or, with deg D = 6, c (t + s)^6),
        scaled to integers G, and D = c g^6 tested exactly."""
        def mul(p, q, size=0):  # padded with zeros to size
            out = [0] * max(size, len(p) + len(q) - 1)
            for i, a in enumerate(p):
                for j, b in enumerate(q):
                    out[i + j] += a * b
            return out

        box = range(-bound, bound + 1)
        cubes = [(A, [4 * c for c in mul(mul(A, A), A, 13)])
                 for A in product(box, repeat=degrees[0] + 1)]
        squares = [(B, [27 * c for c in mul(B, B, 13)])
                   for B in product(box, repeat=degrees[1] + 1)]
        sextic = []
        for A, a3 in cubes:
            for B, b2 in squares:
                c = a3[12] + b2[12]
                if c:  # G = 72 c^2 g
                    d11 = a3[11] + b2[11]
                    G = [12 * c * (a3[10] + b2[10]) - 5 * d11 * d11, 12 * c * d11, 72 * c * c]
                elif any(a3[k] + b2[k] for k in range(7, 12)) or not a3[6] + b2[6]:
                    continue
                else:  # G = 6 c g
                    c = a3[6] + b2[6]
                    G = [a3[5] + b2[5], 6 * c]
                scale = G[-1] ** 6
                if c * G[0] ** 6 != scale * (a3[0] + b2[0]):
                    continue
                G2 = mul(G, G)
                if ([c * x for x in mul(mul(G2, G2), G2, 13)]
                        == [scale * (x + y) for x, y in zip(a3, b2)]
                        and (len(G) == 2 or G[1] ** 2 != 4 * G[0] * G[2])):
                    sextic.append((A, B, RatPoly(G).monic()))
        assert len(sextic) == count
        for A, B, g in sextic:
            w = WeierstrassQt(RatPoly(list(A)), RatPoly(list(B)))
            assert yun_squarefree(w.delta)[1] == [(g, 6)]
            a, b = w.A.exact_div(g * g), w.B.exact_div(g * g * g)
            assert a.is_constant() and b.is_constant()
            s = is_twist_case(w)
            assert s.g == g and (s.weierstrass.A, s.weierstrass.B) == (w.A, w.B)

    def test_roundtrip_random(self):
        rng = random.Random(23)
        count = 0
        while count < 60:
            f = RatPoly(
                [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(3)]
                + [Fraction(rng.choice([i for i in range(-10, 11) if i]), rng.randint(1, 10))]
            )
            gdeg = rng.choice([1, 2])
            g = RatPoly(
                [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(gdeg)]
                + [Fraction(rng.choice([i for i in range(-10, 11) if i]), rng.randint(1, 10))]
            )
            try:
                s = TwistFamily(f, g)
            except DomainError:
                continue
            recovered = is_twist_case(to_weierstrass(s))
            assert recovered is not None
            assert surface_normal_form(s) == surface_normal_form(recovered)
            count += 1


def surface_normal_form(s: TwistFamily):
    """Canonical data of the surface up to admissible rescalings: make g
    monic, absorb its leading coefficient into the cubic, then reduce the
    cubic coefficients by the (u^4, u^6) action."""
    P, Q, _, _ = s.short_cubic
    lg = s.g.leading()
    Ai, Bi, _ = EllipticCurveQ(P * lg**2, Q * lg**3).integral_model
    return Ai, Bi, s.g.monic()


class TestChatelet:
    def test_nonsplit(self):
        a, cubic = to_chatelet(TwistFamily(F_CUBIC, T**2 - 2))
        assert a == 2
        assert cubic == F_CUBIC  # w^2 - 2 y^2 = x^3 - x

    def test_split(self):
        assert to_chatelet(TwistFamily(F_CUBIC, T**2 - 1))[0] == 1

    def test_complete_square(self):
        a, _ = to_chatelet(TwistFamily(F_CUBIC, T**2 + 2 * T))
        assert a == 1 and (T + 1) ** 2 - a == T**2 + 2 * T  # t -> t - 1 centres g

    def test_linear_g_rejected(self):
        assert to_chatelet(TwistFamily(F_CUBIC, T)) is None

    def test_maps_preserve_surface_identically(self):
        # w^2 - a Y^2 - F(x) = g2 (g(t) y^2 - f(x)) for all (x, y, t), with
        # Y = g2 y and w = (t + shift) Y, shift = g1 / (2 g2)
        rng = random.Random(24)
        s = TwistFamily(F_CUBIC, 3 * T**2 + T - 2)
        a, cubic = to_chatelet(s)
        g2 = s.g[2]
        shift = s.g[1] / (2 * g2)
        for _ in range(40):
            x, y, t = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
            Y = g2 * y
            w = (t + shift) * Y
            lhs = w * w - a * Y * Y - cubic(x)
            rhs = g2 * (s.g(t) * y * y - s.f(x))
            assert lhs == rhs

    def test_maps_carry_rational_points(self):
        from rankjump.conics import conic_fibre, conic_solvable, parametrize, rationals_by_height

        s = TwistFamily(F_CUBIC, T**2 - 1)
        a, cubic = to_chatelet(s)
        g2 = s.g[2]
        shift = s.g[1] / (2 * g2)
        checked = 0
        for x0 in rationals_by_height(6):
            if s.f(x0) == 0:
                continue
            fib = conic_fibre(s, x0)
            if not conic_solvable(fib):
                continue
            for t, w in parametrize(fib, 4):
                Y = g2 * w
                W = (t + shift) * Y
                assert W * W - a * Y * Y == cubic(x0)
                checked += 1
            if checked > 10:
                break
        assert checked > 10


class TestShiodaTate:
    def test_two_i0star_bound(self):
        fibres = classify_fibres(to_weierstrass(TwistFamily(F_CUBIC, T**2 - 1)))
        assert shioda_tate_bound(fibres) == 0

    def test_mordell_bound(self):
        fibres = classify_fibres(to_weierstrass(mordell()))
        assert shioda_tate_bound(fibres) == 0

    def test_twelve_nodal_fibres(self):
        i1 = KodairaType("I1", 1, 1, True)
        fibres = tuple(
            FibreData(Place(T - k), i1) for k in range(12)
        )
        assert shioda_tate_bound(fibres) == 8

    def test_euler_check(self):
        i1 = KodairaType("I1", 1, 1, True)
        with pytest.raises(InconsistentClassification):
            shioda_tate_bound((FibreData(Place(T), i1),))

    def test_negative_bound_rejected(self):
        # II* + I2 has euler 12 but 9 fibre components beyond the bound's 8
        ii_star = KodairaType("II*", 9, 10, False)
        i2 = KodairaType("I2", 2, 2, True)
        fibres = (FibreData(Place(T), ii_star), FibreData(Place(T - 1), i2))
        with pytest.raises(InconsistentClassification, match="negative"):
            shioda_tate_bound(fibres)


class TestValidation:
    def test_nonseparable_f(self):
        with pytest.raises(DomainError, match="separable"):
            TwistFamily(T**3, T)

    def test_nonseparable_g(self):
        with pytest.raises(DomainError, match="separable"):
            TwistFamily(F_CUBIC, (T - 1) ** 2)

    def test_constant_km_family(self):
        with pytest.raises(DomainError, match="constant"):
            KMFamily(RatPoly([1]), RatPoly(), RatPoly([-1]), RatPoly([1]))

    def test_singular_km(self):
        with pytest.raises(DomainError):
            KMFamily(RatPoly([1]), RatPoly(), RatPoly(), RatPoly())

    def test_kodaira_table_rejects_nonminimal(self):
        ktype, shift = kodaira_type(4, 6, 12)
        assert shift == 1 and ktype.symbol == "I0"
