import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    GENUS_0,
    GENUS_1,
    REDUCIBLE,
    brute_force_conic_point,
    certify_unsolvable,
    conic_fibre_fraction,
    descend_fraction,
    diagonal_fraction,
    ext_class_by_yun,
    fibre_product_genus,
    fibre_q,
    fibre_value,
    fraction_heights,
    fraction_points,
    fibre_quadratic,
    fibre_quadratic_ratpoly,
    geometric_count,
    int_pair,
    kernel_of,
    kernel_poly,
    legendre_normalize,
    local_obstruction_fraction,
    matrix_fraction,
    naive_search_fraction,
    on_conic,
    parametrize_heights_fraction,
    primitive_fraction,
    rationals_of_height_filter,
    ratpoly_eval_fraction,
    relation_holds,
    same_extension,
)
from rankjump.arith import DomainError, is_square, rational_sqrt
from rankjump.conics import (
    DegenerateFibreError,
    QuadExtClass,
    _primitive,
    branch_locus,
    conic_fibre,
    conic_solvable,
    height,
    parametrize,
    parametrize_heights,
    rationals_by_height,
    rationals_of_height,
)
from rankjump.polynomial import (
    PLACE_AT_INFINITY,
    Place,
    RatPoly,
    factor_rational,
    poly_discriminant,
)
from rankjump.jumps import _shared_value_points
from rankjump.surfaces import KMFamily, TwistFamily

T = RatPoly([0, 1])
F_CUBIC = T**3 - T


def twist(g):
    return TwistFamily(F_CUBIC, g)


def mordell():
    return KMFamily(RatPoly([1]), RatPoly(), RatPoly(), T)


def _point(pt):
    """A projective integer point as conics._primitive scales it, None kept."""
    return None if pt is None else _primitive(pt)


def _point_fraction(pt):
    """A projective rational point as conftest.primitive_fraction scales it, None kept."""
    return None if pt is None else primitive_fraction(pt)


class TestHeightOrder:
    def test_each_rational_once_in_height_order(self):
        for bound in (*range(1, 13), 30):
            pairs = list(rationals_by_height(bound))
            assert all(Fraction(n, d).as_integer_ratio() == (n, d) for n, d in pairs)
            xs = [Fraction(*p) for p in pairs]
            assert len(xs) == len(set(xs))
            # an independent count: every a/b with |a|, b <= bound
            assert set(xs) == {Fraction(a, b) for b in range(1, bound + 1)
                               for a in range(-bound, bound + 1)}
            assert [height(p) for p in pairs] == sorted(height(p) for p in pairs)

    def test_order_within_a_height(self):
        assert list(rationals_by_height(2)) == [(0, 1), (1, 1), (-1, 1), (1, 2), (-1, 2),
                                                (2, 1), (-2, 1)]
        assert [Fraction(*p) for p in rationals_by_height(2)] == [
            0, 1, -1, Fraction(1, 2), Fraction(-1, 2), 2, -2]
        assert [Fraction(*p) for p in rationals_of_height(3)] == [
            Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3), Fraction(-2, 3), 3, Fraction(3, 2),
            -3, Fraction(-3, 2)]

    def test_boundary_walk_matches_the_filter(self):
        for h in range(1, 61):
            assert rationals_of_height(h) == [
                q.as_integer_ratio() for q in rationals_of_height_filter(h)], h

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 250))
    def test_pairs_in_the_filter_order(self, h):
        """The (n, d) of each height, reduced with d > 0, in the order of the
        Fraction filter, and rationals_by_height their concatenation."""
        assert rationals_of_height(h) == [
            q.as_integer_ratio() for q in rationals_of_height_filter(h)]
        assert list(rationals_by_height(h))[-len(rationals_of_height(h)):] == \
            rationals_of_height(h)

    def test_height(self):
        assert height(int_pair(0)) == 1
        assert height(int_pair(Fraction(-7, 3))) == 7
        assert height(int_pair(Fraction(2, 9))) == 9


class TestConicFibre:
    def test_twist_linear(self):
        fib = conic_fibre(twist(T), 2)
        assert fibre_value(fib) == 6
        assert fib.ext_class.s == 6 and kernel_poly(fib.ext_class.h) == T
        assert branch_locus(fib.ext_class) == frozenset({Place(T), PLACE_AT_INFINITY})

    def test_twist_quadratic(self):
        fib = conic_fibre(twist(T**2 - 1), 2)
        assert branch_locus(fib.ext_class) == frozenset({Place(T - 1), Place(T + 1)})
        # the branch locus is independent of x0
        fib2 = conic_fibre(twist(T**2 - 1), 3)
        assert branch_locus(fib.ext_class) == branch_locus(fib2.ext_class)

    def test_mordell_branch_moves(self):
        fib = conic_fibre(mordell(), 1)
        assert fibre_q(fib) == T + 1
        assert branch_locus(fib.ext_class) == frozenset({Place(T + 1), PLACE_AT_INFINITY})
        fib0 = conic_fibre(mordell(), 2)
        assert branch_locus(fib0.ext_class) == frozenset({Place(T + 8), PLACE_AT_INFINITY})

    def test_degenerate_root_of_f(self):
        for x0 in (0, 1, -1):
            with pytest.raises(DegenerateFibreError):
                conic_fibre(twist(T), x0)

    def test_degenerate_square_km(self):
        # y^2 = x^3 + t^2: over x0 = 0 the fibre w^2 = t^2 splits
        km = KMFamily(RatPoly([1]), RatPoly(), RatPoly(), T**2)
        with pytest.raises(DegenerateFibreError):
            conic_fibre(km, 0)


class TestExtensionClasses:
    def test_canonicalisation(self):
        # over x0 = 0 the fibre of 2 (t^2 - 1) y^2 = x^3 - x + 8/3 is
        # 8/3 * 2 (t^2 - 1) = 16/3 (t^2 - 1) mod squares: squarefree part 3
        cls = conic_fibre(TwistFamily(F_CUBIC + Fraction(8, 3), 2 * T**2 - 2), 0).ext_class
        assert cls.s == 3 and kernel_poly(cls.h) == T**2 - 1

    def test_same_extension_square_product(self):
        s = twist(T)
        f2, f3, f4 = (conic_fibre(s, x) for x in (2, 3, 4))
        assert same_extension(f2, f3)       # 6 * 24 = 144 is a square
        assert not same_extension(f2, f4)   # 6 * 60 = 360 is not

    def test_mordell_distinct_branch(self):
        m = mordell()
        assert not same_extension(conic_fibre(m, 0), conic_fibre(m, 1))

    def test_equivalence_relation(self):
        rng = random.Random(31)
        s = twist(T)
        fibres = []
        for n, d in rationals_by_height(8):
            if s.f(Fraction(n, d)) == 0:
                continue
            fibres.append(conic_fibre(s, n, d))
        sample = rng.sample(fibres, 20)
        for a in sample[:6]:
            assert same_extension(a, a)
            for b in sample[:6]:
                assert same_extension(a, b) == same_extension(b, a)
                for c in sample[:6]:
                    if same_extension(a, b) and same_extension(b, c):
                        assert same_extension(a, c)

    def test_distinct_class_count_grows(self):
        s = twist(T)
        counts = []
        for bound in (4, 8, 12):
            classes = set()
            for n, d in rationals_by_height(bound):
                if s.f(Fraction(n, d)) == 0:
                    continue
                classes.add(conic_fibre(s, n, d).ext_class)
            counts.append(len(classes))
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[2] > counts[0] > 3


class TestSolvability:
    def test_linear_always_solvable(self):
        fib = conic_fibre(twist(T), 2)
        assert conic_solvable(fib)

    def test_norm_example(self):
        # (t^2 - 2) w^2 = 2 has the point (2, 1)
        s = TwistFamily(F_CUBIC, T**2 - 2)
        fib = conic_fibre(s, 2)            # value 6: obstructed
        assert fibre_value(fib) == 6
        assert not conic_solvable(fib)
        p = fib.local_obstruction
        assert p in (2, 3)
        diag, _ = diagonal_fraction(fib)
        a, b, c = legendre_normalize(*(x.numerator * x.denominator for x in diag))
        assert certify_unsolvable(a, b, c, p)

    def test_solvable_quadratic(self):
        # value 2 is a norm from Q(sqrt 2): (t^2 - 2) w^2 = 2 at (t, w) = (2, 1)
        s = TwistFamily(T**3 + T, T**2 - 2)
        fib = conic_fibre(s, 1)
        assert fibre_value(fib) == 2
        assert conic_solvable(fib)
        pts = fraction_points(parametrize(fib, 4))
        assert (2, 1) in pts

    def test_agreement_with_search(self):
        rng = random.Random(32)
        surfaces = [twist(T), twist(T**2 - 1), twist(T**2 - 2), twist(3 * T + 1), mordell()]
        checked_true = checked_false = 0
        while checked_true + checked_false < 30:
            s = rng.choice(surfaces)
            x0 = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            try:
                fib = conic_fibre(s, *x0.as_integer_ratio())
            except DegenerateFibreError:
                continue
            found = brute_force_conic_point(fib, 60)
            if conic_solvable(fib):
                checked_true += 1
            else:
                assert found is None, (s, x0, found)
                checked_false += 1

    def test_unsolvable_has_certified_obstruction(self):
        s = TwistFamily(F_CUBIC, T**2 - 2)
        seen = 0
        for n, d in rationals_by_height(5):
            x0 = Fraction(n, d)
            if s.f(x0) == 0:
                continue
            fib = conic_fibre(s, n, d)
            if conic_solvable(fib):
                continue
            p = fib.local_obstruction
            assert p is not None
            diag, _ = diagonal_fraction(fib)
            a, b, c = legendre_normalize(*(x.numerator * x.denominator for x in diag))
            if p != 0 and p <= 13:
                assert certify_unsolvable(a, b, c, p), (x0, p)
            seen += 1
        assert seen > 5


class TestParametrize:
    def test_linear_twist_stream(self):
        fib = conic_fibre(twist(T), 2)      # t w^2 = 6
        pts = fraction_points(parametrize(fib, 3))
        assert ((6, 1), (1, 1)) in list(parametrize(fib, 3))
        assert (6, 1) in pts
        assert (Fraction(24), Fraction(1, 2)) in pts
        assert (Fraction(2, 3), Fraction(3)) in pts
        for t, w in pts:
            assert t * w * w == 6

    def test_quadratic_twist_stream(self):
        s = twist(T**2 - 1)
        fib = conic_fibre(s, 3)             # (t^2 - 1) w^2 = 24
        pts = fraction_points(parametrize(fib, 6))
        assert (5, -1) in pts and (-5, 1) in pts
        # the base point itself returns through its tangent parameter
        assert (5, 1) in fraction_points(parametrize(fib, 24))
        for t, w in pts:
            assert (t * t - 1) * w * w == 24

    def test_mordell_parabola(self):
        fib = conic_fibre(mordell(), 1)     # w^2 = 1 + t
        pts = fraction_points(parametrize(fib, 2))
        for expected in ((3, 2), (0, 1), (Fraction(-3, 4), Fraction(1, 2))):
            assert tuple(map(Fraction, expected)) in pts
        for t, w in pts:
            assert w * w == 1 + t

    def test_exactness_everywhere(self):
        rng = random.Random(33)
        for s in (twist(T), twist(T**2 - 1), mordell()):
            for _ in range(5):
                x0 = Fraction(rng.randint(2, 9), rng.randint(1, 3))
                try:
                    fib = conic_fibre(s, *x0.as_integer_ratio())
                except DegenerateFibreError:
                    continue
                if not conic_solvable(fib):
                    continue
                for t, w in fraction_points(parametrize(fib, 5)):
                    assert relation_holds(fib, t, w)

    def test_unsolvable_fibre_rejected(self):
        fib = conic_fibre(TwistFamily(F_CUBIC, T**2 - 2), 2)
        with pytest.raises(ValueError):
            list(parametrize(fib, 3))


coeff = st.fractions(min_value=-6, max_value=6, max_denominator=3)
nonzero = coeff.filter(lambda c: c != 0)


def _poly(draw, degree):
    """A random polynomial of exactly the given degree."""
    return RatPoly([draw(coeff) for _ in range(degree)] + [draw(nonzero)])


@st.composite
def surfaces(draw):
    """Random twist surfaces (g of degree 1 or 2) and km surfaces."""
    try:
        if draw(st.booleans()):
            return TwistFamily(_poly(draw, 3), _poly(draw, draw(st.sampled_from((1, 2)))))
        return KMFamily(*(_poly(draw, draw(st.integers(0, 2))) for _ in range(4)))
    except DomainError:
        assume(False)


class TestIntegerParametrisation:
    @settings(max_examples=40, deadline=None)
    @given(surfaces())
    @example(twist(T))
    @example(twist(T**2 - 1))
    @example(mordell())
    def test_matches_fraction_oracle(self, s):
        """The integer forms yield the oracle's (h, t, w) list, in order, t and
        w as reduced int pairs; the oracle drops repeated points, so equal
        lists also show none occurs."""
        solvable = 0
        for x0 in rationals_by_height(4):
            try:
                fib = conic_fibre(s, *x0)
            except DegenerateFibreError:
                continue
            if not conic_solvable(fib):
                continue
            points = list(parametrize_heights(fib, 6))
            assert fraction_heights(points) == list(parametrize_heights_fraction(fib, 6))
            assert all(Fraction(*r).as_integer_ratio() == r for _, t, w in points for r in (t, w))
            assert fraction_points(parametrize(fib, 6)) == [(t, w) for _, t, w in
                                                            fraction_heights(points)]
            solvable += 1
            if solvable == 3:
                break

    @settings(max_examples=40, deadline=None)
    @given(surfaces(), st.tuples(*[st.integers(-3, 3)] * 3))
    @example(twist(T), (1, 1, 1))
    @example(twist(T**2 - 1), (1, 0, 0))
    @example(mordell(), (0, 1, 1))
    def test_base_point_off_the_conic_fails_within_three(self, s, b):
        """The point R of parameter v has R^T M R = (v^T M v)^2 b^T M b, so
        the pencil checks its base point b on the integer form once: from a
        b off the conic the walk raises before it yields a point, within the
        three that the assertions allow."""
        assume(gcd(*b) == 1)
        for x0 in rationals_by_height(3):
            try:
                fib = conic_fibre(s, *x0)
            except DegenerateFibreError:
                continue
            if not conic_solvable(fib) or on_conic(fib, b):
                continue
            yielded = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fib, "base_point", lambda: b)
                with pytest.raises(AssertionError):
                    for _, t, w in parametrize_heights(fib, 6):
                        yielded.append((Fraction(*t), Fraction(*w)))
            assert len(yielded) < 3
            assert all(relation_holds(fib, t, w) for t, w in yielded)


@st.composite
def conic_surfaces(draw):
    """Twists with g linear, split or irreducible, and km surfaces whose
    fibre polynomials q are linear or quadratic in t."""
    kind = draw(st.sampled_from(("linear", "split", "irreducible", "km1", "km2")))
    try:
        if kind == "linear":
            return TwistFamily(_poly(draw, 3), _poly(draw, 1))
        if kind == "split":
            g = draw(nonzero) * (T - draw(coeff)) * (T - draw(coeff))
            return TwistFamily(_poly(draw, 3), g)
        if kind == "irreducible":
            g = _poly(draw, 2)
            assume(not is_square(poly_discriminant(g)))
            return TwistFamily(_poly(draw, 3), g)
        top = 1 if kind == "km1" else 2
        return KMFamily(*(_poly(draw, draw(st.integers(0, top))) for _ in range(4)))
    except DomainError:
        assume(False)


class TestIntegerSolvability:
    @settings(max_examples=50, deadline=None)
    @given(conic_surfaces())
    @example(twist(T))
    @example(twist(T**2 - 1))
    @example(mordell())
    @example(twist(T**2 - 2))
    def test_matches_fraction_oracle(self, s):
        """Closed-form square classes and integer Hilbert symbols give the
        extension class and the first obstructing place of the Fraction
        path on every fibre up to height 5."""
        for x0 in rationals_by_height(5):
            try:
                fib = conic_fibre(s, *x0)
            except DegenerateFibreError:
                continue
            assert fib.ext_class == ext_class_by_yun(fib)
            assert fib.local_obstruction == local_obstruction_fraction(fib)


class TestIntegerSweep:
    @settings(max_examples=30, deadline=None)
    @given(conic_surfaces(), st.integers(1, 32))
    @example(twist(T), 32)
    @example(twist(T**2 - 1), 32)
    @example(mordell(), 32)
    @example(twist(T**2 - 2), 32)
    def test_matches_fraction_oracle(self, s, bound):
        """The square test on the integer form of g or q finds the oracle's
        first t, and the same point, on every fibre up to height 4."""
        for x0 in rationals_by_height(4):
            try:
                fib = conic_fibre(s, *x0)
            except DegenerateFibreError:
                continue
            assert (_point(fib._naive_search(bound))
                    == _point_fraction(naive_search_fraction(fib, bound)))


def km_sweep_miss():
    """y^2 = a3 x^3 + a2 x^2 + a1 x + a0 with a3 = t^2 - t - 1,
    a2 = 3/4 t^2 + 5/2 t - 5, a1 = -5/4 t^2 + 1/4 t + 3/2, a0 = -2 t^2 + t - 3.
    Its fibre over x0 = -8/5 has t = 43/16, w = 0, which no sweep reached, so
    base_point raised RuntimeError there."""
    F = Fraction
    return KMFamily(RatPoly([-1, -1, 1]), RatPoly([-5, F(5, 2), F(3, 4)]),
                    RatPoly([F(3, 2), F(1, 4), F(-5, 4)]), RatPoly([-3, 1, -2]))


def km_sympy_miss():
    """The km surface on whose fibre x0 = 4/3 sympy's descent returned a
    non-solution, -5214 X^2 + Y^2 + 6887490654 Z^2."""
    F = Fraction
    return KMFamily(RatPoly([-4, 0, 4]), RatPoly([-6]),
                    RatPoly([-3, -1, F(7, 3)]), RatPoly([-4, 1, F(7, 2)]))


class TestDescent:
    @settings(max_examples=50, deadline=None)
    @given(conic_surfaces(), st.fractions(min_value=-8, max_value=8, max_denominator=8))
    @example(km_sweep_miss(), Fraction(-8, 5))
    @example(km_sympy_miss(), Fraction(4, 3))
    @example(twist(T**2 - 1), Fraction(5, 6))
    def test_exact_stage_alone(self, s, x0):
        """On each non-hyperbolic fibre, the drawn x0 and those up to height
        4, the descent without the earlier stages gives a nonzero zero of
        the form exactly when the fibre is solvable."""
        for x in (x0.as_integer_ratio(), *rationals_by_height(4)):
            try:
                fib = conic_fibre(s, *x)
            except DegenerateFibreError:
                continue
            if fib._classes is None:
                continue
            pt = fib._descend()
            if conic_solvable(fib):
                assert pt is not None and any(pt) and on_conic(fib, pt)
            else:
                assert pt is None

    def test_base_point_off_the_sweep(self):
        fib = conic_fibre(km_sweep_miss(), -8, 5)
        assert fib._naive_search(32) is None
        pt = fib.base_point()
        assert any(pt) and on_conic(fib, pt)


def _factored_locus(h: RatPoly) -> frozenset[Place]:
    """The branch locus read off a factorisation of h over Q."""
    places = {Place(h_i) for h_i, _ in factor_rational(h)[1]}
    if h.degree % 2:
        places.add(PLACE_AT_INFINITY)
    return frozenset(places)


small = st.fractions(min_value=-12, max_value=12, max_denominator=6)


class TestBranchLocus:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.tuples(small).map(lambda c: T + c[0]),
        st.tuples(small, small).map(lambda c: T**2 + c[0] * T + c[1]),
        st.tuples(small, small).map(lambda r: (T - r[0]) * (T - r[1])),
    ))
    def test_matches_factorisation(self, h):
        assume(h.degree == 1 or h[1] ** 2 != 4 * h[0])   # squarefree
        cls = QuadExtClass(1, kernel_of(h))
        assert branch_locus(cls) == _factored_locus(h)
        assert geometric_count(branch_locus(cls)) == 2

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            branch_locus(QuadExtClass(3, kernel_of(RatPoly([1]))))


class TestFibreProductGenus:
    def locus(self, *places):
        return frozenset(places)

    def test_three_cases(self):
        zero, one, two, inf = Place(T), Place(T - 1), Place(T - 2), PLACE_AT_INFINITY
        assert fibre_product_genus(self.locus(zero, inf), self.locus(zero, one)) == GENUS_0
        assert fibre_product_genus(self.locus(zero, inf), self.locus(zero, inf)) == REDUCIBLE
        assert fibre_product_genus(self.locus(zero, inf), self.locus(one, two)) == GENUS_1

    def test_symmetry(self):
        rng = random.Random(34)
        places = [Place(T - k) for k in range(5)] + [PLACE_AT_INFINITY]
        for _ in range(20):
            b1 = self.locus(*rng.sample(places, 2))
            b2 = self.locus(*rng.sample(places, 2))
            assert fibre_product_genus(b1, b2) == fibre_product_genus(b2, b1)

    def test_quadratic_place_counts_two_points(self):
        irr = Place(T**2 - 2)
        b = self.locus(irr)
        assert geometric_count(b) == 2
        assert fibre_product_genus(b, b) == REDUCIBLE
        other = self.locus(Place(T), PLACE_AT_INFINITY)
        assert fibre_product_genus(b, other) == GENUS_1

    def test_invalid_locus(self):
        with pytest.raises(ValueError):
            fibre_product_genus(self.locus(Place(T)), self.locus(Place(T), PLACE_AT_INFINITY))


# ---------------------------------------------------------------------------
# km surfaces through chosen fibre polynomials


def km_through(draw, fits: dict) -> KMFamily:
    """A drawn km surface whose fibre polynomial over each x0 in fits is
    fits[x0]. Column i of y^2 = a3 x^3 + a2 x^2 + a1 x + a0, the coefficient
    of t^i as a cubic in x, is a drawn cubic plus the Lagrange polynomial
    through its residuals at the x0 of fits."""
    columns = []
    for i in range(3):
        col = RatPoly([draw(coeff) for _ in range(4)])
        for xk, q in fits.items():
            basis = RatPoly([1])
            for xj in fits:
                if xj != xk:
                    basis = basis * (T - xj) * (1 / (xk - xj))
            col = col + basis * (q[i] - ratpoly_eval_fraction(col, xk))
        columns.append(col)
    try:
        return KMFamily(*(RatPoly([col[j] for col in columns]) for j in (3, 2, 1, 0)))
    except DomainError:
        assume(False)


@st.composite
def km_fibres(draw):
    """(km surface, x0, q) with q the fibre polynomial over x0: zero, a
    nonzero constant, a constant times a square (disc q = 0) or any q of
    degree at most 2."""
    x0 = draw(coeff)
    kind = draw(st.sampled_from(("zero", "constant", "square", "any")))
    if kind == "zero":
        q = RatPoly()
    elif kind == "constant":
        q = RatPoly([draw(nonzero)])
    elif kind == "square":
        q = draw(nonzero) * (T - draw(coeff)) ** 2
    else:
        q = RatPoly([draw(coeff) for _ in range(3)])
    return km_through(draw, {x0: q}), x0, q


def fibre_ints_poly(s, x0) -> RatPoly:
    """KMFamily.fibre_ints at x0 as a RatPoly."""
    Q, den = s.fibre_ints(*Fraction(x0).as_integer_ratio())
    return RatPoly([Fraction(c, den) for c in Q])


class TestKMFibreQuadratic:
    @settings(max_examples=80, deadline=None)
    @given(km_fibres())
    @example((mordell(), Fraction(0), T))
    @example((KMFamily(RatPoly([1]), RatPoly(), RatPoly(), T**2), Fraction(0), T**2))
    def test_matches_the_ratpoly_oracle(self, case):
        """fibre_quadratic, each column evaluated in integers, and
        KMFamily.fibre_ints, the columns homogenised at (n, d) over one
        denominator, are a3 x0^3 + a2 x0^2 + a1 x0 + a0 in RatPoly
        arithmetic, and conic_fibre raises its DegenerateFibreErrors exactly
        where that q is 0, constant or a constant times a square."""
        s, x0, q = case
        assert fibre_quadratic_ratpoly(s, x0) == q
        assert fibre_quadratic(s, x0) == q
        assert fibre_ints_poly(s, x0) == q
        for x in (Fraction(n, d) for n, d in rationals_by_height(3)):
            assert fibre_quadratic(s, x) == fibre_quadratic_ratpoly(s, x)
            assert fibre_ints_poly(s, x) == fibre_quadratic_ratpoly(s, x)
        n, d = x0.as_integer_ratio()
        if q.is_zero():
            with pytest.raises(DegenerateFibreError, match="vanishes"):
                conic_fibre(s, n, d)
        elif q.degree == 0 or q.degree == 2 and q[1] ** 2 == 4 * q[0] * q[2]:
            with pytest.raises(DegenerateFibreError, match="cover splits"):
                conic_fibre(s, n, d)
        else:
            fib = conic_fibre(s, n, d)
            assert fibre_q(fib) == q and fib.ext_class == ext_class_by_yun(fib)


# ---------------------------------------------------------------------------
# the fibre read in integers against the Fraction construction it replaced


class TestIntegerFibre:
    @settings(max_examples=80, deadline=None)
    @given(surfaces(), st.integers(-10**3, 10**3), st.integers(1, 10**3))
    @example(twist(T), 2, 1)
    @example(twist(T**2 - 1), 5, 6)
    @example(mordell(), 0, 1)
    @example(mordell(), -7, 12)
    @example(KMFamily(RatPoly([1]), RatPoly(), RatPoly([Fraction(1, 1031)]), T), 30, 29)
    @example(km_sweep_miss(), -8, 5)
    @example(TwistFamily(F_CUBIC + Fraction(8, 3), 2 * T**2 - 2), 0, 1)
    def test_matches_the_fraction_construction(self, s, n, d):
        """At x0 = n/d, d up to 10^3, the fibre built from the integers of
        f(x0) or q has the extension class, square classes, obstruction,
        value or q, base point and pencil of the fibre built from their
        Fractions, its kernel triple mapping to the monic RatPoly kernel,
        and fails with the same DegenerateFibreError."""
        x0 = Fraction(n, d)
        try:
            old = conic_fibre_fraction(s, x0)
        except DegenerateFibreError as exc:
            with pytest.raises(DegenerateFibreError) as raised:
                conic_fibre(s, *x0.as_integer_ratio())
            assert str(raised.value) == str(exc)
            return
        fib = conic_fibre(s, *x0.as_integer_ratio())
        assert (fib.x0_ratio, Fraction(*fib.x0_ratio)) == (x0.as_integer_ratio(), x0)
        s_old, h_old = old.ext_class
        assert fib.ext_class == QuadExtClass(s_old, kernel_of(h_old))
        assert kernel_poly(fib.ext_class.h) == h_old
        assert fib._classes == old._classes
        assert fib.local_obstruction == old.local_obstruction
        assert (fibre_value(fib), fibre_q(fib)) == (fibre_value(old), fibre_q(old))
        if conic_solvable(fib):
            assert fib.base_point() == old.base_point()
            assert fib.pencil == old.pencil


# ---------------------------------------------------------------------------
# the fibre's one integer matrix and its readers against the Fraction code
# they replaced: the matrix, _diagonal, the sweep and the descent in Fractions


def _fibre(s, x0):
    try:
        return conic_fibre(s, *x0)
    except DegenerateFibreError:
        assume(False)


height_9 = st.sampled_from(list(rationals_by_height(9)))


class TestIntegerMatrix:
    @settings(max_examples=60, deadline=None)
    @given(surfaces(), height_9)
    @example(twist(T), (2, 1))
    @example(twist(T**2 - 2), (2, 1))
    @example(mordell(), (1, 1))
    @example(km_sympy_miss(), (4, 3))
    def test_a_positive_multiple_of_the_fraction_matrix(self, s, x0):
        """The matrix is symmetric, made of ints with gcd 1, and a positive
        multiple of the Fraction matrix it replaced: the ratio of each
        entry to the oracle's is one positive rational, zeros where the
        oracle has them."""
        fib = _fibre(s, x0)
        M, F = fib.matrix, matrix_fraction(fib)
        entries = [(M[r][c], F[r][c]) for r in range(3) for c in range(3)]
        assert all(type(m) is int for m, _ in entries)
        assert all(M[r][c] == M[c][r] for r in range(3) for c in range(3))
        assert gcd(*(m for m, _ in entries)) == 1
        assert all((m == 0) == (f == 0) for m, f in entries)
        ratios = {Fraction(m) / f for m, f in entries if f}
        assert len(ratios) == 1 and ratios.pop() > 0

    @settings(max_examples=60, deadline=None)
    @given(surfaces(), height_9)
    @example(twist(T**2 - 1), (3, 1))
    @example(mordell(), (1, 1))
    @example(km_sweep_miss(), (-8, 5))
    def test_sweep_finds_the_fraction_point(self, s, x0):
        """_naive_search(32) on the integer matrix finds the point of the
        Fraction sweep, up to scaling, or neither finds one."""
        fib = _fibre(s, x0)
        assert _point(fib._naive_search(32)) == _point_fraction(naive_search_fraction(fib, 32))

    @settings(max_examples=60, deadline=None)
    @given(surfaces(), height_9)
    @example(km_sympy_miss(), (4, 3))
    @example(km_sweep_miss(), (-8, 5))
    @example(twist(T**2 - 1), (5, 6))
    @example(TwistFamily(F_CUBIC, 3 - T**2), (1, 2))
    def test_descent_finds_the_fraction_point(self, s, x0):
        """On a non-hyperbolic fibre the descent on the basis e0, (-M01, p, 0),
        (-M02, 0, p) gives the point of the descent on the Fraction diagonal,
        up to scaling, for either sign of the pivot p = M00."""
        fib = _fibre(s, x0)
        assume(fib._classes is not None)
        assert _point(fib._descend()) == _point_fraction(descend_fraction(fib))

    @settings(max_examples=40, deadline=None)
    @given(surfaces().filter(lambda s: isinstance(s, TwistFamily)), height_9)
    @example(twist(T), (2, 1))
    @example(twist(T**2 - 1), (3, 1))
    def test_twist_pair_ratio(self, s, x0):
        """A twist pair's partner points are w sqrt(f(x0') / f(x0)), the
        ratio read from the fibres' integers as Fractions, over each t0 of
        the earlier fibre's stream; up to three partners of height <= 9."""
        src = _fibre(s, x0)
        assume(conic_solvable(src))
        partners = 0
        for other_x0 in rationals_by_height(9):
            try:
                other = conic_fibre(s, *other_x0)
            except DegenerateFibreError:
                continue
            if other_x0 == x0 or other.ext_class != src.ext_class:
                continue
            ratio = rational_sqrt(fibre_value(other) / fibre_value(src))
            expected = [(t0, [(x0, w), (other_x0, (Fraction(*w) * ratio).as_integer_ratio())])
                        for t0, w in parametrize(src, 3)]
            assert list(_shared_value_points(3, src, other)) == expected
            partners += 1
            if partners == 3:
                break
