"""Complete 2-descent (curves.two_descent_independent) against the regulator
and against constructed relations, on curves with full rational 2-torsion:
y^2 = (x - e1)(x - e2)(x - e3) through a drawn point, random split twists
g(t) y^2 = f(x) carrying two drawn points, and y^2 = x(x + r^2)(x + s^2),
where (0, 0) lies in 2E(Q). verify_certificate settles the pairs of the
shipped twists by the descent alone, with no height.

The 2-descent modulo primes (curves.descent_mod_p) is held to the same
two properties on curves through two drawn points and on y^2 = x^3 + k^2,
whose (0, k) has order 3, and defers on every curve with a rational
2-torsion point. verify_certificate settles four of the five seed-0
mordell pairs by it, and the fifth falls back to the regulator
(tests/test_law_entries.py pins the heights that costs)."""

from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from conftest import (
    moved_point,
    pair_add,
    pair_regulator,
    pair_torsion_order,
    point,
    rational_roots_sympy,
    scalar_mul,
    triple,
    two_descent_fraction,
)
from rankjump.arith import DomainError, is_square, rational_sqrt
from rankjump.curves import (
    EllipticCurveQ,
    SingularCurveError,
    descent_mod_p,
    regulator,
    specialize,
    two_descent_independent,
)
from rankjump.jumps import Budget, jump2, verify_certificate
from rankjump.polynomial import RatPoly
from rankjump.surfaces import TwistFamily

X = RatPoly([0, 1])
small = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))


def short_model(roots):
    """y^2 = (x - e1)(x - e2)(x - e3) moved to x^3 + A x + B by x -> x + m;
    returns the curve, its roots and m."""
    m = sum(map(Fraction, roots)) / 3
    e1, e2, e3 = (r - m for r in roots)
    return EllipticCurveQ(e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3), [e1, e2, e3], m


def two_torsion(roots):
    return [None] + [point(e, 0) for e in roots]


def triples(E, *points):
    return [triple(E, P) for P in points]


def descent(E, roots, P, Q):
    """two_descent_independent of the points P and Q, the roots e_i of E
    given as integer ratios."""
    return two_descent_independent(E, [e.as_integer_ratio() for e in roots], *triples(E, P, Q))


def split_curve(e1, e2, x0, y0):
    """(E, roots, R): y^2 = (x - e1)(x - e2)(x - e3) through R = (x0, y0),
    moved to the short model; e3 is solved from R."""
    E, roots, m = short_model((e1, e2, x0 - y0 * y0 / ((x0 - e1) * (x0 - e2))))
    return E, roots, point(x0 - m, y0)


@st.composite
def split_curves(draw):
    """split_curve for drawn e1, e2 and a drawn non-torsion point R."""
    e1, e2 = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
    x0, y0 = draw(small), draw(small.filter(bool))
    assume(e1 != e2 and x0 not in (e1, e2))
    assume(x0 - y0 * y0 / ((x0 - e1) * (x0 - e2)) not in (e1, e2))
    E, roots, R = split_curve(e1, e2, x0, y0)
    assume(pair_torsion_order(E, R) is None)
    return E, roots, R


@st.composite
def split_twists(draw):
    """A twist g(t) y^2 = f(x) with f = l (x - r1)(x - r2)(x - r3) and
    g = f(0) t, at t = 1, with the points over x = 0 and x = 1 and the roots
    the surface's chart carries there. r3 = c/(c + k^2) with c = -r1 r2 (1 -
    r1)(1 - r2) makes f(0) f(1) a square, so both fibres have points."""
    r1, r2, k = draw(small), draw(small), draw(small.filter(bool))
    lead = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
    assume(r1 != r2 and not {r1, r2} & {0, 1})
    c = -r1 * r2 * (1 - r1) * (1 - r2)
    assume(c + k * k != 0)
    r3 = c / (c + k * k)
    assume(r3 not in (0, 1, r1, r2))
    f = lead * (X - r1) * (X - r2) * (X - r3)
    surface = TwistFamily(f, RatPoly([0, f(0)]))
    spec = specialize(surface, 1)
    P, Q = moved_point(spec, 0, 1), moved_point(spec, 1, rational_sqrt(f(1) / f(0)))
    assume(pair_torsion_order(spec.curve, P) is None and pair_torsion_order(spec.curve, Q) is None)
    return spec.curve, [moved_point(spec, r, 0)[0] for r in surface.f_roots], P, Q


@settings(max_examples=60, deadline=None)
@given(st.one_of(split_curves(), split_twists().map(lambda c: c[:3])),
       st.integers(-3, 3), st.integers(0, 3))
def test_constructed_dependent_pairs_are_never_proved_independent(curve, a, i):
    # delta((2a+1) R + T) delta(2R + T) = delta(R): the relation survives mod 2
    E, roots, R = curve
    T = two_torsion(roots)[i]
    P1, Q1 = pair_add(E, scalar_mul(E, 2 * a + 1, R), T), pair_add(E, scalar_mul(E, 2, R), T)
    assert not descent(E, roots, P1, Q1)
    assert not descent(E, roots, Q1, P1)


@settings(max_examples=30, deadline=None)
@given(split_twists(), st.tuples(*[st.integers(-2, 2)] * 4), st.integers(0, 3), st.integers(0, 3))
def test_descent_independent_is_never_regulator_dependent(twist, coeffs, i, j):
    E, roots, P, Q = twist
    a, b, c, d = coeffs
    T = two_torsion(roots)
    P1 = pair_add(E, pair_add(E, scalar_mul(E, a, P), scalar_mul(E, b, Q)), T[i])
    Q1 = pair_add(E, pair_add(E, scalar_mul(E, c, P), scalar_mul(E, d, Q)), T[j])
    assume(pair_torsion_order(E, P1) is None and pair_torsion_order(E, Q1) is None)
    proved = descent(E, roots, P1, Q1)
    assert proved == two_descent_fraction(roots, P1, Q1)
    if proved:
        assert a * d - b * c != 0
        assert pair_regulator(E, [P1, Q1]).verdict != "dependent"


# (r, s, x) with a non-torsion point R = (x, y) on y^2 = x(x + r^2)(x + s^2)
# whose delta lies outside the span of delta(E(Q)_tors), found by a search
HALVABLE = [(1, 7, 1), (1, 10, -2), (1, 11, 4), (1, 12, 3), (2, 5, 2), (2, 9, 3),
            (4, 11, 4), (5, 7, 5), (5, 9, 3), (6, 7, 3), (7, 10, 2), (7, 11, 7)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HALVABLE), st.integers(-2, 2), st.integers(0, 3))
def test_halvable_two_torsion_is_inconclusive(curve, k, i):
    # (0, 0) = 2 P4 with P4 = (rs, rs(r + s)), so E(Q) has 4-torsion and
    # delta(P4) lies outside delta(E[2]): the pair R', R' + P4 passes the
    # comparisons with delta(E[2]) although P4 makes it dependent
    r, s, x = curve
    E, roots, m = short_model((0, -r * r, -s * s))
    R = point(x - m, rational_sqrt(x * (x + r * r) * (x + s * s)))
    P4 = point(r * s - m, r * s * (r + s))
    assert scalar_mul(E, 2, P4) == point(-m, 0)
    R1 = pair_add(E, scalar_mul(E, 2 * k + 1, R), two_torsion(roots)[i])
    R2 = pair_add(E, R1, P4)
    delta = [(Z[0] - roots[0], Z[0] - roots[1]) for Z in (R1, R2, P4)]
    for d1, d2 in delta:
        assert not any(is_square(d1 * t1) and is_square(d2 * t2)
                       for t1, t2 in [(1, 1), (-1, r * r - s * s)])  # delta(E[2])
    assert not descent(E, roots, R1, R2)
    assert pair_regulator(E, [R1, R2]).verdict == "dependent"


def test_roots_must_be_the_curves():
    E, roots, _ = short_model((0, 1, -1))
    with pytest.raises(ValueError):
        descent(E, [r + 1 for r in roots], point(0, 0), point(0, 0))


def test_f_roots():
    assert TwistFamily(X**3 - X, X).f_roots == (1, 0, -1)
    f = 2 * (X - 3) * (X + Fraction(1, 2)) * X
    assert sorted(TwistFamily(f, X**2 - 1).f_roots) == [Fraction(-1, 2), 0, 3]
    assert TwistFamily(X**3 - 2, X).f_roots is None
    assert TwistFamily(X**3 + X, X).f_roots is None


@st.composite
def cubics(draw):
    """l (x - r) q(x) with r drawn or 0 (x | f), q = (x - r2)(x - r3) (f
    splits) or an irreducible x^2 + b x + c (one root), or l x^3 + c2 x^2 +
    c1 x + c0 with c0 != 0, most often irreducible."""
    lead = draw(st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-5, 4), 12]))
    kind = draw(st.sampled_from(["split", "one root", "drawn"]))
    r = draw(st.one_of(st.just(Fraction(0)), small))
    if kind == "split":
        q = (X - draw(small)) * (X - draw(small))
    elif kind == "one root":
        b, c = draw(small), draw(small)
        assume(not is_square(b * b - 4 * c))
        q = X * X + b * X + c
    else:
        c0, c1, c2 = draw(small.filter(bool)), draw(small), draw(small)
        return RatPoly([c0, c1, c2, lead])
    return lead * (X - r) * q


@settings(max_examples=200, deadline=None)
@given(cubics())
@example(X**3 - X)
@example(X**3 - 2)
@example(6 * X**3 - 5 * X**2 + X)
def test_f_roots_match_sympy(f):
    """The rational-root theorem finds f's roots as sympy does, decreasing,
    and None unless f splits."""
    try:
        surface = TwistFamily(f, X)
    except DomainError:  # f not separable
        assume(False)
    roots = rational_roots_sympy(f)
    event(f"{'x | f' if f[0] == 0 else 'f(0) != 0'}, {len(roots)} rational roots")
    assert surface.f_roots == (roots if len(roots) == 3 else None)


# g and budget of the seed-0 rank-2 benchmark commands on the shipped
# twists, split-twist and usual-twist
SHIPPED_TWISTS = [(X**2 - 1, Budget(18, 10, 5)), (X, Budget(12, 10, 5))]


@pytest.fixture(scope="module")
def twist_certificates():
    out = []
    for g, budget in SHIPPED_TWISTS:
        surface = TwistFamily(X**3 - X, g)
        out += [(surface, cert) for cert in jump2(surface, budget)]
    return out


def test_shipped_twist_pairs_verify_without_heights(twist_certificates, monkeypatch):
    def no_height(*args, **kwargs):
        raise AssertionError("a height was computed")

    monkeypatch.setattr("rankjump.curves.canonical_height", no_height)
    assert len(twist_certificates) == 10
    for surface, cert in twist_certificates:
        ok, reasons = verify_certificate(surface, cert)
        assert ok, reasons


def test_inconclusive_descent_falls_back_to_the_regulator(twist_certificates, monkeypatch):
    calls = []

    def counting_regulator(E, JP, JQ, heights):
        assert heights == {}  # a fresh table, shared with no search
        calls.append((JP, JQ))
        return regulator(E, JP, JQ, heights)

    monkeypatch.setattr("rankjump.jumps.two_descent_independent", lambda *args: False)
    monkeypatch.setattr("rankjump.jumps.regulator", counting_regulator)
    for surface, cert in twist_certificates[:2]:
        ok, reasons = verify_certificate(surface, cert)
        assert ok, reasons
    assert len(calls) == 2


def curve_through(R, S):
    """(E, R, S): y^2 = x^3 + A x + B through the points R and S."""
    (x1, y1), (x2, y2) = R, S
    A = (y1 * y1 - x1**3 - y2 * y2 + x2**3) / (x1 - x2)
    return EllipticCurveQ(A, y1 * y1 - x1**3 - A * x1), point(x1, y1), point(x2, y2)


@st.composite
def two_point_curves(draw):
    """curve_through two drawn points R and S, neither torsion."""
    (x1, y1), (x2, y2) = draw(st.lists(st.tuples(small, small), min_size=2, max_size=2))
    assume(x1 != x2)
    try:
        E, R, S = curve_through((x1, y1), (x2, y2))
    except SingularCurveError:
        assume(False)
    assume(pair_torsion_order(E, R) is None and pair_torsion_order(E, S) is None)
    return E, R, S


@st.composite
def three_torsion_curves(draw):
    """y^2 = x^3 + k^2, k no cube, through R = (r, (u + v)/2), r^3 = u v,
    k = (v - u)/2: E(Q)[2] = 0, and T = (0, k) has order 3. S = R + T."""
    r, u = draw(small.filter(bool)), draw(small.filter(bool))
    v = r**3 / u
    k = (v - u) / 2
    assume(k and not all(round(abs(n) ** (1 / 3)) ** 3 == abs(n) for n in k.as_integer_ratio()))
    E, R, T = EllipticCurveQ(0, k * k), point(r, (u + v) / 2), point(0, k)
    assert pair_torsion_order(E, T) == 3
    assume(pair_torsion_order(E, R) is None)
    return E, R, pair_add(E, R, T)


def combination(E, R, S, a, b):
    return pair_add(E, scalar_mul(E, a, R), scalar_mul(E, b, S))


@settings(max_examples=80, deadline=None)
@given(st.one_of(two_point_curves(), three_torsion_curves()),
       st.tuples(*[st.integers(-3, 3)] * 4), st.integers(0, 2))
# P = 2 S has Z = 7 on the scaled model: a prime dividing Z proves nothing for it
@example(curve_through((Fraction(1, 2), 3), (Fraction(-1, 4), Fraction(7, 4))), (0, 1, 1, 0), 0)
def test_mod_p_never_proves_a_pair_with_a_point_in_2E(curve, coeffs, which):
    """P = a R + b S and Q = c R + d S with (a, b), (c, d) or their sum even:
    then P, Q or P + Q lies in 2E(Q) (+ T on y^2 = x^3 + k^2, whose S is R +
    T and whose T lies in 2E(Q)), and its image is trivial at every prime."""
    E, R, S = curve
    a, b, c, d = coeffs
    if which == 0:
        a, b = 2 * a, 2 * b
    elif which == 1:
        c, d = 2 * c, 2 * d
    else:
        c, d = 2 * c - a, 2 * d - b
    P, Q = combination(E, R, S, a, b), combination(E, R, S, c, d)
    assume(P is not None and Q is not None)
    assume(pair_torsion_order(E, P) is None and pair_torsion_order(E, Q) is None)
    assert not descent_mod_p(E, *triples(E, P, Q))
    assert not descent_mod_p(E, *triples(E, Q, P))


@settings(max_examples=60, deadline=None)
@given(st.one_of(two_point_curves(), three_torsion_curves()),
       st.tuples(*[st.integers(-2, 2)] * 4))
def test_mod_p_proof_is_never_regulator_dependent(curve, coeffs):
    E, R, S = curve
    a, b, c, d = coeffs
    P, Q = combination(E, R, S, a, b), combination(E, R, S, c, d)
    assume(P is not None and Q is not None)
    assume(pair_torsion_order(E, P) is None and pair_torsion_order(E, Q) is None)
    proved = descent_mod_p(E, *triples(E, P, Q))
    event(f"proved {proved}")
    if proved:
        assert pair_regulator(E, [P, Q]).verdict != "dependent"
        assert descent_mod_p(E, *triples(E, Q, P))


@settings(max_examples=60, deadline=None)
@given(split_curves(), st.integers(-3, 3), st.integers(1, 3), st.integers(0, 3))
@example(split_curve(-9, -8, Fraction(-6), Fraction(1)), -1, 1, 0)
def test_mod_p_defers_with_rational_two_torsion(curve, a, i, j):
    """With E[2] rational, (2a + 1) R and R + T_i have nontrivial images
    wherever R's is, and so has their sum 2(a + 1) R + T_i wherever T_i's
    is; only the 2-torsion guard stops a proof."""
    E, roots, R = curve
    T = two_torsion(roots)
    P, Q = pair_add(E, scalar_mul(E, 2 * a + 1, R), T[j]), pair_add(E, R, T[i])
    assert not descent_mod_p(E, *triples(E, P, Q))


def test_mod_p_defers_on_a_point_and_its_negative():
    E = EllipticCurveQ(0, 17)
    P = point(-2, 3)
    JP, JQ = triples(E, P, point(-1, 4))
    assert descent_mod_p(E, JP, JQ)
    assert not descent_mod_p(E, JP, (JP[0], -JP[1], JP[2]))

