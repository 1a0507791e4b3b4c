"""Rational elliptic surfaces over Q(t) in twist, quadratic-coefficient and
short Weierstrass form, with singular-fibre classification.

A twist family is g(t) y^2 = f(x) with f a separable cubic and g separable
of degree 1 or 2; its singular fibres form the 2 I0* configuration. A
quadratic-coefficient family is y^2 = a3(t) x^3 + ... + a0(t) with all
deg a_i <= 2. Both convert to a short Weierstrass model y^2 = x^3 + A(t) x
+ B(t) with deg A <= 4, deg B <= 6, the shape that characterises rational
elliptic surfaces.

Each surface object computes its invariants once, on first use: the short
Weierstrass model with its discriminant, the transport chart carrying fibre
points onto that model, and (on the model) the Shioda-Tate rank bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .arith import DomainError, SquareClass, divisors, primitive_triple, square_class
from .kodaira import InvalidModelError, KodairaType, kodaira_type, minimal_shift
from .polynomial import (
    PLACE_AT_INFINITY,
    Place,
    RatPoly,
    factor_rational,
    poly_discriminant,
    valuation,
    yun_squarefree,
)


class NotRationalElliptic(ValueError):
    """Raised when degree bounds rule out a rational elliptic surface."""


class InconsistentClassification(ValueError):
    """Raised when fibre data violates the Euler-number accounting."""


@dataclass(frozen=True)
class TwistFamily:
    """The surface g(t) y^2 = f(x), fibred over the t-line."""

    f: RatPoly
    g: RatPoly

    def __post_init__(self):
        if self.f.degree != 3:
            raise DomainError("f must be a cubic")
        if poly_discriminant(self.f) == 0:
            raise DomainError("f must be separable")
        if self.g.degree not in (1, 2):
            raise DomainError("g must be nonconstant of degree at most 2")
        if self.g.degree == 2 and poly_discriminant(self.g) == 0:
            raise DomainError("g must be separable")

    @cached_property
    def short_cubic(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """f in monic depressed form x^3 + P x + Q: (P, Q, l, c2) with l the
        leading and c2 the quadratic coefficient of f; a point (x, y) on
        g y^2 = f(x) maps to (l x + c2/3, l y) on g y^2 = x^3 + P x + Q."""
        l, c2, c1, c0 = self.f.leading(), self.f[2], self.f[1], self.f[0]
        # scale to monic: multiply the equation by l^2 and set x1 = l x, y1 = l y
        b2, b1, b0 = c2, c1 * l, c0 * l * l
        # depress: x2 = x1 + b2/3
        P = b1 - b2 * b2 / 3
        Q = b0 - b2 * b1 / 3 + 2 * b2**3 / 27
        return P, Q, l, c2

    @cached_property
    def weierstrass(self) -> "WeierstrassQt":
        """The short model y^2 = x^3 + P g^2 x + Q g^3, P and Q from short_cubic."""
        P, Q, _, _ = self.short_cubic
        g = self.g
        return WeierstrassQt(P * g * g, Q * g * g * g)

    @cached_property
    def conic_classes(self) -> tuple[SquareClass, tuple[int, int, int],
                                     tuple[SquareClass, SquareClass] | None]:
        """What every fibre conic g(t) w^2 = f(x0) shares: the square class
        of lead(g) and the primitive triple of g, the squarefree kernel of
        the separable g (with f(x0)'s class, a fibre's extension class), and
        the diagonal (g2, -g2 disc(g)) of g2 u^2 + g1 u w + g0 w^2, None if
        g2 = 0."""
        L = lcm(*(c.denominator for c in self.g.coeffs))
        lead = square_class(self.g.leading())
        kernel = primitive_triple(*(int(self.g[i] * L) for i in range(3)))
        if self.g.degree < 2:
            return lead, kernel, None
        return lead, kernel, (lead, lead.times(square_class(-poly_discriminant(self.g))))

    @cached_property
    def f_roots(self) -> tuple[Fraction, Fraction, Fraction] | None:
        """The rational roots r_i of f, decreasing, None when f does not split;
        the chart carries them to the roots u r_i + v of every fibre. On f's
        primitive integer form c a root is 0 or +-n/d, n | (c_0 or c_1), d | c_3."""
        m = lcm(*(a.denominator for a in self.f.coeffs))
        c = [a.numerator * (m // a.denominator) for a in self.f.coeffs]
        g, roots = gcd(*c), {Fraction(0)} if c[0] == 0 else set()
        roots.update(Fraction(r, d) for n in divisors(abs(c[0] or c[1]) // g)
                     for d in divisors(abs(c[3]) // g) if gcd(n, d) == 1
                     for r in (n, -n) if self.f.ratio_at(r, d)[0] == 0)
        return tuple(sorted(roots, reverse=True)) if len(roots) == 3 else None

    @cached_property
    def chart(self) -> tuple[RatPoly, RatPoly, RatPoly]:
        """(u, v, w) in Q[t] with X = u x + v, Y = w y carrying the fibre
        over t onto the short model; u vanishes under the singular fibres."""
        _, _, l, c2 = self.short_cubic
        g = self.g
        return g * l, g * (c2 / 3), g * g * l


@dataclass(frozen=True)
class KMFamily:
    """The surface y^2 = a3(t) x^3 + a2(t) x^2 + a1(t) x + a0(t), deg a_i <= 2."""

    a3: RatPoly
    a2: RatPoly
    a1: RatPoly
    a0: RatPoly

    def __post_init__(self):
        for name in ("a3", "a2", "a1", "a0"):
            if getattr(self, name).degree > 2:
                raise DomainError(f"{name} must have degree at most 2")
        if self.a3.is_zero():
            raise DomainError("a3 must be nonzero")
        try:
            model = self.weierstrass
        except InvalidModelError:
            raise DomainError("generic fibre is singular") from None
        if model.A.is_constant() and model.B.is_constant():
            raise DomainError("family is constant")

    def short_AB(self) -> tuple[RatPoly, RatPoly]:
        """Coefficients of the short model y^2 = x^3 + A(t) x + B(t)."""
        a3, a2, a1, a0 = self.a3, self.a2, self.a1, self.a0
        A = a1 * a3 - a2 * a2 * Fraction(1, 3)
        B = a0 * a3 * a3 - a1 * a2 * a3 * Fraction(1, 3) + a2**3 * Fraction(2, 27)
        return A, B

    @cached_property
    def weierstrass(self) -> "WeierstrassQt":
        return WeierstrassQt(*self.short_AB())

    @cached_property
    def chart(self) -> tuple[RatPoly, RatPoly, RatPoly]:
        """(u, v, w) in Q[t] with X = u x + v, Y = w y carrying the fibre
        over t onto the short model; u = a3, so the chart degenerates
        wherever a3 vanishes."""
        return self.a3, self.a2 * Fraction(1, 3), self.a3

    @cached_property
    def x_columns(self) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
        """(L, columns): L the common denominator of the a_i, and column i L
        times the coefficient of t^i in a3 x^3 + a2 x^2 + a1 x + a0, a cubic
        in x, as its integer coefficients of x^0, ..., x^3."""
        a = (self.a0, self.a1, self.a2, self.a3)
        L = lcm(*(c.denominator for p in a for c in p.coeffs))
        return L, tuple(tuple(int(p[i] * L) for p in a) for i in range(3))

    def fibre_ints(self, n: int, d: int) -> tuple[list[int], int]:
        """The polynomial q(t) with w^2 = q(t) cutting out the curve x = n/d,
        d > 0, as ([Q0, Q1, Q2], L d^3) with q(t) = sum Q_i t^i / (L d^3):
        Q_i is column i homogenised at (n, d)."""
        L, columns = self.x_columns
        dd, nn = d * d, n * n
        m0, m1, m2, m3 = dd * d, n * dd, nn * d, nn * n
        return [c0 * m0 + c1 * m1 + c2 * m2 + c3 * m3 for c0, c1, c2, c3 in columns], L * m0


@dataclass(frozen=True)
class WeierstrassQt:
    """Short Weierstrass model y^2 = x^3 + A(t) x + B(t) of a rational
    elliptic surface: deg A <= 4, deg B <= 6 after polynomial rescaling."""

    A: RatPoly
    B: RatPoly
    delta: RatPoly = field(init=False, compare=False)

    def __post_init__(self):
        A, B = self.A, self.B
        if A.degree > 4 or B.degree > 6:
            A, B = _reduce_model(A, B)
            object.__setattr__(self, "A", A)
            object.__setattr__(self, "B", B)
        delta = -16 * (4 * A**3 + 27 * B**2)
        if delta.is_zero():
            raise InvalidModelError("discriminant vanishes identically")
        if A.degree > 4 or B.degree > 6:
            raise NotRationalElliptic(
                "coefficient degrees exceed the rational elliptic surface bounds"
            )
        object.__setattr__(self, "delta", delta)

    @property
    def weierstrass(self) -> "WeierstrassQt":
        return self

    @cached_property
    def rank_bound(self) -> int:
        """Shioda-Tate bound for the generic rank of the model."""
        return shioda_tate_bound(classify_fibres(self))


def _reduce_model(A: RatPoly, B: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Divide out polynomial factors u with u^4 | A and u^6 | B: one
    minimal_shift per irreducible factor of A, or of B when A = 0."""
    for h, _ in factor_rational(B if A.is_zero() else A)[1]:
        place = Place(h)
        k = minimal_shift(valuation(A, place), valuation(B, place))
        A, B = A.exact_div(h ** (4 * k)), B.exact_div(h ** (6 * k))
    return A, B


@dataclass(frozen=True)
class FibreData:
    place: Place
    kodaira: KodairaType


def euler_number(fibres: tuple[FibreData, ...]) -> int:
    """Sum of local Euler contributions, weighted by place degrees."""
    return sum(f.kodaira.euler * f.place.degree for f in fibres)


def to_weierstrass(surface) -> WeierstrassQt:
    """Short Weierstrass model of a surface, built once per surface object."""
    return surface.weierstrass


def classify_fibres(w: WeierstrassQt) -> tuple[FibreData, ...]:
    """Kodaira types at every singular place of the model: each irreducible
    factor of the discriminant D, then infinity, one more place of the same
    walk, where the model s^4 A(1/s), s^6 B(1/s) in s = 1/t has valuations
    4 + v(A), 6 + v(B), 12 + v(D) (v = -deg at infinity).

    Each place is locally minimalised by x -> u^2 x, y -> u^3 y before the
    valuation table is applied; residue characteristic 0 makes the table
    decisive.
    """
    fibres = []
    places = [(Place(h), vd) for h, vd in factor_rational(w.delta)[1]]
    places.append((PLACE_AT_INFINITY, 12 + valuation(w.delta, PLACE_AT_INFINITY)))
    for pl, vd in places:
        shift = (4, 6) if pl.is_infinite else (0, 0)
        va, vb = (None if p.is_zero() else valuation(p, pl) + n
                  for p, n in zip((w.A, w.B), shift))
        ktype, k = kodaira_type(va, vb, vd)
        if vd - 12 * k > 0:
            fibres.append(FibreData(pl, ktype))
    return tuple(fibres)


def shioda_tate_bound(fibres: tuple[FibreData, ...]) -> int:
    """Upper bound 8 - sum_v (m_v - 1) for the generic Mordell-Weil rank.

    The sum runs over geometric singular fibres, so each place is weighted
    by its degree. Requires the Euler number 12 of a rational elliptic
    surface.
    """
    euler = euler_number(fibres)
    if euler != 12:
        raise InconsistentClassification(
            f"Euler number {euler} != 12; not a rational elliptic surface"
        )
    bound = 8 - sum((f.kodaira.components - 1) * f.place.degree for f in fibres)
    if bound < 0:
        raise InconsistentClassification(f"negative rank bound {bound}")
    return bound


def is_twist_case(w: WeierstrassQt) -> TwistFamily | None:
    """The twist g(t) y^2 = f(x), f = x^3 + a x + b and g monic, that the
    model is in disguise when D = c g^6 (g, the one Yun block of D, of degree
    1 or 2), else None. Then A = a g^2 and B = b g^3: at each place of g, and
    at infinity if deg g = 1, v(D) = 6 makes the fibre I6 (v(A) = v(B) = 0)
    or I0* (v(A) >= 2, v(B) >= 3), the Euler number is 12, and Shioda-Tate,
    sum (m_v - 1) <= 8, rules out I6 beside I6 or I0* (5 + 5, 5 + 4). f is
    separable as 4A^3 + 27B^2 = (4a^3 + 27b^2) g^6 is not 0."""
    _, blocks = yun_squarefree(w.delta)
    if len(blocks) != 1 or blocks[0][1] != 6:
        return None
    g = blocks[0][0]
    a, b = w.A.exact_div(g * g), w.B.exact_div(g * g * g)
    return TwistFamily(RatPoly([b[0], a[0], 0, 1]), g)


def to_chatelet(s: TwistFamily) -> tuple[Fraction, RatPoly] | None:
    """The Chatelet form w^2 - a Y^2 = F(x) of a twist family as the pair
    (a, F = g2 f), or None unless deg g = 2.

    Centring g (t + g1/(2 g2) removes its linear term) and the substitution
    Y = g2 y, w = (t + g1/(2 g2)) Y give w^2 - a Y^2 - F(x) = g2 (g(t) y^2 - f(x)).
    """
    if s.g.degree != 2:
        return None
    g2, g1, g0 = s.g[2], s.g[1], s.g[0]
    return (g1 * g1 - 4 * g0 * g2) / (4 * g2 * g2), g2 * s.f
