"""Conic fibres of the bundle x = x0 on a twist or quadratic-coefficient
surface: quadratic-extension classes, exact rational-point decisions
(Hasse-Minkowski) and parametrisation by lines through a base point.

For a twist family the fibre over x0 is g(t) w^2 = f(x0); substituting
u = t w turns it into a plane conic. For a quadratic-coefficient family it
is w^2 = q(t) with q of degree at most 2, already a conic after
homogenising. Parametrisation runs in integers: with the conic's matrix
scaled to integers, each coordinate of the point cut by the line of
parameter (m0 : m1) is an integer binary quadratic form in (m0, m1).

A fibre reads x0 = n/d once and builds its classes from integers: f(x0)
= N / (D d^3) from f's integer form, and q = (Q0, Q1, Q2) / (L d^3) from
the km surface's integer columns (KMFamily.fibre_ints). Solvability is
decided on closed-form square classes: the twist conic g2 u^2 + g1 u w +
g0 w^2 = v z^2 is diagonal in (g2, -g2 disc g, -v), the first two fixed by
the surface, the km conic W^2 = q(T, Z) in (-q2, 1, q2 disc q). Per fibre
the integers factored are N and D d, or the lead Q2 (Q1 if q is linear)
and L d, each pair over its gcd and each integer apart, never their
product, and disc q on the primitive triple. If g2 = 0 or q2 = 0 the
block is hyperbolic: (1, 0, 0) lies on the conic. Obstructing places do
not depend on the diagonal chosen, nor does the first reported.

A solvable fibre's base point comes from three stages: (1, 0, 0) when it
lies on the conic, a sweep of small t by integer square tests, and
otherwise Lagrange's descent on the same square classes (Cremona-Rusin,
"Efficient solution of rational conics", Math. Comp. 72 (2003)), which
always finds one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .arith import (SquareClass, lagrange_descent, primitive_triple, rational_sqrt, square_class,
                    ternary_obstruction)
from .polynomial import PLACE_AT_INFINITY, Place, RatPoly, poly_discriminant
from .surfaces import TwistFamily


class DegenerateFibreError(ValueError):
    """Raised for x0 where the curve x = x0 is not an integral conic."""


class QuadExtClass(NamedTuple):
    """The quadratic extension Q(t)(sqrt(s * h(t))), canonically presented:
    s a squarefree integer, h squarefree of degree 1 or 2, held as its
    primitive integer triple (h0, h1, h2), constant term first, with a
    positive leading coefficient (arith.primitive_triple); a census keys its
    classes on these ints."""

    s: int
    h: tuple[int, int, int]


def branch_locus(cls: QuadExtClass) -> frozenset[Place]:
    """Branch locus of w^2 = s h(t), as the set of places of Q(t) under its
    branch points: the roots of h, plus infinity if deg h is odd. A conic
    fibre has h of degree 1 or 2; a squarefree t^2 + b t + c splits at (-b
    +- r) / 2 exactly when its discriminant is a square r^2. The locus is a
    function of h up to a constant factor, and h one of the locus, so two
    fibres' loci coincide exactly when their kernels h do."""
    h = RatPoly(cls.h).monic()
    if h.degree == 1:
        return frozenset({Place(h), PLACE_AT_INFINITY})
    if h.degree != 2:
        raise ValueError(f"{h!r} is not the branch polynomial of a conic fibre")
    r = rational_sqrt(poly_discriminant(h))
    if r is None:
        return frozenset({Place(h)})
    return frozenset(Place(RatPoly([(h[1] + e) / 2, 1])) for e in (r, -r))


# ---------------------------------------------------------------------------
# exact linear algebra on the fibre's 3x3 symmetric matrix


def _primitive(vec):
    """Scale a rational vector to coprime integers with canonical sign."""
    den = lcm(*(c.denominator for c in vec))
    ints = [int(c * den) for c in vec]
    g = gcd(*ints) or 1
    sign = -1 if next((c for c in ints if c), 0) < 0 else 1
    return tuple(sign * c // g for c in ints)


# ---------------------------------------------------------------------------
# the fibre itself


class ConicFibre:
    """One fibre of the conic bundle, with its extension class and square
    classes built from integers; f(x0) or q as Fractions, its matrix,
    solvability and rational points are computed on demand, once."""

    def __init__(self, surface, x0):
        self.surface = surface
        self.x0 = x0
        n, d = x0.as_integer_ratio()
        if isinstance(surface, TwistFamily):
            self.kind = "twist"
            N, M = surface.f.ratio_at(n, d)  # f(x0) = N / M, M = D d^3
            if N == 0:
                raise DegenerateFibreError(f"f({x0}) = 0: fibre splits")
            self._ratio = N, M
            # the class of N / M is that of N / (D d): N and D d factored apart
            value_class = square_class(N, M // (d * d))
            lead_class, kernel, block = surface.conic_classes
            v, lead = value_class.s, lead_class.s  # the class of v lead: divide out gcd^2
            self.ext_class = QuadExtClass(v * lead // gcd(v, lead) ** 2, kernel)
            self._classes = None if block is None else (*block, -value_class)
        else:
            self.kind = "km"
            Q, den = surface.fibre_ints(n, d)  # q(t) = sum Q_i t^i / den, den = L d^3
            Q0, Q1, Q2 = Q
            if not (Q0 or Q1 or Q2):
                raise DegenerateFibreError(f"fibre polynomial vanishes at x0 = {x0}")
            self._ratio = Q, den
            kernel = primitive_triple(Q0, Q1, Q2)
            k0, k1, k2 = kernel
            disc = k1 * k1 - 4 * k2 * k0 if k2 else None
            if not (k2 or k1) or disc == 0:
                raise DegenerateFibreError(
                    f"fibre over x0 = {x0} is a square times a constant: cover splits"
                )
            # otherwise q is squarefree, and the class is lead(q)'s, that of
            # the integer lead over den = L d^3, or over L d: each factored apart
            lead_class = square_class(Q2 or Q1, den // (d * d))
            self.ext_class = QuadExtClass(lead_class.s, kernel)
            # -q2 T^2 - q1 T Z - q0 Z^2 = -q2 (T + q1 Z / 2 q2)^2 + disc(q) Z^2 / 4 q2
            self._classes = None if disc is None else (
                -lead_class, SquareClass(1, ()), lead_class.times(square_class(disc)))
        self._base_point = None

    @cached_property
    def value(self):
        """f(x0), the value of a twist fibre g(t) w^2 = f(x0); None on km."""
        return Fraction(*self._ratio) if self.kind == "twist" else None

    @cached_property
    def q(self):
        """q(t), the polynomial of a km fibre w^2 = q(t); None on a twist."""
        Q, den = self._ratio
        return RatPoly([Fraction(c, den) for c in Q]) if self.kind == "km" else None

    @cached_property
    def matrix(self):
        """The 3x3 symmetric matrix of the fibre's conic."""
        zero = Fraction(0)
        if self.kind == "twist":
            # in coordinates (u, w, z) with u = t w: g2 u^2 + g1 u w + g0 w^2 = c z^2
            g = self.surface.g
            return (g[2], g[1] / 2, zero), (g[1] / 2, g[0], zero), (zero, zero, -self.value)
        # in coordinates (T, W, Z) with t = T/Z, w = W/Z: W^2 = q2 T^2 + q1 T Z + q0 Z^2
        q = self.q
        return (-q[2], zero, -q[1] / 2), (zero, Fraction(1), zero), (-q[1] / 2, zero, -q[0])

    # -- solvability -------------------------------------------------------

    def _diagonal(self):
        """(diagonal, basis columns) of the fibre's form, for g2 != 0 or
        q2 != 0. Both kinds have M12 = 0 and M01 M02 = 0, so clearing row
        and column 0 against the pivot M00 leaves a diagonal form."""
        M = self.matrix
        a = M[0][0]
        diag = [a, M[1][1] - M[0][1] ** 2 / a, M[2][2] - M[0][2] ** 2 / a]
        return diag, [[1, 0, 0], [-M[0][1] / a, 1, 0], [-M[0][2] / a, 0, 1]]

    @cached_property
    def local_obstruction(self):
        """None when the fibre has a rational point; otherwise the smallest
        obstructing place (a prime, or 0 for the real place), from the
        closed-form square classes; a hyperbolic fibre has (1, 0, 0)."""
        return None if self._classes is None else ternary_obstruction(*self._classes)

    def base_point(self):
        """A primitive projective rational point; solvable fibres only, as
        pencil checks: (1, 0, 0) on a hyperbolic fibre (no square classes),
        else the sweep _naive_search(32), else _descend, Lagrange's descent
        after Cremona-Rusin. The first two fix the streams' starting points;
        the descent never fails on a solvable fibre. Found once per fibre."""
        if self._base_point is None:
            if self._classes is None:
                pt = (1, 0, 0)  # the natural point at infinity; gives the cleanest streams
            else:
                pt = self._naive_search(32) or self._descend()
            if pt is None:
                raise RuntimeError(f"no point found on a locally solvable conic (x0 = {self.x0})")
            self._base_point = _primitive(pt)
        return self._base_point

    @cached_property
    def pencil(self):
        """The coordinate forms of the pencil of lines through the base point
        b; ValueError if unsolvable. With M the matrix scaled to integers and
        v = m0 e_i + m1 e_j, i and j the coordinates other than b's first
        nonzero one, the line through b along v meets the conic again in
        R = (v^T M v) b - 2 (b^T M v) v, each coordinate a binary quadratic
        form: m0^2, m0 m1, m1^2 terms. As R^T M R = (v^T M v)^2 b^T M b, the
        one check b^T M b = 0 here puts every point of the pencil on the
        conic."""
        if not conic_solvable(self):
            raise ValueError(f"fibre over x0 = {self.x0} has no rational point")
        base = self.base_point()
        anchor = next(r for r in range(3) if base[r] != 0)
        i, j = (r for r in range(3) if r != anchor)
        den = lcm(*(x.denominator for row in self.matrix for x in row))
        M = [[int(x * den) for x in row] for row in self.matrix]
        vv = (M[i][i], 2 * M[i][j], M[j][j])  # v^T M v; Mb[i], Mb[j] give b^T M v
        Mb = [sum(M[r][k] * base[k] for k in range(3)) for r in range(3)]
        assert sum(b * c for b, c in zip(base, Mb)) == 0, f"base point {base} off the conic"
        bi, bj = Mb[i], Mb[j]
        forms = [[base[r] * c for c in vv] for r in range(3)]
        for r, k, c in ((i, 0, bi), (i, 1, bj), (j, 1, bi), (j, 2, bj)):
            forms[r][k] -= 2 * c
        return forms

    def _naive_search(self, bound):
        """Affine sweep of t = n/d by height. With L clearing the denominators
        of p = g (twist) or q (km), the fibre has a point with w != 0 over t
        exactly when c L d^2 p(n/d) is a nonzero square integer, where
        c = L num den of f(x0) for a twist and c = L for km."""
        twist = self.kind == "twist"
        p = self.surface.g if twist else self.q
        L = lcm(p[0].denominator, p[1].denominator, p[2].denominator)
        c = L * (self.value.numerator * self.value.denominator if twist else 1)
        p2, p1, p0 = (int(p[i] * L) * c for i in (2, 1, 0))
        for h in range(1, bound + 1):
            for n, d in _pairs_of_height(h):
                v = (p2 * n + p1 * d) * n + p0 * d * d
                if v > 0 and isqrt(v) ** 2 == v:
                    t = Fraction(n, d)
                    w = rational_sqrt(self.value / p(t) if twist else p(t))
                    return (t * w, w, 1) if twist else (t, w, 1)
        return None

    def _descend(self):
        """Lagrange's descent on the square classes s_i of the diagonal d_i:
        a zero (x, y, z) of x^2 = a y^2 + b z^2, a = -s0 s1, b = -s0 s2, is
        the diagonal zero (x, y, z) * sqrt((1, -a, -b) / (s0 d)), mapped back
        through the basis. Non-hyperbolic fibres only; None if unsolvable."""
        s0, s1, s2 = self._classes
        a, b = (-s0).times(s1), (-s0).times(s2)
        sol = lagrange_descent(a, b)
        if sol is None:
            return None
        diag, basis = self._diagonal()
        ys = [v * rational_sqrt(e / (s0.s * d)) for v, e, d in zip(sol, (1, -a.s, -b.s), diag)]
        return tuple(sum(basis[j][r] * ys[j] for j in range(3)) for r in range(3))


def conic_fibre(surface, x0) -> ConicFibre:
    """The conic fibre x = x0; raises DegenerateFibreError off the bundle."""
    return ConicFibre(surface, x0)


def conic_solvable(fibre: ConicFibre) -> bool:
    """Exact rational-point decision via local solvability at every place."""
    return fibre.local_obstruction is None


def parametrize(fibre: ConicFibre, height_bound: int):
    """All fibre points (t, w) whose line parameter has height <= the bound.

    Points come from the pencil of lines through a fixed base point; each
    emitted pair satisfies the defining relation exactly, in order of the
    parameter height. Requires a solvable fibre.
    """
    for _, t, w in parametrize_heights(fibre, height_bound):
        yield t, w


def parametrize_heights(fibre: ConicFibre, height_bound: int, first: int = 1):
    """Like parametrize, but yields (parameter height, t, w) for the
    parameter heights first..height_bound of the fibre's pencil.

    No point repeats: the lines through a point of a smooth conic meet it
    again in distinct points, and _parameter_pairs yields each (m0 : m1)
    once. Every point lies on the conic, as the pencil checks its base
    point; a point's ratios t, w do not change when it is scaled, so it is
    not reduced.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = fibre.pencil
    twist = fibre.kind == "twist"
    for m0, m1 in _parameter_pairs(first, height_bound):
        s0, s1, s2 = m0 * m0, m0 * m1, m1 * m1
        a = a0 * s0 + a1 * s1 + a2 * s2
        b = b0 * s0 + b1 * s1 + b2 * s2
        c = c0 * s0 + c1 * s1 + c2 * s2
        # the affine chart: (t, w) = (a/b, b/c) for a twist, (a/c, b/c) for km
        if c == 0 or twist and b == 0:
            continue
        yield max(abs(m0), abs(m1)), Fraction(a, b if twist else c), Fraction(b, c)


def _parameter_pairs(first: int, height_bound: int):
    """Projective parameters (m0 : m1) of heights first..height_bound,
    canonical representatives: (1 : 0) when first is 1, then m0/m1 in the
    order of rationals_by_height."""
    if first == 1:
        yield 1, 0
    for h in range(first, height_bound + 1):
        yield from _pairs_of_height(h)


@cache
def _pairs_of_height(h: int) -> tuple[tuple[int, int], ...]:
    """(numerator, denominator) of each of rationals_of_height(h)."""
    return tuple((q.numerator, q.denominator) for q in rationals_of_height(h))


def height(q) -> int:
    """Naive height max(|numerator|, denominator) of a rational."""
    return max(abs(q.numerator), q.denominator)


def rationals_of_height(h: int) -> list[Fraction]:
    """The rationals of naive height exactly h, ordered by |numerator|, then
    sign, then denominator; 0 is the first one of height 1. They lie on the
    boundary max(|num|, den) = h: den = h with |num| < h, then num = +-h."""
    batch = [Fraction(s * num, h) for num in range(h) if gcd(num, h) == 1
             for s in ((1, -1) if num else (1,))]
    dens = [den for den in range(1, h + 1) if gcd(h, den) == 1]
    return batch + [Fraction(h, den) for den in dens] + [Fraction(-h, den) for den in dens]


def rationals_by_height(bound: int):
    """Each rational of naive height <= bound once, ordered by height, then
    as in rationals_of_height: 0, 1, -1, 1/2, -1/2, 2, -2, ..."""
    for h in range(1, bound + 1):
        yield from rationals_of_height(h)
