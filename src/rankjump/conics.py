"""Conic fibres of the bundle x = x0 on a twist or quadratic-coefficient
surface: quadratic-extension classes, exact rational-point decisions
(Hasse-Minkowski) and parametrisation by lines through a base point.

For a twist family the fibre over x0 is g(t) w^2 = f(x0); substituting
u = t w turns it into a plane conic. For a quadratic-coefficient family it
is w^2 = q(t) with q of degree at most 2, already a conic after
homogenising. A fibre holds its conic once, as a primitive symmetric integer
matrix that the sweep, the descent and the pencil read: each coordinate of
the point cut by the line of parameter (m0 : m1) is an integer binary form
in (m0, m1), and the point's t and w leave as reduced int pairs (n, d), d > 0.

A fibre takes x0 as such a pair, as rationals_of_height yields it, and
decides its class and solvability from integers as it is built: f(x0) =
N / (D d^3) from f's integer form, and q = (Q0, Q1, Q2) / (L d^3) from the
km surface's integer columns (KMFamily.fibre_ints); x0 stays that pair.
Solvability is decided on closed-form square classes: the twist conic g2
u^2 + g1 u w + g0 w^2 = v z^2 is diagonal in
(g2, -g2 disc g, -v), the first two fixed by the surface, the km conic W^2
= q(T, Z) in (-q2, 1, q2 disc q). Per fibre the integers factored are N and
D d, or the lead Q2 (Q1 if q is linear) and L d, each pair over its gcd and
each integer apart, never their product, and disc q on the primitive
triple. If g2 = 0 or q2 = 0 the block is hyperbolic: (1, 0, 0) lies on the
conic. Obstructing places do not depend on the diagonal chosen, nor does
the first reported.

A solvable fibre's base point comes from three stages: (1, 0, 0) when it
lies on the conic, a sweep of small t by integer square tests, and
otherwise Lagrange's descent on the same square classes (Cremona-Rusin,
"Efficient solution of rational conics", Math. Comp. 72 (2003)), which
always finds one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import gcd, isqrt
from typing import NamedTuple

from .arith import (SquareClass, lagrange_descent, primitive_triple, ratio_str, rational_sqrt,
                    reduced, square_class, ternary_obstruction)
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
    """Scale an integer vector to coprime integers with canonical sign."""
    g = gcd(*vec) or 1
    sign = -1 if next((c for c in vec if c), 0) < 0 else 1
    return tuple(sign * c // g for c in vec)


# ---------------------------------------------------------------------------
# the fibre itself


class ConicFibre:
    """One fibre of the conic bundle over x0 = n/d, d > 0, the int pair x0_ratio, with
    its class, square classes and solvability built from _ratio, f(x0) = N / M or q =
    (Q0, Q1, Q2) / den; x0, the integer matrix and the base point on demand, once."""

    def __init__(self, surface, n: int, d: int):
        self.surface = surface
        self.x0_ratio = n, d
        if isinstance(surface, TwistFamily):
            self.kind = "twist"
            N, M = surface.f.ratio_at(n, d)  # f(x0) = N / M, M = D d^3
            if N == 0:
                raise DegenerateFibreError(f"f({Fraction(n, d)}) = 0: fibre splits")
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
                raise DegenerateFibreError(f"fibre polynomial vanishes at x0 = {Fraction(n, d)}")
            self._ratio = Q, den
            kernel = primitive_triple(Q0, Q1, Q2)
            k0, k1, k2 = kernel
            disc = k1 * k1 - 4 * k2 * k0 if k2 else None
            if not (k2 or k1) or disc == 0:
                raise DegenerateFibreError(
                    f"fibre over x0 = {Fraction(n, d)} is a square times a constant: cover splits"
                )
            # otherwise q is squarefree, and the class is lead(q)'s, that of
            # the integer lead over den = L d^3, or over L d: each factored apart
            lead_class = square_class(Q2 or Q1, den // (d * d))
            self.ext_class = QuadExtClass(lead_class.s, kernel)
            # -q2 T^2 - q1 T Z - q0 Z^2 = -q2 (T + q1 Z / 2 q2)^2 + disc(q) Z^2 / 4 q2
            self._classes = None if disc is None else (
                -lead_class, SquareClass(1, ()), lead_class.times(square_class(disc)))
        # None if the fibre has a rational point (a hyperbolic one has (1, 0, 0)), else
        # the smallest obstructing place (a prime, or 0 for the real one), from the classes
        self.local_obstruction = (None if self._classes is None
                                  else ternary_obstruction(*self._classes))
        self._base_point = None

    @cached_property
    def matrix(self) -> tuple[tuple[int, int, int], ...]:
        """The fibre's conic, once, as a primitive symmetric integer matrix: a
        positive multiple, so that its diagonal keeps the signs of the square
        classes, of 2 L M (g2 u^2 + g1 u w + g0 w^2 - f(x0) z^2) in (u, w, z),
        u = t w, with g = (G0, G1, G2) / L and f(x0) = N / M, or of 2 den (W^2
        - q2 T^2 - q1 T Z - q0 Z^2) in (T, W, Z), t = T/Z, w = W/Z."""
        if self.kind == "twist":
            (N, M), ((G0, G1, G2), L) = self._ratio, self.surface.g_ints
            rows = (2 * M * G2, M * G1, 0), (M * G1, 2 * M * G0, 0), (0, 0, -2 * L * N)
        else:
            (Q0, Q1, Q2), den = self._ratio
            rows = (-2 * Q2, 0, -Q1), (0, 2 * den, 0), (-Q1, 0, -2 * Q0)
        g = gcd(*rows[0], *rows[1], *rows[2])
        return tuple(tuple(x // g for x in row) for row in rows)

    # -- solvability -------------------------------------------------------

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
                raise RuntimeError("no point found on a locally solvable conic "
                                   f"(x0 = {ratio_str(*self.x0_ratio)})")
            self._base_point = _primitive(pt)
        return self._base_point

    @cached_property
    def pencil(self):
        """The coordinate forms of the pencil of lines through the base point
        b; ValueError if unsolvable. With M the fibre's integer matrix and
        v = m0 e_i + m1 e_j, i and j the coordinates other than b's first
        nonzero one, the line through b along v meets the conic again in
        R = (v^T M v) b - 2 (b^T M v) v, each coordinate a binary quadratic
        form: m0^2, m0 m1, m1^2 terms. As R^T M R = (v^T M v)^2 b^T M b, the
        one check b^T M b = 0 here puts every point of the pencil on the
        conic."""
        if not conic_solvable(self):
            raise ValueError(f"fibre over x0 = {ratio_str(*self.x0_ratio)} has no rational point")
        base = self.base_point()
        anchor = next(r for r in range(3) if base[r] != 0)
        i, j = (r for r in range(3) if r != anchor)
        M = self.matrix
        vv = (M[i][i], 2 * M[i][j], M[j][j])  # v^T M v; Mb[i], Mb[j] give b^T M v
        Mb = [sum(M[r][k] * base[k] for k in range(3)) for r in range(3)]
        assert sum(b * c for b, c in zip(base, Mb)) == 0, f"base point {base} off the conic"
        bi, bj = Mb[i], Mb[j]
        forms = [[base[r] * c for c in vv] for r in range(3)]
        for r, k, c in ((i, 0, bi), (i, 1, bj), (j, 1, bi), (j, 2, bj)):
            forms[r][k] -= 2 * c
        return forms

    def _naive_search(self, bound):
        """Affine sweep of t = n/d by height on the matrix M: with (i, j, f) =
        (0, 1, 2) for a twist and (0, 2, 1) for km, the fibre has a point with
        w != 0 over t exactly when r^2 = -M_ff (M_ii n^2 + 2 M_ij n d + M_jj d^2)
        is a positive square, the point (n |M_ff|, d |M_ff|, r) at (i, j, f)."""
        i, j, f = (0, 1, 2) if self.kind == "twist" else (0, 2, 1)
        M = self.matrix
        m = -M[f][f]
        a, b, c = m * M[i][i], 2 * m * M[i][j], m * M[j][j]
        for h in range(1, bound + 1):
            for n, d in _pairs_of_height(h):
                v = (a * n + b * d) * n + c * d * d
                if v > 0 and isqrt(v) ** 2 == v:
                    pt = {i: n * abs(m), j: d * abs(m), f: isqrt(v)}
                    return pt[0], pt[1], pt[2]
        return None

    def _descend(self):
        """Lagrange's descent on the square classes s_i of M's diagonal. As
        M12 = M01 M02 = 0, M is p (1, D1, D2) on the basis e0, (-M01, p, 0),
        (-M02, 0, p), p = M00, D_i = p M_ii - M0i^2, so a zero (x, y, z) of
        x^2 = A y^2 + B z^2, A = -s0 s1, B = -s0 s2, maps to (x, y sqrt(-A/D1),
        z sqrt(-B/D2)) on it; x negated when p < 0 keeps, up to scale, the
        point the zero gives on e0, (-M01/p, 1, 0), (-M02/p, 0, 1).
        Non-hyperbolic fibres only; None if unsolvable."""
        s0, s1, s2 = self._classes
        A, B = (-s0).times(s1), (-s0).times(s2)
        sol = lagrange_descent(A, B)
        if sol is None:
            return None
        (p, M01, M02), (_, M11, _), (_, _, M22) = self.matrix
        D1, D2 = p * M11 - M01 * M01, p * M22 - M02 * M02
        x = sol[0] * abs(D1 * D2) * (1 if p > 0 else -1)
        y, z = sol[1] * isqrt(-A.s * D1) * abs(D2), sol[2] * isqrt(-B.s * D2) * abs(D1)
        return x - M01 * y - M02 * z, p * y, p * z


def conic_fibre(surface, n: int, d: int = 1) -> ConicFibre:
    """The conic fibre x = n/d, d > 0; raises DegenerateFibreError off the bundle."""
    return ConicFibre(surface, n, d)


def conic_solvable(fibre: ConicFibre) -> bool:
    """Exact rational-point decision via local solvability at every place."""
    return fibre.local_obstruction is None


def parametrize(fibre: ConicFibre, height_bound: int):
    """All fibre points (t, w), reduced int pairs, of line parameter height <= the bound.

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
    not reduced, and each ratio is reduced by one gcd.
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
        yield max(abs(m0), abs(m1)), reduced(a, b if twist else c), reduced(b, c)


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
    """rationals_of_height(h), kept for the pencils' small heights."""
    return tuple(rationals_of_height(h))


def height(q: tuple[int, int]) -> int:
    """Naive height max(|n|, d) of a rational given as its reduced pair (n, d), d > 0."""
    return max(abs(q[0]), q[1])


def rationals_of_height(h: int) -> list[tuple[int, int]]:
    """The rationals of naive height exactly h, as reduced pairs (n, d), ordered
    by |n|, then sign, then d; 0 = (0, 1) is the first one of height 1. They lie
    on the boundary max(|n|, d) = h: d = h with |n| < h, then n = +-h."""
    batch = [(s * num, h) for num in range(h) if gcd(num, h) == 1
             for s in ((1, -1) if num else (1,))]
    dens = [den for den in range(1, h + 1) if gcd(h, den) == 1]
    return batch + [(h, den) for den in dens] + [(-h, den) for den in dens]


def rationals_by_height(bound: int):
    """Each rational of naive height <= bound once, as in rationals_of_height,
    ordered by height: 0, 1, -1, 1/2, -1/2, 2, -2, ..."""
    for h in range(1, bound + 1):
        yield from rationals_of_height(h)
