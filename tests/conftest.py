"""Shared oracles for the test suite.

These are independent of the library code paths they check: brute-force
point searches on conics, exhaustive local non-solvability certificates,
naive rational enumeration (and the O(h^2) filter for the rationals of one
height), and helpers the library no longer needs: polynomial evaluation and
the curve equation in Fractions, the resultant of two polynomials, the
Fraction conic parametrisation and base-point sweep its integer ones must
match, local solvability by Fraction Hilbert symbols on a general
diagonalisation, the integral model found by factoring denominators, the
formal-group multiple found by first hits and a restart, the archimedean
height series term by term in mpmath, the finite height corrections read
from the Fraction coordinates, heights by the doubling limit,
fibre-relation and extension-class comparisons, the census rescanned fibre
by fibre, jump1 reading each fibre's whole pencil through a lookahead
slot, a km fibre's polynomial by RatPoly arithmetic and column by column
in RatPoly integers, the conic fibre built from Fraction values with
RatPoly kernels that the integer one replaced, the genus of the
fibre product of two double covers from their branch loci, polynomial
division by stripping loops, the fibre at infinity read from the
model reversed in s = 1/t, integer factorisation and the rational roots
of a polynomial by sympy alone, and the specialisation, point transport, pullback, cover test and store reader of
the Fraction path the integer one replaced, and the complete 2-descent
on the Fraction x-coordinates that the one on triples replaced. Beside
the oracles sit helpers on the library's own code: points as the
Fraction pairs a record holds and their checked triples, the multiple n P
by the integer group law, the pair of a fibre point moved to its
specialised curve, and the curves API on Fraction pairs (pair_add,
pair_torsion_order, pair_height, pair_pairing, pair_regulator) that the
library once exposed, with its entry checks, over the code on triples;
the map between a kernel's integer triple and its monic RatPoly; and the
environment of a child process running the CLI from src/.

sympy is imported here, once, when the suite loads: the library imports it
only for a cofactor its trial division leaves, so the first such call would
otherwise pay the import inside whichever test makes it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm

import sympy


def child_env() -> dict:
    """The environment of a child process that imports rankjump from src/:
    os.environ with src first on PYTHONPATH, the parent's PYTHONPATH kept
    after it, so that the child finds the packages the parent finds."""
    import os
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def factorint_sympy(n: int) -> dict:
    """{prime: exponent} of n >= 1, by sympy's factorint alone."""
    return {int(p): int(e) for p, e in sympy.factorint(n).items()}


def rational_roots_sympy(f) -> tuple[Fraction, ...]:
    """The distinct rational roots of the RatPoly f, decreasing, by sympy's
    ground_roots alone."""
    x = sympy.symbols("x")
    roots = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                        for c in reversed(f.coeffs)], x).ground_roots()
    return tuple(sorted((Fraction(int(r.p), int(r.q)) for r in roots), reverse=True))


def ratpoly_eval_fraction(p, x) -> Fraction:
    """p(x) by Horner's rule on Fractions."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def rationals_of_height_filter(h: int) -> list[Fraction]:
    """The rationals of naive height h, from every num/den with |num|, den <= h,
    ordered by |numerator|, then sign, then denominator."""
    batch = [Fraction(num, den)
             for num in range(-h, h + 1) for den in range(1, h + 1)
             if max(abs(num), den) == h and gcd(num, den) == 1]
    batch.sort(key=lambda r: (abs(r.numerator), r < 0, r.denominator))
    return batch


def resultant(p, q) -> Fraction:
    """Resultant of RatPolys p and q over Q, by the Euclidean remainder
    sequence; the discriminant's oracle, since the library needs neither."""
    if p.is_zero() or q.is_zero():
        return Fraction(0)
    a, b = p, q
    res = Fraction(1)
    while b.degree > 0:
        r = a % b
        if r.is_zero():
            return Fraction(0)
        res *= (-1) ** (a.degree * b.degree) * b.leading() ** (a.degree - r.degree)
        a, b = b, r
    return res * b.leading() ** a.degree


def int_is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def frac_is_square(num: int, den: int) -> bool:
    if num * den < 0:
        return False
    g = gcd(abs(num), abs(den))
    return int_is_square(abs(num) // g) and int_is_square(abs(den) // g)


def two_descent_fraction(roots, P, Q) -> bool:
    """Complete 2-descent over Q on the Fraction points P and Q of y^2 =
    (x - e1)(x - e2)(x - e3), roots the e_i: the 2-torsion guard, then the
    image (x - e1, x - e2) of P, Q and P + Q each outside the span of the
    images of E[2], squares tested in Fractions."""
    e1, e2, e3 = roots

    def delta(x):
        return x - e1 or (e1 - e2) * (e1 - e3), x - e2 or (e2 - e1) * (e2 - e3)

    def square(q):
        return frac_is_square(*Fraction(q).as_integer_ratio())

    span = [(1, 1)] + [delta(e) for e in roots]
    if any(square(a) and square(b) for a, b in span[1:]):
        return False
    (p1, p2), (q1, q2) = delta(P[0]), delta(Q[0])
    return all(not any(square(a * t1) and square(b * t2) for t1, t2 in span)
               for a, b in ((p1, p2), (q1, q2), (p1 * q1, p2 * q2)))


def brute_force_conic_point(fibre, box: int = 200):
    """Search fibre points (t, w) with |num(t)|, den(t) <= box, w derived.

    Integer arithmetic only; independent of the conic machinery.
    """
    if fibre.kind == "twist":
        g = fibre.surface.g
        g2, g1, g0 = int_pair(g[2]), int_pair(g[1]), int_pair(g[0])
        cn, cd = fibre.value.numerator, fibre.value.denominator
        # common denominator D for the g coefficients
        D = g2[1] * g1[1] * g0[1]
        G2, G1, G0 = (g2[0] * D // g2[1], g1[0] * D // g1[1], g0[0] * D // g0[1])
        for n, d in _box_pairs(box):
            Gval = G2 * n * n + G1 * n * d + G0 * d * d
            if Gval == 0:
                continue
            # w^2 = c / g(t) = (cn * d^2 * D) / (cd * Gval)
            if frac_is_square(cn * d * d * D, cd * Gval):
                return Fraction(n, d)
        return None
    q = fibre.q
    qs = [int_pair(q[i]) for i in range(3)]
    D = qs[0][1] * qs[1][1] * qs[2][1]
    Q0, Q1, Q2 = (qs[0][0] * D // qs[0][1], qs[1][0] * D // qs[1][1], qs[2][0] * D // qs[2][1])
    for n, d in _box_pairs(box):
        val = Q2 * n * n + Q1 * n * d + Q0 * d * d
        # w^2 = q(t) = val / (d^2 * D)
        if val != 0 and frac_is_square(val, d * d * D):
            return Fraction(n, d)
    return None


def int_pair(fr: Fraction) -> tuple[int, int]:
    return fr.numerator, fr.denominator


def _box_pairs(box: int):
    for d in range(1, box + 1):
        for n in range(-box, box + 1):
            if gcd(abs(n), d) == 1:
                yield n, d


def legendre_normalize(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Replace a diagonal form by a solvability-equivalent one with
    squarefree pairwise-coprime coefficients."""
    from sympy import factorint

    def squarefree(n):
        s = 1
        for p, e in factorint(abs(n)).items():
            if e % 2:
                s *= int(p)
        return s if n > 0 else -s

    a, b, c = squarefree(a), squarefree(b), squarefree(c)
    changed = True
    while changed:
        changed = False
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            v = [a, b, c]
            g = gcd(abs(v[i]), abs(v[j]))
            if g > 1:
                # divide the form by g and rescale the third variable
                v[i] //= g
                v[j] //= g
                v[k] = squarefree(v[k] * g)
                a, b, c = v
                changed = True
    return a, b, c


def certify_unsolvable(a: int, b: int, c: int, p: int) -> bool:
    """Exhaustively certify that a x^2 + b y^2 + c z^2 = 0 has no nontrivial
    rational zero, given the obstructing place p (0 = real place).

    The form is first normalised to squarefree pairwise-coprime shape. At
    an odd prime exactly one coefficient is divisible by p and a primitive
    solution forces a nontrivial zero of the two unit terms mod p, which is
    excluded by a p^2 sweep (the remaining case is impossible by counting
    valuations). At p = 2 a full primitive sweep mod 32 decides; at the real
    place the signs agree.
    """
    a, b, c = legendre_normalize(a, b, c)
    if p == 0:
        return a > 0 and b > 0 and c > 0 or a < 0 and b < 0 and c < 0
    if p == 2:
        mod = 32
        for x in range(mod):
            for y in range(mod):
                for z in range(mod):
                    if x % 2 == y % 2 == z % 2 == 0:
                        continue
                    if (a * x * x + b * y * y + c * z * z) % mod == 0:
                        return False
        return True
    divisible = [v % p == 0 for v in (a, b, c)]
    if sum(divisible) != 1:
        return False  # p cannot obstruct a unit form at an odd prime
    units = [v for v, dv in zip((a, b, c), divisible) if not dv]
    u1, u2 = units
    for x in range(p):
        for y in range(p):
            if (x, y) != (0, 0) and (u1 * x * x + u2 * y * y) % p == 0:
                return False
    return True


# ---------------------------------------------------------------------------
# elliptic curves y^2 = x^3 + A x + B by plain Fraction arithmetic; a point
# is a pair (x, y) and the identity is None. These are the exhaustive
# decisions the library's torsion and relation searches must agree with.


def point(x, y):
    """The Fraction pair (x, y), as a record holds a point."""
    return Fraction(x), Fraction(y)


def ratios(P):
    """The pair P = (a/b, c/e) as is_on and _jac take a point: ((a, b), (c, e))."""
    return P[0].as_integer_ratio(), P[1].as_integer_ratio()


def triple(E, P):
    """The triple of the Fraction pair P on E's scaled model, checked on E
    by EllipticCurveQ._jac; None for O."""
    return None if P is None else E._jac(ratios(P))


def pair(E, J):
    """The Fraction pair of the triple J, read by EllipticCurveQ._point; None for O."""
    return None if J is None else E._point(J)


def scalar_mul(E, n: int, P):
    """n P on the EllipticCurveQ E as a Fraction pair (None for O), by
    curves._jac_mul on the checked triple of P: the library's integer law,
    which the tests drive."""
    from rankjump.curves import _jac_mul

    return pair(E, _jac_mul(E._scaled_model[0], n, triple(E, P)))


# The curves API on Fraction pairs, as the library once exposed it: each
# enters its points through triple and runs the library's own code on the
# triples, with that API's entry checks.


def pair_add(E, P, Q):
    """P + Q of Fraction pairs, None for O, by EllipticCurveQ.add."""
    return pair(E, E.add(triple(E, P), triple(E, Q)))


def pair_torsion_order(E, P):
    """Order of the Fraction pair P (None for O) if torsion, else None, by
    EllipticCurveQ.torsion_order."""
    return E.torsion_order(triple(E, P))


def pair_height(E, P):
    """Neron-Tate height of the Fraction pair P with error bound: O is
    refused, a torsion point has height 0.0 exactly, and any other is
    curves.canonical_height of its triple in a fresh table."""
    from rankjump.curves import HeightData, canonical_height

    J = triple(E, P)
    if J is None:
        raise ValueError("height of the identity is undefined; use a point")
    order = E.torsion_order(J)
    if order is not None:
        return HeightData(0.0, 0.0, "torsion", {"order": order})
    return canonical_height(E, J, {})


def pair_pairing(E, P, Q) -> tuple[float, float]:
    """<P, Q> of Fraction pairs with propagated error by
    curves.neron_tate_pairing, hhat(O) = 0 exactly; P + Q by pair_add."""
    from rankjump.curves import HeightData, neron_tate_pairing

    S = pair_add(E, P, Q)
    hS = HeightData(0.0, 0.0, "identity") if S is None else pair_height(E, S)
    return neron_tate_pairing(hS, pair_height(E, P), pair_height(E, Q))


def pair_regulator(E, points):
    """curves.regulator of a list of Fraction pairs in a fresh table; only
    pairs are accepted, and the points are checked on E and for torsion."""
    from rankjump.curves import regulator

    if len(points) != 2:
        raise ValueError("regulator verdicts are implemented for pairs of points")
    Js = [triple(E, P) for P in points]
    if any(J is None or E.torsion_order(J) is not None for J in Js):
        raise ValueError("regulator requires non-torsion points")
    return regulator(E, *Js, {})


def moved_point(spec, x, y):
    """The Fraction pair of the curve point Specialization.moved(x, y)."""
    (X, D), (Y, E) = spec.moved(x, y)
    return Fraction(X, D), Fraction(Y, E)


def ec_on_curve(A, B, P) -> bool:
    """y^2 = x^3 + A x + B in Fractions; the identity is on every curve."""
    return P is None or P[1] * P[1] == P[0] ** 3 + A * P[0] + B


def ec_add(A, P, Q):
    """P + Q by the chord-and-tangent formulas (B does not enter them)."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 == -y2:
            return None
        lam = (3 * x1 * x1 + A) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return x3, lam * (x1 - x3) - y1


def ec_mul(A, n, P):
    """n P by |n| repeated additions."""
    if n < 0 and P is not None:
        n, P = -n, (P[0], -P[1])
    R = None
    for _ in range(abs(n)):
        R = ec_add(A, R, P)
    return R


def torsion_order_by_multiples(A, P, bound: int = 12):
    """The least n <= bound with n P = O, trying every multiple, else None."""
    Q, n = P, 1
    while Q is not None:
        if n == bound:
            return None
        Q, n = ec_add(A, Q, P), n + 1
    return n


def integral_model_by_denominators(A, B):
    """(Ai, Bi, lam) with x -> lam^2 x, y -> lam^3 y, in two stages: lam
    takes each prime p of the denominators to the least power clearing
    them, then each prime of gcd(Ai, Bi) is divided out while p^4 | Ai and
    p^6 | Bi. Both stages factor."""
    from sympy import factorint

    A, B = Fraction(A), Fraction(B)
    dA, dB, lam = factorint(A.denominator), factorint(B.denominator), 1
    for p in {**dA, **dB}:
        lam *= p ** max(-(-dA.get(p, 0) // 4), -(-dB.get(p, 0) // 6))
    Ai, Bi, u = int(A * lam**4), int(B * lam**6), 1
    for p in factorint(gcd(Ai, Bi)):
        while Ai % p**4 == 0 and Bi % p**6 == 0:
            Ai, Bi, u = Ai // p**4, Bi // p**6, u * p
    return Ai, Bi, Fraction(lam, u)


def formal_multiple_by_first_hits(A, P, cap: int = 1024):
    """(m, m P) with m = lcm(k_2, k_3), where k_p P is the first multiple
    of the non-torsion P with v_p(x) < 0: the first hits are found by one
    loop, and m P again from P."""
    first, Q, k = {}, P, 1
    while len(first) < 2 and k <= cap:
        for p in (2, 3):
            if p not in first and Q[0].denominator % p == 0:
                first[p] = k
        Q, k = ec_add(A, Q, P), k + 1
    m = first[2] * first[3] // gcd(first[2], first[3])
    return m, ec_mul(A, m, P)


def relation_by_enumeration(A, P, Q, bound: int = 20):
    """The first (a, b, order) with a P + b Q torsion, |a|, |b| <= bound,
    trying every pair by |a| + |b|, then |a|, then the signs."""
    pairs = sorted(
        ((a, b) for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)
         if (a, b) != (0, 0)),
        key=lambda ab: (abs(ab[0]) + abs(ab[1]), abs(ab[0]), ab[0] < 0, ab[1] < 0),
    )
    multiples = {}
    for a, b in pairs:
        for base, n in ((P, a), (Q, b)):
            if (base, n) not in multiples:
                multiples[base, n] = ec_mul(A, n, base)
        order = torsion_order_by_multiples(A, ec_add(A, multiples[P, a], multiples[Q, b]))
        if order is not None:
            return a, b, order
    return None


def tate_normal_form(order: int, t: Fraction):
    """(A, B, P): a short model of Kubert's curve with a point P of the given
    order 4..10 or 12, at parameter t. Raises ZeroDivisionError where the
    parametrisation has a pole.

    Kubert's curve is y^2 + (1 - c) x y - b y = x^3 - b x^2 with P = (0, 0);
    the short model is y^2 = x^3 - 27 c4 x - 54 c6, with x -> 36 x + 3 b2
    and y -> 108 (2 y + a1 x + a3).
    """
    if order == 4:
        b, c = t, Fraction(0)
    elif order == 5:
        b, c = t, t
    elif order == 6:
        b, c = t + t * t, t
    elif order == 7:
        b, c = t**3 - t**2, t**2 - t
    elif order == 8:
        b = (2 * t - 1) * (t - 1)
        c = b / t
    else:
        if order == 9:
            f, d = t, t * t - t + 1
        elif order == 10:
            f, d = t, t * t / (t - (t - 1) ** 2)
        else:  # 12
            m = (3 * t - 3 * t * t - 1) / (t - 1)
            f, d = m / (1 - t), m + t
        c = f * d - f
        b = c * d
    a1, a2, a3 = 1 - c, -b, -b
    b2, b4, b6 = a1 * a1 + 4 * a2, a1 * a3, a3 * a3
    c4, c6 = b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6
    return -27 * c4, -54 * c6, (3 * b2, 108 * a3)


# ---------------------------------------------------------------------------
# slow exact paths kept as oracles for the library's fast ones


def parametrize_heights_fraction(fibre, height_bound: int):
    """(parameter height, t, w) of conics.parametrize_heights in Fraction
    arithmetic: each point cut by the line (m0 : m1) through the base point
    is reduced to a primitive integer vector, skipped if it was seen before,
    mapped to the affine chart and checked against the fibre relation."""
    from rankjump.conics import _parameter_pairs, _primitive, conic_solvable

    if not conic_solvable(fibre):
        raise ValueError(f"fibre over x0 = {fibre.x0} has no rational point")
    base = fibre.base_point()
    anchor = next(i for i in range(3) if base[i] != 0)
    axes = [i for i in range(3) if i != anchor]
    M = fibre.matrix
    seen = set()
    for m0, m1 in _parameter_pairs(1, height_bound):
        v = [0, 0, 0]
        v[axes[0]], v[axes[1]] = m0, m1
        vv = _bilinear(M, v, v)
        bv = _bilinear(M, base, v)
        pt = tuple(vv * base[r] - 2 * bv * v[r] for r in range(3))
        if not any(pt):
            continue
        pt = _primitive(pt)
        if pt in seen:
            continue
        seen.add(pt)
        a, b, c = (Fraction(x) for x in pt)
        if c == 0 or fibre.kind == "twist" and b == 0:
            continue
        t, w = (a / b, b / c) if fibre.kind == "twist" else (a / c, b / c)
        assert relation_holds(fibre, t, w)
        yield max(abs(m0), abs(m1)), t, w


def _bilinear(M, u, v) -> Fraction:
    return sum(u[i] * M[i][j] * v[j] for i in range(3) for j in range(3))


def on_conic(fibre, pt) -> bool:
    """pt is a zero of the fibre's quadratic form, in Fraction arithmetic."""
    return _bilinear(fibre.matrix, pt, pt) == 0


def relation_holds(fibre, t, w) -> bool:
    """Exact check that (t, w) satisfies the defining fibre relation."""
    t, w = Fraction(t), Fraction(w)
    if fibre.kind == "twist":
        return fibre.surface.g(t) * w * w == fibre.value
    return w * w == fibre.q(t)


def fibre_quadratic_ratpoly(surface, x0):
    """fibre_quadratic by RatPoly arithmetic on Fractions:
    a3 x0^3 + a2 x0^2 + a1 x0 + a0."""
    x0 = Fraction(x0)
    return surface.a3 * x0**3 + surface.a2 * x0**2 + surface.a1 * x0 + surface.a0


def fibre_quadratic(surface, x0):
    """The polynomial q(t) with w^2 = q(t) cutting out the curve x = x0 of a
    km surface, as KMFamily.fibre_quadratic built it before the fibre read
    it in integers (KMFamily.fibre_ints): its coefficient of t^i is column
    i, the coefficient of t^i in a3 x^3 + a2 x^2 + a1 x + a0 as a cubic in
    x, at x0, each column evaluated in integers by RatPoly.__call__."""
    from rankjump.polynomial import RatPoly

    columns = [RatPoly([a[i] for a in (surface.a0, surface.a1, surface.a2, surface.a3)])
               for i in range(3)]
    return RatPoly([column(Fraction(x0)) for column in columns])


def kernel_of(h) -> tuple[int, int, int]:
    """The kernel triple of conics.QuadExtClass for a nonzero RatPoly h of
    degree <= 2: its coefficients scaled to coprime integers, constant term
    first, with a positive leading coefficient."""
    cs = [h[i] for i in range(3)]
    den = lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    g = gcd(*ints) * (1 if h.leading() > 0 else -1)
    return tuple(c // g for c in ints)


def kernel_poly(h: tuple[int, int, int]):
    """The monic RatPoly of a kernel triple (kernel_of's inverse)."""
    from rankjump.polynomial import RatPoly

    return RatPoly(h).monic()


def conic_fibre_fraction(surface, x0):
    """conic_fibre as built before it read x0 = n/d in integers: f(x0), or
    q = fibre_quadratic, as Fractions, square classes taken of Fraction
    values, and the kernel the monic RatPoly g or q. ext_class is the pair
    (s, monic kernel); matrix, solvability, base point and pencil run the
    library's code on these Fraction inputs."""
    from rankjump.arith import SquareClass, square_class
    from rankjump.conics import ConicFibre, DegenerateFibreError
    from rankjump.polynomial import poly_discriminant
    from rankjump.surfaces import TwistFamily

    fib = object.__new__(ConicFibre)
    fib.surface, fib.x0, fib._base_point = surface, x0, None
    if isinstance(surface, TwistFamily):
        fib.kind, g = "twist", surface.g
        value = surface.f(Fraction(x0))
        if value == 0:
            raise DegenerateFibreError(f"f({x0}) = 0: fibre splits")
        fib.value, fib.q = value, None
        value_class, lead_class = square_class(value), square_class(g.leading())
        fib.ext_class = (value_class.times(lead_class).s, g.monic())
        fib._classes = None if g.degree < 2 else (
            lead_class, lead_class.times(square_class(-poly_discriminant(g))), -value_class)
        return fib
    fib.kind = "km"
    q = fibre_quadratic(surface, x0)
    if q.is_zero():
        raise DegenerateFibreError(f"fibre polynomial vanishes at x0 = {x0}")
    fib.value, fib.q = None, q
    disc = poly_discriminant(q) if q.degree == 2 else None
    if q.degree == 0 or disc == 0:
        raise DegenerateFibreError(
            f"fibre over x0 = {x0} is a square times a constant: cover splits")
    lead_class = square_class(q.leading())
    fib.ext_class = (lead_class.s, q.monic())
    fib._classes = None if disc is None else (
        -lead_class, SquareClass(1, ()), lead_class.times(square_class(disc)))
    return fib


#: Verdicts of fibre_product_genus.
REDUCIBLE = "reducible"
GENUS_0 = "genus 0"
GENUS_1 = "genus 1"


def geometric_count(locus) -> int:
    """The number of geometric points of a branch locus (conics.branch_locus)."""
    return sum(p.degree for p in locus)


def fibre_product_genus(b1, b2) -> str:
    """Geometry of the fibre product of two genus-0 double covers of P^1,
    from their branch loci: two shared branch points give a reducible
    product, one a geometrically integral curve of genus 0, none genus 1
    (Riemann-Hurwitz)."""
    for b in (b1, b2):
        if geometric_count(b) != 2:
            raise ValueError("branch locus of a genus-0 double cover has 2 points")
    common = sum(p.degree for p in b1 & b2)
    return {2: REDUCIBLE, 1: GENUS_0, 0: GENUS_1}[common]


def same_extension(c1, c2) -> bool:
    """Whether two conic fibres define the same quadratic extension of Q(t)."""
    return c1.ext_class == c2.ext_class


def census_rescan(surface, bound: int) -> tuple[list[tuple[int, int]], int]:
    """jumps.field_census afresh: every x0 = n/d in lowest terms with |n|,
    d <= bound, in no height order, built by conic_fibre and decided by
    conic_solvable; returns (distinct classes, solvable fibres) of height
    <= h for h = 1..bound, and the number of degenerate x0."""
    from rankjump.conics import DegenerateFibreError, conic_fibre, conic_solvable

    solvable, degenerate = [], 0  # (height, extension class) per solvable fibre
    for d in range(1, bound + 1):
        for n in range(-bound, bound + 1):
            if gcd(n, d) != 1:
                continue
            try:
                fib = conic_fibre(surface, Fraction(n, d))
            except DegenerateFibreError:
                degenerate += 1
                continue
            if conic_solvable(fib):
                solvable.append((max(abs(n), d), fib.ext_class))
    rows = [(len({c for k, c in solvable if k <= h}), sum(k <= h for k, _ in solvable))
            for h in range(1, bound + 1)]
    return rows, degenerate


def distinct_up_to(surface, bound: int) -> int:
    """Distinct extension classes among the solvable fibres of height <=
    bound, by census_rescan."""
    return census_rescan(surface, bound)[0][-1][0]


def jump1_lookahead(surface, budget, avoid=None, log=None):
    """jumps.jump1 with one [fibre, point source, lookahead] slot per fibre:
    each fibre's parametrize_heights runs once to the parameter bound, and
    at each stage the slot is read until its next point lies beyond it."""
    from rankjump.conics import parametrize_heights, rationals_of_height
    from rankjump.jumps import _certify, _fibres

    log = log if log is not None else Counter()
    seen = set()
    active = []
    for stage in range(1, max(budget.x0_height, budget.param_height) + 1):
        x0s = rationals_of_height(stage) if stage <= budget.x0_height else ()
        for fib in _fibres(surface, x0s, log):
            active.append([fib, parametrize_heights(fib, budget.param_height), None])
        for slot in active:
            fib, gen, pending = slot
            while True:
                if pending is None:
                    pending = next(gen, None)
                if pending is None or pending[0] > stage:
                    break
                _, t0, w = pending
                pending = None
                if len(seen) >= budget.count:
                    return
                cert = _certify(surface, t0, [(fib.x0, w)], seen, avoid, log)
                if cert is not None:
                    yield cert
            slot[2] = pending


def lambda_infinity_mpmath(Ai: int, Bi: int, J, terms: int, mp):
    """curves._lambda_infinity term by term in mpmath: the triple J = (X,
    Y, Z) as the Fractions x = X/Z^2 and y = Y/Z^3, the first duplication
    in Fractions, x(2^k P) as an mpf, one log per term, then the tail term;
    returns (lambda, 4^-terms)."""
    from rankjump.curves import PrecisionError

    x, y = Fraction(J[0], J[2] ** 2), Fraction(J[1], J[2] ** 3)
    A = mp.mpf(Ai)
    B = mp.mpf(Bi)
    quarter = mp.mpf(1) / 4
    total = quarter * (
        mp.log(2) + mp.log(abs(y.numerator)) - mp.log(y.denominator)
    )
    x1 = (x**4 - 2 * Ai * x**2 - 8 * Bi * x + Ai * Ai) / (4 * y * y)
    xn = mp.mpf(x1.numerator) / mp.mpf(x1.denominator)
    weight = quarter * quarter
    for _ in range(terms - 1):
        fx = xn**3 + A * xn + B
        if fx <= 0:
            raise PrecisionError("duplication series lost the real locus")
        total += weight * mp.log(4 * fx) / 2
        xn = (xn**4 - 2 * A * xn**2 - 8 * B * xn + A * A) / (4 * fx)
        weight *= quarter
    tail_scale = weight * 4  # 4^{-terms}
    total += tail_scale * mp.log(max(abs(xn), mp.mpf(1))) / 2
    return total, tail_scale


def _vp_fraction(q: Fraction, p: int) -> int:
    """v_p of a nonzero rational."""
    if q == 0:
        raise ValueError("valuation of 0")
    (num, den), v = Fraction(q).as_integer_ratio(), 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def finite_corrections_fraction(Ai: int, Bi: int, disc: int, primes, x: Fraction, y: Fraction):
    """curves._finite_corrections on the Fraction coordinates (x, y):
    Silverman's closed form read from v_p(x), v_p(2y), v_p(3x^2 + A) and
    v_p(3x^4 + 6Ax^2 + 12Bx - A^2) of the rationals themselves."""
    out = []
    for p in primes:
        if p in (2, 3):
            assert _vp_fraction(x, p) < 0, "point must lie in the formal group at 2 and 3"
            continue
        b = _vp_fraction(2 * y, p)
        if b <= 0:
            continue
        slope = 3 * x * x + Ai
        if slope and _vp_fraction(slope, p) <= 0:
            continue
        N = _vp_fraction(disc, p)
        if Ai % p:
            n = min(Fraction(b), Fraction(N, 2))
            out.append((p, -n * (N - n) / (2 * N)))
            continue
        c = _vp_fraction(3 * x**4 + 6 * Ai * x * x + 12 * Bi * x - Ai * Ai, p)
        out.append((p, Fraction(-b, 3) if c >= 3 * b else Fraction(-c, 8)))
    return out


def naive_search_fraction(fibre, bound: int):
    """ConicFibre._naive_search in Fraction arithmetic: the first t of
    height <= bound at which the fibre value is a nonzero rational square."""
    from rankjump.arith import rational_sqrt
    from rankjump.conics import rationals_by_height

    for t in rationals_by_height(bound):
        if fibre.kind == "twist":
            gt = fibre.surface.g(t)
            w = rational_sqrt(fibre.value / gt) if gt else None
        else:
            w = rational_sqrt(fibre.q(t))
        if w:
            return (t * w, w, 1) if fibre.kind == "twist" else (t, w, 1)
    return None


def canonical_height_doubling(E, P, doublings: int = 3):
    """Independent evaluation hhat(2^k P) / 4^k of the doubling limit."""
    from rankjump.curves import HeightData

    Q = P
    for _ in range(doublings):
        Q = pair_add(E, Q, Q)
    if Q is None:
        return HeightData(0.0, 0.0, "doubling-limit", {"doublings": doublings})
    inner = pair_height(E, Q)
    scale = 4**doublings
    return HeightData(
        inner.value / scale,
        inner.error / scale + 1e-18,
        "doubling-limit",
        {"doublings": doublings, **inner.detail},
    )


# ---------------------------------------------------------------------------
# local solvability in Fraction arithmetic: Hilbert symbols from p-adic
# valuations and units of rationals, on a diagonal found by general 3x3
# elimination. The library decides it on squarefree integers instead.


def _val_unit(q: Fraction, p: int) -> tuple[int, Fraction]:
    # q = p^v * u with u a p-adic unit
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _unit_mod(u: Fraction, m: int) -> int:
    # value of a p-adic unit modulo m (m a power of the same p)
    return (u.numerator * pow(u.denominator, -1, m)) % m


def hilbert_fraction(a, b, p: int) -> int:
    """Hilbert symbol (a, b)_p at a finite prime p, for nonzero rationals."""
    a, b = Fraction(a), Fraction(b)
    al, u = _val_unit(a, p)
    be, v = _val_unit(b, p)
    if p == 2:
        eps_u = (_unit_mod(u, 8) - 1) // 2 % 2
        eps_v = (_unit_mod(v, 8) - 1) // 2 % 2
        om_u = (_unit_mod(u, 8) ** 2 - 1) // 8 % 2
        om_v = (_unit_mod(v, 8) ** 2 - 1) // 8 % 2
        e = eps_u * eps_v + al * om_v + be * om_u
        return -1 if e % 2 else 1
    s = (p - 1) // 2
    res = (-1) ** (al * be * s % 2)
    lu = pow(_unit_mod(u, p), s, p)
    lv = pow(_unit_mod(v, p), s, p)
    if be % 2:
        res *= 1 if lu == 1 else -1
    if al % 2:
        res *= 1 if lv == 1 else -1
    return res


def ternary_isotropic_at_fraction(a, b, c, p: int) -> bool:
    """Whether a x^2 + b y^2 + c z^2 = 0 has a nontrivial zero over Q_p, by
    the Hasse invariant."""
    d = Fraction(a) * Fraction(b) * Fraction(c)
    lhs = hilbert_fraction(-1, -d, p)
    rhs = hilbert_fraction(a, b, p) * hilbert_fraction(b, c, p) * hilbert_fraction(a, c, p)
    return lhs == rhs


def ternary_obstruction_fraction(a, b, c):
    """0 for the real place, else the smallest obstructing prime among 2 and
    the primes of every numerator and denominator, or None."""
    from sympy import primefactors

    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a > 0 and b > 0 and c > 0 or a < 0 and b < 0 and c < 0:
        return 0
    bad = {2}
    for q in (a, b, c):
        bad.update(int(p) for p in primefactors(q.numerator * q.denominator))
    for p in sorted(bad):
        if not ternary_isotropic_at_fraction(a, b, c, p):
            return p
    return None


def _diagonalize(M):
    """Basis S (list of three column vectors) with the form diagonal on S."""
    M = [[Fraction(x) for x in row] for row in M]
    S = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]  # columns

    def col(j):
        return [S[r][j] for r in range(3)]

    def add_col(dst, src, lam):
        for r in range(3):
            S[r][dst] += lam * S[r][src]
        for r in range(3):
            M[r][dst] += lam * M[r][src]
        for c in range(3):
            M[dst][c] += lam * M[src][c]

    def swap_col(i, j):
        for r in range(3):
            S[r][i], S[r][j] = S[r][j], S[r][i]
        M[i], M[j] = M[j], M[i]
        for r in range(3):
            M[r][i], M[r][j] = M[r][j], M[r][i]

    for i in range(3):
        if M[i][i] == 0:
            for j in range(i + 1, 3):
                if M[j][j] != 0:
                    swap_col(i, j)
                    break
            else:
                for j in range(i + 1, 3):
                    if M[i][j] != 0:
                        add_col(i, j, Fraction(1))
                        break
        if M[i][i] == 0:
            continue
        for j in range(i + 1, 3):
            if M[i][j] != 0:
                add_col(j, i, -M[i][j] / M[i][i])
    return [M[i][i] for i in range(3)], [col(j) for j in range(3)]


def local_obstruction_fraction(fibre):
    """The fibre's first obstructing place from the general diagonalisation
    of its matrix, in Fraction arithmetic."""
    diag, _ = _diagonalize(fibre.matrix)
    assert all(d != 0 for d in diag)
    return ternary_obstruction_fraction(*diag)


def ext_class_by_yun(fibre):
    """The fibre's extension class from Yun's squarefree kernel of g or q
    and sympy's factorisation of the scalar."""
    from sympy import factorint

    from rankjump.conics import QuadExtClass

    scalar, poly = (fibre.value, fibre.surface.g) if fibre.kind == "twist" else (1, fibre.q)
    lead, h = squarefree_kernel(poly)
    q = Fraction(scalar) * lead
    s = -1 if q < 0 else 1
    for p, e in factorint(abs(q.numerator * q.denominator)).items():
        if e % 2:
            s *= int(p)
    return QuadExtClass(s, kernel_of(h))


def squarefree_kernel(p):
    """Write p = lead * h * v^2 with h monic squarefree; returns (lead, h).

    h is the product of the irreducible factors of p of odd multiplicity,
    from Yun's decomposition."""
    from rankjump.polynomial import RatPoly, yun_squarefree

    lc, blocks = yun_squarefree(p)
    h = RatPoly([1])
    for q, i in blocks:
        if i % 2:
            h = h * q
    return lc, h


# ---------------------------------------------------------------------------
# the polynomial long division and the classification at infinity that the
# library once ran, kept to hold its general code to them


def divmod_stripping(a, b):
    """divmod(a, b) by the nested strip-and-break loops: strip the zero top
    coefficients of the remainder, stop below deg b, else clear the top one."""
    from rankjump.polynomial import RatPoly

    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    rem = list(a.coeffs)
    d, lc = b.degree, b.leading()
    while len(rem) - 1 >= d and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < d:
            break
        k = len(rem) - 1 - d
        c = rem[-1] / lc
        q[k] = c
        for i, coef in enumerate(b.coeffs):
            rem[k + i] -= c * coef
    return RatPoly(q), RatPoly(rem)


def _reversed_to(p, n: int):
    """s^n p(1/s), for n >= deg p."""
    from rankjump.polynomial import RatPoly

    assert p.degree <= n
    out = [Fraction(0)] * (n + 1)
    for i, c in enumerate(p.coeffs):
        out[n - i] = c
    return RatPoly(out)


def classify_fibres_reversed(w):
    """classify_fibres with the place at infinity read as the place s = 0 of
    the model s^4 A(1/s), s^6 B(1/s), discriminant s^12 D(1/s), in a block
    of its own after the finite places."""
    from rankjump.kodaira import kodaira_type
    from rankjump.polynomial import PLACE_AT_INFINITY, Place, RatPoly, factor_rational, valuation
    from rankjump.surfaces import FibreData

    fibres = []
    for h, vd in factor_rational(w.delta)[1]:
        pl = Place(h)
        ktype, k = kodaira_type(valuation(w.A, pl), valuation(w.B, pl), vd)
        if vd - 12 * k > 0:
            fibres.append(FibreData(pl, ktype))
    s_zero = Place(RatPoly([0, 1]))
    va, vb, vd = (valuation(_reversed_to(p, n), s_zero)
                  for p, n in ((w.A, 4), (w.B, 6), (w.delta, 12)))
    ktype, k = kodaira_type(va, vb, vd)
    if vd - 12 * k > 0:
        fibres.append(FibreData(PLACE_AT_INFINITY, ktype))
    return tuple(fibres)


# ---------------------------------------------------------------------------
# the Fraction path from specialisation to the record, as the library once
# ran it, kept to hold the integer path to it


def specialize_fraction(surface, t0):
    """((A, B), (u, v, w)) of the fibre over t0, every value a Fraction by
    Horner on Fractions; SingularSpecializationError with the library's
    message where u(t0) = 0, then where 4 A^3 + 27 B^2 = 0."""
    from rankjump.curves import SingularSpecializationError

    t0 = Fraction(t0)
    chart = tuple(ratpoly_eval_fraction(c, t0) for c in surface.chart)
    if chart[0] == 0:
        raise SingularSpecializationError(f"u({t0}) = 0: transport chart degenerates")
    model = surface.weierstrass
    A, B = ratpoly_eval_fraction(model.A, t0), ratpoly_eval_fraction(model.B, t0)
    if 4 * A**3 + 27 * B**2 == 0:
        raise SingularSpecializationError("curve is singular")
    return (A, B), chart


def transport_fraction(chart, x, y) -> tuple[Fraction, Fraction]:
    """(u x + v, w y) in Fractions."""
    u, v, w = chart
    return u * Fraction(x) + v, w * Fraction(y)


def pullback_fraction(chart, X, Y) -> tuple[Fraction, Fraction]:
    """The fibre point ((X - v) / u, Y / w) of the curve point (X, Y)."""
    u, v, w = chart
    return (Fraction(X) - v) / u, Fraction(Y) / w


def admits_fraction(covers, t0) -> bool:
    """No h(t0) is a square in Q, 0 included, by Horner on Fractions."""
    values = (ratpoly_eval_fraction(h, Fraction(t0)) for h in covers)
    return not any(v == 0 or frac_is_square(v.numerator, v.denominator) for v in values)


def read_lines_canonical(path, configs: dict):
    """store._read_lines keying every line's surface by its canonical JSON;
    the line and its surface are read by the store's own _typed and _field."""
    import json

    from rankjump.config import surface_config_from_dict
    from rankjump.store import _field, _typed

    with open(path, "rb") as lines:
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                data = _typed(json.loads(line.decode("utf-8")), (dict,), "record")
                surface = _field(data, "surface", (dict,))
                key = json.dumps(surface, sort_keys=True)
                cfg = configs[key] = configs.get(key) or surface_config_from_dict(surface)
            except Exception as exc:
                yield lineno, exc, None
            else:
                yield lineno, data, cfg
