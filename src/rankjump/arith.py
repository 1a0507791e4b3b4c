"""Exact integer and rational arithmetic helpers.

Everything in this module is computed with integer arithmetic only:
perfect-square tests, square classes, modular square roots, Hilbert
symbols of integers, local solvability of diagonal ternary forms given by
square classes, and a zero of a solvable one by Lagrange's descent.
Factoring happens in _factorint: trial division by the primes below 2^10,
then sympy's factorint (imported only then, for its p - 1 and ECM stages)
on a cofactor above 2^20 that outlives them. square_class reaches it for
the integers of a fibre's classes (conics: N and D d of a twist's f(x0),
the lead and L d of a km q, each apart, and disc q), once per surface for
the fixed part and once per descent step (on a quotient at most a quarter
of the class it reduces);
prime_factors once per curve for the reduced model, and for a gcd of a
point's integers where the point meets a singular point. Config
coefficients are bounded at parse time (config.MAX_COEFFICIENT).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

#: Sentinel used for the real place when reporting local obstructions.
REAL_PLACE = 0


class DomainError(ValueError):
    """Raised when an operation is applied outside its domain."""


#: the primes below 2^10, for trial division
_SMALL_PRIMES = tuple(p for p in range(2, 1 << 10) if all(p % d for d in range(2, isqrt(p) + 1)))


def _factorint(n: int) -> dict:
    """{prime: exponent} of an integer n >= 1."""
    factors = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
    if n >= 1 << 20:  # no prime factor below 2^10, but n may be composite
        # deferred, so that light CLI paths start fast; only ints leave here
        from sympy import factorint
        factors.update((int(p), int(e)) for p, e in factorint(n).items())
    elif n > 1:  # no prime factor up to its square root
        factors[n] = 1
    return factors


class SquareClass(NamedTuple):
    """A nonzero rational modulo squares: the squarefree integer s of its
    class (with its sign) and the primes dividing s, increasing."""

    s: int
    primes: tuple[int, ...]

    def __neg__(self) -> "SquareClass":
        return SquareClass(-self.s, self.primes)

    def times(self, other: "SquareClass") -> "SquareClass":
        """The class of the product; primes in both cancel, so nothing is
        factored again."""
        g = gcd(self.s, other.s)
        primes = sorted(set(self.primes).symmetric_difference(other.primes))
        return SquareClass(self.s * other.s // (g * g), tuple(primes))


def square_class(q, d: int = 1) -> SquareClass:
    """The square class of a nonzero rational q, or of q/d for an integer
    d != 0: its numerator and denominator, over their gcd, are factored
    apart, once each, and a square one not at all."""
    if q == 0:
        raise DomainError("square class of 0")
    n, m = q.numerator, q.denominator * d
    g = gcd(n, m)
    s, primes = -1 if (n < 0) != (m < 0) else 1, []
    for k in (abs(n) // g, abs(m) // g):
        if k > 1 and isqrt(k) ** 2 != k:
            for p, e in _factorint(k).items():
                if e % 2:
                    s *= p
                    primes.append(p)
    return SquareClass(s, tuple(sorted(primes)))


def primitive_triple(c0: int, c1: int, c2: int) -> tuple[int, int, int]:
    """c0 + c1 t + c2 t^2, integers not all 0, divided by their gcd and
    signed to a positive leading coefficient: one triple per polynomial up
    to a rational factor."""
    g = gcd(c0, c1, c2)
    if (c2 or c1 or c0) < 0:
        g = -g
    return c0 // g, c1 // g, c2 // g


def rational_sqrt(q) -> Fraction | None:
    """The non-negative exact square root of q in Q, or None; a negative q
    has a negative numerator, which no square equals."""
    n, d = q.as_integer_ratio()
    rn = isqrt(max(n, 0))
    if rn * rn != n:
        return None
    rd = isqrt(d)
    return Fraction(rn, rd) if rd * rd == d else None


def is_square(q) -> bool:
    """True iff q is a square in Q (0 counts as a square)."""
    return rational_sqrt(q) is not None


def prime_factors(n: int) -> list[int]:
    """Sorted prime divisors of |n| (n nonzero)."""
    if n == 0:
        raise DomainError("prime_factors of 0")
    return sorted(_factorint(abs(n)))


def divisors(n: int) -> list[int]:
    """The positive divisors of an integer n >= 1, from one factorisation."""
    out = [1]
    for p, e in _factorint(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return out


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo the prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # the least i with t^(2^i) = 1; then b = c^(2^(s - i - 1))
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def val_unit(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v * u and p not dividing u, for a nonzero integer n."""
    if n == 0:
        raise DomainError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p at a finite prime p, for nonzero integers.

    With a = p^al u and b = p^be v, u and v units (Serre, A Course in
    Arithmetic, III.1.2, Thm 1): at an odd p it is the Legendre symbol of
    the unit (-1)^(al be) u^be v^al, read by Euler's criterion.
    """
    al, u = val_unit(a, p)
    be, v = val_unit(b, p)
    if p == 2:
        u, v = u % 8, v % 8
        e = (u - 1) * (v - 1) // 4 + al * (v * v - 1) // 8 + be * (u * u - 1) // 8
        return -1 if e % 2 else 1
    w = (-1 if al * be % 2 else 1) * (u if be % 2 else 1) * (v if al % 2 else 1)
    return 1 if pow(w, p // 2, p) == 1 else -1


def ternary_obstruction(a: SquareClass, b: SquareClass, c: SquareClass):
    """First local obstruction to a*x^2 + b*y^2 + c*z^2 = 0, or None, for the
    square classes a, b, c of nonzero rationals. Returns REAL_PLACE (= 0)
    for the real place, an obstructing prime otherwise, or None when the
    form is isotropic over every completion (hence over Q, by
    Hasse-Minkowski). Only 2 and the primes of the three classes can
    obstruct: at any other prime all three are units, and a unit ternary
    form is isotropic there.

    The form is isotropic over Q_p iff z^2 = (-a/c) x^2 + (-b/c) y^2 is, that
    is iff (-ac, -bc)_p = 1 (Serre, A Course in Arithmetic, III.1.1): one
    symbol per place. Once the real place passes, Hilbert reciprocity (ibid.
    III.2.1, Thm 3) makes the number of obstructing primes even, so the
    largest is never tested; the first obstruction reported does not change.
    """
    if a.s > 0 and b.s > 0 and c.s > 0 or a.s < 0 and b.s < 0 and c.s < 0:
        return REAL_PLACE
    *places, _ = sorted({2, *a.primes, *b.primes, *c.primes})
    for p in places:
        if hilbert(-a.s * c.s, -b.s * c.s, p) != 1:
            return p
    return None


def lagrange_descent(a: SquareClass, b: SquareClass):
    """A nonzero integer zero (x, y, z) of x^2 = a y^2 + b z^2, or None if it
    has none, by Lagrange's descent (Cremona-Rusin, "Efficient solution of
    rational conics", Math. Comp. 72 (2003), section 2). With |a| <= |b|,
    t^2 = a (mod |b|) by CRT over b's primes, |t| <= |b|/2, gives
    t^2 - a = b k^2 c with c squarefree, |c| <= |b|/4 + 1; b c is a norm from
    Q(sqrt a) up to squares, so a zero (X, Y, Z) for (a, c) lifts to
    (t X + a Y, X + t Y, c k Z). A missing root, or (-1, -1), means no zero.
    """
    if a.s == 1 or b.s == 1:
        return (1, 1, 0) if a.s == 1 else (1, 0, 1)
    if abs(a.s) > abs(b.s):
        sol = lagrange_descent(b, a)
        return None if sol is None else (sol[0], sol[2], sol[1])
    n, t = abs(b.s), 0
    if n == 1:
        return None  # x^2 = -y^2 - z^2
    for p in b.primes:
        r, m = sqrt_mod_prime(a.s, p), n // p
        if r is None:
            return None
        t += r * m * pow(m, -1, p)
    t = (t + n // 2) % n - n // 2
    quotient = (t * t - a.s) // b.s
    c = square_class(quotient)
    sol = lagrange_descent(a, c)
    if sol is None:
        return None
    X, Y, Z = sol
    x, y, z = t * X + a.s * Y, X + t * Y, c.s * isqrt(quotient // c.s) * Z
    g = gcd(x, y, z)
    return x // g, y // g, z // g
