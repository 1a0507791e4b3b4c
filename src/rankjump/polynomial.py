"""Dense univariate polynomials with exact rational coefficients.

A RatPoly stores its coefficients constant term first, with no trailing
zeros; the zero polynomial is the empty tuple. All arithmetic is exact.
Places of Q(t) are represented by monic irreducible polynomials together
with a distinguished place at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .arith import DomainError


class RatPoly:
    """Univariate polynomial over Q, coefficients constant term first."""

    # _ints: (c_k, [c_k-1, ..., c_0], D) with coefficient i = c_i / D, built
    # on the first evaluation
    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise DomainError("leading coefficient of 0")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # p[i] is 0 past the end, so the sequence protocol would never stop:
    # iter(p), list(p), RatPoly(p) and x in p raise TypeError (read p.coeffs)
    __iter__ = None

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "RatPoly":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other) -> "RatPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RatPoly":
        other = self._coerce(other)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise DomainError("negative polynomial power")
        result = RatPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple["RatPoly", "RatPoly"]:
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d, lc = other.degree, other.leading()
        q = [Fraction(0)] * max(len(rem) - d, 0)
        for k in reversed(range(len(q))):
            # clear the coefficient of t^(k + d)
            c = q[k] = rem[k + d] / lc
            if c:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] -= c * b
        return RatPoly(q), RatPoly(rem[:d])

    def __mod__(self, other) -> "RatPoly":
        return divmod(self, other)[1]

    def exact_div(self, other) -> "RatPoly":
        """Quotient self/other, requiring the division to be exact."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise DomainError("inexact polynomial division")
        return q

    @staticmethod
    def _coerce(other) -> "RatPoly":
        if isinstance(other, RatPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RatPoly([other])
        raise TypeError(f"cannot coerce {other!r} to RatPoly")

    def __call__(self, x):
        """The value at a rational x, from ratio_at, reduced once."""
        return Fraction(*self.ratio_at(*x.as_integer_ratio()))

    def ratio_at(self, n: int, d: int) -> tuple[int, int]:
        """(sum c_i n^i d^(k-i), D d^k), unreduced: the value at n/d, d > 0, by Horner."""
        if not self.coeffs:
            return 0, 1
        try:
            acc, rest, D = self._ints
        except AttributeError:
            D = lcm(*(c.denominator for c in self.coeffs))
            acc, *rest = (c.numerator * (D // c.denominator) for c in reversed(self.coeffs))
            self._ints = acc, rest, D
        dk = 1
        for c in rest:
            dk *= d
            acc = acc * n + c * dk
        return acc, D * dk

    def derivative(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "RatPoly":
        if self.is_zero():
            raise DomainError("monic form of 0")
        lc = self.leading()
        return RatPoly([c / lc for c in self.coeffs])

    def format(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}{var}" if i == 1 else f"{mag}{var}^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return self.format()


def poly_gcd(p: RatPoly, q: RatPoly) -> RatPoly:
    """Monic gcd in Q[t] (0 for a pair of zero polynomials)."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()


def poly_discriminant(p: RatPoly) -> Fraction:
    """Discriminant of a degree-2 or degree-3 polynomial.

    Nonzero exactly when the polynomial is separable.
    """
    if p.degree == 2:
        c, b, a = p[0], p[1], p[2]
        return b * b - 4 * a * c
    if p.degree == 3:
        d, c, b, a = p[0], p[1], p[2], p[3]
        return (
            18 * a * b * c * d
            - 4 * b**3 * d
            + b**2 * c**2
            - 4 * a * c**3
            - 27 * a**2 * d**2
        )
    raise DomainError(f"discriminant for degree {p.degree}")


def yun_squarefree(p: RatPoly) -> tuple[Fraction, list[tuple[RatPoly, int]]]:
    """Yun's squarefree decomposition p = lc * prod q_i^i.

    Returns (lc, [(q_i monic squarefree, i)]) with the q_i pairwise coprime,
    listed in increasing multiplicity i, trivial factors omitted.
    """
    if p.is_zero():
        raise DomainError("squarefree decomposition of 0")
    lc = p.leading()
    p = p.monic()
    out = []
    g = poly_gcd(p, p.derivative())
    w = p.exact_div(g)
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        f = w.exact_div(y)
        if f.degree > 0:
            out.append((f, i))
        w, g = y, g.exact_div(y)
        i += 1
    return lc, out


def factor_rational(p: RatPoly) -> tuple[Fraction, list[tuple[RatPoly, int]]]:
    """Factor p over Q into monic irreducibles: p = lc * prod h_i^{e_i}."""
    if p.is_zero():
        raise DomainError("factoring the zero polynomial")
    from sympy import Poly, QQ, Rational, symbols

    t = symbols("t")
    sp = Poly([Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], t, domain=QQ)
    lc_sym, factors = sp.factor_list()
    lc = Fraction(lc_sym.p, lc_sym.q)
    out = []
    for fac, mult in factors:
        coeffs = [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
        out.append((RatPoly(coeffs).monic(), mult))
        lc *= Fraction(fac.LC().p, fac.LC().q) ** mult
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return lc, out


@dataclass(frozen=True)
class Place:
    """A place of Q(t): a monic irreducible polynomial, or infinity (poly=None)."""

    poly: RatPoly | None

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    def __repr__(self) -> str:
        return "infinity" if self.poly is None else f"({self.poly!r})"


PLACE_AT_INFINITY = Place(None)


def valuation(p: RatPoly, place: Place) -> int | None:
    """Order of vanishing of p at the place; None encodes +infinity (p = 0).

    At the infinite place the valuation of a nonzero polynomial is -deg p.
    """
    if p.is_zero():
        return None
    if place.is_infinite:
        return -p.degree
    v = 0
    while True:
        q, r = divmod(p, place.poly)
        if not r.is_zero():
            return v
        p = q
        v += 1
