"""Exact arithmetic on elliptic curves over Q.

Group law, torsion decided by reduction modulo primes of good reduction
(Nagell-Lutz and Silverman, The Arithmetic of Elliptic Curves, section
VII.3), Neron-Tate canonical heights with rigorous error bounds, and
regulator verdicts whose relations are searched only where the Gram matrix
of heights allows them, then checked exactly.

Heights are computed as a sum of local terms attached to one fixed integral
short Weierstrass model. The archimedean term comes from the duplication
series lambda(P) = (1/4) (lambda(2P) + log|2y(P)|), evaluated in mpmath
with a tail bound. The finite part is exact: we replace P by the smallest
multiple mP lying in the formal group at 2 and at 3, after which the
contribution of every prime is (1/2) log den(x) except for primes p >= 5
where mP meets a singular point of the reduced model; those corrections are
rational multiples of log p read off the Kodaira type.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import count, islice, product
from math import gcd, isqrt

from .arith import DomainError, prime_factors
from .kodaira import kodaira_type


class SingularCurveError(ValueError):
    """Raised when 4A^3 + 27B^2 = 0."""


class SingularSpecializationError(ValueError):
    """Raised when specialising at a parameter under a singular fibre."""


class PrecisionError(RuntimeError):
    """Raised when the requested height precision cannot be reached."""


class OffCurveError(ValueError):
    """Raised when a point does not satisfy its curve equation."""


INDEPENDENCE_THRESHOLD = 1e-6
MAZUR_BOUND = 12


@dataclass(frozen=True)
class PointQ:
    """A rational point: affine (x, y), or the identity (None, None)."""

    x: Fraction | None
    y: Fraction | None

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        return "O" if self.is_identity else f"({self.x}, {self.y})"


IDENTITY = PointQ(None, None)


def point(x, y) -> PointQ:
    return PointQ(Fraction(x), Fraction(y))


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise DomainError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _vp_frac(q: Fraction, p: int) -> int:
    if q == 0:
        raise DomainError("valuation of 0")
    return _vp(q.numerator, p) if q.numerator % p == 0 else -_vp(q.denominator, p)


class EllipticCurveQ:
    """y^2 = x^3 + A x + B over Q, with a cached reduced integral model."""

    def __init__(self, A, B):
        self.A = Fraction(A)
        self.B = Fraction(B)
        if 4 * self.A**3 + 27 * self.B**2 == 0:
            raise SingularCurveError("curve is singular")
        self._integral = None

    def __eq__(self, other):
        return isinstance(other, EllipticCurveQ) and (self.A, self.B) == (other.A, other.B)

    def __hash__(self):
        return hash((self.A, self.B))

    def __repr__(self):
        return f"EllipticCurveQ({self.A}, {self.B})"

    # -- model bookkeeping ---------------------------------------------------

    def integral_model(self):
        """(Ai, Bi, lam): integer coefficients with x -> lam^2 x, y -> lam^3 y,
        reduced so no prime p has p^4 | Ai and p^6 | Bi."""
        if self._integral is not None:
            return self._integral
        lam = Fraction(1)
        ps = set()
        if self.A:
            ps.update(prime_factors(self.A.denominator))
        if self.B:
            ps.update(prime_factors(self.B.denominator))
        for p in ps:
            k = 0
            if self.A:
                k = max(k, -(-_max0(-_vp_frac(self.A, p)) // 4))
            if self.B:
                k = max(k, -(-_max0(-_vp_frac(self.B, p)) // 6))
            lam *= Fraction(p) ** k
        Ai, Bi = self.A * lam**4, self.B * lam**6
        assert Ai.denominator == 1 and Bi.denominator == 1
        Ai, Bi = Ai.numerator, Bi.numerator
        common = gcd(Ai, Bi)
        if common > 1:
            for p in prime_factors(common):
                while True:
                    ka = _vp(Ai, p) if Ai else 10**9
                    kb = _vp(Bi, p) if Bi else 10**9
                    k = min(ka // 4, kb // 6)
                    if k <= 0:
                        break
                    Ai //= p ** (4 * k)
                    Bi //= p ** (6 * k)
                    lam /= Fraction(p) ** k
        self._integral = (Ai, Bi, lam)
        return self._integral

    def discriminant_integral(self) -> int:
        Ai, Bi, _ = self.integral_model()
        return -16 * (4 * Ai**3 + 27 * Bi**2)

    @cached_property
    def _reduction_primes(self) -> tuple[int, ...]:
        """The two smallest primes p >= 3 of good reduction of the integral model."""
        disc = self.discriminant_integral()
        odd_primes = (p for p in count(3, 2) if all(p % q for q in range(3, isqrt(p) + 1, 2)))
        return tuple(islice((p for p in odd_primes if disc % p), 2))

    # -- points and the group law ---------------------------------------------

    def is_on(self, P: PointQ) -> bool:
        if P.is_identity:
            return True
        return P.y * P.y == P.x**3 + self.A * P.x + self.B

    def _require(self, P: PointQ):
        if not self.is_on(P):
            raise OffCurveError(f"{P} is not on {self}")

    def negate(self, P: PointQ) -> PointQ:
        if P.is_identity:
            return P
        return PointQ(P.x, -P.y)

    def add(self, P: PointQ, Q: PointQ) -> PointQ:
        self._require(P)
        self._require(Q)
        if P.is_identity:
            return Q
        if Q.is_identity:
            return P
        if P.x == Q.x:
            if P.y == -Q.y:
                return IDENTITY
            lam = (3 * P.x * P.x + self.A) / (2 * P.y)
        else:
            lam = (Q.y - P.y) / (Q.x - P.x)
        x3 = lam * lam - P.x - Q.x
        y3 = lam * (P.x - x3) - P.y
        return PointQ(x3, y3)

    def sub(self, P: PointQ, Q: PointQ) -> PointQ:
        return self.add(P, self.negate(Q))

    def scalar_mul(self, n: int, P: PointQ) -> PointQ:
        if n < 0:
            return self.scalar_mul(-n, self.negate(P))
        result, base = IDENTITY, P
        while True:
            if n & 1:
                result = self.add(result, base)
            n >>= 1
            if not n:
                return result
            base = self.add(base, base)

    def torsion_order(self, P: PointQ) -> int | None:
        """Order of P if torsion, else None.

        On the integral model a torsion point is integral (Nagell-Lutz), and
        reduction modulo a prime p >= 3 of good reduction is injective on
        torsion (Silverman, AEC section VII.3). So a torsion P has the same
        order n <= MAZUR_BOUND modulo both `_reduction_primes`, and n P = O
        then decides exactly.
        """
        self._require(P)
        if P.is_identity:
            return 1
        Ai, _, lam = self.integral_model()
        x, y = P.x * lam**2, P.y * lam**3
        if x.denominator != 1 or y.denominator != 1:
            return None
        orders = {_order_mod(Ai, x.numerator, y.numerator, p) for p in self._reduction_primes}
        if len(orders) != 1 or None in orders:
            return None
        n = orders.pop()
        return n if self.scalar_mul(n, P).is_identity else None


def _order_mod(A: int, x: int, y: int, p: int) -> int | None:
    """Order of (x, y) on y^2 = x^3 + A x + B over F_p (B does not enter the
    group law), or None when it exceeds MAZUR_BOUND."""
    x, y = x % p, y % p
    qx, qy = x, y  # (n - 1) P
    for n in range(2, MAZUR_BOUND + 1):
        if qx == x:
            if (qy + y) % p == 0:
                return n
            lam = (3 * x * x + A) * pow(2 * y, -1, p) % p
        else:
            lam = (qy - y) * pow(qx - x, -1, p) % p
        nx = (lam * lam - x - qx) % p
        qx, qy = nx, (lam * (x - nx) - y) % p
    return None


def _max0(n: int) -> int:
    return n if n > 0 else 0


# ---------------------------------------------------------------------------
# canonical heights


@dataclass(frozen=True)
class HeightData:
    """Canonical height with a rigorous error bound and its provenance."""

    value: float
    error: float
    method: str
    detail: dict = field(default_factory=dict, compare=False)


def _working_digits(default: int = 60) -> int:
    env = os.environ.get("RANKJUMP_PRECISION")
    if env:
        try:
            return max(30, int(env))
        except ValueError:
            pass
    return default


def _lambda_infinity(Ai: int, Bi: int, x: Fraction, y: Fraction, terms: int, mp):
    """Archimedean local height of (x, y) on y^2 = x^3 + Ai x + Bi, via the
    duplication series lambda(P) = (1/4)(lambda(2P) + log|2y(P)|)."""
    A = mp.mpf(Ai)
    B = mp.mpf(Bi)
    quarter = mp.mpf(1) / 4
    # first step exactly: log|2y| from the exact coordinates, then one exact
    # duplication, so cancellation near 2-torsion cannot poison the series
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


def _tail_constant(Ai: int, Bi: int) -> float:
    # generous bound for sup |lambda_oo - (1/2) log^+ |x|| on the real locus
    import math

    disc = abs(-16 * (4 * Ai**3 + 27 * Bi**2))
    j_num = abs(6912 * Ai**3)
    logj = math.log(max(j_num, 1)) + math.log(max(disc, 1))
    return math.log(max(disc, 2)) / 12 + logj / 12 + 3.0


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    from sympy.ntheory.residue_ntheory import sqrt_mod

    r = sqrt_mod(a % p, p)
    return None if r is None else int(r)


def _node_distance(A: int, B: int, x: Fraction, p: int, precision: int) -> int:
    """v_p(x - r) where r is the p-adic double root of X^3 + A X + B, capped
    at `precision`. Multiplicative reduction at p >= 5 only."""
    inv3 = pow(3, -1, p)
    r = _sqrt_mod_prime((-A * inv3) % p, p)
    if r is None:
        raise PrecisionError("node location failed; inconsistent reduction data")
    # the node is the root of f' where f also vanishes
    if ((r * r % p) * r + A * r + B) % p != 0:
        r = p - r
    assert ((r * r % p) * r + A * r + B) % p == 0
    mod = p
    while mod < p**precision:
        mod = min(mod * mod, p**precision)
        fp = (3 * r * r + A) % mod
        d2 = (6 * r) % mod
        r = (r - fp * pow(d2, -1, mod)) % mod
    diff = x - r
    if diff == 0:
        return precision
    v = _vp_frac(diff, p)
    return min(v, precision)


def _finite_corrections(Ai: int, Bi: int, disc: int, x: Fraction, y: Fraction):
    """Corrections (p, Fraction c_p) so that the finite part of the height is
    (1/2) log den(x) + sum c_p log p. Requires v_2(x) < 0 and v_3(x) < 0."""
    out = []
    for p in prime_factors(disc):
        vx = _vp_frac(x, p)
        if p in (2, 3):
            assert vx < 0, "point must lie in the formal group at 2 and 3"
            continue
        if vx < 0:
            continue  # nonsingular reduction; covered by the denominator term
        # minimalise the model locally at p
        ka = _vp(Ai, p) if Ai else 10**9
        kb = _vp(Bi, p) if Bi else 10**9
        k = min(ka // 4, kb // 6)
        corr = Fraction(0)
        vx_m = vx - 2 * k
        if k > 0:
            corr -= k  # lambda w.r.t. our model = lambda_minimal - k log p
            if vx_m < 0:
                # formal group of the minimal model: lambda_min = (vx_m steps)
                out.append((p, corr + Fraction(-vx_m, 2) - Fraction(_max0(-vx), 2)))
                continue
        Am = Ai // p ** (4 * k) if Ai else 0
        Bm = Bi // p ** (6 * k) if Bi else 0
        xm = x / Fraction(p) ** (2 * k)
        ym = y / Fraction(p) ** (3 * k)
        dm = -16 * (4 * Am**3 + 27 * Bm**2)
        N = _vp(dm, p)
        if N == 0:
            if corr:
                out.append((p, corr))
            continue
        singular = ym == 0 or _vp_frac(ym, p) >= 1
        if singular:
            fprime = 3 * xm * xm + Am
            singular = fprime == 0 or _vp_frac(fprime, p) >= 1
        if not singular:
            if corr:
                out.append((p, corr))
            continue
        va = _vp(Am, p) if Am else 10**9
        if va == 0:
            # multiplicative: component index from the distance to the node
            prec = N // 2 + 2
            s = min(Fraction(_node_distance(Am, Bm, xm, p, prec)), Fraction(N, 2))
            corr += -s * (N - s) / (2 * N)
        else:
            ktype, shift = kodaira_type(va, _vp(Bm, p) if Bm else None, N)
            assert shift == 0
            sym = ktype.symbol
            if sym == "III":
                corr += Fraction(-1, 4)
            elif sym == "IV":
                corr += Fraction(-1, 3)
            elif sym == "IV*":
                corr += Fraction(-2, 3)
            elif sym == "III*":
                corr += Fraction(-3, 4)
            elif sym.endswith("*"):  # I_m*
                m = int(sym[1:-1])
                corr += Fraction(-1, 2)
                if m > 0:
                    s = min(Fraction(_vp_frac(xm, p) - 1), Fraction(m, 2))
                    corr += -s * (m - s) / (2 * m)
            else:
                raise PrecisionError(
                    f"singular reduction on fibre type {sym}; impossible component"
                )
        out.append((p, corr))
    return out


_FORMAL_GROUP_MULTIPLE_CAP = 1024


def _formal_multiple(E: EllipticCurveQ, P: PointQ) -> tuple[int, PointQ]:
    """A multiple mP lying in the formal group at 2 and at 3 (that is,
    v_2(x) < 0 and v_3(x) < 0), with m minimal. P must be non-torsion.

    Multiples landing in the formal group at p form the multiples of the
    first one, so m = lcm of the first hits at 2 and at 3.
    """
    k2 = k3 = None
    Q = P
    m = 1
    while m <= _FORMAL_GROUP_MULTIPLE_CAP and (k2 is None or k3 is None):
        if Q.is_identity:
            raise DomainError("torsion point reached the identity")
        x = Q.x
        if k2 is None and x != 0 and _vp_frac(x, 2) < 0:
            k2 = m
        if k3 is None and x != 0 and _vp_frac(x, 3) < 0:
            k3 = m
        if k2 == m and k3 == m:
            return m, Q
        Q = E.add(Q, P)
        m += 1
    if k2 is None or k3 is None:
        raise PrecisionError("no multiple reached the formal group at 2 and 3")
    mm = k2 * k3 // gcd(k2, k3)
    if mm > _FORMAL_GROUP_MULTIPLE_CAP:
        raise PrecisionError("formal-group multiple exceeds the size cap")
    Q = E.scalar_mul(mm, P)
    assert _vp_frac(Q.x, 2) < 0 and _vp_frac(Q.x, 3) < 0
    return mm, Q


def canonical_height(E: EllipticCurveQ, P: PointQ, series_terms: int | None = None) -> HeightData:
    """Neron-Tate height of P, with error bound, by local decomposition.

    Uses the normalisation with hhat(P) = (1/2) lim 4^{-n} h(x(2^n P)), so
    heights of non-torsion points are positive and hhat(nP) = n^2 hhat(P).
    """
    if P.is_identity:
        raise ValueError("height of the identity is undefined; use a point")
    E._require(P)
    order = E.torsion_order(P)
    if order is not None:
        return HeightData(0.0, 0.0, "torsion", {"order": order})

    import mpmath

    Ai, Bi, lam = E.integral_model()
    disc = E.discriminant_integral()
    Pi = PointQ(P.x * lam**2, P.y * lam**3)
    Ei = EllipticCurveQ(Ai, Bi)
    m, Q = _formal_multiple(Ei, Pi)
    x, y = Q.x, Q.y
    corrections = _finite_corrections(Ai, Bi, disc, x, y)
    dps = _working_digits()
    terms = series_terms or 48
    last_exc = None
    for attempt in range(4):
        try:
            with mpmath.workdps(dps):
                lam_oo, tail_scale = _lambda_infinity(Ai, Bi, x, y, terms, mpmath.mp)
                finite = mpmath.log(x.denominator) / 2
                for p, c in corrections:
                    finite += mpmath.mpf(c.numerator) / c.denominator * mpmath.log(p)
                total = (lam_oo + finite) / (m * m)
                tail = float(tail_scale) * _tail_constant(Ai, Bi) / (m * m)
                guard = 10.0 ** (-(dps - 12))
                value = float(total)
            return HeightData(
                value,
                tail + guard + abs(value) * 1e-15,
                "local-heights",
                {"multiple": m, "series_terms": terms, "digits": dps},
            )
        except PrecisionError as exc:
            last_exc = exc
            dps *= 2
            terms += 16
    raise PrecisionError(f"height precision not reached: {last_exc}")


def canonical_height_doubling(E: EllipticCurveQ, P: PointQ, doublings: int = 3) -> HeightData:
    """Independent evaluation hhat(2^k P) / 4^k of the doubling limit."""
    Q = P
    for _ in range(doublings):
        Q = E.add(Q, Q)
    if Q.is_identity:
        return HeightData(0.0, 0.0, "doubling-limit", {"doublings": doublings})
    inner = canonical_height(E, Q)
    scale = 4**doublings
    return HeightData(
        inner.value / scale,
        inner.error / scale + 1e-18,
        "doubling-limit",
        {"doublings": doublings, **inner.detail},
    )


def neron_tate_pairing(E: EllipticCurveQ, P: PointQ, Q: PointQ) -> tuple[float, float]:
    """<P, Q> = (hhat(P+Q) - hhat(P) - hhat(Q)) / 2 with propagated error."""
    return _pairing(E, P, Q, canonical_height(E, P), canonical_height(E, Q))


def _pairing(E: EllipticCurveQ, P: PointQ, Q: PointQ, hP: HeightData, hQ: HeightData):
    """neron_tate_pairing from the heights of P and Q; hhat(O) = 0 exactly."""
    S = E.add(P, Q)
    hS = HeightData(0.0, 0.0, "identity") if S.is_identity else canonical_height(E, S)
    return (hS.value - hP.value - hQ.value) / 2, (hS.error + hP.error + hQ.error) / 2


@dataclass(frozen=True)
class RegulatorResult:
    """A regulator verdict with the Gram determinant and its error bound; a
    pair found dependent through an exact size-2 relation carries
    determinant 0.0 and error 0.0, since no height was computed."""

    determinant: float
    error: float
    verdict: str                     # "independent" | "dependent" | "inconclusive"
    relation: tuple | None = None    # (a, b, torsion order) with a P + b Q torsion

    @property
    def independent(self) -> bool:
        return self.verdict == "independent"


def regulator(E: EllipticCurveQ, points: list[PointQ]) -> RegulatorResult:
    """Gram determinant of the height pairing with a sound verdict.

    A pair is first tested exactly for P + Q, then P - Q, being torsion;
    either makes it "dependent" with relation (1, 1, order) or (1, -1,
    order), determinant 0.0 and error 0.0, before any height. That is the
    relation _small_relation would find: every pair it tries earlier, (0,
    +-1), (+-1, 0) or (0, +-2), would make P or Q torsion. Otherwise a pair
    costs three heights: of P, Q and P + Q. "independent" requires the
    determinant to clear the 1e-6 threshold after error propagation. For
    dependent-looking pairs the first relation a P + b Q = torsion with
    |a|, |b| <= 20 that the Gram matrix allows is checked exactly and
    reported; when neither outcome can be certified the verdict is
    "inconclusive".
    """
    for P in points:
        if P.is_identity or E.torsion_order(P) is not None:
            raise ValueError("regulator requires non-torsion points")
    if len(points) == 1:
        h = canonical_height(E, points[0])
        if h.value - h.error > INDEPENDENCE_THRESHOLD:
            return RegulatorResult(h.value, h.error, "independent")
        return RegulatorResult(h.value, h.error, "inconclusive")
    if len(points) != 2:
        raise ValueError("regulator verdicts are implemented for 1 or 2 points")
    P, Q = points
    for b, R in ((1, E.add(P, Q)), (-1, E.sub(P, Q))):
        order = E.torsion_order(R)
        if order is not None:
            return RegulatorResult(0.0, 0.0, "dependent", (1, b, order))
    hP, hQ = canonical_height(E, P), canonical_height(E, Q)
    h11, e11 = hP.value, hP.error
    h22, e22 = hQ.value, hQ.error
    h12, e12 = _pairing(E, P, Q, hP, hQ)
    det = h11 * h22 - h12 * h12
    err = (
        e11 * abs(h22)
        + e22 * abs(h11)
        + 2 * abs(h12) * e12
        + e11 * e22
        + e12 * e12
    )
    if det - err > INDEPENDENCE_THRESHOLD:
        return RegulatorResult(det, err, "independent")
    rel = _small_relation(E, P, Q, (h11, h22, h12), (e11, e22, e12), 20)
    if rel is not None:
        return RegulatorResult(det, err, "dependent", rel)
    return RegulatorResult(det, err, "inconclusive")


@cache
def _pairs_by_size(bound: int) -> tuple[tuple[int, int], ...]:
    """(a, b) != (0, 0) with |a|, |b| <= bound, by |a| + |b|, |a| and signs."""
    return tuple(sorted(
        (ab for ab in product(range(-bound, bound + 1), repeat=2) if ab != (0, 0)),
        key=lambda ab: (abs(ab[0]) + abs(ab[1]), abs(ab[0]), ab[0] < 0, ab[1] < 0),
    ))


def _small_relation(E: EllipticCurveQ, P: PointQ, Q: PointQ, gram, errors, bound: int):
    """The first (a, b, order), by |a| + |b|, |a| and signs, with a P + b Q
    torsion. A relation forces a^2 h11 = b^2 h22 and a^2 h11 + 2ab h12 +
    b^2 h22 = 0, so pairs violating either beyond the errors are skipped."""
    (h11, h22, h12), (e11, e22, e12) = gram, errors
    multiples_P = {0: IDENTITY}
    multiples_Q = {0: IDENTITY}

    def mult(cache, base, n):
        if n not in cache:
            cache[n] = E.scalar_mul(n, base)
        return cache[n]

    for a, b in _pairs_by_size(bound):
        if abs(a * a * h11 - b * b * h22) > a * a * e11 + b * b * e22:
            continue
        if (abs(a * a * h11 + 2 * a * b * h12 + b * b * h22)
                > a * a * e11 + 2 * abs(a * b) * e12 + b * b * e22):
            continue
        R = E.add(mult(multiples_P, P, a), mult(multiples_Q, Q, b))
        order = E.torsion_order(R)
        if order is not None:
            return (a, b, order)
    return None


# ---------------------------------------------------------------------------
# specialisation of a surface at a parameter value


@dataclass
class Specialization:
    """A fibre over t0 as a curve over Q, with the exact point transport."""

    t0: Fraction
    curve: EllipticCurveQ
    _map: tuple  # coefficients (u, v, w) with X = u x + v, Y = w y

    def transport(self, x, y) -> PointQ:
        u, v, w = self._map
        X = u * Fraction(x) + v
        Y = w * Fraction(y)
        pt = PointQ(X, Y)
        if not self.curve.is_on(pt):
            raise OffCurveError(f"transport of ({x}, {y}) left the curve")
        return pt

    def pullback(self, P: PointQ) -> tuple[Fraction, Fraction]:
        """Fibre coordinates (x, y) of a curve point, inverting transport."""
        if P.is_identity:
            raise ValueError("the identity has no affine fibre coordinates")
        u, v, w = self._map
        return (P.x - v) / u, P.y / w


def specialize(surface, t0) -> Specialization:
    """The specialised curve at t = t0 plus the transport of fibre points.

    Raises SingularSpecializationError under a singular fibre, and where
    the surface's transport chart degenerates (u(t0) = 0; for
    quadratic-coefficient families, where a3 vanishes).
    """
    t0 = Fraction(t0)
    u, v, w = (c(t0) for c in surface.chart)
    if u == 0:
        raise SingularSpecializationError(f"u({t0}) = 0: transport chart degenerates")
    model = surface.weierstrass
    try:
        curve = EllipticCurveQ(model.A(t0), model.B(t0))
    except SingularCurveError as exc:
        raise SingularSpecializationError(str(exc)) from exc
    return Specialization(t0, curve, (u, v, w))
