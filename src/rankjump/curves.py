"""Exact arithmetic on elliptic curves over Q.

One group law, on reduced integer Jacobian triples (x = X/Z^2, y = Y/Z^3;
None is O) of the model scaled by mu = lcm(den A, den B) (_jac_add). A
point is checked on the curve once on entry (_jac), in integers on that
model, and made a Fraction pair (x, y) once on exit (_point); in between
EllipticCurveQ.add and torsion_order, canonical_height, neron_tate_pairing,
regulator, its relation search and both 2-descents take the triples, in
the search and in re-verification. Specialising at t0 = n/d and moving
fibre points to the curve run in integers (Specialization.moved); only A,
B and a record's points become Fractions. Torsion is decided
without factoring, by Nagell-Lutz (Silverman, The Arithmetic of Elliptic
Curves, VIII.7.2) and Mazur's bound on the walk P, 2P, ..., 12P.

A pair is proved independent without a height by one 2-descent map
(_delta, AEC X.1.4): over Q when E[2] is rational (two_descent_independent,
with a 4-torsion guard), and otherwise over F_p at primes below 130 where
the cubic splits, once a prime where it has no root proves E(Q)[2] = 0
(descent_mod_p). Neron-Tate canonical heights carry rigorous error bounds,
and regulator verdicts search relations only where the Gram matrix of
heights allows them, then check them exactly.

Heights (canonical_height) are sums of local terms on one integral model,
minimal at every p >= 5, read in integers from the reduced triple of the
least multiple mP in the formal group at 2 and 3 (_formal_multiple) until
mpmath takes its logs: a duplication series with a tail bound
(_lambda_infinity) and Silverman's closed-form finite corrections
(_finite_corrections). No discriminant is factored, and a height is a
function of (Ai, Bi) and the reduced triple alone, so a caller keeps a
table of them under that key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import count, product
from math import gcd, isqrt, lcm, log

from .arith import _SMALL_PRIMES, DomainError, is_square, prime_factors, val_unit
from .kodaira import minimal_shift


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


def _vp(n: int, p: int) -> int:
    return val_unit(n, p)[0]


class EllipticCurveQ:
    """y^2 = x^3 + A x + B over Q, with two integral models: the lcm-scaled
    one, built at once, for the group law, and the reduced one for heights."""

    def __init__(self, A, B):
        self.A, self.B = A, B  # ints or Fractions, as given
        # (A mu^4, B mu^6, mu), mu = lcm(den A, den B), found without factoring;
        # its 4 Ai^3 + 27 Bi^2 is mu^12 (4 A^3 + 27 B^2)
        (a, da), (b, db) = A.as_integer_ratio(), B.as_integer_ratio()
        mu = lcm(da, db)
        Ai, Bi = a * (mu // da) * mu**3, b * (mu // db) * mu**5
        if 4 * Ai**3 + 27 * Bi**2 == 0:
            raise SingularCurveError("curve is singular")
        self._scaled_model = Ai, Bi, mu

    def __repr__(self):
        return f"EllipticCurveQ({self.A}, {self.B})"

    # -- model bookkeeping ---------------------------------------------------

    @cached_property
    def integral_model(self) -> tuple[int, int, Fraction]:
        """(Ai, Bi, lam): integer coefficients with x -> lam^2 x, y -> lam^3 y,
        reduced so no prime p has p^4 | Ai and p^6 | Bi. With lam > 0 that
        model is unique, so it is the lcm-scaled model divided by one
        minimal_shift per prime of gcd(A mu^4, B mu^6); the heights use it."""
        Ai, Bi, mu = self._scaled_model
        common, u = gcd(Ai, Bi), 1
        for p in prime_factors(common) if common > 1 else ():
            u *= p ** minimal_shift(_vp(Ai, p) if Ai else None, _vp(Bi, p) if Bi else None)
        return Ai // u**4, Bi // u**6, Fraction(mu, u)

    # -- points and the group law ---------------------------------------------

    def is_on(self, P) -> bool:
        """y^2 = x^3 + A x + B times b^3 e^2 mu^6, for x = a/b and y = c/e, in
        integers on the scaled model; P is ((a, b), (c, e)), b, e > 0."""
        Ai, Bi, mu = self._scaled_model
        ((a, b), (c, e)), m2 = P, mu * mu
        b3, m6 = b**3, m2**3
        return c * c * b3 * m6 == e * e * (a**3 * m6 + Ai * m2 * a * b * b + Bi * b3)

    def _jac(self, P):
        """P, as is_on takes it and checked there, as a reduced triple on the
        scaled model: x mu^2 = X/Z^2 and y mu^3 = Y/Z^3, Z = den(y mu^3)/den(x mu^2)."""
        if not self.is_on(P):
            raise OffCurveError(f"{P} is not on {self}")
        mu, ((a, b), (c, e)) = self._scaled_model[2], P
        a, c = a * mu * mu, c * mu**3
        g, h = gcd(a, b), gcd(c, e)
        return a // g, c // h, e // h // (b // g)

    def _point(self, J):
        """The Fraction pair (x, y) of a triple other than O from _jac or the group law."""
        d = J[2] * self._scaled_model[2]
        return Fraction(J[0], d * d), Fraction(J[1], d**3)

    def add(self, J1, J2):
        """J1 + J2 of triples of the scaled model, None for O (_jac_add)."""
        return _jac_add(self._scaled_model[0], J1, J2)

    def torsion_order(self, J) -> int | None:
        """Order of the triple J of the scaled model if torsion, else None. On
        an integral model every multiple other than O of a torsion point is
        integral (Nagell-Lutz, Silverman AEC VIII.7.2), and the order is at
        most MAZUR_BOUND (Mazur); so the walk J, 2J, ... decides exactly: O at
        step n gives n; Z != 1, or no O by step MAZUR_BOUND, gives None."""
        A, Q = self._scaled_model[0], J  # Q = n J
        for n in range(1, MAZUR_BOUND + 1):
            if Q is None:
                return n
            if Q[2] != 1:
                return None
            Q = _jac_add(A, Q, J)
        return None


def _jac_add(A: int, P, Q):
    """P + Q on y^2 = x^3 + A x + B, A an integer (B does not enter the law),
    on Jacobian triples: x = X/Z^2, y = Y/Z^3, None for O. A rational point
    has x = a/d^2, y = b/d^3, gcd(a, d) = 1 (Silverman-Tate III.2), so the
    triple is (a l^2, b l^3, d l), gcd(X, Z^2) = l^2, and it is divided by
    l signed as Z. Unreduced, the coordinates grow exponentially."""
    if P is None:
        return Q
    if Q is None:
        return P
    (X1, Y1, Z1), (X2, Y2, Z2) = P, Q
    ZZ1, ZZ2 = Z1 * Z1, Z2 * Z2
    U1, U2, S1, S2 = X1 * ZZ2, X2 * ZZ1, Y1 * ZZ2 * Z2, Y2 * ZZ1 * Z1
    if U1 == U2:
        if S1 != S2 or Y1 == 0:
            return None
        YY = Y1 * Y1
        S, M = 4 * X1 * YY, 3 * X1 * X1 + A * ZZ1 * ZZ1
        X = M * M - 2 * S
        Y, Z = M * (S - X) - 8 * YY * YY, 2 * Y1 * Z1
    else:
        H, R = U2 - U1, S2 - S1
        HH = H * H
        HHH, V = HH * H, U1 * HH
        X = R * R - HHH - 2 * V
        Y, Z = R * (V - X) - S1 * HHH, H * Z1 * Z2
    l = isqrt(gcd(X, Z * Z)) if Z > 0 else -isqrt(gcd(X, Z * Z))
    return X // (l * l), Y // (l * l * l), Z // l


def _jac_mul(A: int, n: int, P, add=None):
    """n P by bit_length(|n|) - 1 doublings and one addition per set bit,
    low bit first; add(A, S, T), _jac_add by default, forms each sum."""
    add = add or _jac_add
    if n < 0:
        n, P = -n, P and (P[0], -P[1], P[2])
    result = None
    while n:
        if n & 1:
            result = add(A, result, P)
        n >>= 1
        if n:
            P = add(A, P, P)
    return result


# ---------------------------------------------------------------------------
# canonical heights


@dataclass(frozen=True)
class HeightData:
    """Canonical height with a rigorous error bound and its provenance."""

    value: float
    error: float
    method: str
    detail: dict = field(default_factory=dict, compare=False)


def _lambda_infinity(Ai: int, Bi: int, J, terms: int, mp):
    """Archimedean local height of the reduced triple J = (X, Y, Z), x =
    X/Z^2 and y = Y/Z^3, on y^2 = x^3 + Ai x + Bi by the duplication series
    lambda(P) = (1/4)(lambda(2P) + log|2y(P)|) (Silverman, Math. Comp. 51
    (1988)); returns (lambda, 4^-terms). The first step is exact, so that
    cancellation near 2-torsion cannot poison the series: x(2P) = N/D, N =
    X^4 - 2 Ai X^2 Z^4 - 8 Bi X Z^6 + Ai^2 Z^8, D = 4 Y^2 Z^2, over gcd(N,
    D) = gcd(N, 4 Y^2), 1 if gcd(N, 2 Y) is, as N = X^4 (mod Z), gcd(X, Z)
    = 1. Past it x(2^k P) = X/Z in integers: Z' = 4Z F, F = X^3 + A X Z^2 +
    B Z^3, so term k, 4^-(k+1) log(4F/Z^3)/2 = 4^-(k+1) log(Z'/Z^4)/2,
    telescopes, and the sum and the tail need one log. Each step shifts X
    and Z right by s bits, the shorter to mp.prec + 20; s returns as 4^-k s
    log 2, and the relative 2^-(mp.prec + 18) that X/Z moves enters with
    weight 4^-k, as rounding term k's own log would."""
    X, Y, Z = J
    ZZ, Z3 = Z * Z, Z**3
    N, YY4 = (X * X - Ai * ZZ * ZZ) ** 2 - 8 * Bi * X * Z3 * Z3, 4 * Y * Y
    g = gcd(N, YY4) if gcd(N, 2 * Y) > 1 else 1
    X, Z = N // g, YY4 // g * ZZ
    head = (mp.log(2) + mp.log(abs(Y)) - mp.log(Z3)) / 4 - mp.log(Z) / 8  # log|2y|, den x(2P)
    shifts = 0  # sum over steps k of 4^(terms - k) s_k
    for _ in range(terms - 1):
        s = max(0, min(abs(X).bit_length(), Z.bit_length()) - mp.prec - 20)
        X, Z = X >> s, Z >> s
        X2, Z2 = X * X, Z * Z
        F = (X2 + Ai * Z2) * X + Bi * Z2 * Z
        if F <= 0:
            raise PrecisionError("duplication series lost the real locus")
        X, Z = (X2 - Ai * Z2) ** 2 - 8 * Bi * X * Z2 * Z, 4 * Z * F
        shifts = 4 * (shifts + s)
    tail_scale = mp.ldexp(1, -2 * terms)
    total = head + tail_scale * (shifts * mp.ln2 + mp.log(max(abs(X), Z))) / 2
    return total, tail_scale


def _tail_constant(Ai: int, Bi: int) -> float:
    # generous bound for sup |lambda_oo - (1/2) log^+ |x|| on the real locus
    disc = abs(-16 * (4 * Ai**3 + 27 * Bi**2))
    j_num = abs(6912 * Ai**3)
    logj = log(max(j_num, 1)) + log(max(disc, 1))
    return log(max(disc, 2)) / 12 + logj / 12 + 3.0


def _finite_corrections(Ai: int, Bi: int, J):
    """Corrections (p, Fraction c_p), p >= 5 increasing, so that the finite
    part of the height of the reduced triple J = (X, Y, Z), 6 | Z, is
    (1/2) log Z^2 + sum c_p log p.

    At p >= 5 the model is minimal, and Silverman's closed form (Computing
    heights on elliptic curves, Math. Comp. 51 (1988), section 5) gives c_p
    from b = v(2y), c = v(3x^4 + 6Ax^2 + 12Bx - A^2) and N = v(disc): 0 when
    b <= 0 or v(3x^2 + A) <= 0 (nonsingular reduction); -n(N - n)/2N with
    n = min(b, N/2) when p does not divide A (multiplicative); otherwise -b/3
    if c >= 3b, else -c/8. As gcd(Y, Z) = 1, b > 0 just where p divides Y,
    and then not Z: there b = v(Y), and the forms in x times Z^4 and Z^8 are
    integers of the same valuations. A p | Y with p | 3X^2 + Ai Z^4 puts J
    on the singular point mod p, so p | disc: only gcd(Y, 3X^2 + Ai Z^4,
    disc) is factored."""
    X, Y, Z = J
    XX, Z4, disc = X * X, Z**4, -16 * (4 * Ai**3 + 27 * Bi**2)
    g = gcd(Y, 3 * XX + Ai * Z4, disc)
    out = []
    for p in prime_factors(g) if g > 1 else ():
        if p < 5:
            continue
        b, N = _vp(Y, p), _vp(disc, p)
        if Ai % p:
            n = min(Fraction(b), Fraction(N, 2))
            out.append((p, -n * (N - n) / (2 * N)))
            continue
        c = _vp(3 * XX * XX + 6 * Ai * XX * Z4 + 12 * Bi * X * Z4 * Z * Z - Ai * Ai * Z4 * Z4, p)
        out.append((p, Fraction(-b, 3) if c >= 3 * b else Fraction(-c, 8)))
    return out


#: The one bound on a height's multiple: _formal_multiple raises
#: PrecisionError before it would form a Z of more than about this many
#: bits. Drawn test points reach Z of 72,975 bits (m = 56) and the benchmark
#: searches 95 bits (m = 6); a height whose largest sum has 2 (b1 + b2) =
#: 100,068 takes about 0.7 s (2-core host, CPython 3.11), half of it forming
#: m J and most of the rest in the gcd of the first duplication.
_FORMAL_GROUP_BITS_CAP = 1 << 17


def _formal_multiple(A: int, J) -> tuple[int, tuple[int, int, int]]:
    """The multiple m J lying in the formal group at 2 and at 3 (that is,
    v_2(x) < 0 and v_3(x) < 0, so 6 | Z), with m minimal, as a reduced
    triple of an integral model with x-coefficient A, where den x = Z^2;
    DomainError if J is torsion.

    The multiples of J in the formal group at p are the multiples of the
    first one there, at k_p J, so m = lcm(k_2, k_3). m J is formed by
    _jac_mul, so its cost is that of its last few additions. As
    hhat(S + T) <= 2 hhat(S) + 2 hhat(T), a sum of summands whose Z have
    b1 and b2 bits has a Z of about 2 (b1 + b2) bits at most, and no sum is
    formed past the bit cap: _jac_mul takes a size-checked add. For a
    torsion J, m is its order (_formal_order).
    """

    def add(A, S, T):
        if S and T and 2 * (S[2].bit_length() + T[2].bit_length()) > _FORMAL_GROUP_BITS_CAP:
            raise PrecisionError("formal-group multiple exceeds the size cap")
        return _jac_add(A, S, T)

    m = lcm(_formal_order(A, J, 2), _formal_order(A, J, 3))
    Q = _jac_mul(A, m, J, add)
    if Q is None or Q[2] % 6:
        raise DomainError("a torsion point has no multiple in the formal group")
    return m, Q


def _formal_order(A: int, J, p: int) -> int:
    """k_p of _formal_multiple: the least k with p | Z(k J), or the order
    of a torsion J. Until k_p J every multiple is p-integral, so the walk
    k J <- k J + J runs on affine coordinates modulo p^n: the slope
    num / den, with den = x(kJ) - x(J) (2 y(J) at k = 1) of valuation e,
    leaves Z_p exactly when v(num) < e, and otherwise costs e digits. When
    neither valuation can be read from the digits left, the walk restarts
    with twice the digits, from 64. No step cap is needed: k_p is at most
    the index of E_1(Q_p), the points with p | Z, open in the compact group
    E(Q_p) (Silverman, AEC VII.2, VII.6). A torsion J of order n has
    integral multiples (AEC VIII.7.2): the walk meets (n - 1) J = -J, where
    den = 0 != num, and returns n."""
    X, Y, Z = J
    if Z % p == 0:
        return 1
    digits = 64
    while True:
        q = p**digits
        w = pow(Z, -1, q)
        x0 = x = X * w * w % q
        y0 = y = Y * w * w * w % q
        for k in count(1):
            num, den = (3 * x * x + A, 2 * y) if k == 1 else (y - y0, x - x0)
            num, den = num % q, den % q
            if den == 0:
                if num:
                    return k + 1
                break
            e, u = val_unit(den, p)
            if num and val_unit(num, p)[0] < e:
                return k + 1
            q //= p**e
            slope = num // p**e * pow(u, -1, q)
            x, x_prev = (slope * slope - x - x0) % q, x
            y = (slope * (x_prev - x) - y) % q
        digits *= 2


def canonical_height(E: EllipticCurveQ, J, heights: dict) -> HeightData:
    """Neron-Tate height of the non-torsion triple J of E's scaled model,
    with error bound, by local decomposition; hhat(P) = (1/2) lim 4^{-n}
    h(x(2^n P)), so heights of non-torsion points are positive and hhat(nP)
    = n^2 hhat(P). With u = mu / lam, J is (X, Y, u Z) on the integral
    model, reduced as _jac_add reduces. All that follows depends on (Ai, Bi)
    and that triple alone, so the table heights keeps each result under
    that key and a hit returns it; a PrecisionError is not kept."""
    Ai, Bi, lam = E.integral_model
    X, Y, Z = J[0], J[1], J[2] * int(E._scaled_model[2] / lam)
    l = isqrt(gcd(X, Z * Z))
    key = Ai, Bi, X // (l * l), Y // (l * l * l), Z // l
    if key not in heights:
        heights[key] = _local_height(Ai, Bi, key[2:])
    return heights[key]


def _local_height(Ai: int, Bi: int, J) -> HeightData:
    """canonical_height of the reduced triple J on the integral model, with
    x-coefficient Ai and constant Bi, at 60 digits and 48 series terms; each
    PrecisionError doubles the digits and adds 16 terms, up to three times."""
    import mpmath

    m, J = _formal_multiple(Ai, J)
    corrections = _finite_corrections(Ai, Bi, J)
    dps, terms = 60, 48
    last_exc = None
    for attempt in range(4):
        try:
            with mpmath.workdps(dps):
                lam_oo, tail_scale = _lambda_infinity(Ai, Bi, J, terms, mpmath.mp)
                finite = mpmath.log(J[2] ** 2) / 2
                for p, c in corrections:
                    finite += mpmath.mpf(c.numerator) / c.denominator * mpmath.log(p)
                total = (lam_oo + finite) / (m * m)
                tail = float(tail_scale) * _tail_constant(Ai, Bi) / (m * m)
                guard = 10.0 ** (-(dps - 12))
                value = float(total)
            # abs(value) * 1e-15 covers float(total)'s rounding, <= 2^-53 |v| (IEEE 754)
            return HeightData(
                value,
                tail + guard + abs(value) * 1e-15,
                "local-heights",
                {"multiple": m, "terms": terms, "digits": dps},
            )
        except PrecisionError as exc:
            last_exc = exc
            dps *= 2
            terms += 16
    raise PrecisionError(f"height precision not reached: {last_exc}")


def neron_tate_pairing(hS: HeightData, hP: HeightData, hQ: HeightData):
    """<P, Q> = (hhat(P+Q) - hhat(P) - hhat(Q)) / 2 with propagated error,
    from the heights of P + Q, P and Q."""
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


def regulator(E: EllipticCurveQ, JP, JQ, heights: dict) -> RegulatorResult:
    """Gram determinant of the height pairing of the non-torsion triples JP
    and JQ of E's scaled model, entered unchecked, with a sound verdict;
    heights is the table canonical_height reads and fills.

    A pair is first tested exactly for P + Q, then P - Q, being torsion;
    either makes it "dependent" with relation (1, 1, order) or (1, -1,
    order), determinant 0.0 and error 0.0, before any height. That is the
    relation _small_relation would find: every pair it tries earlier, (0,
    +-1), (+-1, 0) or (0, +-2), would make P or Q torsion. Otherwise a pair
    costs three heights: of P, Q and P + Q. "independent" requires det -
    err > INDEPENDENCE_THRESHOLD (1e-6), err the propagated error bound: the
    threshold is a margin on top of that bound, not part of it. For
    dependent-looking pairs the first relation a P + b Q = torsion with
    |a|, |b| <= 20 that the Gram matrix allows is checked exactly and
    reported; when neither outcome can be certified the verdict is
    "inconclusive".
    """
    JS = E.add(JP, JQ)
    for b, J in ((1, JS), (-1, E.add(JP, (JQ[0], -JQ[1], JQ[2])))):
        order = E.torsion_order(J)
        if order is not None:
            return RegulatorResult(0.0, 0.0, "dependent", (1, b, order))
    hP, hQ = canonical_height(E, JP, heights), canonical_height(E, JQ, heights)
    h11, e11 = hP.value, hP.error
    h22, e22 = hQ.value, hQ.error
    h12, e12 = neron_tate_pairing(canonical_height(E, JS, heights), hP, hQ)
    det = h11 * h22 - h12 * h12
    err = e11 * abs(h22) + e22 * abs(h11) + 2 * abs(h12) * e12 + e11 * e22 + e12 * e12
    if det - err > INDEPENDENCE_THRESHOLD:
        return RegulatorResult(det, err, "independent")
    rel = _small_relation(E, JP, JQ, (h11, h22, h12), (e11, e22, e12), 20)
    if rel is not None:
        return RegulatorResult(det, err, "dependent", rel)
    return RegulatorResult(det, err, "inconclusive")


def _delta(x, roots):
    """The 2-descent map at x = x(P), over Q or (x, roots residues in [0, p))
    over F_p: (x - e1, x - e2), x - e_i read as (e_i - e_j)(e_i - e_k) at e_i."""
    e1, e2, e3 = roots
    return x - e1 or (e1 - e2) * (e1 - e3), x - e2 or (e2 - e1) * (e2 - e3)


def _outside(dP, dQ, span, square):
    """Whether delta(P), delta(Q) and delta(P) delta(Q) = delta(P + Q) each lie outside span."""
    (p1, p2), (q1, q2) = dP, dQ
    return (not any(square(a * t1) and square(b * t2) for t1, t2 in span)
            for a, b in ((p1, p2), (q1, q2), (p1 * q1, p2 * q2)))


def two_descent_independent(E: EllipticCurveQ, roots, JP, JQ) -> bool:
    """True when complete 2-descent over Q proves the non-torsion triples JP
    and JQ of E's scaled model independent modulo torsion, False when it
    cannot; roots are the x-coordinates of E's three rational 2-torsion
    points as integer ratios (n, d), scaled by mu^2 to the integer roots e_i
    of x^3 + Ai x + Bi. _delta is injective on E(Q)/2E(Q) (AEC X.1.4); x -
    e_i = (X - e_i Z^2)/Z^2 is read as X - e_i Z^2, of the same square
    class. The 4-torsion guard: a point of E[2] - O with trivial delta lies
    in 2E(Q), so E(Q) may have 4-torsion and the test gives up; else
    delta(E(Q)_tors) = delta(E[2]), and a relation a P + b Q = T, gcd(a, b)
    = 1, survives mod 2."""
    mu2 = E._scaled_model[2] ** 2
    e1, e2, e3 = roots = [n * mu2 // d for n, d in roots]
    if (e1 + e2 + e3, e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3) != (0, *E._scaled_model[:2]):
        raise ValueError(f"{roots} are not the roots of x^3 + Ai x + Bi on {E}")
    torsion = [_delta(e, roots) for e in roots]  # delta(E[2] - O)
    if any(is_square(a) and is_square(b) for a, b in torsion):
        return False
    dP, dQ = (_delta(X, [e * Z * Z for e in roots]) for X, _, Z in (JP, JQ))
    return all(_outside(dP, dQ, ((1, 1), *torsion), is_square))


#: descent_mod_p's primes: below 130 they prove four of the five seed-0 mordell
#: pairs (at 61, 61, 73, 127; the fifth stays open below 1024), and a pair
#: left open pays a sixth of its regulator for them.
_DESCENT_PRIMES = tuple(p for p in _SMALL_PRIMES[1:] if p < 130)


def descent_mod_p(E: EllipticCurveQ, JP, JQ) -> bool:
    """True when 2-descent modulo primes proves the non-torsion triples JP
    and JQ of E's scaled model independent, False when it defers. If E(Q)[2]
    = 0, a relation a P + b Q = T, T torsion, gcd(a, b) = 1, puts P, Q or P
    + Q in 2E(Q), odd torsion lying there. At an odd p not dividing 4 Ai^3 +
    27 Bi^2 where the cubic splits, reduction (p | Z gives O) then _delta by
    Euler's criterion is a homomorphism to (F_p*/F_p*^2)^2 killing 2E(Q)
    (AEC VII.2, X.1.4; Siksek, Rocky Mountain J. Math. 25 (1995)); P + Q =
    O maps to delta_p(P)^2 = 1. A good p where the cubic, monic in Z[x], has
    no root proves E(Q)[2] = 0; one whose disc is no square has one root."""
    Ai, Bi = E._scaled_model[:2]
    no_two_torsion, proved = False, [False] * 3
    for p in _DESCENT_PRIMES:
        a, b = Ai % p, Bi % p
        if pow(-4 * a**3 - 27 * b * b, p // 2, p) == 1:
            roots = [x for x in range(p) if (x * x * x + a * x + b) % p == 0]  # 0 or 3
            no_two_torsion |= not roots
            if roots:
                dP, dQ = ((1, 1) if Z % p == 0 else _delta(X * pow(Z, -2, p) % p, roots)
                          for X, _, Z in (JP, JQ))
                euler = _outside(dP, dQ, [(1, 1)], lambda c: pow(c, p // 2, p) == 1)
                proved = [old or new for old, new in zip(proved, euler)]
            if no_two_torsion and all(proved):
                return True
    return False


@cache
def _pairs_by_size(bound: int) -> tuple[tuple[int, int], ...]:
    """(a, b) != (0, 0) with |a|, |b| <= bound, by |a| + |b|, |a| and signs."""
    return tuple(sorted(
        (ab for ab in product(range(-bound, bound + 1), repeat=2) if ab != (0, 0)),
        key=lambda ab: (abs(ab[0]) + abs(ab[1]), abs(ab[0]), ab[0] < 0, ab[1] < 0),
    ))


def _small_relation(E: EllipticCurveQ, JP, JQ, gram, errors, bound: int):
    """The first (a, b, order), by |a| + |b|, |a| and signs, with a P + b Q
    torsion, P and Q the triples JP and JQ of E's scaled model. A relation
    forces a^2 h11 = b^2 h22 and a^2 h11 + 2ab h12 + b^2 h22 = 0, so pairs
    violating either beyond the errors are skipped."""
    (h11, h22, h12), (e11, e22, e12), A = gram, errors, E._scaled_model[0]
    mult = cache(lambda J, n: _jac_mul(A, n, J))  # multiples of P and of Q
    for a, b in _pairs_by_size(bound):
        if abs(a * a * h11 - b * b * h22) > a * a * e11 + b * b * e22:
            continue
        if (abs(a * a * h11 + 2 * a * b * h12 + b * b * h22)
                > a * a * e11 + 2 * abs(a * b) * e12 + b * b * e22):
            continue
        order = E.torsion_order(_jac_add(A, mult(JP, a), mult(JQ, b)))
        if order is not None:
            return (a, b, order)
    return None


# ---------------------------------------------------------------------------
# specialisation of a surface at a parameter value


@dataclass
class Specialization:
    """A fibre over t0 as a curve over Q, with the exact point transport in integers."""

    curve: EllipticCurveQ
    chart: tuple  # (u, v, w) at t0, X = u x + v, Y = w y, as (numerator, denominator > 0)

    def moved(self, x, y):
        """The curve point of (x, y), unchecked, as integer ratios ((X, D), (Y, E)),
        D, E > 0: the short model there is the fibre equation times g(t0)^3 l^2
        (twist) or a3(t0)^2 (km), nonzero as u(t0) != 0, so one check decides both."""
        (a, b), (c, e) = x.as_integer_ratio(), y.as_integer_ratio()
        (un, ud), (vn, vd), (wn, wd) = self.chart
        return (un * a * vd + vn * ud * b, ud * vd * b), (wn * c, wd * e)


def specialize(surface, t0) -> Specialization:
    """The specialised curve at t = t0 plus the transport of fibre points.

    The chart, A and B are read at t0 = n/d in integers, A and B alone becoming
    Fractions. Raises SingularSpecializationError under a singular fibre, and
    where the chart degenerates (u(t0) = 0; for km families, where a3 vanishes).
    """
    n, d = t0.as_integer_ratio()
    chart = tuple(c.ratio_at(n, d) for c in surface.chart)
    if chart[0][0] == 0:
        raise SingularSpecializationError(f"u({t0}) = 0: transport chart degenerates")
    model = surface.weierstrass
    try:
        curve = EllipticCurveQ(*(Fraction(*c.ratio_at(n, d)) for c in (model.A, model.B)))
    except SingularCurveError as exc:
        raise SingularSpecializationError(str(exc)) from exc
    return Specialization(curve, chart)
