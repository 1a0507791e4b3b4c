"""Search procedures producing certified rank-jump fibres.

jump1 walks the conic fibres x = x0 in height order, parametrises their
rational points, specialises each parameter value and keeps the fibres
where the transported point has infinite order: one certified extra point.

jump2 produces two independent points over one parameter value. For twist
families every fibre of the bundle shares its branch points, so pairs of
fibres in the same quadratic-extension class are coupled through the shared
square value instead: a point on one fibre transfers to its partner over
the same t0, and the regulator decides independence. For
quadratic-coefficient families the branch points move, so two fibre
parametrisations are intersected on the t-coordinate; pairs whose covers
have the same squarefree kernel h, which is to say identical branch loci
and a reducible fibre product, are skipped.

The searches and the census take their fibres from one source, _fibres, in
the height order of conics.rationals_by_height; jump1 reads it one height
stage at a time, jump2 lazily, pairing each fibre as it arrives and building
none past its certificate count. x0, t0 and the fibre points travel as
reduced int pairs (n, d), d > 0. The searches only propose a parameter value
t0 with fibre points over it; one certification stage, _certify, specialises
at t0, enters each point into the group law once as a triple in integers,
rejects torsion and asks the regulator about pairs; a record's t0, curve,
points and provenance are reduced int pairs too. jump2 holds one height
table per call (curves.canonical_height). Surface invariants are computed
once per surface object, whose fibred (twist or km) form
(SurfaceConfig.fibred) the searches and verify_certificate work on.
verify_certificate shares no height with the search: it settles a pair by
2-descent (AEC X.1.4) over Q on a twist whose f splits
(curves.two_descent_independent), else modulo primes (curves.descent_mod_p),
and by the regulator where that defers.

With avoid set, any search keeps only parameter values outside the image of
every cover of a finite challenge of quadratic covers; avoid_covers is jump1
or jump2 with avoid set. field_census reads _fibres height by height up to a
bound and counts, per height, the quadratic-extension classes the solvable
fibres realise, and the x0 _fibres counts as DEGENERATE. What a search turns
down counts in one Counter, log, under the keys SEARCH_COUNTS.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import isqrt

from .arith import is_square, ratio_str, reduced
from .conics import (
    ConicFibre,
    DegenerateFibreError,
    conic_fibre,
    conic_solvable,
    parametrize,
    parametrize_heights,
    rationals_by_height,
    rationals_of_height,
)
from .curves import (
    OffCurveError,
    PrecisionError,
    RegulatorResult,
    SingularSpecializationError,
    descent_mod_p,
    regulator,
    specialize,
    two_descent_independent,
)
from .polynomial import RatPoly, poly_gcd
from .surfaces import TwistFamily, to_weierstrass


@dataclass(frozen=True)
class Budget:
    """Search limits, positive ints: fibre height, parametrisation height, certificate count."""

    x0_height: int
    param_height: int
    count: int

    def __post_init__(self):
        x, p, n = self.x0_height, self.param_height, self.count
        if not (type(x) is type(p) is type(n) is int and x > 0 and p > 0 and n > 0):
            raise ValueError(f"a budget is three positive integers, not {self}")


@dataclass(frozen=True)
class CoverChallenge:
    """A finite list of quadratic covers y^2 = h_i(t) of the t-line."""

    covers: tuple[RatPoly, ...]

    def __post_init__(self):
        for h in self.covers:
            if h.is_constant():
                raise ValueError("covers must be nonconstant")
            if poly_gcd(h, h.derivative()).degree > 0:
                raise ValueError(f"cover polynomial {h!r} is not squarefree")

    def admits(self, n: int, d: int = 1) -> bool:
        """True iff t0 = n/d, d > 0, avoids the image of every cover: no h_i(t0)
        = N/M, M > 0, is a square, read as N M (0 lies under a branch point, so
        in the image)."""
        return all(not is_square(N * M) for N, M in (h.ratio_at(n, d) for h in self.covers))


@dataclass
class RankJumpCertificate:
    """A fibre parameter with points: evidence that the rank is at least the
    point count, and of a rank jump only with rank_bound_exact (generic rank 0)."""

    t0: tuple[int, int]                         # each rational a reduced (n, d), d > 0
    curve: tuple[tuple[int, int], tuple[int, int]]  # (A, B) of the specialised curve
    points: list[tuple[tuple[int, int], tuple[int, int]]]
    provenance: list[tuple[int, int]]           # fibre parameter x0 per point
    generic_rank_bound: int
    rank_bound_exact: bool
    claimed_rank_lower_bound: int
    regulator: tuple[float, float] | None = None   # (determinant, error) for pairs


#: The Counter keys a search counts under (log), in `# search:` line order.
SEARCH_COUNTS = (TRIED, DEGENERATE, UNSOLVABLE, TORSION, DEPENDENT, INCONCLUSIVE, AVOIDED) = (
    "fibres tried", "degenerate", "unsolvable", "torsion rejects", "dependent pairs",
    "inconclusive", "avoided t0")


def rank_bound_data(surface) -> tuple[int, bool]:
    """Shioda-Tate bound for the generic rank; exact exactly when it is 0."""
    r = to_weierstrass(surface).rank_bound
    return r, r == 0


def _fibres(surface, x0s, log: Counter):
    """The solvable conic fibres over the x0 = (n, d) of x0s, in order; each x0
    counts in log as TRIED, and as DEGENERATE or UNSOLVABLE if it yields nothing."""
    for n, d in x0s:
        log[TRIED] += 1
        try:
            fib = conic_fibre(surface, n, d)
        except DegenerateFibreError:
            log[DEGENERATE] += 1
            continue
        if conic_solvable(fib):
            yield fib
        else:
            log[UNSOLVABLE] += 1


def _certify(surface, t0: tuple[int, int], points, seen: set[tuple[int, int]],
             avoid: CoverChallenge | None, log: Counter, heights: dict | None = None
             ) -> RankJumpCertificate | RegulatorResult | None:
    """The certificate carried by the fibre points [(x0, w), ...] over t0, int pairs.

    Returns None when t0 is already certified, lies in a cover's image, sits
    under a singular fibre or carries a torsion point, and the regulator's
    verdict when a pair is not independent; a pair whose heights raise
    PrecisionError is inconclusive. log counts the AVOIDED, TORSION, DEPENDENT
    and INCONCLUSIVE rejections, not a t0 seen before or singular. On
    success t0 joins seen. Each point moves in integers to its triple, checked
    on the curve by _jac; torsion and the pair's verdict (curves.regulator,
    with the height table heights) run on those triples. The record takes
    t0, the provenance and the curve's A and B as they are, and its points
    read from the triples (E._point), all reduced int pairs.
    """
    if t0 in seen:
        return None
    if avoid is not None and not avoid.admits(*t0):
        log[AVOIDED] += 1
        return None
    try:
        spec = specialize(surface, *t0)
    except SingularSpecializationError:
        return None
    E = spec.curve
    Js = [E._jac(spec.moved(x0, w)) for x0, w in points]
    if any(E.torsion_order(J) is not None for J in Js):
        log[TORSION] += 1
        return None
    try:
        verdict = regulator(E, *Js, heights) if len(Js) == 2 else None
    except PrecisionError:
        verdict = RegulatorResult(0.0, float("inf"), "inconclusive")
    if verdict is not None and not verdict.independent:
        log[DEPENDENT if verdict.verdict == "dependent" else INCONCLUSIVE] += 1
        return verdict
    seen.add(t0)
    r_bound, r_exact = rank_bound_data(surface)
    return RankJumpCertificate(
        t0=t0,
        curve=(E.A, E.B),
        points=[E._point(J) for J in Js],
        provenance=[x0 for x0, _ in points],
        generic_rank_bound=r_bound,
        rank_bound_exact=r_exact,
        claimed_rank_lower_bound=len(points),
        regulator=None if verdict is None else (verdict.determinant, verdict.error),
    )


def jump1(surface, budget: Budget, avoid: CoverChallenge | None = None,
          log: Counter | None = None):
    """Certificates of one extra independent point, one per parameter value.

    Deterministic given surface and budget: fibre parameters x0 and line
    parameters m are swept jointly by max(height(x0), height(m)), and
    certificates carry distinct t0: stage h takes, fibre by fibre in order
    of arrival, the pencil slice of heights 1..h of a fibre arriving at h
    and the slice of height h of the earlier ones. The stream ends when the
    certificate count is reached or the budget is exhausted.
    """
    log = log if log is not None else Counter()
    seen: set[tuple[int, int]] = set()
    active = []  # (fibre, the stage it arrived at)
    for stage in range(1, max(budget.x0_height, budget.param_height) + 1):
        x0s = rationals_of_height(stage) if stage <= budget.x0_height else ()
        active.extend((fib, stage) for fib in _fibres(surface, x0s, log))
        for fib, arrived in active:
            first = 1 if arrived == stage else stage
            for _, t0, w in parametrize_heights(fib, min(stage, budget.param_height), first):
                if len(seen) >= budget.count:
                    return
                cert = _certify(surface, t0, [(fib.x0_ratio, w)], seen, avoid, log)
                if cert is not None:
                    yield cert


def jump2(surface, budget: Budget, avoid: CoverChallenge | None = None,
          log: Counter | None = None):
    """Certificates of two independent points over one parameter value.

    Each solvable fibre pairs with the earlier ones, in arrival order, as it
    arrives; the family's pair source proposes (t0, fibre points) per pair.
    Only pairs whose regulator verdict is "independent" are emitted;
    dependent and inconclusive pairs are logged and skipped. On a twist all
    shared-value points of a pair transport to one fixed pair on the
    twist-reduced curve, so its first verdict settles the pair, and the
    call's height table computes the heights of that pair once for all its
    certificates.
    """
    log = log if log is not None else Counter()
    if isinstance(surface, TwistFamily):
        pair_points, twist = partial(_shared_value_points, budget.param_height), True
    else:
        pair_points, twist = partial(_intersection_points, {}, budget.param_height), False
    seen: set[tuple[int, int]] = set()
    heights = {}  # the height table of this search (curves.canonical_height)
    earlier = {}  # a twist's extension class, or None on km -> its fibres so far
    for fib in _fibres(surface, rationals_by_height(budget.x0_height), log):
        partners = earlier.setdefault(fib.ext_class if twist else None, [])
        for src in partners:
            for t0, points in pair_points(src, fib):
                out = _certify(surface, t0, points, seen, avoid, log, heights)
                if isinstance(out, RankJumpCertificate):
                    yield out
                    if len(seen) >= budget.count:
                        return
                elif out is not None and twist:
                    break
        partners.append(fib)


def _shared_value_points(param_height: int, src: ConicFibre, other: ConicFibre):
    """Twist pairs: fibres of one quadratic-extension class have a square
    value ratio, so points flow along the earlier fibre and the partner point
    over the same t0 is w sqrt(f(x0') / f(x0)) = w isqrt(N' M M' N) / |M' N|,
    from the fibres' _ratio, f(x0) = N / M and f(x0') = N' / M'."""
    (N, M), (N1, M1) = src._ratio, other._ratio
    rn, rd = isqrt(abs(N1 * M * M1 * N)), abs(M1 * N)
    assert rn * rn == N1 * M * M1 * N, "fibres in one class have a square value ratio"
    for t0, w in parametrize(src, param_height):
        yield t0, [(src.x0_ratio, w), (other.x0_ratio, reduced(w[0] * rn, w[1] * rd))]


def _intersection_points(streams: dict, param_height: int, src: ConicFibre, other: ConicFibre):
    """km pairs: the t0 common to both fibres' point streams, in the later
    fibre's t0 order. A pair whose covers share the squarefree kernel h has
    identical branch loci (conics.branch_locus), hence a reducible fibre
    product, and is skipped. streams caches t0 -> w of the first point over
    t0 of each fibre, by x0, in t0 order (_t0_order); all three are int pairs."""
    if src.ext_class.h == other.ext_class.h:
        return
    for fib in (src, other):
        if fib.x0_ratio not in streams:
            pts: dict[tuple[int, int], tuple[int, int]] = {}
            for t0, w in parametrize(fib, param_height):
                pts.setdefault(t0, w)
            streams[fib.x0_ratio] = dict(sorted(pts.items(), key=_t0_order))
    base = streams[src.x0_ratio]
    for t0, w in streams[other.x0_ratio].items():
        if t0 in base:
            yield t0, [(src.x0_ratio, base[t0]), (other.x0_ratio, w)]


def _t0_order(item) -> tuple:
    """The key (height h, sign, value) of the reduced t0 = n/d of (t0, w): at one h
    and sign, n/h (|t0| <= 1) runs with n, h/d against d, -h/d with d before all n/h."""
    n, d = item[0]
    h = max(abs(n), d)
    if n < 0:
        return h, True, (d == h, n if d == h else d)
    return h, False, (d != h, n if d == h else -d)


def avoid_covers(surface, challenge: CoverChallenge, budget: Budget,
                 rank: int = 1, log: Counter | None = None):
    """jump1 (or jump2) certificates whose t0 lies outside every cover image.

    Every emitted t0 satisfies is_square(h_i(t0)) = False for each cover in
    the challenge; an empty challenge reproduces the unfiltered stream.
    """
    if rank not in (1, 2):
        raise ValueError("rank must be 1 or 2")
    yield from (jump1 if rank == 1 else jump2)(surface, budget, avoid=challenge, log=log)


def field_census(surface, x0_height_bound: int) -> tuple[list[tuple[int, int]], int]:
    """(distinct extension classes, solvable fibres) of height <= h for each
    h = 1..bound, from one pass over _fibres, height by height, and the
    number of degenerate x0."""
    log, classes, rows, solvable = Counter(), set(), [], 0
    for h in range(1, x0_height_bound + 1):
        for fib in _fibres(surface, rationals_of_height(h), log):
            solvable += 1
            classes.add(fib.ext_class)
        rows.append((len(classes), solvable))
    return rows, log[DEGENERATE]


def verify_certificate(surface, cert: RankJumpCertificate) -> tuple[bool, list[str]]:
    """Re-verify a certificate from scratch; returns (ok, failure reasons).

    The surface is the fibred (twist or km) form the search ran on. Checks, in
    the order of the reasons: each point has one provenance x0, t0 avoids
    singular fibres, the curve is the specialised one, each point is on it
    (once, as a triple: through the chart that is the fibre equation too),
    pulls back to x = x0 and is not torsion, a pair is independent (on the
    triples, by 2-descent over Q on a twist whose f splits, else modulo
    primes, and by the regulator's heights in a fresh table only where it
    defers), and the recorded bounds, exactness and regulator match the
    surface and the evidence (a regulator: a pair), its reduced int pairs
    typed where it is made or read (store._record) and read as they are.
    """
    if len(cert.points) != len(cert.provenance):
        return False, [f"point count {len(cert.points)} does not match provenance count "
                       f"{len(cert.provenance)}"]
    reasons = []
    try:
        spec = specialize(surface, *cert.t0)
    except SingularSpecializationError as exc:
        return False, [f"specialisation failed: {exc}"]
    if (spec.curve.A, spec.curve.B) != tuple(cert.curve):
        return False, ["recorded curve does not match the specialised fibre"]
    E, Js = spec.curve, []
    for P, x0 in zip(cert.points, cert.provenance):
        try:
            J = E._jac(P)
        except OffCurveError:
            why = "is off the curve"
        else:  # P = ((xn, xd), y) pulls back to x0 iff xn/xd = X/D
            (X, D), _ = spec.moved(x0, (0, 1))
            why = (f"does not come from the fibre x = {ratio_str(*x0)}"
                   if P[0][0] * D != X * P[0][1]
                   else "is torsion" if E.torsion_order(J) is not None else None)
        if why is None:
            Js.append(J)
        else:
            reasons.append(f"point ({ratio_str(*P[0])}, {ratio_str(*P[1])}) {why}")
    if reasons:
        return False, reasons
    if len(Js) == 2:
        roots = surface.f_roots if isinstance(surface, TwistFamily) else None
        if not (descent_mod_p(E, *Js) if roots is None else two_descent_independent(
                E, [spec.moved(r.as_integer_ratio(), (0, 1))[0] for r in roots], *Js)):
            verdict = regulator(E, *Js, {})
            if not verdict.independent:
                reasons.append(f"regulator verdict is {verdict.verdict}")
    elif len(Js) != 1:
        reasons.append(f"unsupported point count {len(Js)}")
    r_bound, r_exact = rank_bound_data(surface)
    if cert.generic_rank_bound != r_bound:
        reasons.append("recorded generic rank bound is wrong")
    if cert.rank_bound_exact != r_exact:
        reasons.append("recorded exactness of the rank bound is wrong")
    if cert.claimed_rank_lower_bound != len(Js):
        reasons.append("claimed rank bound does not match the evidence")
    if cert.regulator is not None and len(Js) != 2:
        reasons.append("a regulator is recorded without a pair of points")
    return not reasons, reasons
