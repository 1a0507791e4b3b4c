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
have identical branch loci (reducible fibre product) are skipped.

All three searches take their fibres from one source, _fibres, fed x0 in
the height order of conics.rationals_by_height; it yields the solvable
fibres and counts tried, degenerate and unsolvable ones. jump1 reads it one
height stage at a time; jump2 reads it lazily, forms each pair as its later
fibre arrives and builds no fibre after its certificate count is reached,
so its fibres tried are those built before it stopped. The searches only
propose a parameter value t0 with fibre points over it; one certification
stage specialises, transports, rejects torsion and asks the regulator about
pairs (a pair with P + Q or P - Q torsion is settled exactly, without a
height; see curves.regulator). The surface's invariants (short model,
transport chart, rank bound) are computed once per surface object, not per
candidate. Searches and verify_certificate both work on the fibred (twist
or km) form, so a Weierstrass model hiding a twist is searched and verified
in twist form (see config.fibred_surface).

With avoid set, any search keeps only parameter values outside the image
of every cover of a finite challenge of quadratic covers; avoid_covers is
jump1 or jump2 with avoid set. field_census walks the same height order
with its own loop, since it also records the classes of unsolvable fibres
and the degenerate x0; it counts the quadratic-extension classes realised
by solvable fibres.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .arith import is_square, rational_sqrt
from .conics import (
    REDUCIBLE,
    ConicFibre,
    DegenerateFibreError,
    QuadExtClass,
    conic_fibre,
    conic_solvable,
    fibre_product_genus,
    height,
    parametrize,
    parametrize_heights,
    rationals_by_height,
    rationals_of_height,
)
from .curves import (
    PointQ,
    RegulatorResult,
    SingularSpecializationError,
    regulator,
    specialize,
)
from .polynomial import RatPoly, poly_gcd
from .surfaces import KMFamily, TwistFamily, to_weierstrass


@dataclass(frozen=True)
class Budget:
    """Search limits: fibre height, parametrisation height, certificate count."""

    x0_height: int = 20
    param_height: int = 16
    count: int = 100


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

    def admits(self, t0) -> bool:
        """True iff t0 avoids the image of every cover, i.e. no h_i(t0) is a
        square (values 0 lie under a branch point, hence in the image)."""
        return all(not is_square(h(t0)) for h in self.covers)


@dataclass
class RankJumpCertificate:
    """A fibre parameter with points and the evidence for a rank lower bound."""

    label: str
    t0: Fraction
    curve: tuple[Fraction, Fraction]            # (A, B) of the specialised curve
    points: list[tuple[Fraction, Fraction]]
    provenance: list[Fraction]                  # fibre parameter x0 per point
    generic_rank_bound: int
    rank_bound_exact: bool
    claimed_rank_lower_bound: int
    regulator: tuple[float, float] | None = None   # (determinant, error) for pairs


@dataclass
class SearchLog:
    """Side information accumulated by a search run."""

    fibres_tried: int = 0
    degenerate_fibres: int = 0
    unsolvable_fibres: int = 0
    torsion_rejects: int = 0
    dependent_pairs: int = 0
    inconclusive_pairs: int = 0
    avoided_t0: int = 0


def rank_bound_data(surface) -> tuple[int, bool]:
    """Shioda-Tate bound for the generic rank; exact exactly when it is 0."""
    r = to_weierstrass(surface).rank_bound
    return r, r == 0


def _fibres(surface, x0s, log: SearchLog):
    """The solvable conic fibres over x0s, in order; every x0 counts as
    tried in log, and as degenerate or unsolvable when it yields nothing."""
    for x0 in x0s:
        log.fibres_tried += 1
        try:
            fib = conic_fibre(surface, x0)
        except DegenerateFibreError:
            log.degenerate_fibres += 1
            continue
        if conic_solvable(fib):
            yield fib
        else:
            log.unsolvable_fibres += 1


def _certify(surface, t0: Fraction, points, seen: set[Fraction],
             avoid: CoverChallenge | None, label: str,
             log: SearchLog) -> RankJumpCertificate | RegulatorResult | None:
    """The certificate carried by the fibre points [(x0, w), ...] over t0.

    Returns None when t0 is already certified, lies in a cover's image, sits
    under a singular fibre or carries a torsion point, and the regulator's
    verdict when a pair is not independent; each rejection is counted in
    log. On success t0 joins seen.
    """
    if t0 in seen:
        return None
    if avoid is not None and not avoid.admits(t0):
        log.avoided_t0 += 1
        return None
    try:
        spec = specialize(surface, t0)
    except SingularSpecializationError:
        return None
    pts = [spec.transport(x0, w) for x0, w in points]
    if any(spec.curve.torsion_order(P) is not None for P in pts):
        log.torsion_rejects += 1
        return None
    verdict = regulator(spec.curve, pts) if len(pts) == 2 else None
    if verdict is not None and not verdict.independent:
        if verdict.verdict == "dependent":
            log.dependent_pairs += 1
        else:
            log.inconclusive_pairs += 1
        return verdict
    seen.add(t0)
    r_bound, r_exact = rank_bound_data(surface)
    return RankJumpCertificate(
        label=label,
        t0=t0,
        curve=(spec.curve.A, spec.curve.B),
        points=[(P.x, P.y) for P in pts],
        provenance=[x0 for x0, _ in points],
        generic_rank_bound=r_bound,
        rank_bound_exact=r_exact,
        claimed_rank_lower_bound=r_bound + len(pts),
        regulator=None if verdict is None else (verdict.determinant, verdict.error),
    )


def jump1(surface, budget: Budget, avoid: CoverChallenge | None = None,
          label: str = "surface", log: SearchLog | None = None):
    """Certificates of one extra independent point, one per parameter value.

    Deterministic given surface and budget: fibre parameters x0 and line
    parameters m are swept jointly by max(height(x0), height(m)), and
    certificates carry distinct t0. The stream ends when the certificate
    count is reached or the budget is exhausted.
    """
    log = log if log is not None else SearchLog()
    seen: set[Fraction] = set()
    active = []  # per-fibre state: [fibre, height-annotated point source, lookahead]
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
                cert = _certify(surface, t0, [(fib.x0, w)], seen, avoid, label, log)
                if cert is not None:
                    yield cert
            slot[2] = pending


def jump2(surface, budget: Budget, avoid: CoverChallenge | None = None,
          label: str = "surface", log: SearchLog | None = None):
    """Certificates of two independent points over one parameter value.

    Only pairs whose regulator verdict is "independent" are emitted;
    dependent and inconclusive pairs are logged and skipped.
    """
    log = log if log is not None else SearchLog()
    if isinstance(surface, TwistFamily):
        yield from _jump2_shared_value(surface, budget, avoid, label, log)
    elif isinstance(surface, KMFamily):
        yield from _jump2_stream_intersection(surface, budget, avoid, label, log)
    else:
        raise TypeError("jump2 needs a twist or quadratic-coefficient family")


def _jump2_shared_value(surface: TwistFamily, budget: Budget,
                        avoid: CoverChallenge | None, label: str, log: SearchLog):
    f = surface.f
    # group the solvable fibres by quadratic-extension class as they arrive;
    # fibres of one class have a square value ratio, so they are solvable
    # together, and each new fibre pairs with the earlier ones of its class
    by_class: dict[QuadExtClass, list[ConicFibre]] = {}
    seen: set[Fraction] = set()
    for other in _fibres(surface, rationals_by_height(budget.x0_height), log):
        partners = by_class.setdefault(other.ext_class, [])
        for src in partners:
            # points flow along the earlier fibre; the partner point over the
            # same t0 comes from the shared class
            ratio = rational_sqrt(f(other.x0) / f(src.x0))
            assert ratio is not None, "fibres in one class have a square value ratio"
            for t0, w in parametrize(src, budget.param_height):
                out = _certify(surface, t0, [(src.x0, w), (other.x0, w * ratio)],
                               seen, avoid, label, log)
                if isinstance(out, RankJumpCertificate):
                    yield out
                    if len(seen) >= budget.count:
                        return
                elif out is not None:
                    # all shared-value points of this pair transport to one
                    # fixed pair on the twist-reduced curve, so one verdict
                    # settles it
                    break
        partners.append(other)


def _jump2_stream_intersection(surface: KMFamily, budget: Budget,
                               avoid: CoverChallenge | None, label: str, log: SearchLog):
    fibres: list[ConicFibre] = []
    streams: dict[int, dict[Fraction, Fraction]] = {}

    def stream(i: int) -> dict[Fraction, Fraction]:
        """t0 -> w of the first point over t0 of fibre i, in t0 order."""
        if i not in streams:
            pts: dict[Fraction, Fraction] = {}
            for t0, w in parametrize(fibres[i], budget.param_height):
                pts.setdefault(t0, w)
            streams[i] = dict(sorted(pts.items(),
                                     key=lambda kv: (height(kv[0]), kv[0] < 0, kv[0])))
        return streams[i]

    seen: set[Fraction] = set()
    # each fibre pairs with the earlier ones as it arrives
    for j, fib in enumerate(_fibres(surface, rationals_by_height(budget.x0_height), log)):
        fibres.append(fib)
        for i in range(j):
            if fibre_product_genus(fibres[i].branch, fib.branch) == REDUCIBLE:
                continue
            base = stream(i)
            for t0, w_j in stream(j).items():
                if t0 not in base:
                    continue
                out = _certify(surface, t0, [(fibres[i].x0, base[t0]), (fib.x0, w_j)],
                               seen, avoid, label, log)
                if isinstance(out, RankJumpCertificate):
                    yield out
                    if len(seen) >= budget.count:
                        return


def avoid_covers(surface, challenge: CoverChallenge, budget: Budget,
                 rank: int = 1, label: str = "surface", log: SearchLog | None = None):
    """jump1 (or jump2) certificates whose t0 lies outside every cover image.

    Every emitted t0 satisfies is_square(h_i(t0)) = False for each cover in
    the challenge; an empty challenge reproduces the unfiltered stream.
    """
    if rank == 1:
        yield from jump1(surface, budget, avoid=challenge, label=label, log=log)
    elif rank == 2:
        yield from jump2(surface, budget, avoid=challenge, label=label, log=log)
    else:
        raise ValueError("rank must be 1 or 2")


@dataclass
class CensusEntry:
    x0: Fraction
    ext_class: QuadExtClass
    solvable: bool


@dataclass
class CensusResult:
    """Quadratic-extension classes of the conic fibres up to a height bound."""

    entries: list[CensusEntry]
    degenerate: list[Fraction]
    class_counts: Counter = field(default_factory=Counter)   # solvable fibres only

    @property
    def distinct_classes(self) -> int:
        return len(self.class_counts)

    def distinct_up_to(self, bound: int) -> int:
        return len({e.ext_class for e in self.entries
                    if e.solvable and height(e.x0) <= bound})

    def rows(self, bound: int) -> list[tuple[int, int]]:
        """(distinct classes, solvable fibres) of height <= h for each
        h = 1..bound, from one pass over the height-ordered entries."""
        first: dict[QuadExtClass, int] = {}   # class -> height of its first fibre
        fibres: Counter = Counter()
        for e in self.entries:
            if e.solvable:
                h = height(e.x0)
                fibres[h] += 1
                first.setdefault(e.ext_class, h)
        new = Counter(first.values())
        heights = range(1, bound + 1)
        return list(zip(accumulate(new[h] for h in heights),
                        accumulate(fibres[h] for h in heights)))


def field_census(surface, x0_height_bound: int) -> CensusResult:
    """Extension classes of all fibres of height <= bound, with multiplicity
    counts restricted to fibres that have rational points."""
    entries = []
    degenerate = []
    counts: Counter = Counter()
    for x0 in rationals_by_height(x0_height_bound):
        try:
            fib = conic_fibre(surface, x0)
        except DegenerateFibreError:
            degenerate.append(x0)
            continue
        solvable = conic_solvable(fib)
        entries.append(CensusEntry(x0, fib.ext_class, solvable))
        if solvable:
            counts[fib.ext_class] += 1
    return CensusResult(entries, degenerate, counts)


def verify_certificate(surface, cert: RankJumpCertificate) -> tuple[bool, list[str]]:
    """Re-verify a certificate from scratch; returns (ok, failure reasons).

    The surface is the fibred (twist or km) form the search ran on. Checks: the parameter avoids singular fibres, each point satisfies the
    specialised curve equation exactly and pulls back to the claimed conic
    fibre, no point is torsion, pairs pass the regulator threshold, and the
    claimed bound matches the evidence.
    """
    reasons = []
    try:
        spec = specialize(surface, cert.t0)
    except SingularSpecializationError as exc:
        return False, [f"specialisation failed: {exc}"]
    if (spec.curve.A, spec.curve.B) != tuple(map(Fraction, cert.curve)):
        reasons.append("recorded curve does not match the specialised fibre")
        return False, reasons
    pts = []
    for (x, y), x0 in zip(cert.points, cert.provenance):
        P = PointQ(Fraction(x), Fraction(y))
        if not spec.curve.is_on(P):
            reasons.append(f"point {P} is off the curve")
            continue
        fx, fy = spec.pullback(P)
        if fx != Fraction(x0) or not _on_surface(surface, fx, fy, cert.t0):
            reasons.append(f"point {P} does not come from the fibre x = {x0}")
            continue
        if spec.curve.torsion_order(P) is not None:
            reasons.append(f"point {P} is torsion")
            continue
        pts.append(P)
    if reasons:
        return False, reasons
    if len(pts) == 2:
        verdict = regulator(spec.curve, pts)
        if not verdict.independent:
            reasons.append(f"regulator verdict is {verdict.verdict}")
    elif len(pts) != 1:
        reasons.append(f"unsupported point count {len(pts)}")
    r_bound, _ = rank_bound_data(surface)
    if cert.generic_rank_bound != r_bound:
        reasons.append("recorded generic rank bound is wrong")
    if cert.claimed_rank_lower_bound != r_bound + len(pts):
        reasons.append("claimed rank bound does not match the evidence")
    return not reasons, reasons


def _on_surface(surface, x: Fraction, y: Fraction, t: Fraction) -> bool:
    if isinstance(surface, TwistFamily):
        return surface.g(t) * y * y == surface.f(x)
    return y * y == surface.fibre_quadratic(x)(t)
