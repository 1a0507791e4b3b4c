import contextlib
import io
import json
import random
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    REDUCIBLE,
    admits_fraction,
    census_rescan,
    distinct_up_to,
    fibre_product_genus,
    int_pair,
    jump1_lookahead,
    pair_torsion_order,
    point,
    ratios,
)
from test_conics import coeff, km_through, nonzero, surfaces
from rankjump import conics, curves, jumps
from rankjump.cli import main
from rankjump.config import build_surface, parse_surface_config
from rankjump.conics import (
    ConicFibre,
    DegenerateFibreError,
    branch_locus,
    conic_fibre,
    conic_solvable,
    rationals_by_height,
)
from rankjump.curves import EllipticCurveQ, specialize
from rankjump.jumps import (
    Budget,
    CoverChallenge,
    RankJumpCertificate,
    avoid_covers,
    field_census,
    jump1,
    jump2,
    rank_bound_data,
    verify_certificate,
)
from rankjump.polynomial import RatPoly, poly_gcd
from rankjump.store import record_from_json
from rankjump.surfaces import KMFamily, TwistFamily

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
T = RatPoly([0, 1])
F_CUBIC = T**3 - T


def usual_twist():
    return TwistFamily(F_CUBIC, T)


def split_twist():
    return TwistFamily(F_CUBIC, T**2 - 1)


def mordell():
    return KMFamily(RatPoly([1]), RatPoly(), RatPoly(), T)


class TestBudget:
    """Budget holds the one rule for search limits that cli._parse_budget and
    store._record both apply: three positive ints, a bool being none."""

    @pytest.mark.parametrize("limits", [(0, 1, 1), (1, -1, 1), (1, 1, 0), (True, 1, 1),
                                        (1, 2.0, 1), (1, 1, "1"), (1, 1, None)])
    def test_refuses_a_limit_that_is_no_positive_int(self, limits):
        with pytest.raises(ValueError, match="a budget is three positive integers"):
            Budget(*limits)

    def test_keeps_positive_ints(self):
        assert Budget(1, 2, 3) == Budget(x0_height=1, param_height=2, count=3)


class TestJump1:
    @settings(max_examples=40, deadline=None)
    @given(surfaces(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 25),
           st.one_of(st.none(), st.tuples(st.integers(-3, 3).filter(bool), st.integers(-3, 3))))
    def test_stage_slices_match_the_lookahead_walk(self, s, x0_height, param_height, count,
                                                     cover):
        # the same certificates, in the same order, and the same log as the
        # walk that reads each fibre's whole pencil through a lookahead
        budget = Budget(x0_height, param_height, count)
        avoid = None if cover is None else CoverChallenge((RatPoly([cover[1], cover[0]]),))
        runs = []
        for search in (jump1, jump1_lookahead):
            log = Counter()
            certs = [(c.t0, c.points, c.provenance) for c in search(s, budget, avoid, log=log)]
            runs.append((certs, log))
        assert runs[0] == runs[1]

    def test_twist_stream(self):
        certs = list(jump1(usual_twist(), Budget(8, 8, 60)))
        assert len(certs) == 60
        by_t0 = {c.t0: c for c in certs}
        assert len(by_t0) == 60  # distinct t0
        assert by_t0[int_pair(6)].points == [(int_pair(12), int_pair(36))]
        assert by_t0[int_pair(6)].provenance == [int_pair(2)]
        for c in certs:
            assert c.generic_rank_bound == 0 and c.rank_bound_exact
            assert c.claimed_rank_lower_bound == 1

    def test_certificates_verify(self):
        s = usual_twist()
        for cert in jump1(s, Budget(6, 6, 10)):
            ok, reasons = verify_certificate(s, cert)
            assert ok, reasons

    def test_points_nontorsion_on_curve(self):
        s = usual_twist()
        for cert in jump1(s, Budget(6, 6, 15)):
            E = EllipticCurveQ(*cert.curve)
            for x, y in cert.points:
                P = point(Fraction(*x), Fraction(*y))
                assert E.is_on(ratios(P))
                assert pair_torsion_order(E, P) is None

    def test_fibre_relation_of_provenance(self):
        # g(t0) f(x0) must be a nonzero square for the producing fibre
        from rankjump.arith import is_square

        s = usual_twist()
        for cert in jump1(s, Budget(6, 6, 20)):
            x0 = Fraction(*cert.provenance[0])
            val = s.g(Fraction(*cert.t0)) * s.f(x0)
            assert val != 0 and is_square(val)

    def test_mordell_stream(self):
        certs = list(jump1(mordell(), Budget(8, 8, 60)))
        by_t0 = {c.t0: c for c in certs}
        assert by_t0[int_pair(3)].points == [(int_pair(1), int_pair(2))]
        for cert in certs[:10]:
            ok, reasons = verify_certificate(mordell(), cert)
            assert ok, reasons

    def test_determinism_and_count_monotonicity(self):
        s = usual_twist()
        run1 = [c.t0 for c in jump1(s, Budget(6, 6, 25))]
        run2 = [c.t0 for c in jump1(s, Budget(6, 6, 25))]
        assert run1 == run2
        longer = [c.t0 for c in jump1(s, Budget(6, 6, 40))]
        assert longer[:25] == run1

    def test_budget_exhaustion_is_partial(self):
        certs = list(jump1(usual_twist(), Budget(2, 2, 1000)))
        assert 0 < len(certs) < 1000


class TestJump2:
    def test_split_twist_certificates(self):
        log = Counter()
        certs = list(jump2(split_twist(), Budget(18, 8, 3), log=log))
        assert len(certs) == 3
        for c in certs:
            assert c.claimed_rank_lower_bound == 2
            det, err = c.regulator
            assert det - err > 1e-6
            ok, reasons = verify_certificate(split_twist(), c)
            assert ok, reasons
        assert log["dependent pairs"] > 0  # the search had to discard pairs

    def test_dependent_pair_never_emitted(self):
        # the classic dependent pair lives over t0 = 6 on the g = t family
        certs = list(jump2(usual_twist(), Budget(10, 6, 4)))
        for c in certs:
            if c.t0 == int_pair(6):
                assert sorted(c.points) != [(int_pair(12), int_pair(36)),
                                            (int_pair(18), int_pair(72))]

    def test_km_stream_intersection(self):
        log = Counter()
        certs = list(jump2(mordell(), Budget(6, 10, 2), log=log))
        for c in certs:
            assert c.claimed_rank_lower_bound == 2
            ok, reasons = verify_certificate(mordell(), c)
            assert ok, reasons
        # the search must at least have examined pairs
        assert log["fibres tried"] > 0

    def test_km_twist_in_disguise_yields_nothing(self):
        # (g y)^2 = g f(x) hides a twist family inside the quadratic-
        # coefficient shape; every fibre pair shares its branch locus, so the
        # stream-intersection path skips them all and the stream is empty
        g = T**2 - 1
        km = KMFamily(g, RatPoly(), -g, RatPoly())
        from rankjump.surfaces import is_twist_case, to_weierstrass

        assert is_twist_case(to_weierstrass(km)) is not None
        certs = list(jump2(km, Budget(5, 5, 2)))
        assert certs == []

    def test_distinct_points_on_fibre(self):
        for c in jump2(split_twist(), Budget(18, 8, 2)):
            (x1, y1), (x2, y2) = c.points
            assert (x1, y1) != (x2, y2)
            E = EllipticCurveQ(*c.curve)
            P1, P2 = (point(Fraction(*x), Fraction(*y)) for x, y in c.points)
            assert E.is_on(ratios(P1)) and E.is_on(ratios(P2))

    @pytest.mark.parametrize("config,budget", [("mordell", "8,8,5"), ("split-twist", "18,10,5")])
    def test_height_precision_error_is_inconclusive(self, config, budget, capsys, monkeypatch):
        """With the size cap on the formal-group multiple at 0 bits, every
        height whose multiple is formed by a sum raises PrecisionError; jump
        counts each such pair as inconclusive, as it does the regulator's
        own inconclusive verdicts, and ends in exit 0 or 3, not in a
        traceback."""
        raised, inconclusive = [], []
        regulator = jumps.regulator

        def counting_regulator(E, JP, JQ, heights):
            try:
                verdict = regulator(E, JP, JQ, heights)
            except curves.PrecisionError:
                raised.append(E)
                raise
            if verdict.verdict == "inconclusive":
                inconclusive.append(E)
            return verdict

        monkeypatch.setattr(curves, "_FORMAL_GROUP_BITS_CAP", 0)
        monkeypatch.setattr(jumps, "regulator", counting_regulator)
        argv = ["jump", "--config", str(CONFIGS / f"{config}.cfg"), "--rank", "2",
                "--budget", budget]
        assert main(argv) in (0, 3)
        summary = [line for line in capsys.readouterr().err.splitlines()
                   if line.startswith("# search:")]
        assert raised and len(summary) == 1
        assert f"inconclusive {len(raised) + len(inconclusive)}," in summary[0]


def _search_counts(capsys) -> dict[str, int]:
    """The counts of the one `# search:` line on stderr, by label."""
    [line] = [l for l in capsys.readouterr().err.splitlines() if l.startswith("# search:")]
    counts = line.split("; ")[1].split(", ")
    return {name: int(n) for name, n in (count.rsplit(" ", 1) for count in counts)}


class TestSearchCounts:
    """Each count the `# search:` line prints equals the events counted by
    wrapping what the search calls, not read back from its own Counter: the
    pinned benchmark lines print unsolvable 0 and inconclusive 0, so a key
    misspelt for either would pass them."""

    def test_fibre_and_pair_counts_match_the_wrapped_calls(self, tmp_path, capsys, monkeypatch):
        # (t^2 + 1) y^2 = x^3 - x: most fibres have no point, one pair is dependent
        events, verdicts = Counter(), Counter()
        fibre, solvable, regulator = jumps.conic_fibre, jumps.conic_solvable, jumps.regulator

        def counting_fibre(surface, n, d):
            events["conic_fibre"] += 1
            try:
                return fibre(surface, n, d)
            except DegenerateFibreError:
                events["DegenerateFibreError"] += 1
                raise

        def counting_solvable(fib):
            ok = solvable(fib)
            events["unsolvable"] += not ok
            return ok

        def counting_regulator(E, JP, JQ, heights):
            verdict = regulator(E, JP, JQ, heights)
            verdicts[verdict.verdict] += 1
            return verdict

        monkeypatch.setattr(jumps, "conic_fibre", counting_fibre)
        monkeypatch.setattr(jumps, "conic_solvable", counting_solvable)
        monkeypatch.setattr(jumps, "regulator", counting_regulator)
        cfg = tmp_path / "surface.cfg"
        cfg.write_text("kind = twist\nf = 0, -1, 0, 1\ng = 1, 0, 1\n")
        assert main(["jump", "--config", str(cfg), "--rank", "2", "--budget", "6,6,2"]) == 3
        printed = _search_counts(capsys)
        assert list(printed) == list(jumps.SEARCH_COUNTS)
        assert printed["fibres tried"] == events["conic_fibre"] == 47
        assert printed["degenerate"] == events["DegenerateFibreError"] == 3
        assert printed["unsolvable"] == events["unsolvable"] == 42
        assert printed["dependent pairs"] == verdicts["dependent"] == 1
        assert printed["inconclusive"] == verdicts["inconclusive"] == 0

    def test_each_precision_error_counts_as_inconclusive(self, capsys, monkeypatch):
        calls = []

        def raising_regulator(E, JP, JQ, heights):
            calls.append(E)
            raise curves.PrecisionError("height precision out of reach")

        monkeypatch.setattr(jumps, "regulator", raising_regulator)
        argv = ["jump", "--config", str(CONFIGS / "usual-twist.cfg"), "--rank", "2",
                "--budget", "6,6,2"]
        assert main(argv) == 3  # no pair is ever independent
        printed = _search_counts(capsys)
        assert calls and printed["inconclusive"] == len(calls)
        assert printed["dependent pairs"] == 0


#: Two branch points of a drawn split fibre polynomial; None is the place at infinity.
BRANCH_PAIRS = st.lists(st.sampled_from((None, -2, -1, 0, 1, 2)), min_size=2, max_size=2,
                        unique=True)


def _with_roots(roots) -> RatPoly:
    """The monic polynomial with the given roots, None adding none: linear
    polynomials branch at infinity."""
    p = RatPoly([1])
    for r in roots:
        if r is not None:
            p = p * (T - r)
    return p


@st.composite
def km_fibre_pairs(draw):
    """(km surface, x1, x2) with drawn fibre polynomials over x1 != x2: one
    kernel h times two drawn scalars, two split polynomials with drawn
    branch points, or any two."""
    x1, x2 = draw(coeff), draw(coeff)
    assume(x1 != x2)
    kind = draw(st.sampled_from(("same kernel", "split", "any")))
    if kind == "same kernel":
        h = RatPoly([draw(coeff), draw(coeff), draw(st.sampled_from((0, 1)))])
        q1, q2 = draw(nonzero) * h, draw(nonzero) * h
    elif kind == "split":
        q1, q2 = (draw(nonzero) * _with_roots(draw(BRANCH_PAIRS)) for _ in range(2))
    else:
        q1, q2 = (RatPoly([draw(coeff) for _ in range(3)]) for _ in range(2))
    return km_through(draw, {x1: q1, x2: q2}), x1, x2


class TestT0Order:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(min_value=-60, max_value=60, max_denominator=60), max_size=40))
    @example([Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(2, 3),
              Fraction(-3, 2), Fraction(-2, 3), Fraction(3), Fraction(-3)])
    def test_matches_the_fraction_key(self, ts):
        """_intersection_points sorts its int-pair t0 by _t0_order in the
        order of the Fraction key (height, sign, value) it replaced."""
        items = [(t.as_integer_ratio(), i) for i, t in enumerate(dict.fromkeys(ts))]
        by_fraction = sorted(items, key=lambda kv: (
            max(abs(kv[0][0]), kv[0][1]), kv[0][0] < 0, Fraction(*kv[0])))
        assert sorted(items, key=jumps._t0_order) == by_fraction


class TestKernelSkip:
    @settings(max_examples=100, deadline=None)
    @given(km_fibre_pairs())
    @example((KMFamily(T**2 - 1, RatPoly(), 1 - T**2, RatPoly()), Fraction(2), Fraction(3)))
    @example((mordell(), Fraction(1), Fraction(2)))
    def test_matches_the_genus_oracle(self, case):
        """A km pair's kernels agree exactly when the genus oracle finds its
        fibre product reducible, and then _intersection_points skips it
        without parametrising either fibre."""
        s, x1, x2 = case
        try:
            src = conic_fibre(s, *x1.as_integer_ratio())
            other = conic_fibre(s, *x2.as_integer_ratio())
        except DegenerateFibreError:
            assume(False)
        reducible = fibre_product_genus(branch_locus(src.ext_class),
                                        branch_locus(other.ext_class)) == REDUCIBLE
        assert (src.ext_class.h == other.ext_class.h) == reducible
        if reducible:
            streams = {}
            assert list(jumps._intersection_points(streams, 4, src, other)) == []
            assert streams == {}


SMALL_Q = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def cover_cases(draw):
    """(covers, t0): one or two squarefree h of degree 1 or 2, and t0 drawn,
    or chosen where the first h, if linear, takes a drawn square (0 too)."""
    covers = []
    for _ in range(draw(st.integers(1, 2))):
        h = RatPoly([draw(SMALL_Q), draw(SMALL_Q.filter(bool))])
        if draw(st.booleans()):
            h = h * RatPoly([draw(SMALL_Q), draw(SMALL_Q.filter(bool))])
        assume(poly_gcd(h, h.derivative()).degree == 0)
        covers.append(h)
    s, h = draw(SMALL_Q), covers[0]
    t0 = (s * s - h[0]) / h[1] if h.degree == 1 and draw(st.booleans()) else draw(SMALL_Q)
    return tuple(covers), t0


class TestAvoidCovers:
    def test_single_cover(self):
        challenge = CoverChallenge((T,))
        certs = list(avoid_covers(usual_twist(), challenge, Budget(6, 6, 20)))
        t0s = {Fraction(*c.t0) for c in certs}
        assert Fraction(6) in t0s  # 6 is not a square
        for t0 in t0s:
            assert not is_sq(t0)

    def test_two_covers_reject_six(self):
        challenge = CoverChallenge((T, T - 5))
        certs = list(avoid_covers(usual_twist(), challenge, Budget(8, 8, 30)))
        t0s = {Fraction(*c.t0) for c in certs}
        assert Fraction(6) not in t0s  # 6 - 5 = 1 is a square
        assert Fraction(24) in t0s     # 24 and 19 are not squares
        for t0 in t0s:
            assert not is_sq(t0) and not is_sq(t0 - 5)

    def test_empty_challenge_matches_jump1(self):
        challenge = CoverChallenge(())
        a = [c.t0 for c in avoid_covers(usual_twist(), challenge, Budget(6, 6, 15))]
        b = [c.t0 for c in jump1(usual_twist(), Budget(6, 6, 15))]
        assert a == b

    def test_rank_two_stream_is_jump2s(self):
        # h(-42/125) = 1: the first rank-2 t0 on the usual twist is avoided
        challenge, budget = CoverChallenge((T + Fraction(167, 125),)), Budget(10, 6, 4)
        logs = Counter(), Counter()
        certs = list(avoid_covers(usual_twist(), challenge, budget, rank=2, log=logs[0]))
        assert certs == list(jump2(usual_twist(), budget, avoid=challenge, log=logs[1]))
        assert [Fraction(*c.t0) for c in certs] == [Fraction(-168, 125), Fraction(-21, 250),
                                                    Fraction(-378, 125), Fraction(-189, 250)]
        assert logs[0] == logs[1] and logs[0]["avoided t0"] == 4

    def test_rank_other_than_one_or_two_is_refused(self):
        for rank in (0, 3):
            stream = avoid_covers(usual_twist(), CoverChallenge(()), Budget(1, 1, 1), rank=rank)
            with pytest.raises(ValueError, match="rank must be 1 or 2"):
                next(stream)

    def test_cover_validation(self):
        with pytest.raises(ValueError):
            CoverChallenge((RatPoly([3]),))
        with pytest.raises(ValueError):
            CoverChallenge(((T - 1) ** 2,))

    def test_zero_value_counts_as_image(self):
        challenge = CoverChallenge((T - 6,))
        certs = list(avoid_covers(usual_twist(), challenge, Budget(6, 6, 20)))
        assert all(c.t0 != int_pair(6) for c in certs)

    @settings(max_examples=300, deadline=None)
    @given(cover_cases())
    @example(((T,), Fraction(4, 9)))
    @example(((T,), Fraction(6)))
    @example(((T - 6,), Fraction(6)))
    @example(((T, T - 5), Fraction(6)))
    @example(((T * T + 1,), Fraction(0)))
    def test_admits_matches_the_fraction_path(self, case):
        # admits reads h(n/d) = N/M in integers: a square exactly when N M is
        covers, t0 = case
        assert CoverChallenge(covers).admits(*t0.as_integer_ratio()) == admits_fraction(covers, t0)


def is_sq(q):
    from rankjump.arith import is_square

    return is_square(q)


class TestFieldCensus:
    def test_distinct_classes(self):
        rows, _ = field_census(usual_twist(), 3)
        # x0 = 2, 3 share the class of 6t; x0 = 2, 4 do not (360 not square)
        f2 = conic_fibre(usual_twist(), 2)
        f3 = conic_fibre(usual_twist(), 3)
        f4 = conic_fibre(usual_twist(), 4)
        assert f2.ext_class == f3.ext_class
        assert f2.ext_class != f4.ext_class
        # both solvable, so the census counts their one class for two fibres
        assert conic_solvable(f2) and conic_solvable(f3)
        assert rows == census_rescan(usual_twist(), 3)[0]
        assert rows[-1][0] < rows[-1][1]

    def test_degenerate_skipped(self):
        # x0 in {0, 1, -1} are all roots of f
        assert field_census(usual_twist(), 1) == ([(0, 0)], 3)
        assert census_rescan(usual_twist(), 1) == ([(0, 0)], 3)

    def test_monotone_in_bound(self):
        prev = 0
        for bound in (2, 4, 6, 8):
            distinct = field_census(usual_twist(), bound)[0][-1][0]
            assert distinct >= prev
            prev = distinct
        assert prev >= 8

    def test_distinct_up_to_matches_full_runs(self):
        rows, _ = field_census(usual_twist(), 8)
        for bound in (2, 4, 6):
            assert rows[bound - 1][0] == distinct_up_to(usual_twist(), bound) == field_census(
                usual_twist(), bound
            )[0][-1][0]

    def test_rows_match_rescans(self):
        # (t^2 - 7) y^2 = x^3 - x mixes solvable and unsolvable fibres
        s = TwistFamily(F_CUBIC, T * T - 7)
        rows, degenerate = field_census(s, 7)
        assert 0 < rows[-1][1] < len(list(rationals_by_height(7))) - degenerate
        assert (rows, degenerate) == census_rescan(s, 7)

    @settings(max_examples=40, deadline=None)
    @given(surfaces(), st.integers(1, 6))
    def test_rows_match_rescans_on_drawn_surfaces(self, s, bound):
        assert field_census(s, bound) == census_rescan(s, bound)

    def test_census_leaves_the_pencil_cache_alone(self, capsys):
        """The census builds each height's pairs afresh: a large --height
        leaves conics._pairs_of_height, unbounded and kept for the pencils'
        small heights, as it was."""
        before = conics._pairs_of_height.cache_info()
        argv = ["census", "--config", str(CONFIGS / "usual-twist.cfg"), "--height", "200"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-2].split()[0] == "200"
        assert conics._pairs_of_height.cache_info() == before

    def test_census_builds_no_matrix(self, monkeypatch):
        """The census reads each fibre's class and obstruction only: on the
        shipped configs, at the benchmark's height 30, no fibre's matrix is
        built."""
        def no_matrix(fibre):
            raise AssertionError(f"the matrix of the fibre over {fibre.x0_ratio} was built")

        monkeypatch.setattr(ConicFibre, "matrix", property(no_matrix))
        configs = sorted(CONFIGS.glob("*.cfg"))
        assert len(configs) == 3
        for path in configs:
            field_census(parse_surface_config(path.read_text()).fibred, 30)


def _config_text(s) -> str:
    """A config file for the twist or km surface s."""
    if isinstance(s, TwistFamily):
        kind, polys = "twist", {"f": s.f, "g": s.g}
    else:
        kind, polys = "km", {"a3": s.a3, "a2": s.a2, "a1": s.a1, "a0": s.a0}
    return f"kind = {kind}\n" + "".join(
        f"{name} = {', '.join(map(str, p.coeffs)) or '0'}\n" for name, p in polys.items())


class TestDrawnSurfacesEndToEnd:
    """jump on drawn valid surfaces, in process: every run ends in exit 0
    (the count reached) or 3 (the budget spent), never in an exception or
    in exit 4, a certificate failing its re-verification, at rank 1 and
    rank 2 on twist and km surfaces alike; no record claims more rank than
    its point count, also where the generic rank bound is positive."""

    @settings(max_examples=40, deadline=None)
    @given(surfaces())
    def test_jump_exits_0_or_3(self, s):
        text = _config_text(s)
        assert build_surface(parse_surface_config(text)) == s
        with tempfile.TemporaryDirectory() as d:
            cfg = f"{d}/s.cfg"
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            for rank in ("1", "2"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["jump", "--config", cfg, "--rank", rank, "--budget", "4,4,3"])
                assert code in (0, 3), (text, rank, err.getvalue())
                for record in map(json.loads, out.getvalue().splitlines()):
                    assert record["claimed_rank_lower_bound"] == len(record["points"]), text


class TestVerification:
    def test_tampered_point_fails(self):
        s = usual_twist()
        cert = next(iter(jump1(s, Budget(6, 6, 1))))
        x, y = cert.points[0]
        cert.points[0] = (x, int_pair(Fraction(*y) + 1))
        ok, reasons = verify_certificate(s, cert)
        assert not ok and any("off the curve" in r for r in reasons)

    def test_tampered_bound_fails(self):
        s = usual_twist()
        cert = next(iter(jump1(s, Budget(6, 6, 1))))
        cert.claimed_rank_lower_bound += 1
        ok, reasons = verify_certificate(s, cert)
        assert not ok and any("claimed rank" in r for r in reasons)

    def test_singular_t0_fails(self):
        s = usual_twist()
        cert = next(iter(jump1(s, Budget(6, 6, 1))))
        cert.t0 = int_pair(0)
        ok, reasons = verify_certificate(s, cert)
        assert not ok

    def test_rank_bound_data(self):
        assert rank_bound_data(usual_twist()) == (0, True)
        assert rank_bound_data(mordell()) == (0, True)

    # forged certificates on y^2 = x^3 - 36x (usual twist, t0 = 6; (6, 0)
    # pulls back to x = 1) and y^2 = x^3 + 1 (mordell, t0 = 1; (2, 3) pulls
    # back to x = 2, order 6): per point, off the curve comes before a wrong
    # fibre, and a wrong fibre before torsion; a point without a provenance,
    # or a provenance without a point, comes first
    @pytest.mark.parametrize("surface, t0, curve, points, provenance, reasons", [
        (usual_twist, 6, (-36, 0), [(12, 37)], [5], ["point (12, 37) is off the curve"]),
        (usual_twist, 6, (-36, 0), [(6, 0)], [2],
         ["point (6, 0) does not come from the fibre x = 2"]),
        (usual_twist, 6, (-36, 0), [(6, 0)], [1], ["point (6, 0) is torsion"]),
        (mordell, 1, (0, 1), [(2, 4)], [3], ["point (2, 4) is off the curve"]),
        (mordell, 1, (0, 1), [(2, 3)], [1], ["point (2, 3) does not come from the fibre x = 1"]),
        (mordell, 1, (0, 1), [(2, 3)], [2], ["point (2, 3) is torsion"]),
        (usual_twist, 6, (-36, 0), [(6, 0), (12, 37)], [1, 5],
         ["point (6, 0) is torsion", "point (12, 37) is off the curve"]),
        (usual_twist, 6, (-36, 0), [(6, 0), (1, 1)], [1],
         ["point count 2 does not match provenance count 1"]),
        (usual_twist, 6, (-36, 0), [(6, 0)], [1, 1],
         ["point count 1 does not match provenance count 2"]),
    ])
    def test_reason_order_on_forged_points(self, surface, t0, curve, points, provenance,
                                           reasons):
        cert = RankJumpCertificate(
            t0=int_pair(t0), curve=tuple(map(int_pair, curve)),
            points=[tuple(map(int_pair, P)) for P in points],
            provenance=[int_pair(x0) for x0 in provenance], generic_rank_bound=0,
            rank_bound_exact=True, claimed_rank_lower_bound=len(points))
        assert verify_certificate(surface(), cert) == (False, reasons)

    def test_verify_checks_each_point_on_the_curve_once(self, tmp_path, capsys, monkeypatch):
        # the seed-0 certificates of the benchmark's rank-1 and rank-2
        # searches: verify_certificate meets each point's curve equation
        # once, the regulator on an open pair included, and never
        # evaluates a km fibre
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import gen
        import run

        inputs = gen.write_inputs(0, tmp_path / "inputs")
        records = []
        for workload in ("rank1-search", "rank2-search"):
            for i, cmd in enumerate(run.commands_for(workload, inputs)):
                argv = [a.replace("{store}", str(tmp_path / f"store-{workload}-{i}"))
                        for a in cmd["argv"]]
                assert main(argv) == 0
                records += map(record_from_json, capsys.readouterr().out.splitlines())
        surfaces = {}
        for rec in records:
            if rec.surface.definition not in surfaces:
                surfaces[rec.surface.definition] = rec.surface.fibred

        checked, is_on = [], EllipticCurveQ.is_on

        def counting_is_on(self, P):
            checked.append(P)
            return is_on(self, P)

        def no_fibre_ints(self, n, d):
            raise AssertionError("the fibre equation was evaluated")

        monkeypatch.setattr(EllipticCurveQ, "is_on", counting_is_on)
        monkeypatch.setattr(KMFamily, "fibre_ints", no_fibre_ints)
        shapes = Counter()
        for rec in records:
            checked.clear()
            cert = rec.certificate
            assert verify_certificate(surfaces[rec.surface.definition], cert) == (True, [])
            assert checked == [(x, y) for x, y in cert.points]
            shapes[rec.surface.kind, len(cert.points)] += 1
        assert shapes == {("km", 1): 300, ("twist", 1): 300, ("km", 2): 5, ("twist", 2): 10}
