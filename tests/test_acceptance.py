"""Acceptance suite: every criterion of the build contract, at its stated
tolerance, printing one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import (
    GENUS_0,
    GENUS_1,
    REDUCIBLE,
    brute_force_conic_point,
    canonical_height_doubling,
    certify_unsolvable,
    distinct_up_to,
    fibre_product_genus,
    legendre_normalize,
    pair_add,
    pair_height,
    pair_torsion_order,
    point,
)
from rankjump.arith import DomainError, is_square
from rankjump.conics import (
    DegenerateFibreError,
    conic_fibre,
    conic_solvable,
    parametrize,
    rationals_by_height,
)
from rankjump.curves import EllipticCurveQ, SingularCurveError
from rankjump.jumps import (
    Budget,
    CoverChallenge,
    avoid_covers,
    field_census,
    jump1,
    jump2,
    verify_certificate,
)
from rankjump.polynomial import PLACE_AT_INFINITY, Place, RatPoly
from rankjump.store import CertificateRecord, append_records, verify_store
from rankjump.surfaces import (
    KMFamily,
    TwistFamily,
    classify_fibres,
    euler_number,
    is_twist_case,
    shioda_tate_bound,
    to_weierstrass,
)
from config_for_tests import surface_config  # noqa: F401  (helper defined below)

T = RatPoly([0, 1])
F_CUBIC = T**3 - T


def usual_twist():
    return TwistFamily(F_CUBIC, T)


def split_twist():
    return TwistFamily(F_CUBIC, T**2 - 1)


def mordell():
    return KMFamily(RatPoly([1]), RatPoly(), RatPoly(), T)


@pytest.fixture(autouse=True, scope="module")
def _warm_libraries():
    # timed criteria measure the operations, not interpreter warm-up
    import mpmath  # noqa: F401
    import sympy  # noqa: F401


def report(n, text, started):
    print(f"PASS criterion {n}: {text} ({time.monotonic() - started:.2f} s)")


def test_criterion_1_fibre_classification():
    started = time.monotonic()
    for g in (T, T - 2, T**2 - 1, T**2 - 2):
        s = TwistFamily(F_CUBIC, g)
        fibres = classify_fibres(to_weierstrass(s))
        assert euler_number(fibres) == 12
        assert shioda_tate_bound(fibres) == 0
        nonred = [fd for fd in fibres if not fd.kodaira.reduced]
        assert all(fd.kodaira.symbol == "I0*" for fd in nonred)
        assert sum(fd.place.degree for fd in nonred) == 2
        finite = [fd for fd in nonred if not fd.place.is_infinite]
        if g.degree == 2:
            # both non-reduced fibres over the roots of g, nothing at infinity
            assert sum(fd.place.degree for fd in finite) == 2
            assert all(fd.place is not PLACE_AT_INFINITY for fd in nonred)
        else:
            # exactly one finite non-reduced fibre, at the root of g, and the
            # same pattern again at the infinite place
            assert len(finite) == 1 and finite[0].place == Place(g.monic())
            assert any(fd.place.is_infinite for fd in nonred)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"classification took {elapsed:.2f} s"
    report(1, "2 I0* configurations, euler 12, rank bound 0", started)


def test_criterion_2_twist_roundtrip():
    started = time.monotonic()
    rng = random.Random(2024)
    count = 0
    while count < 100:
        f = RatPoly(
            [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(3)]
            + [Fraction(rng.choice([i for i in range(-10, 11) if i]), rng.randint(1, 10))]
        )
        gdeg = rng.choice([1, 2])
        g = RatPoly(
            [Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(gdeg)]
            + [Fraction(rng.choice([i for i in range(-10, 11) if i]), rng.randint(1, 10))]
        )
        try:
            s = TwistFamily(f, g)
        except DomainError:
            continue
        recovered = is_twist_case(to_weierstrass(s))
        assert recovered is not None, (f, g)
        assert _normal_form(s) == _normal_form(recovered), (f, g)
        count += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"roundtrip took {elapsed:.2f} s"
    report(2, "100 randomized twist families recovered up to admissible scaling", started)


def _normal_form(s: TwistFamily):
    P, Q, _, _ = s.short_cubic
    lg = s.g.leading()
    Ai, Bi, _ = EllipticCurveQ(P * lg**2, Q * lg**3).integral_model
    return Ai, Bi, s.g.monic()


def test_criterion_3_conic_solvability_oracle():
    started = time.monotonic()
    rng = random.Random(3)
    surfaces = [
        usual_twist(),
        split_twist(),
        TwistFamily(F_CUBIC, T**2 - 2),
        TwistFamily(T**3 + T, T**2 - 2),
        TwistFamily(2 * T**3 + T - 3, 3 * T + 1),
        mordell(),
        KMFamily(RatPoly([1]), T, RatPoly([-1]), T**2 - 2),
    ]
    solvable = unsolvable = 0
    while solvable + unsolvable < 100:
        s = rng.choice(surfaces)
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        try:
            fib = conic_fibre(s, x0)
        except DegenerateFibreError:
            continue
        found = brute_force_conic_point(fib, 200)
        if conic_solvable(fib):
            solvable += 1
            assert fib.local_obstruction is None
        else:
            assert found is None, (s, x0, found)
            p = fib.local_obstruction
            assert p is not None
            diag, _ = fib._diagonal()
            a, b, c = legendre_normalize(*(d.numerator * d.denominator for d in diag))
            if p == 0 or p <= 13:
                assert certify_unsolvable(a, b, c, p), (s, x0, p)
            unsolvable += 1
    # the named example: (t^2 - 2) w^2 = 6 is obstructed 3-adically; no
    # primitive solution of u^2 - 2 w^2 - 6 z^2 = 0 exists modulo 9
    fib = conic_fibre(TwistFamily(F_CUBIC, T**2 - 2), 2)
    assert fib.value == 6 and not conic_solvable(fib)
    assert _no_primitive_solution_mod9()
    assert unsolvable > 0 and solvable > 0
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"solvability comparison took {elapsed:.2f} s"
    report(3, f"oracle agreement on 100 fibres ({solvable} solvable, "
              f"{unsolvable} certified obstructions)", started)


def _no_primitive_solution_mod9():
    for u in range(9):
        for w in range(9):
            for z in range(9):
                if u % 3 == w % 3 == z % 3 == 0:
                    continue
                if (u * u - 2 * w * w - 6 * z * z) % 9 == 0:
                    return False
    return True


def test_criterion_4_rank_jump_1_at_scale():
    started = time.monotonic()
    s = usual_twist()
    certs = list(jump1(s, Budget(12, 12, 100)))
    assert len(certs) == 100
    assert len({c.t0 for c in certs}) == 100
    for c in certs:
        ok, reasons = verify_certificate(s, c)
        assert ok, (c.t0, reasons)
    by_t0 = {c.t0: c for c in certs}
    assert by_t0[Fraction(6)].points == [(12, 36)]
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"rank jump 1 took {elapsed:.2f} s"
    report(4, "100 verified rank-jump-1 certificates incl. t0 = 6 with (12, 36)", started)


def test_criterion_5_rank_jump_1_mordell():
    started = time.monotonic()
    m = mordell()
    certs = list(jump1(m, Budget(12, 12, 100)))
    assert len(certs) == 100
    assert len({c.t0 for c in certs}) == 100
    for c in certs:
        ok, reasons = verify_certificate(m, c)
        assert ok, (c.t0, reasons)
    by_t0 = {c.t0: c for c in certs}
    assert by_t0[Fraction(3)].points == [(1, 2)]
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"rank jump 1 (constant-j free family) took {elapsed:.2f} s"
    report(5, "100 verified certificates for y^2 = x^3 + t incl. t0 = 3 with (1, 2)", started)


def test_criterion_6_rank_jump_2(tmp_path):
    started = time.monotonic()
    s = split_twist()
    cfg = surface_config("twist", "split-twist", f=F_CUBIC, g=T**2 - 1)
    budget = Budget(18, 10, 5)
    certs = list(jump2(s, budget))
    assert len(certs) >= 5
    records = []
    for c in certs:
        det, err = c.regulator
        assert det - err > 1e-6
        assert c.claimed_rank_lower_bound == 2
        records.append(CertificateRecord(c, cfg, budget))
    append_records(tmp_path, cfg.label, records)
    [(_, results)] = verify_store(tmp_path)
    assert all(ok for _, ok, _ in results)

    # the known dependent pair (12,36), (18,72) over t0 = 6 on g = t is
    # rejected by the regulator, hence never emitted
    for c in jump2(usual_twist(), Budget(10, 6, 4)):
        assert not (
            c.t0 == 6 and sorted(c.points) == [(12, 36), (18, 72)]
        )
    elapsed = time.monotonic() - started
    assert elapsed < 1800.0, f"rank jump 2 took {elapsed:.2f} s"
    report(6, f"{len(certs)} rank-jump-2 certificates, store verified, "
              "dependent pair rejected", started)


def test_criterion_7_cover_avoidance():
    started = time.monotonic()
    challenge = CoverChallenge((T, T - 5, 2 * T + 1))
    certs = list(avoid_covers(usual_twist(), challenge, Budget(10, 10, 10)))
    assert len(certs) >= 10
    for c in certs:
        for h in challenge.covers:
            assert not is_square(h(c.t0)), (c.t0, h)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"cover avoidance took {elapsed:.2f} s"
    report(7, "10 certificates avoiding the covers t, t-5, 2t+1", started)


def test_criterion_8_field_census():
    started = time.monotonic()
    s = usual_twist()
    rows, _ = field_census(s, 30)
    distinct = rows[-1][0]
    assert distinct == distinct_up_to(s, 30)
    assert distinct >= 50
    previous = 0
    for current, _ in rows:
        assert current >= previous
        previous = current
    f2 = conic_fibre(s, 2)
    f3 = conic_fibre(s, 3)
    f4 = conic_fibre(s, 4)
    assert f2.ext_class == f3.ext_class          # 6 * 24 = 144 is a square
    assert f2.ext_class != f4.ext_class          # 6 * 60 = 360 is not
    assert conic_solvable(f2) and conic_solvable(f3)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"census took {elapsed:.2f} s"
    report(8, f"{distinct} distinct quadratic extensions at height 30", started)


def test_criterion_9_height_machinery():
    started = time.monotonic()
    rng = random.Random(9)
    checked = 0
    while checked < 20:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        y = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        A = Fraction(rng.randint(-9, 9))
        B = y * y - x**3 - A * x
        try:
            E = EllipticCurveQ(A, B)
        except SingularCurveError:
            continue
        P = point(x, y)
        if pair_torsion_order(E, P) is not None:
            continue
        h1 = pair_height(E, P)
        assert h1.error <= 1e-10
        nP = P
        for n in range(2, 6):
            nP = pair_add(E, nP, P)
            hn = pair_height(E, nP)
            budget = n * n * h1.error + hn.error
            assert abs(hn.value - n * n * h1.value) <= max(budget, 1e-8)
        hd = canonical_height_doubling(E, P)
        assert abs(h1.value - hd.value) <= 1e-8
        checked += 1
    for E, tors in (
        (EllipticCurveQ(-36, 0), point(0, 0)),
        (EllipticCurveQ(0, 1), point(2, 3)),
        (EllipticCurveQ(0, 9), point(0, 3)),
    ):
        assert pair_height(E, tors).value <= 1e-10
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"height checks took {elapsed:.2f} s"
    report(9, "20 points: quadraticity, doubling-limit agreement, torsion zero", started)


def test_criterion_10_fibre_product_genus():
    started = time.monotonic()
    zero, one, two = Place(T), Place(T - 1), Place(T - 2)
    inf = PLACE_AT_INFINITY

    def locus(*places):
        return frozenset(places)

    # shared point {0}: geometrically integral of genus 0
    assert fibre_product_genus(locus(zero, inf), locus(zero, one)) == GENUS_0
    # identical branch loci: reducible
    assert fibre_product_genus(locus(zero, inf), locus(zero, inf)) == REDUCIBLE
    # disjoint: four branch points on a double cover, genus 1
    assert fibre_product_genus(locus(zero, inf), locus(one, two)) == GENUS_1
    report(10, "fibre-product genus table matches Riemann-Hurwitz", started)
