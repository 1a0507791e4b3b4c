"""A seed-0 rank-2 cycle checks its points on their curves, builds curves
and computes heights a pinned number of times.

curves.py keeps a point in the group law, as a Jacobian triple, from the
moment it is checked on the curve (EllipticCurveQ._jac) until a certificate
needs its Fraction coordinates. The heights, the formal-group walk and the
relation search take the regulator's triples; none of them rebuilds a
curve on the integral model or checks a point again. The search enters
each point once: _certify converts it with _jac and hands the triples to
curves._regulator, so of the 256 checks per cycle, 226 come from _certify,
one per transported point, and 30 from verify_certificate, one per point:
its torsion check, both 2-descents and, on the one pair the descents leave
open, curves._regulator read that triple (counted by wrapping
EllipticCurveQ.is_on).

A search computes each distinct height once: jump2 holds one table keyed
by the reduced integral model and triple (curves._height), so the five
certificates of each twist, all on one reduced curve with one pair, cost
three heights, not fifteen. Re-verification shares no table with the
search, and computes heights only where 2-descent defers: the twists'
pairs are settled over Q, and four of the five mordell pairs modulo
primes (curves.descent_mod_p), so verify_certificate computes three
heights, for the mordell pair at t0 = 17.

A height factors no discriminant: the primes p >= 5 where its point meets
a singular point are those of a gcd of the point's own integers
(curves._finite_corrections), which is 1 on every height of the cycle.

These tests run the three commands of the benchmark's rank2-search workload
in process, as tests/test_benchmark_stream.py does, and pin how often a
point is checked, a curve is built, a height is computed and curves.py
factors an integer. A conversion that comes back, say a height that
rebuilds its point in Fractions, a table that stops hitting or a
discriminant factored again, raises a count and fails here.

The census tests run the benchmark's three census commands the same way
and pin how often a fibre's solvability takes a Hilbert symbol and factors
an integer; the factoring stays below sympy, which they make raise, on a
km surface with a coefficient denominator just above 2^10 too. A fibre
takes x0 as the int pair (n, d) and builds its classes from integers: the
kernel is a primitive int triple, so a census hashes no Fraction, and the
Fractions it builds belong to the surfaces (their configs, discriminants
and Weierstrass forms) and the messages of degenerate fibres.

The Fraction tests run the benchmark's rank1-search, rank2-search and
verify-store commands and pin how many Fractions a cycle builds and
hashes: from the fibre parameter to the record and back from the store a
certificate is carried in integers, t0, x0 and the pencil's points as int
pairs, each fibre's conic as one integer matrix and a twist pair's value
ratio as an integer square root, and a record's t0, curve, points and
provenance as reduced int pairs, written and read without a Fraction. The
Fractions left belong to the surfaces (their configs and Weierstrass
forms, built once per command) and to the heights, so a re-wrap or a
value rebuilt in Fractions raises the count.
"""

import gzip
import sys
from fractions import Fraction
from pathlib import Path

import sympy

from rankjump import arith, conics, curves, store
from rankjump.cli import main
from rankjump.curves import EllipticCurveQ

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: per seed-0 rank-2 cycle: 523 checks and 192 curves while each height
#: rebuilt its curve and point, and P + Q re-entered the law; 458 checks
#: while the regulator's entry check re-entered the search's points; 266
#: while re-verification asked the regulator about every mordell pair, and
#: 258 while the public regulator re-checked the pair the descent left open
IS_ON_CALLS = 256
CURVES_BUILT = 129
#: heights computed (formal-group walks) per command, and those of them in
#: re-verification; 15, 15 and 33 before the search kept a height table,
#: and mordell 32, 15 of them re-verifying, before the descent modulo primes
HEIGHTS = {"split-twist": 3, "usual-twist": 3, "mordell": 20}
VERIFY_HEIGHTS = {"split-twist": 0, "usual-twist": 0, "mordell": 3}


def test_seed0_rank2_enters_the_law_once(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    counts = {"is_on": 0, "curves": 0}
    heights, verify_heights = dict.fromkeys(HEIGHTS, 0), dict.fromkeys(HEIGHTS, 0)
    kind, verifying = None, False
    is_on, init = EllipticCurveQ.is_on, EllipticCurveQ.__init__
    walk, verify = curves._formal_multiple, store.verify_certificate

    def counted_is_on(self, P):
        counts["is_on"] += 1
        return is_on(self, P)

    def counted_init(self, A, B):
        counts["curves"] += 1
        init(self, A, B)

    def counted_walk(A, J):
        heights[kind] += 1
        verify_heights[kind] += verifying
        return walk(A, J)

    def verifying_certificate(surface, cert):
        nonlocal verifying
        verifying = True
        try:
            return verify(surface, cert)
        finally:
            verifying = False

    monkeypatch.setattr(EllipticCurveQ, "is_on", counted_is_on)
    monkeypatch.setattr(EllipticCurveQ, "__init__", counted_init)
    monkeypatch.setattr(curves, "_formal_multiple", counted_walk)
    monkeypatch.setattr(store, "verify_certificate", verifying_certificate)
    commands = run.commands_for("rank2-search", gen.write_inputs(0, tmp_path))
    for kind, cmd in zip(run.RANK2_BUDGETS, commands):
        assert main(cmd["argv"]) == 0
    capsys.readouterr()
    assert counts == {"is_on": IS_ON_CALLS, "curves": CURVES_BUILT}
    assert heights == HEIGHTS and sum(heights.values()) == 26
    assert verify_heights == VERIFY_HEIGHTS


#: arith._factorint calls made from curves per seed-0 rank-2 cycle: all 17
#: from integral_model, one per curve with a height whose coefficients share
#: a factor; a height factors only a gcd of its point's integers, and on this
#: cycle no such gcd exceeds 1. 34 while each curve with a height factored
#: its discriminant; 21 while re-verification took heights on every mordell
#: curve
CURVES_FACTORINT_CALLS = 17


def test_seed0_rank2_factors_no_discriminant(tmp_path, capsys, monkeypatch):
    """A height reads its primes of bad reduction from its point: counted
    while curves.prime_factors runs, arith._factorint is called only for
    the pinned number of integers."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    calls, inside = [0], [False]
    factorint, prime_factors = arith._factorint, curves.prime_factors

    def counted_factorint(n):
        calls[0] += inside[0]
        return factorint(n)

    def from_curves(n):
        inside[0] = True
        try:
            return prime_factors(n)
        finally:
            inside[0] = False

    monkeypatch.setattr(arith, "_factorint", counted_factorint)
    monkeypatch.setattr(curves, "prime_factors", from_curves)
    for cmd in run.commands_for("rank2-search", gen.write_inputs(0, tmp_path)):
        assert main(cmd["argv"]) == 0
    capsys.readouterr()
    assert calls[0] == CURVES_FACTORINT_CALLS


#: per seed-0 census cycle. hilbert was 19,264 while each place took the
#: four symbols of the Hasse-invariant test and the last place was tested
#: too (reciprocity settles it); ternary_obstruction (1,108) has not moved.
#: _factorint was 4,317 while a km fibre factored the reduced numerator
#: and denominator of lead(q) and disc(q); it now factors the integer lead
#: and L d over their gcd, and skips a square (lead d^3 over d on y^2 =
#: x^3 + t)
CENSUS_CALLS = {"hilbert": 3708, "ternary_obstruction": 1108, "_factorint": 4008}


def _run_census(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    for cmd in run.commands_for("census", gen.write_inputs(0, tmp_path)):
        assert main(cmd["argv"]) == 0
    capsys.readouterr()


def test_seed0_census_symbols_per_place(tmp_path, capsys, monkeypatch):
    """One Hilbert symbol per tested place, and no symbol for the last."""
    calls = dict.fromkeys(CENSUS_CALLS, 0)

    def counted(module, name):
        function = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(arith, "hilbert")
    counted(conics, "ternary_obstruction")
    counted(arith, "_factorint")
    _run_census(tmp_path, capsys, monkeypatch)
    assert calls == CENSUS_CALLS


def _refuse_sympy_factorint(monkeypatch):
    def refuse(n, *args, **kwargs):
        raise AssertionError(f"sympy.factorint({n}) called")

    monkeypatch.setattr(sympy, "factorint", refuse)


def test_seed0_census_factors_without_sympy(tmp_path, capsys, monkeypatch):
    """Every integer the census factors is split by trial division alone."""
    _refuse_sympy_factorint(monkeypatch)
    _run_census(tmp_path, capsys, monkeypatch)


def test_census_factors_a_prime_denominator_apart(tmp_path, capsys, monkeypatch):
    """On y^2 = x^3 + x / 1031 + 2 t, with L = 1031 just above the trial
    primes, the lead of a fibre's q is 2 1031 d^3 over L d^3. Factored
    apart over their gcd 1031 d they leave 2 d^2 and 1; their product
    2 1031^2 d^4 would leave the cofactor 1031^2 > 2^20 to sympy."""
    cfg = tmp_path / "km-1031.cfg"
    cfg.write_text("kind = km\nlabel = km-1031\na3 = 1\na2 = 0\na1 = 1/1031\na0 = 0, 2\n")
    _refuse_sympy_factorint(monkeypatch)
    assert main(["census", "--config", str(cfg), "--height", "30"]) == 0
    assert capsys.readouterr().out.splitlines()[-2].split() == ["30", "1111", "1111"]


#: Fraction.__hash__ calls per seed-0 census cycle; 7,762 while each twist
#: fibre's class key re-hashed its kernel's coefficients, and 2,227 while
#: the kernel was a monic RatPoly (km fibres built and hashed one each)
CENSUS_FRACTION_HASHES = 0


def test_seed0_census_hashes_a_shared_kernel_once(tmp_path, capsys, monkeypatch):
    calls, fraction_hash = [0], Fraction.__hash__

    def counted(self):
        calls[0] += 1
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    _run_census(tmp_path, capsys, monkeypatch)
    assert calls[0] == CENSUS_FRACTION_HASHES


#: Fraction.__new__ calls per seed-0 census cycle, on CPython 3.10 and 3.11
#: and from 3.12 on (as FRACTIONS_BUILT): the surfaces' and the degenerate
#: fibres' messages. 11,263 and 8,964 while each fibre built f(x0), or q
#: and its monic kernel, in Fractions, and 3,500 and 3,428 while the sweep
#: built each x0 as a Fraction
CENSUS_FRACTIONS_BUILT = 173
CENSUS_FRACTIONS_BUILT_FROM_312 = 101


def test_seed0_census_fractions_built(tmp_path, capsys, monkeypatch):
    calls, new = [0], Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    _run_census(tmp_path, capsys, monkeypatch)
    assert calls[0] == (CENSUS_FRACTIONS_BUILT_FROM_312 if sys.version_info >= (3, 12)
                        else CENSUS_FRACTIONS_BUILT)


#: Fraction.__new__ calls per seed-0 cycle of (rank1-search, rank2-search,
#: verify-store) on CPython 3.10 and 3.11, where every Fraction passes
#: through __new__: 27,175 and 25,218 for rank1-search and verify-store
#: while specialize, transport, the curve entry and verify_certificate
#: built and re-wrapped Fractions; verify-store 9,018 while
#: TwistFamily.f_roots factored f through sympy, and 8,996 while the
#: descent over Q read Fraction points and roots; rank1-search 7,892 while
#: each fibre built f(x0), or q and its monic kernel, in Fractions, 7,761
#: while x0, t0 and the pencil's points were Fractions and the pencil
#: scaled its matrix to integers by Fraction products, and rank1-search
#: 5,657 and rank2-search 1,924 while each solvable fibre built its matrix
#: (and q) in Fractions for the pencil, the sweep and the descent, and a
#: twist pair took its value ratio's square root in Fractions; 5,261,
#: 1,186 and 8,761 while A and B were Fractions, a record's t0, points and
#: provenance were built as Fractions and the store read every rational of
#: a line into one (6,045 per verify-store cycle)
FRACTIONS_BUILT = (341, 823, 706)
#: the same from CPython 3.12 on, whose arithmetic builds its results
#: without __new__ and coerces an int left operand through it: 23,055 and
#: 21,425 before, verify-store 8,285 with f_roots through sympy and 8,278
#: with the descent over Q in Fractions, rank1-search 7,543 with the
#: fibres in Fractions and 7,492 with x0, t0 and the points in Fractions,
#: and rank1-search 5,388 and rank2-search 1,182 with the matrix in
#: Fractions, and 5,104, 654 and 8,233 with a record's rationals in Fractions
FRACTIONS_BUILT_FROM_312 = (184, 291, 178)


def test_seed0_fractions_built(tmp_path, capsys, monkeypatch):
    """One cycle of each workload after a warm one (functools caches fill),
    counted by wrapping Fraction.__new__."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    fixture = tmp_path / "fixture"  # one directory per store file, as run.py lays it out
    for gz in sorted((PERFBENCH / "fixture").glob("*.jsonl.gz")):
        store = fixture / Path(gz.stem).stem
        store.mkdir(parents=True)
        (store / gz.stem).write_bytes(gzip.decompress(gz.read_bytes()))
    inputs = gen.write_inputs(0, tmp_path / "inputs")
    calls, counting, new = [0], [False], Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls[0] += counting[0]
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    built = []
    for workload in ("rank1-search", "rank2-search", "verify-store"):
        calls[0] = 0
        for counting[0] in (False, True):
            for i, cmd in enumerate(run.commands_for(workload, inputs, fixture)):
                store = str(tmp_path / f"store-{workload}-{counting[0]}-{i}")
                assert main([a.replace("{store}", store) for a in cmd["argv"]]) == 0
            capsys.readouterr()
        built.append(calls[0])
    assert tuple(built) == (FRACTIONS_BUILT_FROM_312 if sys.version_info >= (3, 12)
                            else FRACTIONS_BUILT)


#: Fraction.__hash__ calls per seed-0 rank1-search cycle, on every CPython.
#: 2,619 while _certify keyed its seen set, and checked it, on Fraction t0s,
#: and 600 while the store's dedupe keyed each record on its Fraction t0; it
#: keys on the int pair
RANK1_FRACTION_HASHES = 0


def test_seed0_rank1_hashes_fractions_for_records_only(tmp_path, capsys, monkeypatch):
    """One rank1-search cycle after a warm one, counted by wrapping
    Fraction.__hash__: a search and the store key their t0 on int pairs."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    commands = run.commands_for("rank1-search", gen.write_inputs(0, tmp_path / "inputs"))
    calls, counting, fraction_hash = [0], [False], Fraction.__hash__

    def counted(self):
        calls[0] += counting[0]
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    for counting[0] in (False, True):
        for i, cmd in enumerate(commands):
            store = str(tmp_path / f"store-{counting[0]}-{i}")
            assert main([a.replace("{store}", store) for a in cmd["argv"]]) == 0
        capsys.readouterr()
    assert calls[0] == RANK1_FRACTION_HASHES
