"""Certificates re-checked from the records alone, with the oracles of
conftest.py and Fraction arithmetic: this file imports nothing from
rankjump (test_imports_nothing_from_rankjump), so a defect shared by the
search and verify_certificate, in the group law, in specialisation or in
the transport chart, does not pass here as well.

The records are those of the verify fixture (perfbench/fixture), as
stored, and those that the seed-0 rank-1 and rank-2 searches of the
benchmark print now, run in one child process. Each record is read from
its surface dict and checked for:
- the curve: A(t0) and B(t0) of the short model, from the closed formulas
  of the chart X = u x + v, Y = w y: on a twist g(t) y^2 = f(x), with
  l = lead f and c2 its x^2 coefficient, u = g l, v = g c2 / 3, w = g^2 l;
  on a km surface y^2 = a3 x^3 + a2 x^2 + a1 x + a0, u = w = a3, v = a2 / 3;
- each point on the curve, pulling back through the chart to x = x0 of its
  provenance, with its pull-back on the fibre equation over t0;
- no point torsion: torsion_order_by_multiples with the bound 12, exact by
  Mazur's theorem;
- a twist pair whose f splits over Q proved independent by complete
  2-descent (Silverman, AEC X.1.4), written here with its own delta;
- the bounds: the claimed bound is the generic bound plus the number of
  points, exact exactly when the generic bound is 0.

Out of reach: the generic bound itself (Shioda-Tate), read from the
record; and the independence of a km pair, or of a pair on a twist whose f
does not split, which needs heights.
"""

import ast
import gzip
import json
import subprocess
import sys
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import pytest

import conftest
from conftest import child_env, ec_add, ec_on_curve, torsion_order_by_multiples

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "perfbench" / "fixture"


def _poly(coeffs) -> list[Fraction]:
    return [Fraction(c) for c in coeffs]


def _at(coeffs, t) -> Fraction:
    """A polynomial, constant term first, at t by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _coeff(coeffs, i) -> Fraction:
    return coeffs[i] if i < len(coeffs) else Fraction(0)


def _model(surface: dict, t0: Fraction):
    """((A, B), (u, v, w), fibre) at t0: the short model, the chart and
    the fibre relation fibre(x, y) as a predicate."""
    if surface["kind"] == "twist":
        f, g = _poly(surface["f"]), _poly(surface["g"])
        c0, c1, c2, l = (_coeff(f, i) for i in range(4))
        gt = _at(g, t0)
        P = c1 * l - c2 * c2 / 3
        Q = c0 * l * l - c2 * c1 * l / 3 + 2 * c2**3 / 27
        return ((P * gt**2, Q * gt**3), (gt * l, gt * c2 / 3, gt * gt * l),
                lambda x, y: gt * y * y == _at(f, x))
    assert surface["kind"] == "km", surface
    a3, a2, a1, a0 = (_at(_poly(surface[name]), t0) for name in ("a3", "a2", "a1", "a0"))
    A = a1 * a3 - a2 * a2 / 3
    B = a0 * a3 * a3 - a1 * a2 * a3 / 3 + 2 * a2**3 / 27
    return ((A, B), (a3, a2 / 3, a3),
            lambda x, y: y * y == ((a3 * x + a2) * x + a1) * x + a0)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _rational_roots(coeffs) -> list[Fraction] | None:
    """The three rational roots of a separable cubic, by the rational-root
    theorem on its integer form; None unless it splits over Q."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    roots = []
    if ints[0] == 0:
        roots, ints = [Fraction(0)], ints[1:]
    roots += sorted({Fraction(s * p, q) for p in _divisors(ints[0]) for q in _divisors(ints[-1])
                     for s in (1, -1) if _at(ints, Fraction(s * p, q)) == 0})
    return roots if len(roots) == 3 else None


def _squarefree(q: Fraction) -> int:
    """The squarefree integer s with q in s Q*^2: trial division by every
    p with p^3 <= n leaves a cofactor with at most two prime factors, a
    square exactly when it is p^2."""
    n = q.numerator * q.denominator
    s, n = (-1 if n < 0 else 1), abs(n)
    p = 2
    while p**3 <= n:
        while n % p == 0:
            n //= p
            if n % p == 0:
                n //= p
            else:
                s *= p
        p += 1
    return s if isqrt(n) ** 2 == n else s * n


def _descent_independent(roots, P, Q) -> bool:
    """Complete 2-descent on y^2 = (x - e1)(x - e2)(x - e3): delta(x, y) =
    (x - e1, x - e2) mod squares, (e_i - e_j)(e_i - e_k) in place of a zero
    factor, is an injective homomorphism on E(Q)/2E(Q). If no point of
    E[2] - O has trivial delta, E(Q) has no point of order 4 and the torsion
    maps onto delta(E[2]); a primitive relation a P + b Q = T then puts
    delta(P)^a delta(Q)^b in delta(E[2]) with a or b odd. So P, Q and P + Q
    all outside delta(E[2]) prove P and Q independent."""
    e = roots

    def delta(x):
        return tuple(_squarefree(x - e[i] or (e[i] - e[i - 1]) * (e[i] - e[i - 2]))
                     for i in (0, 1))

    def times(a, b):
        return tuple(_squarefree(Fraction(x * y)) for x, y in zip(a, b))

    two_torsion = {delta(r) for r in e}
    if (1, 1) in two_torsion:
        return False
    image = two_torsion | {(1, 1)}
    dP, dQ = delta(P[0]), delta(Q[0])
    return all(d not in image for d in (dP, dQ, times(dP, dQ)))


def _check(record: dict) -> list[str]:
    """What is wrong with one certificate record, by the oracles."""
    surface, t0 = record["surface"], Fraction(record["t0"])
    (A, B), (u, v, w), on_fibre = _model(surface, t0)
    wrong = []
    if u == 0 or 4 * A**3 + 27 * B**2 == 0:
        return ["t0 lies under a singular fibre"]
    if (A, B) != (Fraction(record["curve"]["A"]), Fraction(record["curve"]["B"])):
        wrong.append("curve")
    points = [(Fraction(x), Fraction(y)) for x, y in record["points"]]
    provenance = [Fraction(x0) for x0 in record["provenance"]]
    if len(points) != len(provenance) or len(points) not in (1, 2):
        return wrong + ["point count"]
    for P, x0 in zip(points, provenance):
        x, y = (P[0] - v) / u, P[1] / w
        if not ec_on_curve(A, B, P):
            wrong.append(f"{P} off the curve")
        elif x != x0 or not on_fibre(x, y):
            wrong.append(f"{P} not from the fibre x = {x0}")
        elif torsion_order_by_multiples(A, P) is not None:
            wrong.append(f"{P} torsion")
    if len(points) == 2 and surface["kind"] == "twist":
        roots = _rational_roots(_poly(surface["f"]))
        if roots is not None and not _descent_independent([u * r + v for r in roots], *points):
            wrong.append("pair not proved independent by 2-descent")
    if record["claimed_rank_lower_bound"] != len(points):
        wrong.append("claimed bound")
    if record["rank_bound_exact"] != (record["generic_rank_bound"] == 0):
        wrong.append("exactness")
    return wrong


def _fixture_records() -> list[dict]:
    records = []
    for path in sorted(FIXTURE.glob("*.jsonl.gz")):
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            records += map(json.loads, fh)
    return records


#: Runs the commands given as JSON in argv[1] through the command line, in one
#: process, so that the interpreter and sympy start once.
_RUN_COMMANDS = """
import json, sys
from rankjump.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) in (0, 3), argv
"""


def _search_records(tmp_path) -> list[dict]:
    """The records the seed-0 rank-1 and rank-2 searches of the benchmark
    print, from perfbench/gen.py's inputs and perfbench/run.py's commands."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
        import run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    inputs = gen.write_inputs(0, tmp_path)
    argvs = [[a.replace("{store}", str(tmp_path / "store")) for a in cmd["argv"]]
             for workload in ("rank1-search", "rank2-search")
             for cmd in run.commands_for(workload, inputs)]
    out = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(argvs)], env=child_env(),
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_fixture_records_pass_the_oracles():
    records = _fixture_records()
    assert len(records) == 1005
    failures = {r["label"] + " t0 = " + r["t0"]: _check(r) for r in records}
    assert not {k: v for k, v in failures.items() if v}
    pairs = [r for r in records if len(r["points"]) == 2]
    assert pairs and all(r["surface"]["kind"] == "twist" for r in pairs)


def test_seed0_search_records_pass_the_oracles(tmp_path):
    records = _search_records(tmp_path)
    shapes = {(r["surface"]["kind"], len(r["points"])) for r in records}
    assert len(records) == 615 and shapes == {("km", 1), ("twist", 1), ("km", 2), ("twist", 2)}
    failures = {r["label"] + " t0 = " + r["t0"]: _check(r) for r in records}
    assert not {k: v for k, v in failures.items() if v}


@pytest.mark.parametrize("tamper, reason", [
    (lambda r: r["points"][0].__setitem__(0, str(Fraction(r["points"][0][0]) + 1)),
     "off the curve"),
    (lambda r: r["provenance"].__setitem__(0, str(Fraction(r["provenance"][0]) + 1)),
     "not from the fibre"),
    (lambda r: r["curve"].__setitem__("B", str(Fraction(r["curve"]["B"]) + 1)), "curve"),
    (lambda r: r.__setitem__("claimed_rank_lower_bound", 3), "claimed bound"),
])
def test_tampered_records_fail(tamper, reason):
    record = _fixture_records()[-1]
    assert _check(record) == []
    tamper(record)
    assert any(reason in w for w in _check(record))


def test_descent_oracle_refuses_dependent_pairs():
    """On the curve of the fixture's first pair (P, Q), the descent proves
    (P, Q) independent and refuses pairs with a relation a P + b Q = T,
    T = (0, 0), with a or b odd."""
    record = next(r for r in _fixture_records() if len(r["points"]) == 2)
    A, B = Fraction(record["curve"]["A"]), Fraction(record["curve"]["B"])
    roots = _rational_roots([B, A, Fraction(0), Fraction(1)])
    P, Q = ((Fraction(x), Fraction(y)) for x, y in record["points"])
    T = (Fraction(0), Fraction(0))
    assert _descent_independent(roots, P, Q)
    twice = ec_add(A, P, P)
    for R, S in ((P, P), (P, twice), (P, ec_add(A, P, T)), (twice, ec_add(A, Q, T)),
                 (ec_add(A, P, Q), ec_add(A, twice, ec_add(A, P, Q)))):
        assert not _descent_independent(roots, R, S)


def test_imports_nothing_from_rankjump():
    """Neither this file nor a conftest oracle it calls imports rankjump."""
    def imports(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield node.module or ""

    here = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    assert not [m for m in imports(here) if m.split(".")[0] == "rankjump"]
    used = {"ec_on_curve", "torsion_order_by_multiples", "ec_add", "child_env"}
    oracles = [node for node in ast.parse(Path(conftest.__file__).read_text(encoding="utf-8")).body
               if isinstance(node, ast.FunctionDef) and node.name in used]
    assert len(oracles) == len(used)
    assert not [m for node in oracles for m in imports(node) if m.split(".")[0] == "rankjump"]
