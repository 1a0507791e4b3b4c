"""A seed-0 rank-2 cycle checks its points on their curves a pinned number
of times and builds no curve that the search does not need.

curves.py keeps a point in the group law, as a Jacobian triple, from the
moment it is checked on the curve (EllipticCurveQ._jac) until a certificate
needs its Fraction coordinates. The heights, the formal-group walk and the
relation search take the regulator's triples; none of them rebuilds a
curve on the integral model or checks a point again. A point is still
checked each time it enters the law: of the 458 checks per cycle, 246 come
from torsion_order in _certify and verify_certificate, and 212 from
regulator's entry check, which re-enters points torsion_order has checked
(counted by wrapping EllipticCurveQ._jac). This test runs the three
commands of the benchmark's rank2-search workload in process, as
tests/test_benchmark_stream.py does, and pins how often a point is checked
and a curve is built. A conversion that comes back, say a height that
rebuilds its point in Fractions, raises a count and fails here.
"""

from pathlib import Path

from rankjump.cli import main
from rankjump.curves import EllipticCurveQ

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: per seed-0 rank-2 cycle: 523 checks and 192 curves while each height
#: rebuilt its curve and point, and P + Q re-entered the law
IS_ON_CALLS = 458
CURVES_BUILT = 129


def test_seed0_rank2_enters_the_law_once(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    counts = {"is_on": 0, "curves": 0}
    is_on, init = EllipticCurveQ.is_on, EllipticCurveQ.__init__

    def counted_is_on(self, P):
        counts["is_on"] += 1
        return is_on(self, P)

    def counted_init(self, A, B):
        counts["curves"] += 1
        init(self, A, B)

    monkeypatch.setattr(EllipticCurveQ, "is_on", counted_is_on)
    monkeypatch.setattr(EllipticCurveQ, "__init__", counted_init)
    for cmd in run.commands_for("rank2-search", gen.write_inputs(0, tmp_path)):
        assert main(cmd["argv"]) == 0
    capsys.readouterr()
    assert counts == {"is_on": IS_ON_CALLS, "curves": CURVES_BUILT}
