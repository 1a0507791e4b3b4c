"""The full classify output, byte for byte, on the shipped configs, on
two weierstrass models and on one twist: a weierstrass model hiding a twist
with an irreducible quadratic g (so the Chatelet line prints), one with no
twist form and a degree-10 place, and a twist whose g = 3t^2 + t - 2 is
neither monic nor centred (so the Chatelet a and F = g2 f show the shift
and the scaling). The expected text is the output of the exact
classification; any change to the fibre walk, the place at infinity, the
twist recovery or the Chatelet form shows here first."""

from pathlib import Path

import pytest

from rankjump.cli import main

ROOT = Path(__file__).resolve().parents[1]

INLINE = {
    "hidden-chatelet": "kind = weierstrass\nlabel = hidden-chatelet\nA = -4, 0, 4, 0, -1\nB = 0\n",
    "generic-w": "kind = weierstrass\nlabel = generic-w\nA = 1, 0, -2, 1\nB = 3, 1, 0, 0, 0, -1\n",
    "tilted-twist": "kind = twist\nlabel = tilted-twist\nf = 0, -1, 0, 1\ng = -2, 1, 3\n",
}

EXPECTED = {
    "mordell": """\
surface: mordell (kind km)
model: y^2 = x^3 + (0) x + (t)
singular fibres:
  place (t): type II, 1 components, reduced, euler 2
  place infinity: type II*, 9 components, non-reduced, euler 10
euler number: 12
shioda-tate rank bound: 0
twist form: none (not a quadratic twist family)
""",
    "split-twist": """\
surface: split-twist (kind twist)
model: y^2 = x^3 + (-t^4 + 2*t^2 - 1) x + (0)
singular fibres:
  place (t - 1): type I0*, 5 components, non-reduced, euler 6
  place (t + 1): type I0*, 5 components, non-reduced, euler 6
euler number: 12
shioda-tate rank bound: 0
twist form: g(t) y^2 = f(x) with f = x^3 - x, g = t^2 - 1
chatelet model: w^2 - (1) y^2 = x^3 - x
""",
    "usual-twist": """\
surface: usual-twist (kind twist)
model: y^2 = x^3 + (-t^2) x + (0)
singular fibres:
  place (t): type I0*, 5 components, non-reduced, euler 6
  place infinity: type I0*, 5 components, non-reduced, euler 6
euler number: 12
shioda-tate rank bound: 0
twist form: g(t) y^2 = f(x) with f = x^3 - x, g = t
""",
    "hidden-chatelet": """\
surface: hidden-chatelet (kind weierstrass)
model: y^2 = x^3 + (-t^4 + 4*t^2 - 4) x + (0)
singular fibres:
  place (t^2 - 2): type I0*, 5 components, non-reduced, euler 6
euler number: 12
shioda-tate rank bound: 0
twist form: g(t) y^2 = f(x) with f = x^3 - x, g = t^2 - 2
chatelet model: w^2 - (2) y^2 = x^3 - x
""",
    "generic-w": """\
surface: generic-w (kind weierstrass)
model: y^2 = x^3 + (t^3 - 2*t^2 + 1) x + (-t^5 + t + 3)
singular fibres:
  place (t^10 + 4/27*t^9 - 8/9*t^8 + 16/9*t^7 - 74/27*t^6 - 70/9*t^5 + 16/9*t^4 \
+ 4/9*t^3 + 1/9*t^2 + 6*t + 247/27): type I1, 1 components, reduced, euler 1
  place infinity: type II, 1 components, reduced, euler 2
euler number: 12
shioda-tate rank bound: 8
twist form: none (not a quadratic twist family)
""",
    "tilted-twist": """\
surface: tilted-twist (kind twist)
model: y^2 = x^3 + (-9*t^4 - 6*t^3 + 11*t^2 + 4*t - 4) x + (0)
singular fibres:
  place (t - 2/3): type I0*, 5 components, non-reduced, euler 6
  place (t + 1): type I0*, 5 components, non-reduced, euler 6
euler number: 12
shioda-tate rank bound: 0
twist form: g(t) y^2 = f(x) with f = x^3 - x, g = 3*t^2 + t - 2
chatelet model: w^2 - (25/36) y^2 = 3*x^3 - 3*x
""",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_classify_output_pinned(tmp_path, capsys, name):
    if name in INLINE:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(INLINE[name])
    else:
        cfg = ROOT / "configs" / f"{name}.cfg"
    assert main(["classify", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (EXPECTED[name], "")
