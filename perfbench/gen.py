"""Seeded inputs for the benchmark workloads.

Seed 0 reproduces the shipped surface configs and the cover file. Any
other seed draws surfaces of the same three kinds with small integer
coefficients: a twist g(t) y^2 = f(x) with a linear g (the "usual"
twist), a twist whose quadratic g splits over Q like f (the "split"
twist), y^2 = x^3 + a0(t) with a0 linear, and three linear covers. The
program under test only ever reads the files written here.
"""

from __future__ import annotations

import random
from math import gcd
from pathlib import Path

# (config name, file text) of the shipped inputs, reproduced for seed 0
SEED0_CONFIGS = {
    "mordell": "# y^2 = x^3 + t\nkind = km\nlabel = mordell\na3 = 1\na2 = 0\na1 = 0\na0 = 0, 1\n",
    "split-twist": (
        "# (t^2 - 1) y^2 = x^3 - x: both f and g have rational roots\n"
        "kind = twist\nlabel = split-twist\nf = 0, -1, 0, 1\ng = -1, 0, 1\n"
    ),
    "usual-twist": (
        "# quadratic twist family: t y^2 = x^3 - x\n"
        "kind = twist\nlabel = usual-twist\nf = 0, -1, 0, 1\ng = 0, 1\n"
    ),
}
SEED0_COVERS = (
    "# quadratic covers y^2 = h(t), one per line, constant term first\n"
    "0, 1        # h = t\n"
    "-5, 1       # h = t - 5\n"
    "1, 2        # h = 2t + 1\n"
)


def _coeffs(*cs) -> str:
    return ", ".join(str(c) for c in cs)


def draw_inputs(seed: int) -> dict[str, str]:
    """File texts by name: mordell, split-twist, usual-twist and covers.

    A drawn surface is a shipped one moved along the t-line, t -> t + c,
    with the shipped cubic f = x^3 - x, and three drawn linear covers. The
    seed changes every parameter value the searches meet, but not the
    kind of arithmetic: with other small cubics f one rank-2 relation
    search alone can take 20 s, and the cost per fibre of a census of the
    split twist grows by half from a shift of 1 to a shift of 3, more than
    any bound a run could hold. So the split twist moves by one step only.
    """
    if seed == 0:
        return dict(SEED0_CONFIGS, covers=SEED0_COVERS)
    rng = random.Random(seed)
    a, c = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2))
    b = rng.choice((-1, 1))
    covers = set()
    while len(covers) < 3:
        covers.add((rng.randint(-6, 6), rng.choice((1, 2, 3))))
    return {
        "mordell": (
            f"# y^2 = x^3 + (t + {a})\nkind = km\nlabel = mordell\n"
            f"a3 = 1\na2 = 0\na1 = 0\na0 = {_coeffs(a, 1)}\n"
        ),
        "split-twist": (
            f"# ((t + {b})^2 - 1) y^2 = x^3 - x\nkind = twist\nlabel = split-twist\n"
            f"f = 0, -1, 0, 1\ng = {_coeffs(b * b - 1, 2 * b, 1)}\n"
        ),
        "usual-twist": (
            f"# (t + {c}) y^2 = x^3 - x\nkind = twist\nlabel = usual-twist\n"
            f"f = 0, -1, 0, 1\ng = {_coeffs(c, 1)}\n"
        ),
        # linear covers y^2 = h(t) are always squarefree
        "covers": "# quadratic covers y^2 = h(t), constant term first\n"
                  + "".join(f"{_coeffs(*h)}\n" for h in sorted(covers)),
    }


def write_inputs(seed: int, directory: Path) -> dict[str, Path]:
    """Write one seed's configs and cover file; returns their paths by name."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in draw_inputs(seed).items():
        paths[name] = directory / (f"{name}.txt" if name == "covers" else f"{name}.cfg")
        paths[name].write_text(text, encoding="utf-8")
    return paths


def rationals_up_to(height: int) -> int:
    """How many rationals have naive height <= height (0 included): the
    number of fibre parameters a census at that height classifies."""
    return 1 + sum(
        1
        for h in range(1, height + 1)
        for num in range(-h, h + 1)
        for den in range(1, h + 1)
        if max(abs(num), den) == h and gcd(num, den) == 1
    )
