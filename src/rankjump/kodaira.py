"""Kodaira types of singular fibres from valuation data.

Over residue fields of characteristic 0 (places of Q(t)) and for primes
p >= 5, the Kodaira type of a place-minimal short Weierstrass model
y^2 = x^3 + A x + B is determined by the valuations (v(A), v(B), v(D))
of the coefficients and the discriminant D = -16(4A^3 + 27B^2).
"""

from __future__ import annotations

from dataclasses import dataclass


class InvalidModelError(ValueError):
    """Raised for models that cannot be brought to a minimal form."""


@dataclass(frozen=True)
class KodairaType:
    symbol: str
    components: int       # number of irreducible components over the algebraic closure
    euler: int            # local Euler number contribution
    reduced: bool


_INF = 10**9  # stand-in for the valuation of the zero polynomial


def minimal_shift(va: int | None, vb: int | None) -> int:
    """Largest k with the rescaling x -> u^2 x, y -> u^3 y, v(u) = k admissible."""
    a = _INF if va is None else va
    b = _INF if vb is None else vb
    k = min(a // 4, b // 6)
    if k >= _INF // 8:
        raise InvalidModelError("both A and B vanish identically")
    return max(k, 0)


def kodaira_type(va: int | None, vb: int | None, vd: int) -> tuple[KodairaType, int]:
    """Kodaira type from valuations, minimalising first; returns (type, shift k).

    va, vb are valuations of A and B (None for the zero polynomial), vd the
    valuation of the discriminant. Valid in residue characteristic 0 and for
    residue characteristic >= 5.
    """
    k = minimal_shift(va, vb)
    a = _INF if va is None else va - 4 * k
    b = _INF if vb is None else vb - 6 * k
    d = vd - 12 * k
    if d < 0:
        raise InvalidModelError("discriminant valuation inconsistent with coefficients")
    if d == 0:
        return KodairaType("I0", 1, 0, True), k
    if a == 0:
        return KodairaType(f"I{d}", d, d, True), k
    # additive reduction from here on
    if b == 1:
        return KodairaType("II", 1, 2, True), k
    if a == 1:
        return KodairaType("III", 2, 3, True), k
    if b == 2:
        return KodairaType("IV", 3, 4, True), k
    if d == 6:
        return KodairaType("I0*", 5, 6, False), k
    if a == 2:
        m = d - 6
        return KodairaType(f"I{m}*", 5 + m, 6 + m, False), k
    if b == 4:
        return KodairaType("IV*", 7, 8, False), k
    if a == 3:
        return KodairaType("III*", 8, 9, False), k
    if b == 5:
        return KodairaType("II*", 9, 10, False), k
    raise InvalidModelError(f"non-minimal valuation triple ({va}, {vb}, {vd})")
