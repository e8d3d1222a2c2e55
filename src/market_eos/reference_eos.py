"""Classical reference equations of state: ideal gas and Curie paramagnet.

Both expose the same surface-evaluation contract as the market surface
(axis labels, a closed form y(x, t), a signed residual, and rows of
the closed form with the implicit form they satisfy), so samplers and
comparison tooling treat all three interchangeably.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator

from .errors import DomainError, InvariantError
from .record import Record, set_field

GAS_CONSTANT = 8.314

# One row of a surface: its y values and the two sides of y * w == r.
Row = tuple[list[float], list[float], list[float]]


def _hoisted(name: str, c: float) -> float:
    """``c``, the constant a closed form hoists, unless it is subnormal and y would lose its bits."""
    if 0 < abs(c) < sys.float_info.min:
        raise DomainError(f"{name} = {c!r} is below the smallest normal double")
    return c


class IdealGasEoS(Record):
    """P * V = n * R * T for n moles of ideal gas."""

    __slots__ = ("n", "R")

    def __init__(self, n: float = 1.0, R: float = GAS_CONSTANT) -> None:
        if not (n > 0 and math.isfinite(n)):
            raise InvariantError(f"amount of substance n must be positive and finite, got {n}")
        if not (R > 0 and math.isfinite(R)):
            raise InvariantError(f"gas constant R must be positive and finite, got {R}")
        set_field(self, "n", n)
        set_field(self, "R", R)

    def axis_labels(self) -> tuple[str, str, str]:
        return ("V", "P", "T")

    def y_of(self, x: float, t: float) -> float:
        """Pressure at volume x and temperature t."""
        if t <= 0:
            raise DomainError(f"temperature must be positive, got {t}")
        if x <= 0:
            raise DomainError(f"volume must be positive, got {x}")
        return _hoisted("n*R*t", self.n * self.R * t) / x

    def residual(self, x: float, y: float, t: float) -> float:
        return y - self.y_of(x, t)

    def rows(self, xs: list[float], ts: list[float]) -> Iterator[Row]:
        """Per t: the pressures over ``xs`` and the sides of ``P * V = n*R*T``.

        Yields ``(ys, ws, rs)`` with ``ys[i] * ws[i] == rs[i]`` up to
        rounding. ``n*R*t`` is computed once per row and every y has the
        bits of ``y_of``; the caller checks the domain.
        """
        for t in ts:
            c = self.n * self.R * t
            yield [c / x for x in xs], xs, [c] * len(xs)


class CurieParamagnetEoS(Record):
    """M = (D / mu0) * (B0 / T): Curie-law paramagnet.

    D is the Curie constant of the material; mu0 defaults to 1 for a
    unit-free treatment and can be set to the physical permeability.
    """

    __slots__ = ("D", "mu0")

    def __init__(self, D: float, mu0: float = 1.0) -> None:
        if not (D > 0 and math.isfinite(D)):
            raise InvariantError(f"Curie constant D must be positive and finite, got {D}")
        if not (mu0 > 0 and math.isfinite(mu0)):
            raise InvariantError(f"permeability mu0 must be positive and finite, got {mu0}")
        set_field(self, "D", D)
        set_field(self, "mu0", mu0)

    def axis_labels(self) -> tuple[str, str, str]:
        return ("B0", "M", "T")

    def y_of(self, x: float, t: float) -> float:
        """Magnetization at applied field x and temperature t."""
        if t <= 0:
            raise DomainError(f"temperature must be positive, got {t}")
        return _hoisted("D/mu0", self.D / self.mu0) * (x / t)

    def residual(self, x: float, y: float, t: float) -> float:
        return y - self.y_of(x, t)

    def rows(self, xs: list[float], ts: list[float]) -> Iterator[Row]:
        """Per t: the magnetizations over ``xs`` and the sides of ``M * T = (D/mu0) * B0``.

        Yields ``(ys, ws, rs)`` as ``IdealGasEoS.rows`` does. ``D/mu0``
        and the right-hand sides are computed once per call.
        """
        c = self.D / self.mu0
        cx = [c * x for x in xs]
        for t in ts:
            yield [c * (x / t) for x in xs], [t] * len(xs), cx

