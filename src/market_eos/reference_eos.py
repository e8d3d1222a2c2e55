"""Classical reference equations of state: ideal gas and Curie paramagnet.

Both expose the same surface-evaluation contract as the market surface
(axis labels, a closed form y(x, t), a signed residual), so samplers
and comparison tooling treat all three interchangeably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvariantError

GAS_CONSTANT = 8.314


@dataclass(frozen=True)
class IdealGasEoS:
    """P * V = n * R * T for n moles of ideal gas."""

    n: float = 1.0
    R: float = GAS_CONSTANT

    def __post_init__(self) -> None:
        if not (self.n > 0 and math.isfinite(self.n)):
            raise InvariantError(f"amount of substance n must be positive and finite, got {self.n}")
        if not (self.R > 0 and math.isfinite(self.R)):
            raise InvariantError(f"gas constant R must be positive and finite, got {self.R}")

    def axis_labels(self) -> tuple[str, str, str]:
        return ("V", "P", "T")

    def y_of(self, x: float, t: float) -> float:
        """Pressure at volume x and temperature t."""
        self.check_domain(x, t)
        return self.n * self.R * t / x

    def residual(self, x: float, y: float, t: float) -> float:
        return y - self.y_of(x, t)

    def check_domain(self, x: float, t: float) -> None:
        if t <= 0:
            raise DomainError(f"temperature must be positive, got {t}")
        if x <= 0:
            raise DomainError(f"volume must be positive, got {x}")


@dataclass(frozen=True)
class CurieParamagnetEoS:
    """M = (D / mu0) * (B0 / T): Curie-law paramagnet.

    D is the Curie constant of the material; mu0 defaults to 1 for a
    unit-free treatment and can be set to the physical permeability.
    """

    D: float
    mu0: float = 1.0

    def __post_init__(self) -> None:
        if not (self.D > 0 and math.isfinite(self.D)):
            raise InvariantError(f"Curie constant D must be positive and finite, got {self.D}")
        if not (self.mu0 > 0 and math.isfinite(self.mu0)):
            raise InvariantError(f"permeability mu0 must be positive and finite, got {self.mu0}")

    def axis_labels(self) -> tuple[str, str, str]:
        return ("B0", "M", "T")

    def y_of(self, x: float, t: float) -> float:
        """Magnetization at applied field x and temperature t."""
        self.check_domain(x, t)
        return (self.D / self.mu0) * (x / t)

    def residual(self, x: float, y: float, t: float) -> float:
        return y - self.y_of(x, t)

    def check_domain(self, x: float, t: float) -> None:
        if t <= 0:
            raise DomainError(f"temperature must be positive, got {t}")

