"""Parametric demand and supply curve families.

Three one-good curve families: linear demand (downward line with a
positive vertical intercept), linear supply (upward line through the
origin), and unit-elastic demand (a hyperbola in price, so quantity
times price is constant). Each family evaluates quantity, slope with
respect to price, and point-price elasticity.

Prices are abstract currency units per good, quantities abstract goods
units. All curve objects are immutable and every operation is a pure
function.
"""

from __future__ import annotations

import math
from .errors import DomainError, InvariantError
from .record import Record, set_field

# Absolute tolerance for calling |E| == 1 "unitary"; the elasticity
# arithmetic is a handful of float operations, so 1e-12 is generous.
UNITARY_CLASSIFICATION_TOL = 1e-12


def classify_elasticity(value: float) -> str:
    """``"elastic"`` (|E| > 1), ``"unitary"`` (|E| = 1 within the tolerance above) or ``"inelastic"``."""
    if abs(abs(value) - 1.0) <= UNITARY_CLASSIFICATION_TOL:
        return "unitary"
    return "elastic" if abs(value) > 1.0 else "inelastic"


class LinearDemand(Record):
    """Demand linear in price: quantity = k_s * pr + q_d0.

    k_s is the slope in goods per currency unit (strictly negative),
    q_d0 the vertical intercept in goods (strictly positive), so the
    curve starts at q_d0 for a free good and falls with price.
    """

    __slots__ = ("k_s", "q_d0")

    def __init__(self, k_s: float, q_d0: float) -> None:
        if not (k_s < 0 and math.isfinite(k_s)):
            raise InvariantError(f"linear demand slope k_s must be negative and finite, got {k_s}")
        if not (q_d0 > 0 and math.isfinite(q_d0)):
            raise InvariantError(f"demand intercept q_d0 must be positive and finite, got {q_d0}")
        set_field(self, "k_s", k_s)
        set_field(self, "q_d0", q_d0)

    def quantity(self, pr: float) -> float:
        """Quantity demanded at price ``pr``, never clamped.

        Past the choke price the raw negative value is returned. Silent
        clamping would corrupt the sign structure the equilibrium
        root-finder relies on.
        """
        if pr < 0:
            raise DomainError(f"price must be nonnegative, got {pr}")
        return self.k_s * pr + self.q_d0

    def slope(self, pr: float) -> float:
        """Constant slope k_s; ``pr`` is accepted for interface symmetry."""
        if pr < 0:
            raise DomainError(f"price must be nonnegative, got {pr}")
        return self.k_s


class LinearSupply(Record):
    """Supply linear in price through the origin: quantity = k_d * pr."""

    __slots__ = ("k_d",)

    def __init__(self, k_d: float) -> None:
        if not (k_d > 0 and math.isfinite(k_d)):
            raise InvariantError(f"supply slope k_d must be positive and finite, got {k_d}")
        set_field(self, "k_d", k_d)

    def quantity(self, pr: float) -> float:
        if pr < 0:
            raise DomainError(f"price must be nonnegative, got {pr}")
        return self.k_d * pr

    def slope(self, pr: float) -> float:
        if pr < 0:
            raise DomainError(f"price must be nonnegative, got {pr}")
        return self.k_d


class UnitaryDemand(Record):
    """Unit-elastic demand: quantity = k_s / pr, so quantity * pr = k_s.

    k_s is in goods times currency units (strictly positive). The curve
    is hyperbolic in price and its point-price elasticity is -1 at
    every price.
    """

    __slots__ = ("k_s",)

    def __init__(self, k_s: float) -> None:
        if not (k_s > 0 and math.isfinite(k_s)):
            raise InvariantError(f"unitary demand coefficient k_s must be positive and finite, got {k_s}")
        set_field(self, "k_s", k_s)

    def quantity(self, pr: float) -> float:
        if pr <= 0:
            raise DomainError(f"price must be positive, got {pr}")
        return self.k_s / pr

    def slope(self, pr: float) -> float:
        """d(quantity)/d(price) = -k_s / pr**2, divided by pr twice: ``pr * pr`` overflows or underflows."""
        if pr <= 0:
            raise DomainError(f"price must be positive, got {pr}")
        return -(self.k_s / pr) / pr


def point_elasticity(curve: LinearDemand | UnitaryDemand | LinearSupply, pr0: float) -> float:
    """Point-price elasticity slope(pr0) * pr0 / quantity(pr0).

    Requires pr0 > 0, a nonzero quantity at pr0 and a finite quotient;
    :func:`classify_elasticity` names its elastic/unitary/inelastic band.
    """
    if pr0 <= 0:
        raise DomainError(f"price must be positive, got {pr0}")
    q0 = curve.quantity(pr0)
    if q0 == 0.0:
        raise DomainError(f"elasticity undefined at zero quantity (pr0={pr0})")
    # a unitary slope times the price is -k_s / pr0, which is -q0, but the slope alone can leave the
    # double range where -q0 does not
    elasticity = (-q0 if isinstance(curve, UnitaryDemand) else curve.slope(pr0) * pr0) / q0
    if not math.isfinite(elasticity):
        raise DomainError(f"elasticity at pr0={pr0} is not finite: {elasticity}")
    return elasticity
