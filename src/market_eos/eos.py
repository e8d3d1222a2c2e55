"""Market equation of state and the linear-market consistency analysis.

Treating a one-good market the way equilibrium thermodynamics treats a
gas, the state coordinates are supplied quantity Q^s (extensive),
demand per household q^d (intensive, the force-like coordinate) and
price Pr (the temperature-like coordinate). For a unit-elastic demand
market clearing against a linear supply curve, those coordinates are
constrained to a surface

    q^d = K * Q^s / Pr,    K = sqrt(k_s / (k_d * N)),

where K plays the role a gas constant plays for an ideal gas and 1/K
is the factor by which the per-household demand is amplified into
supplied quantity. The same construction fails for a linear demand
curve: deriving the elasticity coefficients from the curve relations
gives a negative square (an imaginary slope) while the slope read
directly off the curve is real and negative, so the two
determinations contradict each other once market clearing ties demand
to supply. Both results are reproduced here, the first as a derivation
with a built-in identity check, the second as an explicit report.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from .curves import LinearDemand, UnitaryDemand
from .equilibrium import _DBL_MIN, PER_HOUSEHOLD, MarketSpec, _sqrt_quotient, clearing_price_analytic
from .errors import DomainError, InvariantError
from .record import Record, set_field
from .reference_eos import Row, _hoisted

# The derived identity K * N == Pr* is exact algebra; allow only float
# rounding when checking it at construction.
EOS_SELF_CHECK_REL = 1e-12

REAL = "real"
IMAGINARY = "imaginary"


class UnitaryEoS(Record):
    """Constraint surface q^d = K * Q^s / Pr for one unitary market.

    K is computed, never user-set, and is specific to the source
    market: it depends on the demand coefficient, the supply slope and
    the household count.
    """

    __slots__ = ("K", "source_market")

    def __init__(self, K: float, source_market: MarketSpec) -> None:
        set_field(self, "K", K)
        set_field(self, "source_market", source_market)

    @property
    def households(self) -> int:
        return self.source_market.households

    def axis_labels(self) -> tuple[str, str, str]:
        return ("Q_s", "q_d", "Pr")

    def y_of(self, x: float, t: float) -> float:
        """Per-household demand on the surface at supply x, price t."""
        if t <= 0:
            raise DomainError(f"price must be positive, got {t}")
        return _hoisted("K*x", self.K * x) / t

    def rows(self, xs: list[float], ts: list[float]) -> Iterator[Row]:
        """Per t: the demands over ``xs`` and the sides of ``q_d * Pr = K * Q_s``.

        Yields ``(ys, ws, rs)`` with ``ys[i] * ws[i] == rs[i]`` up to
        rounding. ``K*x`` is computed once per call and every y has the
        bits of ``y_of``; the caller checks the domain.
        """
        kx = [self.K * x for x in xs]
        for t in ts:
            yield [v / t for v in kx], [t] * len(xs), kx

    def to_dict(self) -> dict:
        demand = self.source_market.demand
        return {
            "K": self.K,
            "N": self.households,
            "source": {
                "family": "unitary",
                "k_s": demand.k_s,
                "k_d": self.source_market.supply.k_d,
                "households": self.households,
                "interpretation": self.source_market.interpretation,
            },
        }


class ConsistencyReport(Record):
    """Outcome of the two-way elasticity determination for a linear market.

    ``eps_d_squared`` and ``eps_s_squared`` come from the curve
    relations; ``eps_d_direct`` is the slope read directly off the
    demand curve. A negative square is classified ``imaginary`` and
    clashes with the always-real direct slope.
    """

    __slots__ = ("eps_d_squared", "eps_s_squared", "eps_d_direct", "classification_d", "classification_s",
                 "consistent", "reason")

    def __init__(self, eps_d_squared: float, eps_s_squared: float, eps_d_direct: float,
                 classification_d: str, classification_s: str, consistent: bool, reason: str) -> None:
        set_field(self, "eps_d_squared", eps_d_squared)
        set_field(self, "eps_s_squared", eps_s_squared)
        set_field(self, "eps_d_direct", eps_d_direct)
        set_field(self, "classification_d", classification_d)
        set_field(self, "classification_s", classification_s)
        set_field(self, "consistent", consistent)
        set_field(self, "reason", reason)

    def to_dict(self) -> dict:
        return {
            "eps_d_squared": self.eps_d_squared,
            "eps_s_squared": self.eps_s_squared,
            "eps_d_direct": self.eps_d_direct,
            "classification_d": self.classification_d,
            "classification_s": self.classification_s,
            "consistent": self.consistent,
            "reason": self.reason,
        }


def linear_consistency_from_coefficients(
    k_s: float, k_d: float, k_pr: float = 1.0
) -> ConsistencyReport:
    """Consistency verdict from raw coefficients, invariants unchecked.

    eps_d_squared = k_d * k_s * k_pr and eps_s_squared = k_d * k_s / k_pr,
    where k_pr is the demand-to-supply quantity ratio. Both squares have
    the sign of the exact product, read from the float result's sign
    bit, which stays right when the value underflows to -0.0; a square
    that is not finite raises ``DomainError``. Exposed so control cases
    (e.g. a positive demand slope) can be probed without constructing a
    curve that would reject them.
    """
    if k_pr == 0:
        raise DomainError("k_pr must be nonzero")
    eps_d_squared = k_d * k_s * k_pr
    eps_s_squared = k_d * k_s / k_pr
    if not (math.isfinite(eps_d_squared) and math.isfinite(eps_s_squared)):
        raise DomainError(
            f"eps_d_squared = {eps_d_squared} and eps_s_squared = {eps_s_squared} "
            f"are not both finite for k_s={k_s}, k_d={k_d}, k_pr={k_pr}"
        )
    negative = k_s != 0 and k_d != 0 and math.copysign(1.0, eps_d_squared) < 0
    classification = IMAGINARY if negative else REAL
    consistent = not negative
    if consistent:
        reason = (
            f"both determinations of eps_d are real: eps_d_squared = {eps_d_squared} >= 0 "
            f"and the direct demand slope is {k_s}"
        )
    else:
        reason = (
            f"eps_d_squared = k_d*k_s*k_pr = {eps_d_squared} < 0 makes eps_d imaginary, "
            f"while the slope read directly off the demand curve is real ({k_s}); "
            f"market clearing forces k_pr = {k_pr}, so the two determinations contradict"
        )
    return ConsistencyReport(
        eps_d_squared=eps_d_squared,
        eps_s_squared=eps_s_squared,
        eps_d_direct=k_s,
        classification_d=classification,
        classification_s=classification,
        consistent=consistent,
        reason=reason,
    )


def check_linear_consistency(market: MarketSpec) -> ConsistencyReport:
    """Two-way elasticity determination for a linear-demand market.

    Market clearing equates demand and supply quantities, fixing the
    quantity ratio k_pr at 1; with a negative demand slope the squared
    coefficients come out negative, so the verdict is always
    inconsistent for a curve that satisfies its own invariants.
    """
    if not isinstance(market.demand, LinearDemand):
        raise TypeError(
            "check_linear_consistency requires a linear demand market; "
            "use derive_unitary_eos for unitary demand"
        )
    return linear_consistency_from_coefficients(market.demand.k_s, market.supply.k_d, k_pr=1.0)


def derive_unitary_eos(market: MarketSpec) -> UnitaryEoS:
    """Constraint-surface constant K for a unitary market.

    K = sqrt(k_s / (k_d * N)), rescaled as the clearing price is where
    the quotient or ``k_d * N`` is not a normal double. A subnormal K
    raises ``DomainError``. Construction self-checks the derived
    identity K == clearing price / N before returning.
    """
    if not isinstance(market.demand, UnitaryDemand):
        raise TypeError(
            "derive_unitary_eos requires a unitary demand market; "
            "use check_linear_consistency for linear demand"
        )
    if market.interpretation != PER_HOUSEHOLD:
        raise DomainError(
            "the constraint surface needs the per-household (intensive) demand reading; "
            f"market uses {market.interpretation!r}"
        )
    k_s, k_d, n = market.demand.k_s, market.supply.k_d, market.households
    supply_n = k_d * n
    # a subnormal k_d*N has lost bits already: an infinite quotient sends the root down the rescale path
    k = _hoisted("K", _sqrt_quotient(k_s / supply_n if supply_n >= _DBL_MIN else math.inf, k_s, k_d, 1 / n))
    pr_star = clearing_price_analytic(market).clearing_price
    if not (abs(k - pr_star / n) <= EOS_SELF_CHECK_REL * (pr_star / n)):
        raise InvariantError(
            f"surface constant failed its identity check: K = {k} "
            f"but the clearing price over N is {pr_star / n}"
        )
    return UnitaryEoS(K=k, source_market=market)


def amplification_factor(eos: UnitaryEoS) -> float:
    """Factor 1/K by which q^d induces Q^s, as D/mu0 amplifies a paramagnet's field."""
    return 1.0 / eos.K
