"""Market-clearing solvers.

A market is one demand curve, one supply curve and a household count.
The clearing price is found two independent ways: a closed form per
curve-family pairing, and a plain bisection search on excess demand.
The bisection path deliberately shares no derivative or closed-form
code with the curve module, so it can serve as an oracle for the
analytic path.
"""

from __future__ import annotations

import math
import sys
from .curves import LinearDemand, LinearSupply, UnitaryDemand
from .errors import BracketingError, DomainError, InvariantError
from .record import Record, set_field

# Ways to read a unitary demand coefficient when aggregating over
# households: the coefficient belongs to each household (aggregate
# demand is households * k_s / pr) or to the whole market (k_s / pr).
PER_HOUSEHOLD = "per-household"
AGGREGATE = "aggregate"

_DBL_TRUE_MIN, _DBL_MIN, _DBL_MAX = math.ulp(0.0), sys.float_info.min, sys.float_info.max


class MarketSpec(Record):
    """One market: a demand curve, a supply curve, N household buyers."""

    __slots__ = ("demand", "supply", "households", "interpretation")

    def __init__(self, demand: LinearDemand | UnitaryDemand, supply: LinearSupply, households: int = 1,
                 interpretation: str = PER_HOUSEHOLD) -> None:
        if not isinstance(demand, (LinearDemand, UnitaryDemand)):
            raise InvariantError(f"demand must be a demand curve, got {type(demand).__name__}")
        if not isinstance(supply, LinearSupply):
            raise InvariantError(f"supply must be a supply curve, got {type(supply).__name__}")
        if not (isinstance(households, int) and 1 <= households <= _DBL_MAX):
            raise InvariantError(f"households must be a positive integer at most DBL_MAX, got {households!r}")
        if interpretation not in (PER_HOUSEHOLD, AGGREGATE):
            raise InvariantError(
                f"interpretation must be {PER_HOUSEHOLD!r} or {AGGREGATE!r}, got {interpretation!r}"
            )
        set_field(self, "demand", demand)
        set_field(self, "supply", supply)
        set_field(self, "households", households)
        set_field(self, "interpretation", interpretation)


class EquilibriumPoint(Record):
    """Clearing price and quantity, plus the excess-demand residual there."""

    __slots__ = ("clearing_price", "clearing_quantity", "residual")

    def __init__(self, clearing_price: float, clearing_quantity: float, residual: float) -> None:
        set_field(self, "clearing_price", clearing_price)
        set_field(self, "clearing_quantity", clearing_quantity)
        set_field(self, "residual", residual)


def excess_demand(market: MarketSpec, pr: float) -> float:
    """Market-wide demand minus supply at ``pr``; zero at clearing.

    Unitary demand scales with the household count under the
    per-household interpretation; linear demand is already aggregate.
    """
    q = market.demand.quantity(pr)
    if isinstance(market.demand, UnitaryDemand) and market.interpretation == PER_HOUSEHOLD:
        q = market.households * q
    return q - market.supply.quantity(pr)


def _sqrt_quotient(quotient: float, k_s: float, k_d: float, n: float) -> float:
    """``sqrt(n * k_s / k_d)`` for positive finite ``k_s``, ``k_d`` and ``n``.

    Where ``quotient``, the caller's float value of it, is a normal
    double this is ``sqrt(quotient)``. Elsewhere ``k_s``, ``k_d`` and
    ``n`` are first scaled into ``[0.5, 1)`` by powers of two, which the
    root takes back out exactly, so the result is what the direct formula
    would give with an unbounded exponent range, rounded once more only
    if it is itself subnormal or overflows to ``inf``.
    """
    if _DBL_MIN <= quotient <= _DBL_MAX:
        return math.sqrt(quotient)
    (m_s, e_s), (m_d, e_d), (m_n, e_n) = math.frexp(k_s), math.frexp(k_d), math.frexp(n)
    half, odd = divmod(e_s - e_d + e_n, 2)
    root = math.sqrt(math.ldexp(m_n * m_s / m_d, odd))
    # two steps of at most 2**780 each: the first is exact, so only the last can round
    return root * 2.0 ** (half // 2) * 2.0 ** (half - half // 2)


def clearing_price_analytic(market: MarketSpec) -> EquilibriumPoint:
    """Closed-form clearing point for the supported curve pairings.

    Linear-linear: Pr* = q_d0 / (k_d - k_s), with the slopes halved
    first, exactly, where their difference overflows. Unitary demand:
    Pr* = sqrt(N * k_s / k_d) per-household, sqrt(k_s / k_d) aggregate.
    Raises ``DomainError`` when Pr* is not a positive finite double.
    """
    demand, supply = market.demand, market.supply
    if isinstance(demand, LinearDemand):
        spread = supply.k_d - demand.k_s
        if spread <= _DBL_MAX:
            pr_star = demand.q_d0 / spread
        else:
            pr_star = demand.q_d0 / (0.5 * supply.k_d - 0.5 * demand.k_s) * 0.5
    else:
        n = market.households if market.interpretation == PER_HOUSEHOLD else 1
        pr_star = _sqrt_quotient(n * demand.k_s / supply.k_d, demand.k_s, supply.k_d, n)
    if not (pr_star > 0 and math.isfinite(pr_star)):
        raise DomainError(f"clearing price {pr_star} is not a positive finite double")
    q_star = supply.quantity(pr_star)
    return EquilibriumPoint(pr_star, q_star, residual=abs(excess_demand(market, pr_star)))


def auto_bracket(market: MarketSpec) -> tuple[float, float]:
    """Every positive double, ``(5e-324, DBL_MAX)``, as the price bracket.

    Raises ``BracketingError`` unless excess demand changes sign, or is
    zero, at one of the two ends, which holds for every market whose
    clearing price is a positive double.
    """
    f_lo, f_hi = excess_demand(market, _DBL_TRUE_MIN), excess_demand(market, _DBL_MAX)
    if f_lo != 0.0 and f_hi != 0.0 and (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketingError(
            f"no sign change in excess demand over the positive doubles: "
            f"excess_demand({_DBL_TRUE_MIN}) = {f_lo}, excess_demand({_DBL_MAX}) = {f_hi}"
        )
    return _DBL_TRUE_MIN, _DBL_MAX


def clearing_price_numeric(market: MarketSpec) -> EquilibriumPoint:
    """Clearing point by bisection on excess demand over every positive double.

    The midpoint is geometric while ``hi > 2*lo``, so the exponent range
    halves each step, and arithmetic after that. The search stops at an
    exact zero of excess demand or when no double lies strictly between
    the ends, at most 64 steps, and returns the end with the smaller
    ``|excess_demand|``. Raises ``BracketingError`` when the clearing
    price is not a positive double.
    """
    lo, hi = auto_bracket(market)
    f_lo, f_hi = excess_demand(market, lo), excess_demand(market, hi)
    while f_lo != 0.0 and f_hi != 0.0:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        f_mid = excess_demand(market, mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    pr_star, f_star = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    return EquilibriumPoint(pr_star, market.supply.quantity(pr_star), residual=abs(f_star))
