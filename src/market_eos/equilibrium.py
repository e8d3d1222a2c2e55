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
from .errors import BracketingError, DomainError, InvariantError, UnsolvableMarketError
from .record import Record, set_field

# Ways to read a unitary demand coefficient when aggregating over
# households: the coefficient belongs to each household (aggregate
# demand is households * k_s / pr) or to the whole market (k_s / pr).
PER_HOUSEHOLD = "per-household"
AGGREGATE = "aggregate"

# Residual acceptance: |Q^d - Q^s| <= RESIDUAL_REL * max(1, Q*).
RESIDUAL_REL = 1e-9

# Default relative tolerance on the bisection price.
PRICE_TOL = 1e-12

_BRACKET_MAX_EXPONENT = 60

_DBL_MIN, _DBL_MAX = sys.float_info.min, sys.float_info.max


class MarketSpec(Record):
    """One market: a demand curve, a supply curve, N household buyers."""

    __slots__ = ("demand", "supply", "households", "interpretation")

    def __init__(self, demand: LinearDemand | UnitaryDemand, supply: LinearSupply, households: int = 1,
                 interpretation: str = PER_HOUSEHOLD) -> None:
        if not isinstance(demand, (LinearDemand, UnitaryDemand)):
            raise InvariantError(f"demand must be a demand curve, got {type(demand).__name__}")
        if not isinstance(supply, LinearSupply):
            raise InvariantError(f"supply must be a supply curve, got {type(supply).__name__}")
        if not (isinstance(households, int) and households >= 1):
            raise InvariantError(f"households must be a positive integer, got {households!r}")
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

    def __init__(self, clearing_price: float, clearing_quantity: float, residual: float = 0.0) -> None:
        set_field(self, "clearing_price", clearing_price)
        set_field(self, "clearing_quantity", clearing_quantity)
        set_field(self, "residual", residual)


def aggregate_demand(market: MarketSpec, pr: float) -> float:
    """Market-wide quantity demanded at ``pr``.

    Unitary demand scales with the household count under the
    per-household interpretation; linear demand is already aggregate.
    """
    q = market.demand.quantity(pr)
    if isinstance(market.demand, UnitaryDemand) and market.interpretation == PER_HOUSEHOLD:
        return market.households * q
    return q


def excess_demand(market: MarketSpec, pr: float) -> float:
    """Aggregate demand minus supply at ``pr``; zero at clearing."""
    return aggregate_demand(market, pr) - market.supply.quantity(pr)


def _sqrt_quotient(quotient: float, k_s: float, k_d: float, n: float = 1) -> float:
    """``sqrt(n * k_s / k_d)`` for positive finite ``k_s``, ``k_d`` and ``n``.

    Where ``quotient``, the caller's float value of it, is a normal
    double this is ``sqrt(quotient)``. Elsewhere ``k_s`` and ``k_d`` are
    first scaled into ``[0.5, 1)`` by powers of two, which the root takes
    back out exactly, so the result is what the direct formula would give
    with an unbounded exponent range, rounded once more only if it is
    itself subnormal or overflows to ``inf``.
    """
    if _DBL_MIN <= quotient <= _DBL_MAX:
        return math.sqrt(quotient)
    (m_s, e_s), (m_d, e_d) = math.frexp(k_s), math.frexp(k_d)
    half, odd = divmod(e_s - e_d, 2)
    root = math.sqrt(math.ldexp(n * m_s / m_d, odd))
    # two steps of at most 2**525 each: the first is exact, so only the last can round
    return root * 2.0 ** (half // 2) * 2.0 ** (half - half // 2)


def clearing_price_analytic(market: MarketSpec) -> EquilibriumPoint:
    """Closed-form clearing point for the supported curve pairings.

    Linear-linear: Pr* = q_d0 / (k_d - k_s). Unitary demand:
    Pr* = sqrt(N * k_s / k_d) per-household, sqrt(k_s / k_d) aggregate.
    Raises ``DomainError`` when Pr* is not a positive finite double.
    """
    demand, supply = market.demand, market.supply
    if isinstance(demand, LinearDemand):
        pr_star = demand.q_d0 / (supply.k_d - demand.k_s)
    else:
        n = market.households if market.interpretation == PER_HOUSEHOLD else 1
        pr_star = _sqrt_quotient(n * demand.k_s / supply.k_d, demand.k_s, supply.k_d, n)
    if not (pr_star > 0 and math.isfinite(pr_star)):
        raise DomainError(f"clearing price {pr_star} is not a positive finite double")
    q_star = supply.quantity(pr_star)
    return EquilibriumPoint(pr_star, q_star, residual=abs(excess_demand(market, pr_star)))


def auto_bracket(market: MarketSpec) -> tuple[float, float]:
    """Sign-changing price bracket by geometric expansion from [1/2, 2].

    Both ends widen by a factor of two per step, up to [2**-60, 2**60].
    Deterministic; raises if no sign change appears within the limits.
    """
    for k in range(1, _BRACKET_MAX_EXPONENT + 1):
        lo, hi = 2.0**-k, 2.0**k
        f_lo, f_hi = excess_demand(market, lo), excess_demand(market, hi)
        if f_lo == 0.0 or f_hi == 0.0 or (f_lo > 0.0) != (f_hi > 0.0):
            return lo, hi
    raise UnsolvableMarketError(
        f"no sign change in excess demand on [2**-{_BRACKET_MAX_EXPONENT}, 2**{_BRACKET_MAX_EXPONENT}]"
    )


def clearing_price_numeric(
    market: MarketSpec,
    bracket: tuple[float, float] | None = None,
    tol: float = PRICE_TOL,
) -> EquilibriumPoint:
    """Clearing point by bisection on excess demand.

    Parameters
    ----------
    market : MarketSpec
        Market to clear.
    bracket : (lo, hi), optional
        Price interval with a sign change in excess demand. Defaults
        to :func:`auto_bracket`.
    tol : float
        Relative tolerance on the clearing price (default 1e-12).

    Returns
    -------
    EquilibriumPoint
        Bisection stops once the bracket is narrower than ``tol``
        relative and the residual is within ``RESIDUAL_REL * max(1, Q*)``,
        or the bracket cannot shrink further in floating point.

    Raises
    ------
    BracketingError
        If excess demand has the same sign at both endpoints.
    """
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if bracket is None:
        bracket = auto_bracket(market)
    lo, hi = bracket
    if not (0 <= lo < hi):
        raise DomainError(f"bracket must satisfy 0 <= lo < hi, got [{lo}, {hi}]")

    f_lo = excess_demand(market, lo)
    f_hi = excess_demand(market, hi)
    if f_lo == 0.0:
        lo = hi = lo
    elif f_hi == 0.0:
        lo = hi = hi
    elif (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketingError(
            f"no sign change in excess demand on [{lo}, {hi}]: "
            f"excess_demand({lo}) = {f_lo}, excess_demand({hi}) = {f_hi}"
        )

    while lo < hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = excess_demand(market, mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= tol * mid:
            q_mid = market.supply.quantity(mid)
            if abs(f_mid) <= RESIDUAL_REL * max(1.0, q_mid):
                break

    pr_star = 0.5 * (lo + hi) if lo < hi else lo
    q_star = market.supply.quantity(pr_star)
    return EquilibriumPoint(pr_star, q_star, residual=abs(excess_demand(market, pr_star)))
