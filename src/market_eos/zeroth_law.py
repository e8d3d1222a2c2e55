"""Price equilibrium as an equivalence relation over markets.

Two markets are in price equilibrium when their clearing prices agree.
Floating-point equality within a tolerance is not transitive, so the
relation is built on quantized prices instead: each clearing price is
snapped to a fixed grid (round-half-to-even on price/quantum) and the
resulting integer ticks are compared exactly. Equality of ints is an
equivalence, so grouping the markets by tick partitions them into their
equivalence classes, and the classes in tick order are the ranking.
"""

from __future__ import annotations

import math
from typing import Mapping

# clearing_price_analytic is not called here; perfbench's tracer wraps it as zeroth_law.clearing_price_analytic
from .equilibrium import MarketSpec, _analytic_price, clearing_price_analytic  # noqa: F401
from .errors import DomainError

DEFAULT_QUANTUM = 1e-9


def require_quantum(quantum: float) -> None:
    """Raise ``DomainError`` unless ``quantum`` is positive and finite."""
    if not (quantum > 0 and math.isfinite(quantum)):
        raise DomainError(f"quantum must be positive and finite, got {quantum}")


def rank_markets(markets: Mapping[str, MarketSpec], quantum: float) -> list[tuple[str, float]]:
    """Markets ordered by quantized clearing price, names break ties.

    This is the partition of :func:`verify_equivalence_laws` flattened.
    """
    return [(name, price) for price, members in verify_equivalence_laws(markets, quantum) for name in members]


def verify_equivalence_laws(markets: Mapping[str, MarketSpec],
                            quantum: float) -> tuple[tuple[float, tuple[str, ...]], ...]:
    """Partition the named markets into price-equilibrium classes on the ``quantum`` grid.

    Returns one ``(tick * quantum, sorted member names)`` entry per
    distinct tick, in tick order. Each market's closed-form price is
    computed once, without Q* or the residual, and keyed by its integer
    tick ``round(price / quantum)``, half-to-even. Every market lands in
    exactly one class, and two markets are related exactly when they
    share a class, so reflexivity, symmetry and transitivity hold for
    every set of markets. A quantum that is not positive and finite
    raises ``DomainError``, as does a market whose price cannot be solved
    or whose ``price / quantum`` or class price is not finite, named.
    """
    require_quantum(quantum)
    by_tick: dict[int, list[str]] = {}
    for name, market in markets.items():
        try:
            price = _analytic_price(market)
            scaled = price / quantum
            if not math.isfinite(scaled):
                raise DomainError(f"price/quantum is not finite: {price!r}/{quantum!r}")
            tick = round(scaled)
            if not math.isfinite(tick * quantum):
                raise DomainError(f"class price is not finite: price {price!r} on quantum {quantum!r}")
        except DomainError as exc:
            raise DomainError(f"market {name!r}: {exc}") from exc
        by_tick.setdefault(tick, []).append(name)
    return tuple((tick * quantum, tuple(sorted(members))) for tick, members in sorted(by_tick.items()))
