"""Price equilibrium as an equivalence relation over markets.

Two markets are in price equilibrium when their clearing prices agree.
Floating-point equality within a tolerance is not transitive, so the
relation is built on quantized prices instead: each clearing price is
snapped to a fixed grid (round-half-to-even on price/quantum) and the
resulting integer ticks are compared exactly. Equality of ints is an
equivalence, so grouping the markets by tick partitions a registry into
its equivalence classes, and the classes in tick order are the ranking.
"""

from __future__ import annotations

import math
from typing import Mapping

from .equilibrium import MarketSpec, clearing_price_analytic
from .errors import BracketingError, DomainError, InvariantError
from .record import Record, set_field

DEFAULT_QUANTUM = 1e-9


class MarketRegistry(Record):
    """Named markets compared under one price quantum."""

    __slots__ = ("entries", "quantum")

    def __init__(self, entries: Mapping[str, MarketSpec], quantum: float = DEFAULT_QUANTUM) -> None:
        if not (quantum > 0 and math.isfinite(quantum)):
            raise InvariantError(f"quantum must be positive and finite, got {quantum}")
        set_field(self, "entries", dict(entries))
        set_field(self, "quantum", quantum)


def quantize(price: float, quantum: float) -> int:
    """Integer tick of ``price`` on the ``quantum`` grid, half-to-even.

    Raises ``DomainError`` when ``price / quantum`` is not finite, since
    no tick represents it.
    """
    scaled = price / quantum
    if not math.isfinite(scaled):
        raise DomainError(f"price/quantum is not finite: {price!r}/{quantum!r}")
    return round(scaled)


def _tick(name: str, market: MarketSpec, quantum: float) -> int:
    """Quantized clearing price of one market; errors name the market."""
    try:
        return quantize(clearing_price_analytic(market).clearing_price, quantum)
    except (BracketingError, DomainError, InvariantError) as exc:
        raise type(exc)(f"market {name!r}: {exc}") from exc


def rank_markets(registry: MarketRegistry) -> list[tuple[str, float]]:
    """Markets ordered by quantized clearing price, names break ties.

    This is the partition of :func:`verify_equivalence_laws` flattened.
    """
    return [(name, price) for price, members in verify_equivalence_laws(registry) for name in members]


def verify_equivalence_laws(registry: MarketRegistry) -> tuple[tuple[float, tuple[str, ...]], ...]:
    """Partition the registry into price-equilibrium classes.

    Returns one ``(quantized price, sorted member names)`` entry per
    distinct tick, in tick order. Each market is solved once and keyed
    by its integer tick. Every market lands in exactly one class, and
    two markets are related exactly when they share a class, so
    reflexivity, symmetry and transitivity hold for every registry.
    Markets whose clearing price cannot be solved or quantized raise
    with the market named.
    """
    by_tick: dict[int, list[str]] = {}
    for name, market in registry.entries.items():
        by_tick.setdefault(_tick(name, market, registry.quantum), []).append(name)
    return tuple(
        (tick * registry.quantum, tuple(sorted(members)))
        for tick, members in sorted(by_tick.items())
    )
