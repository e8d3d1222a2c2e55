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
from dataclasses import dataclass, field
from typing import Mapping

from .equilibrium import MarketSpec, clearing_price_analytic
from .errors import BracketingError, DomainError, InvariantError

DEFAULT_QUANTUM = 1e-9

# Market preconditions assumed, not computable from a MarketSpec.
MODELING_ASSUMPTIONS = ("efficient", "perfectly-competitive", "clearing")


@dataclass(frozen=True)
class MarketRegistry:
    """Named markets compared under one price quantum.

    ``goods`` optionally labels what each market trades; comparisons
    across differently labeled goods are allowed but flagged.
    """

    entries: Mapping[str, MarketSpec]
    quantum: float = DEFAULT_QUANTUM
    goods: Mapping[str, str] = field(default_factory=dict)
    assumptions: tuple[str, ...] = MODELING_ASSUMPTIONS

    def __post_init__(self) -> None:
        if not (self.quantum > 0 and math.isfinite(self.quantum)):
            raise InvariantError(f"quantum must be positive and finite, got {self.quantum}")
        object.__setattr__(self, "entries", dict(self.entries))
        object.__setattr__(self, "goods", dict(self.goods))

    def market(self, name: str) -> MarketSpec:
        try:
            return self.entries[name]
        except KeyError:
            raise KeyError(f"unknown market {name!r}") from None


@dataclass(frozen=True)
class EquilibriumVerdict:
    """Pairwise comparison outcome on quantized clearing prices."""

    pair: tuple[str, str]
    in_equilibrium: bool
    prices: tuple[float, float]
    cross_goods: bool = False


@dataclass(frozen=True)
class LawReport:
    """Equivalence classes of a registry and the laws the relation obeys.

    ``classes`` holds one ``(quantized price, sorted member names)`` entry
    per distinct tick, in tick order.
    """

    reflexive: bool
    symmetric: bool
    transitive: bool
    counterexample: tuple[str, str, str] | None
    classes: tuple[tuple[float, tuple[str, ...]], ...]

    @property
    def all_pass(self) -> bool:
        return self.reflexive and self.symmetric and self.transitive


def quantize(price: float, quantum: float) -> int:
    """Integer tick of ``price`` on the ``quantum`` grid, half-to-even.

    Raises ``DomainError`` when ``price / quantum`` is not finite, since
    no tick represents it.
    """
    scaled = price / quantum
    if not math.isfinite(scaled):
        raise DomainError(f"price/quantum is not finite: {price!r}/{quantum!r}")
    return round(scaled)


def _tick(registry: MarketRegistry, name: str) -> int:
    """Quantized clearing price of one market; errors name the market."""
    market = registry.market(name)
    try:
        return quantize(clearing_price_analytic(market).clearing_price, registry.quantum)
    except (BracketingError, DomainError, InvariantError) as exc:
        raise type(exc)(f"market {name!r}: {exc}") from exc


def _classes(registry: MarketRegistry) -> tuple[tuple[float, tuple[str, ...]], ...]:
    """Markets grouped by tick, one solve per market, in tick order."""
    by_tick: dict[int, list[str]] = {}
    for name in registry.entries:
        by_tick.setdefault(_tick(registry, name), []).append(name)
    return tuple(
        (tick * registry.quantum, tuple(sorted(members)))
        for tick, members in sorted(by_tick.items())
    )


def in_price_equilibrium(registry: MarketRegistry, a: str, b: str) -> EquilibriumVerdict:
    """Whether markets ``a`` and ``b`` clear at the same quantized price."""
    tick_a, tick_b = _tick(registry, a), _tick(registry, b)
    goods_a, goods_b = registry.goods.get(a), registry.goods.get(b)
    return EquilibriumVerdict(
        pair=(a, b),
        in_equilibrium=tick_a == tick_b,
        prices=(tick_a * registry.quantum, tick_b * registry.quantum),
        cross_goods=goods_a is not None and goods_b is not None and goods_a != goods_b,
    )


def rank_markets(registry: MarketRegistry) -> list[tuple[str, float]]:
    """Markets ordered by quantized clearing price, names break ties.

    This is the partition of :func:`verify_equivalence_laws` flattened.
    """
    return [(name, price) for price, members in _classes(registry) for name in members]


def verify_equivalence_laws(registry: MarketRegistry) -> LawReport:
    """Partition the registry into price-equilibrium classes.

    Each market is solved once and keyed by its integer tick. Every
    market lands in exactly one class, and two markets are related
    exactly when they share a class, so reflexivity, symmetry and
    transitivity hold for every registry and no counterexample exists.
    Markets whose clearing price cannot be solved or quantized raise
    with the market named.
    """
    return LawReport(
        reflexive=True,
        symmetric=True,
        transitive=True,
        counterexample=None,
        classes=_classes(registry),
    )
