"""Strict JSON configuration loading.

A single config document names every market and reference EoS a run
can refer to, so figure recipes are reproducible files rather than
flag soup. Documents are validated against the packaged JSON schema
(unknown fields rejected) before any domain object is built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import NoReturn

import jsonschema

from .curves import LinearDemand, LinearSupply, UnitaryDemand
from .equilibrium import PER_HOUSEHOLD, MarketSpec
from .errors import ConfigError, InvariantError
from .reference_eos import CurieParamagnetEoS, IdealGasEoS
from .surface import GridSpec
from .zeroth_law import DEFAULT_QUANTUM, MarketRegistry

SCHEMA_VERSION = "1"


def load_schema(name: str) -> dict:
    """Load a packaged schema (``config``, ``surface`` or ``isocurves``)."""
    text = resources.files("market_eos").joinpath("schemas", f"{name}.schema.json").read_text("utf-8")
    return json.loads(text)


@dataclass(frozen=True)
class ConfigDocument:
    """Validated configuration with domain objects already built."""

    version: str
    markets: dict[str, MarketSpec]
    goods: dict[str, str]
    eos_entities: dict[str, IdealGasEoS | CurieParamagnetEoS]
    grid: GridSpec | None = None
    output_dir: str | None = None
    quantum: float = DEFAULT_QUANTUM
    source_path: Path | None = field(default=None, compare=False)

    def market(self, name: str) -> MarketSpec:
        if name not in self.markets:
            raise ConfigError(f"unknown market {name!r}; configured: {sorted(self.markets) or 'none'}")
        return self.markets[name]

    def registry(self) -> MarketRegistry:
        return MarketRegistry(entries=self.markets, quantum=self.quantum, goods=self.goods)


def _build_market(entry: dict) -> MarketSpec:
    if entry["family"] == "linear":
        demand = LinearDemand(k_s=entry["k_s"], q_d0=entry["q_d0"])
    else:
        demand = UnitaryDemand(k_s=entry["k_s"])
    return MarketSpec(
        demand=demand,
        supply=LinearSupply(k_d=entry["k_d"]),
        households=int(entry.get("households", 1)),
        interpretation=entry.get("interpretation", PER_HOUSEHOLD),
    )


def _build_eos(entry: dict) -> IdealGasEoS | CurieParamagnetEoS:
    if entry["kind"] == "ideal_gas":
        return IdealGasEoS(n=entry.get("n", 1.0), R=entry.get("R", 8.314))
    return CurieParamagnetEoS(D=entry["D"], mu0=entry.get("mu0", 1.0))


def parse_config(document: dict, source_path: Path | None = None) -> ConfigDocument:
    """Validate a parsed JSON document and build its domain objects."""
    validator = jsonschema.Draft202012Validator(load_schema("config"))
    errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.absolute_path) or "<root>"
        raise ConfigError(f"invalid config at {where}: {first.message}")

    markets: dict[str, MarketSpec] = {}
    goods: dict[str, str] = {}
    for entry in document.get("markets", []):
        name = entry["name"]
        if name in markets:
            raise ConfigError(f"duplicate market name {name!r}")
        try:
            markets[name] = _build_market(entry)
        except InvariantError as exc:
            raise ConfigError(f"market {name!r}: {exc}") from exc
        if "goods" in entry:
            goods[name] = entry["goods"]

    eos_entities: dict[str, IdealGasEoS | CurieParamagnetEoS] = {}
    for entry in document.get("eos", []):
        name = entry["name"]
        if name in eos_entities or name in markets:
            raise ConfigError(f"duplicate entity name {name!r}")
        try:
            eos_entities[name] = _build_eos(entry)
        except InvariantError as exc:
            raise ConfigError(f"eos {name!r}: {exc}") from exc

    grid = None
    if "grid" in document:
        try:
            grid = GridSpec(**document["grid"])
        except InvariantError as exc:
            raise ConfigError(f"grid: {exc}") from exc

    return ConfigDocument(
        version=document["version"],
        markets=markets,
        goods=goods,
        eos_entities=eos_entities,
        grid=grid,
        output_dir=document.get("output_dir"),
        quantum=document.get("quantum", DEFAULT_QUANTUM),
        source_path=source_path,
    )


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is outside the finite double range")
    return value


def _finite_int(text: str) -> int:
    _finite_float(text)
    return int(text)


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"non-finite number {name} is not allowed")


def load_config(path: str | Path) -> ConfigDocument:
    """Read, validate and build a config file.

    Numbers must be finite doubles: ``Infinity``, ``-Infinity``, ``NaN``
    and literals that overflow a double are rejected as invalid JSON.
    """
    path = Path(path)
    try:
        text = path.read_text("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        document = json.loads(
            text, parse_float=_finite_float, parse_int=_finite_int, parse_constant=_reject_constant
        )
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(document, source_path=path)
