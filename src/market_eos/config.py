"""Strict JSON configuration loading.

A single config document names every market and reference EoS a run
can refer to, so figure recipes are reproducible files rather than
flag soup. The parser checks a document's shape (unknown fields are
rejected); the constructors of the domain objects check every value.
The packaged config schema, which describes the same documents, is the
reference the parser is tested against.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NoReturn

from .curves import LinearDemand, LinearSupply, UnitaryDemand
from .equilibrium import MarketSpec
from .errors import ConfigError, InvariantError
from .record import Record, set_field
from .reference_eos import CurieParamagnetEoS, IdealGasEoS
from .surface import GridSpec
from .zeroth_law import DEFAULT_QUANTUM, MarketRegistry

SCHEMA_VERSION = "1"

# The shape of each block kind: the JSON type of every allowed field, and
# the fields that must be present. ``float`` is any JSON number and ``int``
# a JSON integer, which an integral float also is, as in JSON Schema.
_MARKET_FIELDS = {"name": str, "family": str, "k_s": float, "k_d": float,
                  "households": int, "interpretation": str, "goods": str}
_GRID_FIELDS = {"x_min": float, "x_max": float, "nx": int, "t_min": float, "t_max": float, "nt": int}
_SHAPES: dict[str, tuple[dict[str, type], tuple[str, ...]]] = {
    "config": ({"version": str, "quantum": float, "output_dir": str, "markets": list, "eos": list,
                "grid": dict}, ("version",)),
    "linear": ({**_MARKET_FIELDS, "q_d0": float}, ("name", "family", "k_s", "q_d0", "k_d")),
    "unitary": (_MARKET_FIELDS, ("name", "family", "k_s", "k_d")),
    "ideal_gas": ({"name": str, "kind": str, "n": float, "R": float}, ("name", "kind")),
    "paramagnet": ({"name": str, "kind": str, "D": float, "mu0": float}, ("name", "kind", "D")),
    "grid": (_GRID_FIELDS, tuple(_GRID_FIELDS)),
}
# In the ``markets`` and ``eos`` lists, the field that names a block's kind, and its values.
_KINDS = {"markets": ("family", ("linear", "unitary")), "eos": ("kind", ("ideal_gas", "paramagnet"))}
_TYPE_NAMES = {float: "number", int: "integer", str: "string", list: "array", dict: "object"}


class ConfigDocument(Record):
    """Validated configuration with domain objects already built."""

    __slots__ = ("markets", "goods", "eos_entities", "grid", "output_dir", "quantum")

    def __init__(self, markets: dict[str, MarketSpec], goods: dict[str, str],
                 eos_entities: dict[str, IdealGasEoS | CurieParamagnetEoS], grid: GridSpec | None = None,
                 output_dir: str | None = None, quantum: float = DEFAULT_QUANTUM) -> None:
        set_field(self, "markets", markets)
        set_field(self, "goods", goods)
        set_field(self, "eos_entities", eos_entities)
        set_field(self, "grid", grid)
        set_field(self, "output_dir", output_dir)
        set_field(self, "quantum", quantum)

    def market(self, name: str) -> MarketSpec:
        if name not in self.markets:
            raise ConfigError(f"unknown market {name!r}; configured: {sorted(self.markets) or 'none'}")
        return self.markets[name]

    def registry(self) -> MarketRegistry:
        return MarketRegistry(entries=self.markets, quantum=self.quantum)


def _invalid(where: str, message: str) -> ConfigError:
    return ConfigError(f"invalid config at {where}: {message}")


def _has_type(value: object, expected: type) -> bool:
    if expected is int and isinstance(value, float):
        return value.is_integer()
    return not isinstance(value, bool) and isinstance(value, (int, float) if expected is float else expected)


def _checked(block: object, kind: str, where: str) -> dict:
    """A copy of ``block``, integer fields as ``int``, once it has the shape of ``kind``; see ``_KINDS``."""
    if not isinstance(block, dict):
        raise _invalid(where, f"{block!r} is not of type 'object'")
    if kind in _KINDS:
        key, kinds = _KINDS[kind]
        if block.get(key) not in kinds:
            choices = ", ".join(map(repr, kinds))
            raise _invalid(where, f"{key} must be one of {choices}, got {block.get(key)!r}")
        kind = block[key]
    fields, required = _SHAPES[kind]
    for key in required:
        if key not in block:
            raise _invalid(where, f"{key!r} is a required property")
    for key, value in block.items():
        if key not in fields:
            raise _invalid(where, f"unknown field {key!r}")
        if not _has_type(value, fields[key]):
            raise _invalid(f"{where}/{key}", f"{value!r} is not of type {_TYPE_NAMES[fields[key]]!r}")
    if block.get("name") == "":
        raise _invalid(f"{where}/name", "name must not be empty")
    return {key: int(value) if fields[key] is int else value for key, value in block.items()}


def _built(label: str, build, *args, **kwargs):
    """Call ``build``; its ``InvariantError`` becomes a ``ConfigError`` naming ``label``."""
    try:
        return build(*args, **kwargs)
    except InvariantError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _build_market(entry: dict) -> MarketSpec:
    if entry["family"] == "linear":
        demand = LinearDemand(k_s=entry["k_s"], q_d0=entry["q_d0"])
    else:
        demand = UnitaryDemand(k_s=entry["k_s"])
    options = {key: entry[key] for key in ("households", "interpretation") if key in entry}
    return MarketSpec(demand=demand, supply=LinearSupply(k_d=entry["k_d"]), **options)


def _build_eos(entry: dict) -> IdealGasEoS | CurieParamagnetEoS:
    cls = IdealGasEoS if entry["kind"] == "ideal_gas" else CurieParamagnetEoS
    return cls(**{key: value for key, value in entry.items() if key not in ("name", "kind")})


def parse_config(document: dict) -> ConfigDocument:
    """Check the shape of a parsed JSON document and build its domain objects.

    Shape errors read ``invalid config at <path>: ...``. Value ranges are
    left to the constructors, whose ``InvariantError`` is reported as a
    ``ConfigError`` naming the block.
    """
    document = _checked(document, "config", "<root>")
    if document["version"] != SCHEMA_VERSION:
        raise _invalid("version", f"{document['version']!r} is not {SCHEMA_VERSION!r}")

    markets: dict[str, MarketSpec] = {}
    eos_entities: dict[str, IdealGasEoS | CurieParamagnetEoS] = {}
    goods: dict[str, str] = {}
    for section, label, built, build in (("markets", "market", markets, _build_market),
                                         ("eos", "eos", eos_entities, _build_eos)):
        for i, entry in enumerate(document.get(section, [])):
            entry = _checked(entry, section, f"{section}/{i}")
            name = entry["name"]
            if name in markets or name in eos_entities:
                raise ConfigError(f"duplicate {label} name {name!r}")
            built[name] = _built(f"{label} {name!r}", build, entry)
            if "goods" in entry:
                goods[name] = entry["goods"]

    grid = None
    if "grid" in document:
        grid = _built("grid", GridSpec, **_checked(document["grid"], "grid", "grid"))
    # registry() is built on demand, so its quantum rule is applied here
    quantum = document.get("quantum", DEFAULT_QUANTUM)
    _built("quantum", MarketRegistry, entries={}, quantum=quantum)

    return ConfigDocument(
        markets=markets,
        goods=goods,
        eos_entities=eos_entities,
        grid=grid,
        output_dir=document.get("output_dir"),
        quantum=quantum,
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
    return parse_config(document)
