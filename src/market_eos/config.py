"""Strict JSON configuration loading.

A single config document names every market and reference EoS a run
can refer to, so figure recipes are reproducible files rather than
flag soup. The parser checks a document's shape (unknown fields are
rejected); the constructors of the domain objects check every value.
The config schema under ``tests/schemas/``, which describes the same
documents, is the reference the parser is tested against.
"""

from __future__ import annotations

import json
from pathlib import Path

from .curves import LinearDemand, LinearSupply, UnitaryDemand
from .eos import CurieParamagnetEoS, IdealGasEoS
from .equilibrium import PER_HOUSEHOLD, MarketSpec
from .errors import ConfigError, DomainError, InvariantError
from .record import Record, set_field
from .surface import GridSpec
from .zeroth_law import DEFAULT_QUANTUM, require_quantum

SCHEMA_VERSION = "1"

# The shape of each block kind: the JSON type of every allowed field, and
# the fields that must be present. ``float`` is any JSON number and ``int``
# a JSON integer, which an integral float also is, as in JSON Schema.
_MARKET_FIELDS = {"name": str, "family": str, "k_s": float, "k_d": float,
                  "households": int, "interpretation": str, "goods": str}
_GRID_FIELDS = {"x_min": float, "x_max": float, "nx": int, "t_min": float, "t_max": float, "nt": int}
_SHAPES: dict[str, tuple[dict[str, type], tuple[str, ...]]] = {
    "config": ({"version": str, "quantum": float, "markets": list, "eos": list, "grid": dict}, ("version",)),
    "linear": ({**_MARKET_FIELDS, "q_d0": float}, ("name", "family", "k_s", "q_d0", "k_d")),
    "unitary": (_MARKET_FIELDS, ("name", "family", "k_s", "k_d")),
    "ideal_gas": ({"name": str, "kind": str, "n": float, "R": float}, ("name", "kind")),
    "paramagnet": ({"name": str, "kind": str, "D": float, "mu0": float}, ("name", "kind", "D")),
    "grid": (_GRID_FIELDS, tuple(_GRID_FIELDS)),
}
# In the ``markets`` and ``eos`` lists, the field that names a block's kind, and its values.
_KINDS = {"markets": ("family", ("linear", "unitary")), "eos": ("kind", ("ideal_gas", "paramagnet"))}
_TYPE_NAMES = {float: "number", int: "integer", str: "string", list: "array", dict: "object"}
# The least integer whose float() overflows.
_INT_LIMIT = 2**1024 - 2**970


class ConfigDocument(Record):
    """Validated configuration with domain objects already built."""

    __slots__ = ("markets", "goods", "eos_entities", "grid", "quantum")

    def __init__(self, markets: dict[str, MarketSpec], goods: dict[str, str],
                 eos_entities: dict[str, IdealGasEoS | CurieParamagnetEoS], grid: GridSpec | None,
                 quantum: float) -> None:
        set_field(self, "markets", markets)
        set_field(self, "goods", goods)
        set_field(self, "eos_entities", eos_entities)
        set_field(self, "grid", grid)
        set_field(self, "quantum", quantum)

    def market(self, name: str) -> MarketSpec:
        if name not in self.markets:
            raise ConfigError(f"unknown market {name!r}; configured: {sorted(self.markets) or 'none'}")
        return self.markets[name]


def _invalid(where: str, message: str) -> ConfigError:
    return ConfigError(f"invalid config at {where}: {message}")


def _has_type(value: object, expected: type) -> bool:
    if expected is int and isinstance(value, float):
        return value.is_integer()
    return not isinstance(value, bool) and isinstance(value, (int, float) if expected is float else expected)


def _check_range(value: object, where: str) -> None:
    """Reject an integer no double holds, also in a list, tuple or dict key or value, before a message quotes it.

    ``repr`` raises ``ValueError`` on an integer of more than 4300 digits.
    """
    if isinstance(value, dict):
        value = [*value, *value.values()]
    if isinstance(value, (list, tuple)):
        for item in value:
            _check_range(item, where)
    elif isinstance(value, int) and not -_INT_LIMIT < value < _INT_LIMIT:
        raise _invalid(where, "integer is outside the finite double range")


def _checked(block: object, kind: str, where: str) -> dict:
    """``block`` once it has the shape of ``kind`` (see ``_KINDS``), copied only to make integral floats ``int``."""
    if not isinstance(block, dict):
        _check_range(block, where)
        raise _invalid(where, f"{block!r} is not of type 'object'")
    if kind in _KINDS:
        key, kinds = _KINDS[kind]
        if block.get(key) not in kinds:
            _check_range(block.get(key), f"{where}/{key}")
            choices = ", ".join(map(repr, kinds))
            raise _invalid(where, f"{key} must be one of {choices}, got {block.get(key)!r}")
        kind = block[key]
    fields, required = _SHAPES[kind]
    for key in required:
        if key not in block:
            raise _invalid(where, f"{key!r} is a required property")
    converted = None
    for key, value in block.items():
        expected = fields.get(key)
        if type(value) is expected and (expected is not int or -_INT_LIMIT < value < _INT_LIMIT):
            continue
        if expected is None:
            _check_range(key, where)
            raise _invalid(where, f"unknown field {key!r}")
        _check_range(value, f"{where}/{key}")
        if not _has_type(value, expected):
            raise _invalid(f"{where}/{key}", f"{value!r} is not of type {_TYPE_NAMES[expected]!r}")
        if expected is int:
            converted = converted or dict(block)
            converted[key] = int(value)
    if block.get("name") == "":
        raise _invalid(f"{where}/name", "name must not be empty")
    return block if converted is None else converted


def _build_market(entry: dict) -> MarketSpec:
    if entry["family"] == "linear":
        demand = LinearDemand(entry["k_s"], entry["q_d0"])
    else:
        demand = UnitaryDemand(entry["k_s"])
    return MarketSpec(demand, LinearSupply(entry["k_d"]), entry.get("households", 1),
                      entry.get("interpretation", PER_HOUSEHOLD))


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
            try:
                built[name] = build(entry)
            except InvariantError as exc:  # the label is formatted only here, not once per block
                raise ConfigError(f"{label} {name!r}: {exc}") from exc
            if "goods" in entry:
                goods[name] = entry["goods"]

    grid = None
    if "grid" in document:
        try:
            grid = GridSpec(**_checked(document["grid"], "grid", "grid"))
        except InvariantError as exc:
            raise ConfigError(f"grid: {exc}") from exc
    quantum = document.get("quantum", DEFAULT_QUANTUM)
    try:
        require_quantum(quantum)
    except DomainError as exc:
        raise ConfigError(f"quantum: {exc}") from exc

    return ConfigDocument(
        markets=markets,
        goods=goods,
        eos_entities=eos_entities,
        grid=grid,
        quantum=quantum,
    )


def load_config(path: str | Path) -> ConfigDocument:
    """Read a config file, parse it as JSON and check and build it as ``parse_config`` does a dict."""
    path = Path(path)
    try:
        text = path.read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(document)
