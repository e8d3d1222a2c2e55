"""Strict config validation and domain-object construction."""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from market_eos import (
    ConfigError,
    LinearDemand,
    UnitaryDemand,
    load_config,
    parse_config,
)
from market_eos.surface import MAX_GRID_POINTS

from packaged_schemas import load_schema

MINIMAL = {"version": "1"}

FULL = {
    "version": "1",
    "quantum": 1e-6,
    "output_dir": "/tmp/out",
    "markets": [
        {"name": "a", "family": "linear", "k_s": -2.0, "q_d0": 10.0, "k_d": 3.0, "goods": "bread"},
        {"name": "b", "family": "unitary", "k_s": 8.0, "k_d": 2.0, "households": 4},
    ],
    "eos": [
        {"name": "gas", "kind": "ideal_gas", "n": 1.0, "R": 8.314},
        {"name": "magnet", "kind": "paramagnet", "D": 2.0},
    ],
    "grid": {"x_min": 1.0, "x_max": 10.0, "nx": 5, "t_min": 1.0, "t_max": 10.0, "nt": 5},
}


def test_minimal_document():
    cfg = parse_config(MINIMAL)
    assert cfg.markets == {}
    assert cfg.eos_entities == {}
    assert cfg.grid is None
    assert cfg.quantum == 1e-9


def test_full_document():
    cfg = parse_config(FULL)
    assert isinstance(cfg.markets["a"].demand, LinearDemand)
    assert isinstance(cfg.markets["b"].demand, UnitaryDemand)
    assert cfg.markets["b"].households == 4
    assert cfg.markets["a"].households == 1
    assert cfg.markets["a"].interpretation == "per-household"
    assert cfg.goods == {"a": "bread"}
    assert cfg.eos_entities["gas"].R == 8.314
    assert cfg.eos_entities["magnet"].mu0 == 1.0
    assert cfg.grid.nx == 5
    assert cfg.output_dir == "/tmp/out"
    assert cfg.quantum == 1e-6


def test_registry_from_config():
    reg = parse_config(FULL).registry()
    assert set(reg.entries) == {"a", "b"}
    assert reg.quantum == 1e-6


def test_unknown_top_level_field_rejected():
    with pytest.raises(ConfigError, match="invalid config"):
        parse_config({"version": "1", "markets": [], "plots": True})


def test_unknown_market_field_rejected():
    doc = {
        "version": "1",
        "markets": [
            {"name": "a", "family": "linear", "k_s": -2.0, "q_d0": 10.0, "k_d": 3.0, "color": "red"}
        ],
    }
    with pytest.raises(ConfigError, match="invalid config at markets/0: unknown field 'color'"):
        parse_config(doc)


def test_wrong_version_rejected():
    with pytest.raises(ConfigError):
        parse_config({"version": "2"})


def test_sign_constraints_enforced_by_schema():
    linear_bad = {"version": "1", "markets": [{"name": "a", "family": "linear", "k_s": 2.0, "q_d0": 10.0, "k_d": 3.0}]}
    with pytest.raises(ConfigError):
        parse_config(linear_bad)
    unitary_bad = {"version": "1", "markets": [{"name": "a", "family": "unitary", "k_s": -8.0, "k_d": 2.0}]}
    with pytest.raises(ConfigError):
        parse_config(unitary_bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_values_from_dicts_rejected(bad):
    unitary = {"name": "a", "family": "unitary", "k_s": 8.0, "k_d": 2.0}
    for doc in (
        {"version": "1", "markets": [dict(unitary, k_s=bad)]},
        {"version": "1", "markets": [dict(FULL["markets"][0], q_d0=bad)]},
        {"version": "1", "eos": [{"name": "m", "kind": "paramagnet", "D": bad}]},
        {"version": "1", "eos": [{"name": "g", "kind": "ideal_gas", "R": bad}]},
        {"version": "1", "quantum": bad},
        dict(MINIMAL, grid=dict(FULL["grid"], x_max=bad)),
    ):
        with pytest.raises(ConfigError):
            parse_config(doc)


def test_duplicate_names_rejected():
    doc = {
        "version": "1",
        "markets": [
            {"name": "a", "family": "unitary", "k_s": 8.0, "k_d": 2.0},
            {"name": "a", "family": "unitary", "k_s": 9.0, "k_d": 2.0},
        ],
    }
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(doc)
    clash = {
        "version": "1",
        "markets": [{"name": "x", "family": "unitary", "k_s": 8.0, "k_d": 2.0}],
        "eos": [{"name": "x", "kind": "ideal_gas"}],
    }
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(clash)


def test_bad_grid_wrapped_as_config_error():
    doc = dict(MINIMAL, grid={"x_min": 5.0, "x_max": 1.0, "nx": 3, "t_min": 1.0, "t_max": 2.0, "nt": 3})
    with pytest.raises(ConfigError, match="grid"):
        parse_config(doc)


def test_unknown_market_lookup():
    cfg = parse_config(FULL)
    with pytest.raises(ConfigError, match="unknown market"):
        cfg.market("zzz")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(FULL), encoding="utf-8")
    cfg = load_config(path)
    assert cfg == parse_config(FULL)
    assert set(cfg.markets) == {"a", "b"}


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN", "1e400", "-1e400", "1" + "0" * 400])
def test_load_config_rejects_non_finite_numbers(tmp_path, number):
    path = tmp_path / "cfg.json"
    text = json.dumps(FULL).replace('"k_d": 3.0', f'"k_d": {number}')
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_packaged_schemas_load():
    for name in ("config", "surface", "isocurves"):
        schema = load_schema(name)
        assert schema["$schema"].endswith("2020-12/schema")


# Differential test: the parser (shape table plus constructors) must reject
# exactly the documents the packaged schema rejects, plus the rules the
# schema cannot state: unique names, ordered grid bounds and the grid point
# limit.
CONFIG_VALIDATOR = Draft202012Validator(load_schema("config"))
# every field the schema knows, plus one it does not
FIELD_NAMES = ["version", "quantum", "output_dir", "markets", "eos", "grid", "name", "family", "k_s", "q_d0",
               "k_d", "households", "interpretation", "goods", "kind", "n", "R", "D", "mu0", "x_min", "x_max",
               "nx", "t_min", "t_max", "nt", "extra"]
VALUES = st.one_of(
    st.sampled_from(
        [True, False, None, "", "x", "a", "gas", "1", "linear", "unitary", "ideal_gas", "paramagnet",
         "cubic", "per-household", "aggregate", [], {}, [1], {"k": 1}, 0, 1, 2, -1, 0.0, -0.0, 2.0, 3.0, -2.5]
    ),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, allow_infinity=False),
)


def oracle_rejects(doc) -> bool:
    if next(CONFIG_VALIDATOR.iter_errors(doc), None) is not None:
        return True
    names = [block["name"] for block in doc.get("markets", []) + doc.get("eos", [])]
    grid = doc.get("grid")
    disordered = grid is not None and not (grid["x_min"] < grid["x_max"] and grid["t_min"] < grid["t_max"])
    oversized = grid is not None and grid["nx"] * grid["nt"] > MAX_GRID_POINTS
    return len(set(names)) < len(names) or disordered or oversized


BLOCK_PATHS = [(), ("markets", 0), ("markets", 1), ("eos", 0), ("eos", 1), ("grid",)]
MUTATIONS = ["drop", "add", "retype", "bool", "integral", "half", "sign", "empty-name", "rename", "kind",
             "non-object"]


def mutate(doc, data):
    """Apply one drawn mutation to one block of ``doc``; return the document."""
    op = data.draw(st.sampled_from(MUTATIONS))
    path = data.draw(st.sampled_from(BLOCK_PATHS))
    parent, block = None, doc
    try:
        for key in path:
            parent, block = block, block[key]
    except (KeyError, IndexError, TypeError):
        return doc  # an earlier mutation removed or replaced this block
    if op == "non-object":
        replacement = data.draw(st.sampled_from([[], [block], "x", 1, 2.0, True, None]))
        if not path:
            return replacement
        parent[path[-1]] = replacement
        return doc
    if not isinstance(block, dict):
        return doc
    numbers = sorted(key for key, value in block.items() if type(value) in (int, float))
    fields = sorted(block) if op in ("drop", "retype") else numbers
    field = data.draw(st.sampled_from(fields)) if fields else None
    if op == "add":
        block[data.draw(st.sampled_from(FIELD_NAMES))] = data.draw(VALUES)
    elif op == "empty-name":
        block["name"] = ""
    elif op == "rename":
        block["name"] = data.draw(st.sampled_from(["a", "b", "gas", "magnet"]))
    elif op == "kind":
        key = "family" if "k_d" in block else "kind"
        kinds = ["linear", "unitary", "ideal_gas", "paramagnet", "cubic", "", 1, None]
        block[key] = data.draw(st.sampled_from(kinds))
    elif field is None:
        pass
    elif op == "drop":
        del block[field]
    elif op == "retype":
        block[field] = data.draw(VALUES)
    elif op == "bool":
        block[field] = True
    elif op == "integral":
        value = block[field]
        block[field] = float(value) if isinstance(value, int) else int(value) if value.is_integer() else value
    elif op == "half":
        block[field] += 0.5
    elif op == "sign":
        block[field] = -block[field]
    return doc


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_parser_rejects_exactly_what_the_schema_oracle_rejects(data):
    doc = copy.deepcopy(FULL)
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        doc = mutate(doc, data)
    if oracle_rejects(doc):
        with pytest.raises(ConfigError):
            parse_config(doc)
    else:
        parse_config(doc)
