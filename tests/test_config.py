"""Strict config validation and domain-object construction."""

import json

import pytest

from market_eos import (
    ConfigError,
    LinearDemand,
    UnitaryDemand,
    load_config,
    load_schema,
    parse_config,
)

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
    assert cfg.version == "1"
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
    assert reg.goods == {"a": "bread"}


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
    with pytest.raises(ConfigError):
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
    assert cfg.source_path == path
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
