"""Strict config validation and domain-object construction."""

import copy
import json
import math
import sys

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
    assert cfg.quantum == 1e-6


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


HUGE = 10**400


@pytest.mark.parametrize("doc, where", [
    ({"version": "1", "markets": [dict(FULL["markets"][0], k_s=-HUGE)]}, "markets/0/k_s"),
    ({"version": "1", "markets": [dict(FULL["markets"][1], k_d=HUGE)]}, "markets/0/k_d"),
    ({"version": "1", "markets": [dict(FULL["markets"][0], q_d0=HUGE)]}, "markets/0/q_d0"),
    (dict(MINIMAL, grid=dict(FULL["grid"], x_min=HUGE)), "grid/x_min"),
    ({"version": "1", "quantum": HUGE}, "<root>/quantum"),
    ({"version": "1", "eos": [{"name": "g", "kind": "ideal_gas", "n": HUGE}]}, "eos/0/n"),
])
def test_integers_beyond_the_double_range_from_dicts_rejected(doc, where):
    with pytest.raises(ConfigError, match=f"^invalid config at {where}: integer is outside the finite double range$"):
        parse_config(doc)


@pytest.mark.parametrize("doc, where", [
    ({"version": "1", "markets": [dict(FULL["markets"][1], households=10**5000)]}, "markets/0/households"),
    ({"version": "1", "markets": [dict(FULL["markets"][1], name=10**5000)]}, "markets/0/name"),
    ({"version": "1", "markets": [dict(FULL["markets"][1], family=10**5000)]}, "markets/0/family"),
    ({"version": "1", "markets": [[dict(FULL["markets"][1], households=10**5000)]]}, "markets/0"),
    (dict(MINIMAL, grid=dict(FULL["grid"], nx=10**5000)), "grid/nx"),
    (dict(MINIMAL, grid=dict(FULL["grid"], nt=10**5000)), "grid/nt"),
    # neither can come from JSON: an unknown field's key, which its message quotes, and a tuple
    ({"version": "1", 10**5000: 1}, "<root>"),
    ({"version": "1", "markets": [dict(FULL["markets"][1], goods=(10**5000,))]}, "markets/0/goods"),
])
def test_integers_too_long_to_quote_rejected_in_integer_and_string_fields(doc, where):
    with pytest.raises(ConfigError, match=f"^invalid config at {where}: integer is outside the finite double range$"):
        parse_config(doc)


def test_integers_at_the_edge_of_the_double_range():
    # float() rounds this integer to the largest double; one more and it overflows
    edge = 2**1024 - 2**970 - 1
    cfg = parse_config({"version": "1", "markets": [dict(FULL["markets"][1], k_d=edge, k_s=edge)]})
    assert float(cfg.markets["b"].supply.k_d) == sys.float_info.max
    with pytest.raises(ConfigError, match="outside the finite double range"):
        parse_config({"version": "1", "markets": [dict(FULL["markets"][1], k_d=edge + 1)]})


def unitary_block(**fields):
    return {"version": "1", "markets": [dict({"name": "a", "family": "unitary", "k_s": 8.0, "k_d": 2.0}, **fields)]}


@pytest.mark.parametrize("fields, error", [
    ({"k_s": "x", "color": "red"}, "at markets/0/k_s: 'x' is not of type 'number'"),
    ({"color": "red", "k_s": "x"}, "at markets/0: unknown field 'color'"),
])
def test_first_shape_error_in_field_order_wins(fields, error):
    doc = unitary_block()
    del doc["markets"][0]["k_s"]
    doc["markets"][0].update(fields)
    with pytest.raises(ConfigError, match=f"^invalid config {error}$"):
        parse_config(doc)


def test_missing_field_reported_before_unknown_field():
    doc = {"version": "1", "markets": [{"color": "red", "name": "a", "family": "unitary", "k_s": 8.0}]}
    with pytest.raises(ConfigError, match="^invalid config at markets/0: 'k_d' is a required property$"):
        parse_config(doc)


def test_empty_name_checked_after_field_types():
    with pytest.raises(ConfigError, match="^invalid config at markets/0/k_d: 'x' is not of type 'number'$"):
        parse_config(unitary_block(name="", k_d="x"))
    with pytest.raises(ConfigError, match="^invalid config at markets/0/name: name must not be empty$"):
        parse_config(unitary_block(name=""))


def test_integral_float_household_count_becomes_an_int():
    households = parse_config(unitary_block(households=3.0)).markets["a"].households
    assert households == 3
    assert type(households) is int


def test_bool_in_a_number_field_rejected():
    with pytest.raises(ConfigError, match="^invalid config at markets/0/k_s: True is not of type 'number'$"):
        parse_config(unitary_block(k_s=True))


def test_parse_config_leaves_its_input_unchanged():
    doc = copy.deepcopy(FULL)
    doc["markets"][1]["households"] = 4.0
    doc["grid"]["nx"] = 5.0
    before = copy.deepcopy(doc)
    cfg = parse_config(doc)
    assert doc == before
    assert type(doc["markets"][1]["households"]) is float and type(doc["grid"]["nx"]) is float
    assert cfg == parse_config(FULL)


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
    # the decoder reads 1e400 as inf; an integer literal stays an int
    error = (r"^market 'a': supply slope k_d must be positive and finite, got -?(inf|nan)$"
             r"|^invalid config at markets/0/k_d: integer is outside the finite double range$")
    with pytest.raises(ConfigError, match=error):
        load_config(path)


# Every block kind with every field set.
EVERY_FIELD = {
    "version": "1",
    "quantum": 1e-6,
    "markets": [
        {"name": "a", "family": "linear", "k_s": -2.0, "q_d0": 10.0, "k_d": 3.0, "households": 2,
         "interpretation": "per-household", "goods": "bread"},
        {"name": "b", "family": "unitary", "k_s": 8.0, "k_d": 2.0, "households": 4, "interpretation": "aggregate",
         "goods": "grain"},
    ],
    "eos": [
        {"name": "gas", "kind": "ideal_gas", "n": 1.0, "R": 8.314},
        {"name": "magnet", "kind": "paramagnet", "D": 2.0, "mu0": 1.0},
    ],
    "grid": FULL["grid"],
}
NON_FINITE_LITERALS = {"Infinity": "Infinity", "-Infinity": "-Infinity", "NaN": "NaN", "1e400": "1e400",
                       "-1e400": "-1e400", "10**400": "1" + "0" * 400, "-10**400": "-1" + "0" * 400}


def literal_positions() -> list[tuple]:
    """Every field of every block kind, an unknown field in each block and an added item in each array of blocks."""
    positions = []
    for path in [(), ("markets", 0), ("markets", 1), ("eos", 0), ("eos", 1), ("grid",)]:
        block = EVERY_FIELD
        for key in path:
            block = block[key]
        positions += [(*path, key) for key in [*block, "extra"]]
    return positions + [("markets", 2), ("eos", 2)]


def test_every_field_document_is_valid():
    cfg = parse_config(EVERY_FIELD)
    assert len(cfg.markets) == len(cfg.eos_entities) == 2


@pytest.mark.parametrize("literal", NON_FINITE_LITERALS.values(), ids=NON_FINITE_LITERALS)
@pytest.mark.parametrize("position", literal_positions(), ids=lambda position: "/".join(map(str, position)))
def test_load_config_rejects_non_finite_literals_at_every_position(tmp_path, position, literal):
    # a file goes through the checks a dict goes through: no JSON number hook rejects these first
    doc = copy.deepcopy(EVERY_FIELD)
    parent = doc
    for key in position[:-1]:
        parent = parent[key]
    if isinstance(parent, list):
        parent.append("@")
    else:
        parent[position[-1]] = "@"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc).replace('"@"', literal), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_packaged_schemas_load():
    for name in ("config", "surface", "isocurves"):
        schema = load_schema(name)
        assert schema["$schema"].endswith("2020-12/schema")


# Differential test: the parser (shape table plus constructors) must reject
# exactly the documents the packaged schema rejects, plus the rules the
# schema cannot state: unique names, ordered grid bounds, the grid point
# limit and integers whose float() overflows.
CONFIG_VALIDATOR = Draft202012Validator(load_schema("config"))
# every field the schema knows, plus one it does not
FIELD_NAMES = ["version", "quantum", "markets", "eos", "grid", "name", "family", "k_s", "q_d0", "k_d",
               "households", "interpretation", "goods", "kind", "n", "R", "D", "mu0", "x_min", "x_max", "nx",
               "t_min", "t_max", "nt", "extra"]
# the least integer past the double range, one the length of a grid count's, and one too long for repr
HUGE_INTS = [2**1024 - 2**970, -HUGE, 10**5000]
VALUES = st.one_of(
    st.sampled_from(
        [True, False, None, "", "x", "a", "gas", "1", "linear", "unitary", "ideal_gas", "paramagnet",
         "cubic", "per-household", "aggregate", [], {}, [1], {"k": 1}, 0, 1, 2, -1, 0.0, -0.0, 2.0, 3.0, -2.5,
         *HUGE_INTS]
    ),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, allow_infinity=False),
)


def is_huge(value) -> bool:
    return type(value) is int and abs(value) >= 2**1024 - 2**970


def holds_huge(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    return any(map(holds_huge, value)) if isinstance(value, list) else is_huge(value)


def oracle_rejects(doc) -> bool:
    # an integer no double holds is rejected wherever it is, integer fields too; checked first,
    # since the validator's messages cannot quote one of more than 4300 digits
    if holds_huge(doc):
        return True
    if next(CONFIG_VALIDATOR.iter_errors(doc), None) is not None:
        return True
    names = [block["name"] for block in doc.get("markets", []) + doc.get("eos", [])]
    grid = doc.get("grid")
    disordered = grid is not None and not (grid["x_min"] < grid["x_max"] and grid["t_min"] < grid["t_max"])
    oversized = grid is not None and grid["nx"] * grid["nt"] > MAX_GRID_POINTS
    return len(set(names)) < len(names) or disordered or oversized


BLOCK_PATHS = [(), ("markets", 0), ("markets", 1), ("eos", 0), ("eos", 1), ("grid",)]
MUTATIONS = ["drop", "add", "retype", "bool", "integral", "half", "sign", "huge", "empty-name", "rename", "kind",
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
    numbers = sorted(key for key, value in block.items() if type(value) in (int, float) and not is_huge(value))
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
    elif op == "huge":
        block[field] = data.draw(st.sampled_from(HUGE_INTS))
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
