"""The value types are immutable records with field-wise equality, hash, repr, to_dict, copies and pickles."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from market_eos import (
    ConfigDocument,
    ConsistencyReport,
    CurieParamagnetEoS,
    CurveCollapseReport,
    EquilibriumPoint,
    GridSpec,
    IdealGasEoS,
    IsocurveFamily,
    IsopriceCollapseReport,
    LinearDemand,
    LinearSupply,
    MarketSpec,
    SurfaceGrid,
    UnitaryDemand,
    UnitaryEoS,
)

SUPPLY, DEMAND = LinearSupply(2.0), UnitaryDemand(8.0)
MARKET = MarketSpec(DEMAND, SUPPLY)
MARKET_REPR = (
    "MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0), households=1, "
    "interpretation='per-household')"
)

# class, every field with a sample value (trailing defaulted fields at their default), the
# number of those defaulted fields, and the repr of the record built from the samples
RECORDS = [
    (LinearDemand, {"k_s": -2.0, "q_d0": 10.0}, 0, "LinearDemand(k_s=-2.0, q_d0=10.0)"),
    (LinearSupply, {"k_d": 2.0}, 0, "LinearSupply(k_d=2.0)"),
    (UnitaryDemand, {"k_s": 8.0}, 0, "UnitaryDemand(k_s=8.0)"),
    (MarketSpec, {"demand": DEMAND, "supply": SUPPLY, "households": 1, "interpretation": "per-household"},
     2, MARKET_REPR),
    (EquilibriumPoint, {"clearing_price": 2.0, "clearing_quantity": 4.0, "residual": 0.0}, 0,
     "EquilibriumPoint(clearing_price=2.0, clearing_quantity=4.0, residual=0.0)"),
    (UnitaryEoS, {"K": 2.0, "source_market": MARKET}, 0, f"UnitaryEoS(K=2.0, source_market={MARKET_REPR})"),
    (ConsistencyReport,
     {"eps_d_squared": -6.0, "eps_s_squared": -6.0, "eps_d_direct": -2.0, "classification_d": "imaginary",
      "classification_s": "imaginary", "consistent": False, "reason": "r"}, 0,
     "ConsistencyReport(eps_d_squared=-6.0, eps_s_squared=-6.0, eps_d_direct=-2.0, "
     "classification_d='imaginary', classification_s='imaginary', consistent=False, reason='r')"),
    (IdealGasEoS, {"n": 1.0, "R": 8.314}, 2, "IdealGasEoS(n=1.0, R=8.314)"),
    (CurieParamagnetEoS, {"D": 2.0, "mu0": 1.0}, 1, "CurieParamagnetEoS(D=2.0, mu0=1.0)"),
    (GridSpec, {"x_min": 1.0, "x_max": 2.0, "nx": 2, "t_min": 1.0, "t_max": 2.0, "nt": 3}, 0,
     "GridSpec(x_min=1.0, x_max=2.0, nx=2, t_min=1.0, t_max=2.0, nt=3)"),
    (SurfaceGrid, {"x_label": "x", "y_label": "y", "t_label": "t", "x_values": (1.0, 2.0), "t_values": (1.0,),
                   "y_rows": ((1.0, 2.0),)}, 0,
     "SurfaceGrid(x_label='x', y_label='y', t_label='t', x_values=(1.0, 2.0), t_values=(1.0,), "
     "y_rows=((1.0, 2.0),))"),
    (IsocurveFamily, {"x_values": (1.0, 2.0), "t_values": (1.0,), "y_rows": ((1.0, 2.0),)}, 0,
     "IsocurveFamily(x_values=(1.0, 2.0), t_values=(1.0,), y_rows=((1.0, 2.0),))"),
    (IsopriceCollapseReport, {"line_slope": 0.25, "prices": (1.0,), "points": ((32.0, 8.0),),
                              "max_rel_deviation": 0.0, "collapse": True}, 0,
     "IsopriceCollapseReport(line_slope=0.25, prices=(1.0,), points=((32.0, 8.0),), max_rel_deviation=0.0, "
     "collapse=True)"),
    (CurveCollapseReport, {"n_curves": 2, "max_rel_difference": 0.5, "collapse": False}, 0,
     "CurveCollapseReport(n_curves=2, max_rel_difference=0.5, collapse=False)"),
    (ConfigDocument, {"markets": {"a": MARKET}, "goods": {}, "eos_entities": {}, "grid": None,
                      "quantum": 1e-9}, 0,
     f"ConfigDocument(markets={{'a': {MARKET_REPR}}}, goods={{}}, eos_entities={{}}, grid=None, "
     "quantum=1e-09)"),
]


@pytest.mark.parametrize(("cls", "fields", "defaulted", "text"), RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, defaulted, text):
    values = list(fields.values())
    record = cls(*values)
    assert cls(**fields) == record
    assert cls(*values[: len(values) - defaulted]) == record
    assert repr(record) == text
    if cls is not UnitaryEoS:  # the one record whose report nests its source market
        assert list(record.to_dict().items()) == list(fields.items())
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    twin = cls(*values)
    assert twin == record and twin is not record
    assert record != object() and record != values
    if any(isinstance(value, dict) for value in values):
        for obj in (record, twin):
            with pytest.raises(TypeError):
                hash(obj)
    else:
        assert hash(twin) == hash(record)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record
        assert repr(clone) == text


def test_records_of_different_classes_with_equal_fields_differ():
    assert LinearSupply(8.0) != UnitaryDemand(8.0)
    assert LinearSupply(2.0) != LinearSupply(3.0)
    assert EquilibriumPoint(2.0, 4.0, 0.0) != EquilibriumPoint(2.0, 4.0, 1e-16)
    assert ConfigDocument({}, {}, {}, None, 1.0) != ConfigDocument({}, {}, {}, None, 2.0)


def test_config_document_takes_every_field():
    with pytest.raises(TypeError):
        ConfigDocument({}, {}, {}, None)


def test_cli_start_up_imports_no_code_introspection_modules():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import market_eos.cli, sys; print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_cli_start_up_without_site_imports_none_of_the_split_export_modules():
    # -S: a site .pth file may import these modules at start-up, which would hide an import by the package;
    # only an export large enough for two processes needs market_eos.split, tempfile (which imports shutil),
    # signal and pickle. The package's own modules are pinned too, so adding or dropping one is a visible change.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    split = {"market_eos.split", "tempfile", "shutil", "signal", "pickle", "threading"}
    probe = ("import market_eos.cli, sys, json; "
             f"print(json.dumps([sorted({split!r} & set(sys.modules)), "
             "sorted(m for m in sys.modules if m.split('.')[0] == 'market_eos')]))")
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded_split, package = json.loads(result.stdout)
    assert loaded_split == []
    assert package == ["market_eos"] + [f"market_eos.{name}" for name in (
        "cli", "config", "curves", "eos", "equilibrium", "errors", "record", "surface", "zeroth_law")]
