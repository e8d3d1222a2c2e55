"""End-to-end command tests through cli.main, in-process except where a memory cap needs a child."""

import argparse
import contextlib
import filecmp
import hashlib
import io
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from market_eos import (
    ConfigError,
    CurieParamagnetEoS,
    DomainError,
    GridSpec,
    IdealGasEoS,
    InvariantError,
    cli,
    derive_unitary_eos,
    isocurves,
    load_config,
    render_chunks,
    sample_surface,
    __version__,
)

import market_eos.surface as surface_module
from grid_oracles import exact_y
from packaged_schemas import load_schema

CONFIG = {
    "version": "1",
    "markets": [
        {"name": "staple", "family": "linear", "k_s": -2.0, "q_d0": 10.0, "k_d": 3.0, "goods": "bread"},
        {"name": "grain", "family": "unitary", "k_s": 8.0, "k_d": 2.0, "households": 1, "goods": "grain"},
        {"name": "credit", "family": "unitary", "k_s": 8.0, "k_d": 2.0, "households": 4, "goods": "credit"},
    ],
    "eos": [
        {"name": "gas", "kind": "ideal_gas", "n": 1.0, "R": 8.314},
        {"name": "magnet", "kind": "paramagnet", "D": 2.0, "mu0": 1.0},
    ],
    "grid": {"x_min": 1.0, "x_max": 2.0, "nx": 2, "t_min": 1.0, "t_max": 2.0, "nt": 2},
}
DEMO = str(Path(__file__).resolve().parents[1] / "configs" / "demo.json")


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_linear(config_path, capsys):
    code, out, _ = run(capsys, "solve", "--config", config_path, "staple")
    assert code == 0
    assert "Pr*=2 Q*=6" in out
    assert "cross_check_delta" in out


def test_solve_unitary(config_path, capsys):
    code, out, _ = run(capsys, "solve", "--config", config_path, "credit")
    assert code == 0
    assert "Pr*=4 Q*=8" in out


def test_solve_json_flag(config_path, capsys):
    code, out, _ = run(capsys, "solve", "--config", config_path, "staple", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["clearing_price"] == 2.0
    assert doc["clearing_quantity"] == 6.0


def test_unknown_market_exits_2(config_path, capsys):
    code, _, err = run(capsys, "solve", "--config", config_path, "nope")
    assert code == 2
    assert "unknown market" in err


def test_consistency_report(config_path, capsys):
    code, out, _ = run(capsys, "consistency", "--config", config_path, "staple")
    assert code == 0  # the inconsistency finding is a successful analysis
    doc = json.loads(out)
    assert doc["consistent"] is False
    assert doc["eps_d_squared"] == -6.0
    assert doc["eps_d_direct"] == -2.0


def consistency_on(tmp_path, capsys, k_s, k_d):
    path = tmp_path / "linear.json"
    market = {"name": "m", "family": "linear", "k_s": k_s, "q_d0": 1.0, "k_d": k_d}
    path.write_text(json.dumps({"version": "1", "markets": [market]}), encoding="utf-8")
    return run(capsys, "consistency", "--config", str(path), "m")


def test_consistency_overflowing_square_exits_3(tmp_path, capsys):
    # k_d*k_s = -1e400 is past the double range; JSON has no -Infinity
    code, out, err = consistency_on(tmp_path, capsys, -1e200, 1e200)
    assert code == 3
    assert out == ""
    assert "not both finite" in err


def test_consistency_underflowing_square_stays_inconsistent(tmp_path, capsys):
    # k_d*k_s = -1e-400 rounds to -0.0, which is not < 0, yet the square is negative
    code, out, _ = consistency_on(tmp_path, capsys, -1e-200, 1e-200)
    assert code == 0
    doc = json.loads(out)
    assert doc["consistent"] is False
    assert doc["classification_d"] == doc["classification_s"] == "imaginary"


def one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_consistency_rejects_unitary(config_path, capsys):
    code, out, err = run(capsys, "consistency", "--config", config_path, "grain")
    assert (code, out) == (3, "")
    assert one_error_line(err)
    assert "derive_unitary_eos" in err


def test_eos_command(config_path, capsys):
    code, out, _ = run(capsys, "eos", "--config", config_path, "credit")
    assert code == 0
    assert "K=1 amplification=1" in out
    doc = json.loads(out[: out.rindex("}") + 1])
    assert doc["K"] == 1.0
    assert doc["N"] == 4


def test_eos_prints_the_reciprocal_of_k_as_amplification(config_path, capsys):
    code, out, _ = run(capsys, "eos", "--config", config_path, "grain")
    assert code == 0
    assert out.endswith("\nK=2 amplification=0.5 (D/mu0 analogue)\n")


def test_eos_with_an_overflowing_price_quotient(tmp_path, capsys):
    # N*k_s/k_d = 1e312 overflows, but the market clears at Pr* = 1e156 with K = 1e150
    path = tmp_path / "wide.json"
    wide = {"name": "wide", "family": "unitary", "k_s": 1e300, "k_d": 1e-6, "households": 1_000_000}
    path.write_text(json.dumps({"version": "1", "markets": [wide]}), encoding="utf-8")
    code, out, err = run(capsys, "eos", "--config", str(path), "wide")
    assert code == 0, err
    assert "K=1e+150 " in out


def test_solve_far_outside_the_unit_price_decades(tmp_path, capsys):
    # N*k_s/k_d = 1e312 overflows; the bisection still finds Pr* = 1e156 over all positive doubles
    path = tmp_path / "wide.json"
    wide = {"name": "wide", "family": "unitary", "k_s": 1e300, "k_d": 1e-6, "households": 1_000_000}
    path.write_text(json.dumps({"version": "1", "markets": [wide]}), encoding="utf-8")
    code, out, err = run(capsys, "solve", "--config", str(path), "wide")
    assert code == 0, err
    assert out.startswith("Pr*=1e+156 ")


def test_solve_where_demand_and_supply_both_overflow_exits_3(tmp_path, capsys):
    # at Pr* = 1000 demand and supply are both inf, so the bisection reads a NaN excess demand
    path = tmp_path / "flood.json"
    flood = {"name": "flood", "family": "unitary", "k_s": 1e308, "k_d": 1e308, "households": 1_000_000}
    path.write_text(json.dumps({"version": "1", "markets": [flood]}), encoding="utf-8")
    code, out, err = run(capsys, "solve", "--config", str(path), "flood")
    assert (code, out) == (3, "")
    assert err.startswith("error: excess demand at ")
    assert err.endswith(" is NaN: demand and supply both overflow there\n")


@pytest.mark.parametrize("command", ["solve", "eos", "zeroth"])
def test_huge_household_count_exits_3_without_a_traceback(tmp_path, command):
    # Pr* = sqrt(1e308 * 1e300 / 1e-300) = 1e454 is beyond the largest double
    path = tmp_path / "crowd.json"
    crowd = {"name": "crowd", "family": "unitary", "k_s": 1e300, "k_d": 1e-300, "households": 1e308}
    path.write_text(json.dumps({"version": "1", "markets": [crowd]}), encoding="utf-8")
    argv = [command, "--config", str(path)] + ([] if command == "zeroth" else ["crowd"])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "market_eos.cli", *argv], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
    assert "clearing price inf is not a positive finite double" in result.stderr


def test_solve_linear_market_whose_slope_difference_overflows(tmp_path, capsys):
    # k_d - k_s = 2e308 overflows, but Pr* = 1e300 / 2e308 = 5e-09 is a normal double
    path = tmp_path / "steep.json"
    steep = {"name": "steep", "family": "linear", "k_s": -1e308, "q_d0": 1e300, "k_d": 1e308}
    path.write_text(json.dumps({"version": "1", "markets": [steep]}), encoding="utf-8")
    code, out, err = run(capsys, "solve", "--config", str(path), "steep")
    assert code == 0, err
    assert out.startswith("Pr*=5e-09 ")


@pytest.mark.parametrize("tiny, k", [
    # K = sqrt(4.9e-320 / (2.76e306 * 3)) = 7.7e-314 is subnormal
    ({"k_s": 4.9e-320, "k_d": 2.76e306, "households": 3}, "K = 7.69"),
    # K = sqrt(5e-324 / (1e300 * 1e300)) = 2e-462 rounds to zero, and 1/K would divide by it
    ({"k_s": 5e-324, "k_d": 1e300, "households": 1e300}, "K = 0.0 "),
], ids=["subnormal", "zero"])
def test_eos_with_a_subnormal_surface_constant_exits_3(tmp_path, capsys, tiny, k):
    path = tmp_path / "tiny.json"
    market = dict(tiny, name="tiny", family="unitary")
    path.write_text(json.dumps({"version": "1", "markets": [market]}), encoding="utf-8")
    code, out, err = run(capsys, "eos", "--config", str(path), "tiny")
    assert code == 3
    assert out == ""
    assert k in err and "below the smallest normal double" in err


def test_eos_with_an_overflowing_surface_constant_quotient(tmp_path, capsys):
    # k_s/(k_d*N) = 1e616 overflows, but K = Pr* = 1e308 is finite
    path = tmp_path / "edge.json"
    edge = {"name": "edge", "family": "unitary", "k_s": 1e308, "k_d": 1e-308, "households": 1}
    path.write_text(json.dumps({"version": "1", "markets": [edge]}), encoding="utf-8")
    code, out, err = run(capsys, "eos", "--config", str(path), "edge")
    assert code == 0, err
    assert json.loads(out.split("\nK=")[0])["K"] == 1e308
    assert "K=1e+308 " in out


def test_eos_where_only_the_clearing_quantity_overflows(tmp_path, capsys):
    # K = sqrt(1e308 / (1e308 * 1e6)) = 0.001 is finite, while Q* = 1e308 * Pr* overflows at Pr* = 1000
    path = tmp_path / "flood.json"
    flood = {"name": "flood", "family": "unitary", "k_s": 1e308, "k_d": 1e308, "households": 1_000_000}
    path.write_text(json.dumps({"version": "1", "markets": [flood]}), encoding="utf-8")
    code, out, err = run(capsys, "eos", "--config", str(path), "flood")
    assert (code, err) == (0, "")
    assert out.endswith("\nK=0.001 amplification=1000 (D/mu0 analogue)\n")


def test_eos_rejects_linear(config_path, capsys):
    code, out, err = run(capsys, "eos", "--config", config_path, "staple")
    assert (code, out) == (3, "")
    assert one_error_line(err)
    assert "check_linear_consistency" in err


def test_eos_non_finite_surface_constant_exits_3(tmp_path, capsys):
    # K = sqrt(1e308 / 1e-310) = 1e309 overflows; K must not be printed as Infinity
    path = tmp_path / "huge.json"
    huge = {"name": "huge", "family": "unitary", "k_s": 1e308, "k_d": 1e-310}
    path.write_text(json.dumps({"version": "1", "markets": [huge]}), encoding="utf-8")
    code, out, err = run(capsys, "eos", "--config", str(path), "huge")
    assert code == 3
    assert out == ""
    assert "not a positive finite double" in err


def test_surface_stdout_matches_module_example(config_path, capsys):
    code, out, _ = run(capsys, "surface", "--config", config_path, "credit")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,t,y"
    assert len(lines) == 5
    assert lines[1] == "1,1,1"
    assert lines[4] == "2,2,1"


def test_surface_grid_overrides(config_path, capsys):
    code, out, _ = run(
        capsys, "surface", "--config", config_path, "gas",
        "--x-min", "0.024", "--x-max", "0.048", "--nx", "2",
        "--t-min", "300", "--t-max", "600", "--nt", "2",
    )
    assert code == 0
    first = out.splitlines()[1].split(",")
    assert abs(float(first[2]) - 103925.0) <= 0.5


@pytest.mark.parametrize("argv", [["surface", "gas"], ["isocurves", "gas", "--t-values", "1,2"]])
def test_integral_float_grid_counts_match_integers(tmp_path, capsys, argv):
    outputs = []
    for nx in (3, 3.0):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(CONFIG, grid=dict(CONFIG["grid"], nx=nx))), encoding="utf-8")
        code, out, _ = run(capsys, argv[0], "--config", str(path), *argv[1:])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) > 3


def test_surface_json_format_validates(config_path, capsys):
    code, out, _ = run(capsys, "surface", "--config", config_path, "gas", "--format", "json")
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("surface"))


def test_surface_unknown_name_exits_2(config_path, capsys):
    code, _, err = run(capsys, "surface", "--config", config_path, "plasma")
    assert code == 2
    assert "unknown eos or market" in err


def test_surface_linear_market_exits_3(config_path, capsys):
    code, out, err = run(capsys, "surface", "--config", config_path, "staple")
    assert (code, out) == (3, "")
    assert one_error_line(err)
    assert "requires a unitary demand market" in err


def test_surface_missing_out_dir_exits_4(config_path, capsys, tmp_path):
    code, _, err = run(
        capsys, "surface", "--config", config_path, "gas",
        "--out", str(tmp_path / "no_such_dir" / "s.csv"),
    )
    assert code == 4


def test_surface_non_finite_point_exits_3_and_writes_nothing(config_path, capsys, tmp_path):
    out_file = tmp_path / "surface.csv"
    code, out, err = run(
        capsys, "surface", "--config", config_path, "gas",
        "--x-min", "1e-320", "--x-max", "1e-300", "--nx", "2",
        "--t-min", "1e300", "--t-max", "1e308", "--nt", "2", "--out", str(out_file),
    )
    assert code == 3
    assert out == ""
    assert "grid point (x=1e-320" in err
    assert "non-finite" in err
    assert not out_file.exists()


@pytest.mark.parametrize("override", ["--x-max=inf", "--x-min=-inf", "--t-min=nan", "--t-max=inf"])
def test_surface_non_finite_grid_bound_exits_2(config_path, capsys, override):
    code, out, err = run(capsys, "surface", "--config", config_path, "gas", override)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["isocurves", "gas", "--t-values", "300,nan"],
        ["isocurves", "gas", "--t-values", "inf"],
        ["collapse", "credit", "--prices=1,-inf"],
    ],
)
def test_non_finite_value_list_exits_2(config_path, capsys, argv):
    command, name, *rest = argv
    code, out, err = run(capsys, command, "--config", config_path, name, *rest)
    assert code == 2
    assert out == ""
    assert "is not a finite number" in err


@pytest.mark.parametrize(
    "argv, what",
    [
        (["isocurves", "gas", "--t-values", "300,warm"], "t-values: could not convert string to float: 'warm'"),
        (["collapse", "credit", "--prices=1,abc"], "prices: could not convert string to float: 'abc'"),
    ],
)
def test_non_numeric_value_list_exits_2(config_path, capsys, argv, what):
    command, name, *rest = argv
    code, out, err = run(capsys, command, "--config", config_path, name, *rest)
    assert (code, out, err) == (2, "", f"error: {what}\n")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["surface", "gas"], "x_min"),
        (["surface", "gas", "--x-min=1", "--x-max=2", "--nx=2", "--t-min=1", "--t-max=2"], "nt"),
        (["isocurves", "gas", "--t-values", "1,2"], "x_min"),
        (["isocurves", "gas", "--t-values", "1,2", "--x-min=1", "--x-max=2"], "nx"),
    ],
)
def test_grid_value_set_neither_in_the_config_nor_on_the_command_line_exits_2(tmp_path, capsys, argv, key):
    path = tmp_path / "no-grid.json"
    path.write_text(json.dumps({k: v for k, v in CONFIG.items() if k != "grid"}), encoding="utf-8")
    command, *rest = argv
    code, out, err = run(capsys, command, "--config", str(path), *rest)
    assert (code, out) == (2, "")
    assert err == f"error: grid.{key} is set neither in the config nor on the command line\n"


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps allocations on Linux only")
def test_surface_grid_too_large_for_memory_exits_3(tmp_path):
    # a child process, so the address-space cap applies to it alone
    import resource

    # the largest grid the point limit allows; each of the two processes that sample it holds half its
    # y rows, 64 MB as tuples of floats, which alone fill the cap (at 150 MB one process held them all)
    limit = 64 * 1024 * 1024
    path = tmp_path / "huge_grid.json"
    path.write_text(json.dumps(dict(CONFIG, grid=dict(CONFIG["grid"], nx=2000, nt=2000))), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "market_eos.cli", "surface", "--config", str(path), "gas"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: out of memory")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps allocations on Linux only")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_surface_export_streams_under_a_memory_cap(tmp_path, fmt):
    # A 1000 x 1000 gas export is 56 MB as CSV and 87 MB as JSON. Written
    # one row at a time it runs in about 55 MB; holding the whole text, as
    # a single string or as one string per row, needs well over the cap.
    import resource

    limit = 110 * 1024 * 1024
    config = dict(CONFIG, grid=dict(CONFIG["grid"], nx=1000, nt=1000))
    path = tmp_path / "big_grid.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    capped = tmp_path / f"capped.{fmt}"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "market_eos.cli", "surface", "--config", str(path), "gas",
         "--format", fmt, "--out", str(capped)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"wrote {capped}\n"
    reference = tmp_path / f"reference.{fmt}"
    with open(reference, "w", encoding="utf-8") as out:
        out.writelines(render_chunks(sample_surface(IdealGasEoS(n=1.0, R=8.314), GridSpec(**config["grid"])), fmt))
    assert filecmp.cmp(capped, reference, shallow=False)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split writer forks")
SPLIT_GRID = dict(CONFIG["grid"], nx=256, nt=256)  # 2**16 points, the smallest export two processes render


@pytest.fixture
def split_config(tmp_path):
    path = tmp_path / "split.json"
    path.write_text(json.dumps(dict(CONFIG, grid=SPLIT_GRID)), encoding="utf-8")
    return str(path)


@needs_fork
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_split_surface_export_to_out_and_to_stdout(split_config, tmp_path, capsys, forks, fmt):
    reference = "".join(render_chunks(sample_surface(IdealGasEoS(n=1.0, R=8.314), GridSpec(**SPLIT_GRID)), fmt))
    out_file = tmp_path / f"export.{fmt}"
    code, out, err = run(capsys, "surface", "--config", split_config, "gas", "--format", fmt, "--out", str(out_file))
    assert (code, out, err) == (0, f"wrote {out_file}\n", "")
    assert out_file.read_bytes() == reference.encode()
    code, out, err = run(capsys, "surface", "--config", split_config, "gas", "--format", fmt)
    assert (code, out, err) == (0, reference, "")
    assert len(forks) == 2


@needs_fork
@pytest.mark.parametrize("error, exit_code", [(OSError(28, "No space left on device"), 4), (MemoryError(), 3)])
def test_a_failing_export_child_exits_with_the_code_of_its_error(split_config, tmp_path, capsys, forks,
                                                                 failing_child, error, exit_code):
    failing_child(error)
    out_file = tmp_path / "export.csv"
    code, out, err = run(capsys, "surface", "--config", split_config, "gas", "--out", str(out_file))
    assert (code, out) == (exit_code, "")
    assert one_error_line(err)
    assert not out_file.exists()
    assert len(forks) == 1


@pytest.mark.parametrize("existed", [False, True])
def test_a_write_that_fails_in_one_process_exits_4_and_removes_only_a_file_it_created(capsys, tmp_path, monkeypatch,
                                                                                      existed):
    rows_text = surface_module._rows_text

    def failing_after_the_first_row(*args):
        yield next(rows_text(*args))
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(surface_module, "_rows_text", failing_after_the_first_row)
    out_file = tmp_path / "export.csv"
    if existed:
        out_file.write_text("an earlier export\n", encoding="utf-8")
    code, out, err = run(capsys, "surface", "--config", DEMO, "gas", "--out", str(out_file))
    assert (code, out, err) == (4, "", "error: [Errno 28] No space left on device\n")
    assert out_file.exists() == existed  # a path that existed before is written in place and kept


@needs_fork
def test_any_other_failure_of_an_export_child_is_a_bug(split_config, forks, failing_child):
    failing_child(ValueError("a bug"))
    with pytest.raises(RuntimeError, match="exited 1$"):
        cli.main(["surface", "--config", split_config, "gas", "--format", "json"])
    assert len(forks) == 1


def grid_options(grid: dict) -> list[str]:
    return [f"--{key.replace('_', '-')}={value!r}" for key, value in grid.items()]


def one_process_error(eos, grid: dict) -> str:
    """The stderr of the grid's first failing point, as ``sample_surface`` in one process reports it."""
    with pytest.raises((DomainError, InvariantError)) as caught:
        sample_surface(eos, GridSpec(**grid))
    return f"error: {caught.value}\n"


# 2**16 gas points whose pressure overflows at the smallest volume from row 192 on, in the forked child's half
# (rows 128 to 255); at a smaller volume it overflows from row 49 on, in both halves
CHILD_HALF_FAILS = dict(x_min=8.1e-08, x_max=1.0, nx=256, t_min=1e300, t_max=2e300, nt=256)
BOTH_HALVES_FAIL = dict(CHILD_HALF_FAILS, x_min=5.5e-08)


@needs_fork
@pytest.mark.parametrize("to_file", [True, False])
@pytest.mark.parametrize("grid, first_failing_row", [(CHILD_HALF_FAILS, 192), (BOTH_HALVES_FAIL, 49)])
def test_a_check_failure_in_either_half_exits_3_as_in_one_process(config_path, tmp_path, capsys, forks, grid,
                                                                   first_failing_row, to_file):
    out_file = tmp_path / "export.csv"
    argv = ["surface", "--config", config_path, "gas", *grid_options(grid)] + (["--out", str(out_file)] * to_file)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", one_process_error(IdealGasEoS(n=1.0, R=8.314), grid))
    t = GridSpec(**grid).t_values()[first_failing_row]
    assert err == f"error: grid point (x={grid['x_min']}, t={t}) gives non-finite y=inf\n"
    assert not out_file.exists()
    assert len(forks) == 1


@needs_fork
@pytest.mark.parametrize("error, message", [
    (MemoryError(), "out of memory (grid or input too large)"),
    (DomainError("grid point underflows"), "grid point underflows"),
])
def test_a_child_that_fails_while_sampling_exits_3_and_writes_nothing(split_config, tmp_path, capsys, forks,
                                                                      failing_child, error, message):
    failing_child(error, "_checked_rows")
    out_file = tmp_path / "export.csv"
    code, out, err = run(capsys, "surface", "--config", split_config, "gas", "--out", str(out_file))
    assert (code, out, err) == (3, "", f"error: {message}\n")
    assert not out_file.exists()
    assert len(forks) == 1


@needs_fork
def test_a_bug_in_a_sampling_child_is_a_runtime_error(split_config, forks, failing_child):
    failing_child(ValueError("a bug"), "_checked_rows")
    with pytest.raises(RuntimeError, match="exited 1$"):
        cli.main(["surface", "--config", split_config, "gas"])
    assert len(forks) == 1


@needs_fork
def test_an_out_path_that_cannot_be_opened_exits_4_with_the_child_reaped(split_config, tmp_path, capsys, forks):
    out_file = tmp_path / "missing" / "export.csv"
    code, out, err = run(capsys, "surface", "--config", split_config, "gas", "--out", str(out_file))
    assert (code, out) == (4, "")
    assert one_error_line(err) and "No such file or directory" in err
    assert len(forks) == 1  # and reaped, which the fixture checks
    assert not out_file.parent.exists()


# The credit market's surface (K = 1) over a Q_s axis whose point 100, -4.97342764e-316, is subnormal: its demand
# underflows there. At prices from 1e10 the demand at the first point, -1e-310, underflows before it. The gas's
# domain leaves out the first volume, -1e-300, and the magnet's the temperatures of the first 128 rows, from -1.
SUBNORMAL_X = dict(x_min=-1e-300, x_max=1.5499999999999985e-300, nx=256, t_min=1.0, t_max=2.0, nt=256)


@needs_fork
@pytest.mark.parametrize("name, grid, first_failing", [
    ("credit", SUBNORMAL_X, "(x=-4.97342764e-316, t=1.0) underflows"),
    ("credit", dict(SUBNORMAL_X, t_min=1e10, t_max=2e10), "(x=-1e-300, t=10000000000.0) underflows"),
    ("gas", SUBNORMAL_X, "(x=-1e-300, t=1.0) outside the surface domain"),
    ("magnet", dict(SPLIT_GRID, t_min=-1.0, t_max=1.0), "(x=1.0, t=-1.0) outside the surface domain"),
])
def test_a_split_sized_grid_names_its_first_failing_point(config_path, capsys, forks, name, grid, first_failing):
    code, out, err = run(capsys, "surface", "--config", config_path, name, *grid_options(grid))
    cfg = load_config(config_path)
    eos = cfg.eos_entities[name] if name in cfg.eos_entities else derive_unitary_eos(cfg.markets[name])
    assert (code, out, err) == (3, "", one_process_error(eos, grid))
    assert f"error: grid point {first_failing}" in err
    assert len(forks) == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_isocurves_export_of_split_size_is_made_by_one_process(config_path, capsys, monkeypatch, fmt):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked an isocurves export"))
    code, out, err = run(capsys, "isocurves", "--config", config_path, "gas", "--t-values", "1,2",
                         "--points", "32768", "--format", fmt)  # 2**16 points
    family = isocurves(IdealGasEoS(n=1.0, R=8.314), [1.0, 2.0], (1.0, 2.0), 32768)
    assert (code, err) == (0, "")
    assert out == "".join(render_chunks(family, fmt)) + "curves=2 collapse=false\n"


def processes_naming(text: str) -> list[str]:
    """Process ids whose command line contains ``text``."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and text.encode() in (entry / "cmdline").read_bytes():
                found.append(entry.name)
        except OSError:  # the process ended while it was read
            pass
    return found


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="lists processes through /proc")
def test_split_export_to_a_reader_that_closes_early_exits_0_and_leaves_no_process(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(dict(CONFIG, grid=dict(CONFIG["grid"], nx=512, nt=512))), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "market_eos.cli", "surface", "--config", str(path), "gas"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"x,t,y\n"  # written once both halves have passed their check
        proc.stdout.close()
        code = proc.wait(timeout=60)
        # a child left running would still render its rows now, with the same command line
        assert processes_naming(str(path)) == []
        assert (code, proc.stderr.read()) == (0, b"")


def test_surface_grid_over_the_point_limit_exits_2(config_path, capsys):
    code, out, err = run(capsys, "surface", "--config", config_path, "gas", "--nx", "2001", "--nt", "2000")
    assert code == 2
    assert out == ""
    assert "exceeds the limit of 4000000" in err
    code, out, err = run(
        capsys, "isocurves", "--config", config_path, "gas", "--t-values", "1,2", "--points", "2000001"
    )
    assert code == 3
    assert out == ""
    assert "exceed the limit of 4000000" in err


@pytest.mark.parametrize(
    "x_min, x_max, t_min, t_max",
    [(1e307, 1.7e308, 4.0, 8.0), (1e307, 1.7e308, 2.0, 4.0), (9e307, 1.1e308, 1.25, 4.0)],
)
def test_surface_near_the_largest_double_exports_every_point(config_path, capsys, tmp_path, x_min, x_max, t_min, t_max):
    # M stays finite near the largest double, where M*T and (D/mu0)*B0 overflow wherever B0 > DBL_MAX/2
    out_file = tmp_path / "magnet.csv"
    bounds = ["--x-min", repr(x_min), "--x-max", repr(x_max), "--t-min", repr(t_min), "--t-max", repr(t_max)]
    code, _, _ = run(
        capsys, "surface", "--config", config_path, "magnet", "--nx", "50", "--nt", "50", *bounds,
        "--out", str(out_file),
    )
    assert code == 0
    magnet = CurieParamagnetEoS(D=2.0)
    grid = GridSpec(x_min=x_min, x_max=x_max, nx=50, t_min=t_min, t_max=t_max, nt=50)
    expected = "x,t,y\n" + "".join(
        f"{x:.17g},{t:.17g},{magnet.y_of(x, t):.17g}\n" for t in grid.t_values() for x in grid.x_values()
    )
    assert out_file.read_text(encoding="utf-8") == expected


def test_surface_subnormal_point_exits_3_and_writes_nothing(config_path, capsys, tmp_path):
    # n*R*t / x is about 8e-317 at the first point: a subnormal with 24 significant bits
    out_file = tmp_path / "gas.csv"
    code, out, err = run(
        capsys, "surface", "--config", config_path, "gas",
        "--x-min", "1e307", "--x-max", "1e308", "--t-min", "1e-10", "--t-max", "2e-10",
        "--out", str(out_file),
    )
    assert code == 3
    assert out == ""
    assert "grid point (x=1e+307, t=1e-10) underflows" in err
    assert not out_file.exists()


def test_surface_with_a_subnormal_intermediate_exports_every_point(tmp_path, capsys):
    # n*R*t = 1.1e-311 is subnormal, while P = n*R*t/V is normal: the same operations on t and V scaled by 2**200
    # keep every intermediate normal and give its bits
    path = tmp_path / "gas.json"
    gas = {"name": "gas", "kind": "ideal_gas", "n": 1.37}
    path.write_text(json.dumps({"version": "1", "eos": [gas]}), encoding="utf-8")
    code, out, err = run(
        capsys, "surface", "--config", str(path), "gas", "--x-min", "1e-300", "--x-max", "2e-300",
        "--t-min", "1e-312", "--t-max", "2e-312", "--nx", "2", "--nt", "2",
    )
    assert (code, err) == (0, "")
    scale = 2.0**200
    assert out == "x,t,y\n" + "".join(
        f"{x:.17g},{t:.17g},{1.37 * 8.314 * (t * scale) / (x * scale):.17g}\n"
        for t in (1e-312, 2e-312) for x in (1e-300, 2e-300))


def test_surface_writes_file(config_path, capsys, tmp_path):
    out_file = tmp_path / "surface.csv"
    code, out, _ = run(capsys, "surface", "--config", config_path, "credit", "--out", str(out_file))
    assert code == 0
    assert f"wrote {out_file}" in out
    assert out_file.read_text(encoding="utf-8").startswith("x,t,y\n")


def test_relative_out_resolves_against_the_working_directory(config_path, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "renders").mkdir()
    code, out, _ = run(capsys, "surface", "--config", config_path, "credit", "--out", "renders/s.csv")
    assert code == 0
    assert out == "wrote renders/s.csv\n"
    assert (tmp_path / "renders" / "s.csv").read_text(encoding="utf-8").startswith("x,t,y\n")


def test_output_base_directory_settings_are_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(CONFIG, output_dir=str(tmp_path))), encoding="utf-8")
    code, out, err = run(capsys, "surface", "--config", str(path), "credit", "--out", "s.csv")
    assert (code, out) == (2, "")
    assert err == "error: invalid config at <root>: unknown field 'output_dir'\n"
    code, out, err = run(capsys, "surface", "--config", str(path), "credit", "--out-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --out-dir" in err


# sha256 of each report file on configs/demo.json, recorded before reports were serialized
# through Record.to_dict
REPORT_FILES = [
    (["collapse", "credit", "--prices", "1,2,4,8"], "4dcf722032e7d9d51365736c34cdda36af167d7a8aa12c22292e51c8863371d7"),
    (["consistency", "staple"], "db5ea217e90b94a2154d72ad30eef0c5af97574062af552c6ed71d09d59a4034"),
    (["eos", "credit"], "143bf0e22d02e2241006b140710ab47ee6204e6b301eb48d4ed8787f62876dfa"),
]


@pytest.mark.parametrize("argv, digest", REPORT_FILES, ids=[argv[0] for argv, _ in REPORT_FILES])
def test_report_files_are_pinned(capsys, tmp_path, argv, digest):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, argv[0], "--config", DEMO, *argv[1:], "--out", str(out_file))
    assert code == 0
    assert out.startswith(f"wrote {out_file}\n")
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def test_no_files_written_without_out(config_path, capsys, tmp_path, monkeypatch):
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code, _, _ = run(capsys, "surface", "--config", config_path, "credit")
    assert code == 0
    assert list(workdir.iterdir()) == []


def test_isocurves_gas_isotherms(config_path, capsys):
    code, out, _ = run(
        capsys, "isocurves", "--config", config_path, "gas",
        "--t-values", "300,600", "--x-min", "0.01", "--x-max", "0.1", "--points", "5",
    )
    assert code == 0
    assert "curves=2 collapse=false" in out
    assert out.splitlines()[0] == "t,x,y"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_exports_match_the_renderers_on_stdout_and_in_files(config_path, capsys, tmp_path, fmt):
    grid = ["--x-min", "0.3", "--x-max", "7.1", "--nx", "7", "--t-min", "0.5", "--t-max", "9.25", "--nt", "5"]
    curves = ["--t-values", "300,0.7,1e-3", "--x-min", "0.01", "--x-max", "0.1", "--points", "6"]
    cfg = load_config(config_path)
    surfaces = {**cfg.eos_entities, "credit": derive_unitary_eos(cfg.markets["credit"])}
    for name, eos in surfaces.items():
        sampled = sample_surface(eos, GridSpec(0.3, 7.1, 7, 0.5, 9.25, 5))
        family = isocurves(eos, [300.0, 0.7, 1e-3], (0.01, 0.1), 6)
        for argv, expected, verdict in (
            (["surface", "--config", config_path, name, "--format", fmt, *grid], "".join(render_chunks(sampled, fmt)),
             ""),
            (["isocurves", "--config", config_path, name, "--format", fmt, *curves],
             "".join(render_chunks(family, fmt)),
             "curves=3 collapse=false\n"),
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out == expected + verdict
            out_file = tmp_path / f"{name}.{fmt}"
            code, out, _ = run(capsys, *argv, "--out", str(out_file))
            assert code == 0
            assert out == f"wrote {out_file}\n{verdict}"
            assert out_file.read_bytes() == expected.encode("utf-8")


def test_isocurves_empty_t_values_exits_2(config_path, capsys):
    code, _, err = run(capsys, "isocurves", "--config", config_path, "gas", "--t-values", ",")
    assert code == 2
    assert "t-values" in err


def test_collapse_verdict_line(config_path, capsys):
    code, out, _ = run(capsys, "collapse", "--config", config_path, "credit", "--prices", "1,2,4,8")
    assert code == 0
    assert "collapse=true slope=1/4" in out


def test_collapse_report_file(config_path, capsys, tmp_path):
    out_file = tmp_path / "collapse.json"
    code, _, _ = run(
        capsys, "collapse", "--config", config_path, "credit",
        "--prices", "1,2", "--out", str(out_file),
    )
    assert code == 0
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert doc["collapse"] is True
    assert doc["line_slope"] == 0.25


def test_collapse_overflowing_price_exits_3_and_writes_nothing(config_path, capsys, tmp_path):
    out_file = tmp_path / "collapse.json"
    code, out, err = run(
        capsys, "collapse", "--config", config_path, "credit",
        "--prices", "1e-320", "--out", str(out_file),
    )
    assert code == 3
    assert out == ""
    assert "price 1e-320 gives a non-finite cleared state" in err
    assert not out_file.exists()


def test_collapse_rejects_linear_market(config_path, capsys):
    code, out, err = run(capsys, "collapse", "--config", config_path, "staple", "--prices", "1,2")
    assert (code, out) == (3, "")
    assert one_error_line(err)
    assert "defined for unitary demand markets" in err


def test_a_type_error_inside_a_command_propagates(config_path, monkeypatch):
    # no input reaches a TypeError, so one is a bug, not an exit code
    def broken(args, cfg):
        raise TypeError("a bug")

    monkeypatch.setattr(cli, "cmd_zeroth", broken)
    with pytest.raises(TypeError, match="^a bug$"):
        cli.main(["zeroth", "--config", config_path])


def test_zeroth_report(config_path, capsys):
    code, out, _ = run(capsys, "zeroth", "--config", config_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "market quantized_price"
    assert lines[1] == "grain 2"
    assert lines[2] == "staple 2"
    assert lines[3] == "credit 4"
    assert "laws: reflexive=pass symmetric=pass transitive=pass" in out
    assert "class price=2: grain, staple [mixed goods]" in out
    assert "class price=4: credit" in out


def test_zeroth_empty_registry(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"version": "1"}), encoding="utf-8")
    code, out, _ = run(capsys, "zeroth", "--config", str(path))
    assert code == 0
    assert out.splitlines()[0] == "market quantized_price"


def zeroth_on(tmp_path, capsys, **config):
    path = tmp_path / "zeroth.json"
    path.write_text(json.dumps(dict({"version": "1"}, **config)), encoding="utf-8")
    return run(capsys, "zeroth", "--config", str(path))


def test_zeroth_ticks_beyond_int64(tmp_path, capsys):
    # Pr* = 1e10 is tick 1e19 at the default quantum, past the int64 range
    big = {"name": "big", "family": "unitary", "k_s": 1e22, "k_d": 100.0}
    code, out, _ = zeroth_on(tmp_path, capsys, markets=[big])
    assert code == 0
    assert "class price=10000000000: big" in out


def test_zeroth_ranks_a_market_whose_clearing_quantity_overflows(tmp_path, capsys):
    # Pr* = sqrt(1e6 * 1e308 / 1e308) = 1000, where Q* = 1e308 * 1000 is inf and the residual inf - inf is NaN;
    # the ranking reads the closed-form price alone, while solve's bisection stops at the NaN
    flood = {"name": "flood", "family": "unitary", "k_s": 1e308, "k_d": 1e308, "households": 1_000_000}
    code, out, _ = zeroth_on(tmp_path, capsys, markets=[flood])
    assert code == 0
    assert out.splitlines()[1] == "flood 1000"
    code, out, err = run(capsys, "solve", "--config", str(tmp_path / "zeroth.json"), "flood")
    assert (code, out) == (3, "")
    assert err.startswith("error: excess demand at ")
    assert err.endswith(" is NaN: demand and supply both overflow there\n")


def test_zeroth_infinite_clearing_price_exits_3(tmp_path, capsys):
    # finite coefficients whose clearing price sqrt(1e308 / 1e-308) overflows
    huge = {"name": "huge", "family": "unitary", "k_s": 1e308, "k_d": 1e-308}
    code, out, err = zeroth_on(tmp_path, capsys, markets=[CONFIG["markets"][0], huge])
    assert code == 3
    assert out == ""
    assert "market 'huge'" in err


@pytest.mark.parametrize("quantum", [3.0, 7.0, 1.5])
def test_zeroth_class_price_that_overflows_exits_3(tmp_path, capsys, quantum):
    # Pr* = DBL_MAX and Pr*/quantum are finite, but the tick times the quantum rounds past DBL_MAX
    edge = {"name": "a", "family": "linear", "k_s": -0.5, "q_d0": sys.float_info.max, "k_d": 0.5}
    code, out, err = zeroth_on(tmp_path, capsys, quantum=quantum, markets=[CONFIG["markets"][0], edge])
    assert (code, out) == (3, "")
    assert err == f"error: market 'a': class price is not finite: price 1.7976931348623157e+308 on quantum {quantum}\n"


def test_zeroth_infinite_quantum_exits_2(tmp_path, capsys):
    # json.dumps writes the non-standard literal Infinity
    code, out, err = zeroth_on(tmp_path, capsys, quantum=float("inf"))
    assert code == 2
    assert out == ""
    assert err == "error: quantum: quantum must be positive and finite, got inf\n"


@pytest.mark.parametrize("quantum", [0, 0.0, -1e-9])
def test_zeroth_quantum_that_is_not_positive_exits_2(tmp_path, capsys, quantum):
    code, out, err = zeroth_on(tmp_path, capsys, quantum=quantum, markets=CONFIG["markets"])
    assert (code, out) == (2, "")
    assert err == f"error: quantum: quantum must be positive and finite, got {quantum}\n"


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400", "-1e400", "1" + "0" * 400,
                                     "-1" + "0" * 400])
def test_zeroth_non_finite_literal_in_a_market_exits_2(tmp_path, capsys, literal):
    path = tmp_path / "zeroth.json"
    path.write_text(json.dumps(CONFIG).replace('"k_d": 3.0', f'"k_d": {literal}'), encoding="utf-8")
    code, out, err = run(capsys, "zeroth", "--config", str(path))
    assert (code, out) == (2, "")
    assert one_error_line(err)
    assert "k_d" in err


def registry_300() -> dict:
    """300 markets: 37 shared prices across mixed goods, then 20 pairs of one good or none."""
    markets = []
    for i in range(300):
        price = (i % 37 + 1) / 7 if i < 260 else (40 + (i - 260) // 2) / 7
        k_d = 1.0 + i % 7
        entry = {"name": f"m{i:03d}"}
        if i % 3 == 0:
            k_s = -(1.0 + i % 5)
            entry.update(family="linear", k_s=k_s, q_d0=price * (k_d - k_s), k_d=k_d)
        else:
            households = 1 + i % 4
            entry.update(family="unitary", k_s=price * price * k_d / households, k_d=k_d, households=households)
        if i % 5 and i < 260:
            entry["goods"] = ("bread", "grain", "credit")[i % 3]
        elif i >= 280:
            entry["goods"] = "steel"
        markets.append(entry)
    return {"version": "1", "markets": markets}


def test_zeroth_report_on_a_300_market_registry_is_pinned(tmp_path, capsys):
    code, out, err = zeroth_on(tmp_path, capsys, **registry_300())
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 300 + 1 + 57
    assert out.count(" [mixed goods]\n") == 37
    # recorded before the report was collected into one write
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "02cabfe0dbf733789568ce06f42df0e7b18ecce624076b2cb4f7b6632ba2210b"
    )


def test_strict_config_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(CONFIG, extra_field=1)), encoding="utf-8")
    code, _, err = run(capsys, "solve", "--config", str(path), "staple")
    assert code == 2
    assert "invalid config" in err


def test_missing_config_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--config", "/no/such/config.json", "staple")
    assert code == 2
    assert "cannot read" in err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'\xff\xfe{"version": "1"}')
    code, out, err = run(capsys, "zeroth", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read config {path}: 'utf-8' codec can't decode")


def test_config_nested_too_deep_for_the_json_parser_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"version": "1", "x": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    code, out, err = run(capsys, "zeroth", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config {path} is not valid JSON: maximum recursion depth exceeded")


def test_help_for_every_subcommand(capsys):
    for sub in ("solve", "consistency", "eos", "surface", "isocurves", "collapse", "zeroth"):
        code, out, _ = run(capsys, sub, "--help")
        assert code == 0
        assert "--config" in out


def test_usage_error_exits_2(capsys):
    code, _, _ = run(capsys, "solve")  # missing --config and market
    assert code == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "market-eos" in out


def test_every_command_of_the_readme_cli_block_runs_and_prints_the_line_under_it(capsys, monkeypatch):
    readme = Path(DEMO).parents[1] / "README.md"
    monkeypatch.chdir(readme.parent)  # the block names configs/demo.json from the repository root
    block = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    commands, compared = [], []
    for line, following in zip(lines, lines[1:] + [""]):
        if line.startswith("market-eos "):
            argv = shlex.split(line, comments=True)[1:]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), line
            commands.append(argv[0])
            if following.startswith("# "):
                assert out == following[2:] + "\n", line
                compared.append(argv[0])
    assert sorted(commands) == sorted(["solve", "consistency", "eos", "surface", "isocurves", "collapse", "zeroth"])
    assert compared == ["solve", "collapse"]


# ------------------------------------------------------------------ one parser for every main call in a process


@pytest.fixture
def fresh_parser(monkeypatch):
    """The next ``cli.main`` call is this process's first: it builds the parser that later calls reuse."""
    monkeypatch.setattr(cli, "_parser", None)


def test_an_option_of_one_call_does_not_reach_the_next(config_path, capsys, fresh_parser):
    first = run(capsys, "surface", "--config", config_path, "gas")
    assert run(capsys, "surface", "--config", config_path, "gas", "--format", "json")[1].startswith("{")
    assert run(capsys, "surface", "--config", config_path, "gas") == first
    assert first[1].startswith("x,t,y\n")


def test_a_usage_error_leaves_the_parser_working(config_path, capsys, fresh_parser):
    code, out, err = run(capsys, "zeroth")
    assert (code, out) == (2, "")
    assert err.startswith("usage: market-eos zeroth")
    after_the_error = run(capsys, "zeroth", "--config", config_path)
    cli._parser = None  # zeroth alone, as this process's first call
    assert run(capsys, "zeroth", "--config", config_path) == after_the_error


def test_a_version_request_leaves_the_parser_working(config_path, capsys, fresh_parser):
    assert run(capsys, "--version")[:2] == (0, f"market-eos {__version__}\n")
    code, out, _ = run(capsys, "solve", "--config", config_path, "staple")
    assert code == 0
    assert out.startswith("Pr*=2 Q*=6 ")


def test_only_the_first_main_call_builds_a_parser(config_path, capsys, fresh_parser, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "solve", "--config", config_path, "staple")[0] == 0
    first = len(built)
    assert run(capsys, "solve", "--config", config_path, "credit")[0] == 0
    assert first > 0 and len(built) == first


# --------------------------------------------------------------------------- the CLI contract over generated inputs

def doubles(exponents, signs=st.just(0)):
    """Doubles drawn by bit pattern: a sign bit, an 11-bit exponent field and a 52-bit fraction."""
    def double(sign, exponent, fraction):
        return struct.unpack("<d", struct.pack("<Q", sign << 63 | exponent << 52 | fraction))[0]

    return st.builds(double, signs, exponents, st.integers(0, 2**52 - 1))


# Every finite double: an exponent field short of the all-ones of inf and NaN, so that every binary exponent is drawn
# alike. Magnitudes fill the fields whose sign a family fixes.
finite_doubles = doubles(st.integers(0, 2046), st.integers(0, 1))
magnitudes = finite_doubles.map(abs)
value_lists = st.lists(st.one_of(magnitudes, finite_doubles), min_size=1, max_size=3).map(
    lambda values: ",".join(map(repr, values)))
# Magnitudes in [2**-100, 2**101). Where every constant, grid bound and t value is one, each exact y of the three
# surfaces lies in [2**-800, 2**403] (K = sqrt(k_s / (k_d * N)) is above 2**-599 for N up to 1e300), inside
# [2 * DBL_MIN, DBL_MAX / 2], so that the export must succeed.
mid_magnitudes = doubles(st.integers(1023 - 100, 1023 + 100))
# Drawn once per generated case and read by both strategies below: whether the case is a surface or isocurves export
# built from mid_magnitudes alone, or a command built from every finite double.
MID_RANGE = st.shared(st.booleans(), key="contract-mid-range")
NON_FINITE_TOKEN = re.compile(r"\b(?:inf|infinity|nan)\b", re.IGNORECASE)


@st.composite
def contract_configs(draw) -> dict:
    """Two markets, both surfaces, a positive grid and a quantum, every coefficient and bound a generated double."""
    values = mid_magnitudes if draw(MID_RANGE) else magnitudes
    households = draw(st.one_of(st.integers(1, 10**300), st.floats(1.0, 1e300).map(lambda n: float(math.floor(n)))))
    x_bounds = sorted(draw(st.lists(values, min_size=2, max_size=2, unique=True)))
    t_bounds = sorted(draw(st.lists(values, min_size=2, max_size=2, unique=True)))
    return {
        "version": "1",
        "quantum": draw(magnitudes),
        "markets": [
            {"name": "lin", "family": "linear", "k_s": -draw(magnitudes), "q_d0": draw(magnitudes),
             "k_d": draw(magnitudes)},
            {"name": "uni", "family": "unitary", "k_s": draw(values), "k_d": draw(values),
             "households": households, "interpretation": draw(st.sampled_from(["per-household", "aggregate"]))},
        ],
        "eos": [
            {"name": "gas", "kind": "ideal_gas", "n": draw(values), "R": draw(values)},
            {"name": "magnet", "kind": "paramagnet", "D": draw(values), "mu0": draw(values)},
        ],
        "grid": {"x_min": x_bounds[0], "x_max": x_bounds[1], "nx": draw(st.integers(2, 4)),
                 "t_min": t_bounds[0], "t_max": t_bounds[1], "nt": draw(st.integers(2, 4))},
    }


@st.composite
def contract_commands(draw) -> list[str]:
    """The arguments after ``--config`` of one command, grid bounds and t values from every finite double, or of a
    surface or isocurves export of a surface the config defines, its bounds and t values from ``mid_magnitudes``."""
    mid_range = draw(MID_RANGE)
    exports = ["surface", "isocurves"]
    command = draw(st.sampled_from(exports if mid_range else
                                   ["eos", "zeroth", *exports, "collapse", "consistency", "solve"]))
    market = draw(st.sampled_from(["lin", "uni"]))
    name = draw(st.sampled_from(["gas", "magnet", "uni"] + ["lin"] * (not mid_range)))
    fmt = ["--format", draw(st.sampled_from(["csv", "json"]))]
    bounds = [f"--{key}={draw(mid_magnitudes if mid_range else finite_doubles)!r}" for key in draw(
        st.lists(st.sampled_from(["x-min", "x-max", "t-min", "t-max"]), unique=True))]
    t_values = st.lists(mid_magnitudes, min_size=1, max_size=3).map(lambda ts: ",".join(map(repr, ts)))
    return {
        "solve": ["solve", market, *["--json"] * draw(st.booleans())],
        "consistency": ["consistency", market],
        "eos": ["eos", market],
        "surface": ["surface", name, *fmt, *bounds],
        "isocurves": ["isocurves", name, *fmt, f"--t-values={draw(t_values if mid_range else value_lists)}",
                      "--points", str(draw(st.integers(2, 4))), *(bound for bound in bounds if "-x-" in bound)],
        "collapse": ["collapse", market, f"--prices={draw(value_lists)}"],
        "zeroth": ["zeroth"],
    }[command]


def exact_ys_are_normal(path, command: list[str]) -> bool:
    """Whether every point of a ``surface`` or ``isocurves`` command lies inside the domain of a surface the config
    defines, with every exact y zero where x is, or of a magnitude in ``[2 * DBL_MIN, DBL_MAX / 2]``."""
    try:
        cfg = load_config(path)
    except ConfigError:
        return False
    args = cli.build_parser().parse_args([command[0], "--config", str(path), *command[1:]])
    eos = cfg.eos_entities.get(args.name)
    if eos is None:
        try:
            eos = derive_unitary_eos(cfg.markets[args.name])
        except (DomainError, InvariantError):
            return False

    def value(key):
        return getattr(cfg.grid, key) if getattr(args, key) is None else getattr(args, key)

    try:
        if command[0] == "surface":
            grid = GridSpec(*(value(key) for key in ("x_min", "x_max", "nx", "t_min", "t_max", "nt")))
            xs, ts = grid.x_values(), grid.t_values()
        else:
            xs = GridSpec(value("x_min"), value("x_max"), args.points, 1.0, 2.0, 2).x_values()
            ts = [float(t) for t in args.t_values.split(",")]
    except InvariantError:
        return False
    low, high = 2 * Fraction(sys.float_info.min), Fraction(sys.float_info.max) / 2
    for t in ts:
        for x in xs:
            if not (math.isfinite(x) and t > 0 and (x > 0 or not isinstance(eos, IdealGasEoS))):
                return False
            y = abs(exact_y(eos, x, t))
            if not (low <= y <= high or y == x == 0):
                return False
    return True


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def contract_config(**unitary) -> dict:
    """The test config with a linear market and the unitary market ``uni`` of coefficients ``unitary``."""
    return dict(CONFIG, markets=[CONFIG["markets"][0], dict(unitary, name="uni", family="unitary")])


# K = 2e-462 rounds to zero: eos must exit 3 with nothing printed, not divide by K
@example(config=contract_config(k_s=5e-324, k_d=1e300, households=10**300), command=["eos", "uni"])
# Pr* = sqrt(1e308 / 1e-308) overflows: zeroth must exit 3 without its header
@example(config=contract_config(k_s=1e308, k_d=1e-308), command=["zeroth"])
# Pr* = DBL_MAX and Pr*/3 are finite, but the class price, tick * 3, rounds to inf: zeroth must exit 3
@example(config=dict(CONFIG, quantum=3.0, markets=[
    {"name": "lin", "family": "linear", "k_s": -0.5, "q_d0": 1.7976931348623157e308, "k_d": 0.5}]),
    command=["zeroth"])
# Pr* = 2 and Q* = DBL_MAX are finite, but the residual overflows: solve must exit 3, not print inf
@example(config=contract_config(k_s=1.7976931348623157e308, k_d=8.98846567431158e307, households=2),
         command=["solve", "uni"])
# Pr* = 6e307 is finite, but Q* and the residual overflow: solve --json must exit 3, not print Infinity
@example(config=dict(CONFIG, markets=[
    {"name": "lin", "family": "linear", "k_s": -2.2250738585072014e-308, "q_d0": 1.7976931348623157e308, "k_d": 3.0}]),
    command=["solve", "lin", "--json"])
# x/t = 1e-310 is subnormal, while M = 1e300 * x/t = 1e-10 is normal: the export must succeed
@example(config=dict(CONFIG, eos=[CONFIG["eos"][0], {"name": "magnet", "kind": "paramagnet", "D": 1e300}],
                     grid={"x_min": 1e-10, "x_max": 2e-10, "nx": 2, "t_min": 1e300, "t_max": 2e300, "nt": 2}),
         command=["surface", "magnet"])
@settings(max_examples=100, deadline=None)
@given(config=contract_configs(), command=contract_commands())
def test_every_command_exits_with_a_documented_code_and_prints_nothing_non_finite(contract_dir, config, command):
    path = contract_dir / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command[0], "--config", str(path), *command[1:]])
    assert code in (0, 2, 3, 4), err.getvalue()
    if command[0] in ("surface", "isocurves") and exact_ys_are_normal(path, command):
        assert code == 0, err.getvalue()
    if code:
        assert out.getvalue() == ""
    else:
        assert NON_FINITE_TOKEN.search(out.getvalue()) is None, out.getvalue()
