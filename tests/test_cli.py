"""End-to-end command tests, run in-process through cli.main."""

import json

import jsonschema
import pytest

from market_eos import cli, load_schema

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


def test_consistency_rejects_unitary(config_path, capsys):
    code, _, err = run(capsys, "consistency", "--config", config_path, "grain")
    assert code == 3
    assert "derive_unitary_eos" in err


def test_eos_command(config_path, capsys):
    code, out, _ = run(capsys, "eos", "--config", config_path, "credit")
    assert code == 0
    assert "K=1 amplification=1" in out
    doc = json.loads(out[: out.rindex("}") + 1])
    assert doc["K"] == 1.0
    assert doc["N"] == 4


def test_eos_rejects_linear(config_path, capsys):
    code, _, err = run(capsys, "eos", "--config", config_path, "staple")
    assert code == 3
    assert "check_linear_consistency" in err


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


def test_surface_json_format_validates(config_path, capsys):
    code, out, _ = run(capsys, "surface", "--config", config_path, "gas", "--format", "json")
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("surface"))


def test_surface_unknown_name_exits_2(config_path, capsys):
    code, _, err = run(capsys, "surface", "--config", config_path, "plasma")
    assert code == 2
    assert "unknown eos or market" in err


def test_surface_linear_market_exits_3(config_path, capsys):
    code, _, _ = run(capsys, "surface", "--config", config_path, "staple")
    assert code == 3


def test_surface_missing_out_dir_exits_4(config_path, capsys, tmp_path):
    code, _, err = run(
        capsys, "surface", "--config", config_path, "gas",
        "--out", str(tmp_path / "no_such_dir" / "s.csv"),
    )
    assert code == 4


def test_surface_writes_file(config_path, capsys, tmp_path):
    out_file = tmp_path / "surface.csv"
    code, out, _ = run(capsys, "surface", "--config", config_path, "credit", "--out", str(out_file))
    assert code == 0
    assert f"wrote {out_file}" in out
    assert out_file.read_text(encoding="utf-8").startswith("x,t,y\n")


def test_out_dir_env_var(config_path, capsys, tmp_path, monkeypatch):
    target = tmp_path / "renders"
    target.mkdir()
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
    code, _, _ = run(capsys, "surface", "--config", config_path, "credit", "--out", "s.csv")
    assert code == 0
    assert (target / "s.csv").exists()


def test_out_dir_flag_beats_env(config_path, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "env_dir_missing"))
    flag_dir = tmp_path / "flag_dir"
    flag_dir.mkdir()
    code, _, _ = run(
        capsys, "surface", "--config", config_path, "credit",
        "--out", "s.csv", "--out-dir", str(flag_dir),
    )
    assert code == 0
    assert (flag_dir / "s.csv").exists()


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


def test_collapse_rejects_linear_market(config_path, capsys):
    code, _, _ = run(capsys, "collapse", "--config", config_path, "staple", "--prices", "1,2")
    assert code == 3


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


def test_zeroth_infinite_clearing_price_exits_3(tmp_path, capsys):
    # finite coefficients whose clearing price sqrt(1e308 / 1e-308) overflows
    huge = {"name": "huge", "family": "unitary", "k_s": 1e308, "k_d": 1e-308}
    code, out, err = zeroth_on(tmp_path, capsys, markets=[CONFIG["markets"][0], huge])
    assert code == 3
    assert out == "market quantized_price\n"
    assert "market 'huge'" in err


def test_zeroth_infinite_quantum_exits_2(tmp_path, capsys):
    # json.dumps writes the non-standard literal Infinity
    code, out, err = zeroth_on(tmp_path, capsys, quantum=float("inf"))
    assert code == 2
    assert out == ""
    assert "Infinity" in err


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
