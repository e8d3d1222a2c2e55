"""market-eos benchmark: four workloads, checked outputs, per-layer tracing.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four in turn from this one process. Other modes:

    python3 perfbench/run.py --selftest            # metric names/units, fault counting
    python3 perfbench/run.py --update-refs         # regenerate refs.json, print what changed
    python3 perfbench/run.py --compare BASE.jsonl CHANGE.jsonl

``--record FILE`` appends the full run record (every metric, tail percentile
and sample count, inputs, environment) as one JSON line; ``--compare`` reads
two such files, pairing runs of a workload in file order.

``setup_s`` is the median of fresh interpreters timed until ``import
market_eos`` and ``load_config`` return, taken between rounds across the
run. ``ops_per_s`` is ops per second of summed op latency, so the
harness's own checks between ops do not dilute it.

Workloads (all closed-loop, one client):

* ``cli-mix``: one ``python -m market_eos.cli`` subprocess per op on
  ``configs/demo.json``, every command plus exit-2/exit-3 error paths.
  Compute is negligible: interpreter, imports and schema validation dominate.
* ``surface-export``: in-process ``cli.main(["surface", ...])`` on 500 x 500
  grids with ``--out``, over the gas, magnet and credit surfaces; CSV and
  JSON. Sampling, rendering and writing take nearly all op time.
* ``zeroth-registry``: in-process ``cli.main(["zeroth", ...])`` on generated
  registries of 1000 markets with shared clearing prices. Config
  validation at scale, 2n analytic solves and the n^3 law check.
* ``solve-sweep``: in-process analytic solve, bisection, cross-check and EoS
  step on generated MarketSpecs. Solver hot loops, no I/O or config.

Metrics with ``--trace 0`` are the end-to-end ones, measured untraced; with
``--trace 1`` the per-layer ones, from a run that replays the workload
in-process half untraced and half with spans around public calls.

An op fails on a wrong exit code, an output mismatch, a traceback or an
unexpected exception. Two inputs fail at the seed commit on purpose and stay
in the data: a non-finite config value in ``cli-mix`` and clearing prices
outside the bisection window in ``solve-sweep``. Their failures count in
``failed`` and ``failed_ops_ratio``; ``correct`` is false only when some
other op fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import stats  # noqa: E402
from ops import BenchError, CliOps, SetupProbes, spawn, timed_pass  # noqa: E402

ROOT = HERE.parent
REFS = HERE / "refs.json"
WORKLOADS = ("cli-mix", "surface-export", "zeroth-registry", "solve-sweep")

END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}
COMMANDS = ("solve", "consistency", "eos", "collapse", "isocurves", "surface", "zeroth")
SELF_LAYERS = ("cli", "config", "equilibrium", "eos", "surface", "zeroth_law", "bench")
PER_LAYER = {
    "process.interpreter_ms": "ms", "process.import_ms": "ms",
    "import.market_eos_ms": "ms", "import.jsonschema_ms": "ms", "import.numpy_ms": "ms",
    "cli.process_overhead_ms": "ms",
    **{f"cli.main_ms.{c}": "ms" for c in COMMANDS},
    "config.load_config_ms": "ms", "config.parse_config_ms": "ms",
    "curves.quantity_ns": "ns",
    "equilibrium.analytic_us": "us", "equilibrium.numeric_us": "us", "equilibrium.auto_bracket_us": "us",
    "equilibrium.excess_demand_calls_median": "count", "equilibrium.excess_demand_calls_max": "count",
    "equilibrium.solver_gap_max_ulp": "ulp",
    "eos.derive_unitary_eos_us": "us", "eos.check_linear_consistency_us": "us", "eos.y_of_ns": "ns",
    "reference_eos.ideal_gas.y_of_ns": "ns", "reference_eos.paramagnet.y_of_ns": "ns",
    "surface.sample_surface_s": "s", "surface.render_csv_s": "s", "surface.render_json_s": "s",
    "surface.write_s": "s", "surface.points": "count", "surface.bytes": "bytes",
    "zeroth_law.rank_markets_s": "s", "zeroth_law.verify_equivalence_laws_s": "s",
    "zeroth_law.analytic_solves": "count", "zeroth_law.classes": "count", "zeroth_law.max_class_size": "count",
    **{f"{layer}.self_ms": "ms" for layer in SELF_LAYERS},
    "trace.traced_mean_ms": "ms", "trace.untraced_mean_ms": "ms", "trace.overhead_ms": "ms",
    "trace.spans": "count", "trace.accounted_share": "ratio",
    "ops.failed_ratio": "ratio",
}

IMPORT_PROBES = 3


def require_sources() -> None:
    for path in (ROOT / "src" / "market_eos" / "__init__.py", ROOT / gen.DEMO_CONFIG, REFS):
        if not path.is_file():
            raise BenchError(f"missing {path.relative_to(ROOT)}: run from a full checkout of the repository")


def load_refs() -> dict:
    return json.loads(REFS.read_text("utf-8"))


# --------------------------------------------------------------------------- inputs


def prepare(workload: str, seed: int, work: Path, refs: dict | None = None) -> dict:
    """Write the workload's generated configs; returns paths, set-up config and input record.

    A generated registry whose bytes differ from the one its reference was
    made from stops the run: the reference would not apply to it.
    """
    paths = {"demo": str(ROOT / gen.DEMO_CONFIG)}
    inputs: dict = {"seed": seed}
    if workload == "cli-mix":
        (work / "bad.json").write_text(json.dumps(gen.BAD_SCHEMA_CONFIG), "utf-8")
        (work / "nonfinite.json").write_text(gen.NONFINITE_CONFIG_TEXT, "utf-8")
        paths.update(bad=str(work / "bad.json"), nonfinite=str(work / "nonfinite.json"))
        catalogue = gen.cli_catalogue()
        inputs.update(ops_per_round=len(catalogue), config=gen.DEMO_CONFIG,
                      known_defect_ops=[op["key"] for op in catalogue if isinstance(op["expect"], dict)],
                      error_path_ops=[op["key"] for op in catalogue if op["key"].startswith("err")])
        return {"paths": paths, "setup_config": paths["demo"], "layer_config": "demo", "inputs": inputs}
    if workload == "surface-export":
        kinds = [f"{name}-{fmt}" for name, fmt in gen.SURFACE_KINDS]
        inputs.update(kinds=kinds, ops_per_round=len(kinds), grid=[gen.SURFACE_SIDE, gen.SURFACE_SIDE],
                      json_share=sum(fmt == "json" for _, fmt in gen.SURFACE_KINDS) / len(kinds))
        return {"paths": paths, "setup_config": paths["demo"], "layer_config": "demo", "inputs": inputs}
    if workload == "zeroth-registry":
        histogram: dict[int, int] = {}
        registries = []
        for op in gen.zeroth_catalogue():
            doc, sizes = gen.registry_document(op["n"], op["variant"])
            text = json.dumps(doc)
            expected = (refs or {}).get(op["key"], {}).get("config_sha256")
            if expected and gen.sha256(text.encode()) != expected:
                raise BenchError(f"generated registry {op['key']} differs from its reference's config")
            path = work / f"registry-{op['key']}.json"
            path.write_text(text, "utf-8")
            paths[f"registry:{op['key']}"] = str(path)
            registries.append({"key": op["key"], "n": op["n"], "classes": len(sizes), "max_class": sizes[0]})
            for size in sizes:
                histogram[size] = histogram.get(size, 0) + 1
        inputs.update(n=gen.ZEROTH_N, variants=gen.ZEROTH_VARIANTS, registries=registries,
                      class_size_histogram=dict(sorted(histogram.items())))
        first = f"registry:{registries[0]['key']}"
        return {"paths": paths, "setup_config": paths[first], "layer_config": first, "inputs": inputs}
    markets = gen.sweep_markets(seed)
    path = work / "sweep.json"
    path.write_text(json.dumps(gen.sweep_config(markets)), "utf-8")
    out = sum(m["out_of_window"] for m in markets)
    inputs.update(markets=len(markets), out_of_window=out, out_of_window_share=out / len(markets),
                  linear=sum(m["family"] == "linear" for m in markets),
                  aggregate=sum(m["interpretation"] == "aggregate" for m in markets),
                  households=[min(m["households"] for m in markets), max(m["households"] for m in markets)])
    return {"paths": {"sweep": str(path)}, "setup_config": str(path), "inputs": inputs}


# --------------------------------------------------------------------------- import layers


def import_layers(work: Path) -> dict:
    """Interpreter start and cumulative import times from ``-X importtime``."""
    wanted = {"market_eos": [], "jsonschema": [], "numpy": []}
    empty, imported = [], []
    for _ in range(IMPORT_PROBES):
        for code, samples in (("pass", empty), ("import market_eos", imported)):
            latency, _, _ = spawn([sys.executable, "-c", code], subprocess.DEVNULL, subprocess.DEVNULL, work)
            samples.append(latency / 1e6)
        err = work / "importtime.err"
        with open(err, "wb") as fh:
            spawn([sys.executable, "-X", "importtime", "-c", "import market_eos"], subprocess.DEVNULL, fh, work)
        seen = set()
        for line in err.read_text().splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in wanted and parts[2] not in seen:
                seen.add(parts[2])
                wanted[parts[2]].append(int(parts[1]) / 1000.0)
    out = {f"import.{name}_ms": statistics.median(v) for name, v in wanted.items() if v}
    out["process.interpreter_ms"] = statistics.median(empty)
    out["process.import_ms"] = statistics.median(imported)
    return out


# --------------------------------------------------------------------------- passes


def run_worker(job: dict, work: Path) -> dict:
    job_path, result_path = work / "job.json", work / "result.json"
    job_path.write_text(json.dumps(job), "utf-8")
    if result_path.exists():
        result_path.unlink()
    log = work / "worker.err"
    with open(log, "wb") as err:
        _, code, peak = spawn([sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                              subprocess.DEVNULL, err, work)
    if code != 0 or not result_path.exists():
        raise BenchError(f"worker exited {code}:\n{log.read_text()[-4000:]}")
    result = json.loads(result_path.read_text("utf-8"))
    result["peak_rss_mb"] = peak
    return result


# --------------------------------------------------------------------------- one run


def run_once(workload: str, seed: int, seconds: float, trace: bool, fault: str | None = None,
             spans_out: str | None = None) -> dict:
    refs = load_refs().get(workload, {})
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        prep = prepare(workload, seed, work, refs)
        job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "root": str(ROOT),
               "work": str(work), "paths": prep["paths"], "layer_config": prep.get("layer_config"),
               "setup_config": prep["setup_config"], "refs": refs, "fault": fault, "spans_out": spans_out}
        layers, gap = {}, None
        if workload == "cli-mix":
            # the e2e pass runs a child per op; with --trace 1 an in-process
            # replay (half untraced, half traced) shares the budget with it
            budget = seconds / 2 if trace else seconds
            ops = CliOps(prep["paths"], refs, work, fault=fault)
            measured = timed_pass(gen.cli_rounds(seed), ops, budget, ops.known_defect,
                                  probes=SetupProbes(prep["setup_config"], work))
            peak = measured.pop("peak_rss_mb")
            passes = [measured]
            if trace:
                replay = run_worker({**job, "seconds": budget, "setup_config": None, "fault": None}, work)
                passes += [replay["untraced"], replay["traced"]]
                layers = replay["layers"]
                layers["cli.process_overhead_ms"] = (measured["latency"]["p50_ms"]
                                                     - replay["untraced"]["latency"]["p50_ms"])
        else:
            result = run_worker(job, work)
            gap = result.get("solver_gap_max_ulp")
            measured, peak = result["untraced"], result["peak_rss_mb"]
            passes = [measured] + ([result["traced"]] if trace else [])
            layers = result.get("layers", {})
        if trace:
            layers.update(import_layers(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    known_failed = sum(p["known_failed"] for p in passes)
    lat = measured["latency"]
    e2e = {
        "setup_s": statistics.median(measured["setup_s"]),
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "ops_per_s": measured["attempted"] / measured["op_s"],
        "peak_rss_mb": peak,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == known_failed, "attempted": attempted, "failed": failed,
        "known_defect_failures": known_failed, "failed_ops_ratio": failed / attempted,
        "e2e": e2e, "latency": lat, "setup_samples_s": measured["setup_s"], "rounds_s": measured["rounds_s"],
        # pass wall time outside timed ops: output checks and set-up probes
        "out_of_op_share": 1.0 - measured["op_s"] / measured["wall_s"],
        "inputs": prep["inputs"],
        "failures": [f for p in passes for f in p["failures"]][:20],
    }
    if trace:
        layers["ops.failed_ratio"] = failed / attempted
        if workload == "cli-mix":
            # the in-process share of a CLI op plus a child that only starts,
            # imports market_eos and exits, against the subprocess op time
            layers["trace.accounted_share"] = (layers["trace.accounted_share"] * layers["trace.untraced_mean_ms"]
                                               + layers["process.import_ms"]) / lat["mean_ms"]
        record["layers"] = {name: layers.get(name, 0.0) for name in PER_LAYER}
    if gap is not None:
        record["solver_gap_max_ulp"] = gap
    record["env"] = environment()
    return record


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"commit": commit(), "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()), "python": platform.python_version(),
            "numpy": version("numpy"), "jsonschema": version("jsonschema"), "platform": platform.platform()}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def result_line(record: dict) -> dict:
    if record["trace"]:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in record["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in record["e2e"].items()}
    return {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def print_record(record: dict) -> None:
    lat = record["latency"]
    print(f"== {record['workload']} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}")
    for name, value in record["e2e"].items():
        print(f"{name} {value:.6g} {END_TO_END[name]}")
    print(f"latency_tail_ms is p{lat['tail_percentile']:.2f} of {lat['samples']} samples")
    print(f"failed_ops_ratio {record['failed_ops_ratio']:.6g} ratio "
          f"({record['failed']} of {record['attempted']}, {record['known_defect_failures']} known-defect)")
    if "solver_gap_max_ulp" in record:
        print(f"solver_gap_max_ulp {record['solver_gap_max_ulp']:.6g} ulp")
    for name, value in record.get("layers", {}).items():
        print(f"{name} {value:.6g} {PER_LAYER[name]}")
    for failure in record["failures"][:5]:
        print(f"failed op {failure['op']}: {failure['reason']}"
              + (f" [known defect: {failure['known_defect']}]" if failure["known_defect"] else ""))
    print("record: " + json.dumps(record))


# --------------------------------------------------------------------------- other modes


def observe_all(work: Path) -> dict:
    """Outcome of every catalogue op at the current code, as references."""
    observed: dict = {}
    prep = prepare("cli-mix", 0, work)
    ops = CliOps(prep["paths"], {}, work, observing=True)
    # known-defect ops keep their documented outcome and are not observed
    observed["cli-mix"] = {op["key"]: ops(op)[2]["observed"] for op in gen.cli_catalogue()
                           if not isinstance(op["expect"], dict)}
    for workload, catalogue in (("surface-export", gen.surface_catalogue()),
                                ("zeroth-registry", gen.zeroth_catalogue())):
        prep = prepare(workload, 0, work)
        job = {"workload": workload, "seed": 0, "seconds": 0, "trace": False, "root": str(ROOT),
               "work": str(work), "paths": prep["paths"], "setup_config": None, "refs": {}, "observe": True}
        result = run_worker(job, work)
        observed[workload] = {op["key"]: ref for op, ref in zip(catalogue, result["observed"])}
        if workload == "zeroth-registry":
            for op in catalogue:
                config = Path(prep["paths"][f"registry:{op['key']}"])
                observed[workload][op["key"]]["config_sha256"] = gen.sha256(config.read_bytes())
    return observed


def update_refs() -> int:
    old = json.loads(REFS.read_text("utf-8")) if REFS.is_file() else {}
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="refs-", dir=work_root))
    try:
        new = observe_all(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    changes = 0
    for workload in sorted(set(old) | set(new)):
        before, after = old.get(workload, {}), new.get(workload, {})
        for key in sorted(set(before) | set(after)):
            if before.get(key) != after.get(key):
                changes += 1
                print(f"{workload} {key}:\n  was {json.dumps(before.get(key))}\n  now {json.dumps(after.get(key))}")
    REFS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"{changes} reference(s) changed; wrote {REFS.relative_to(ROOT)}")
    return 0


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def compare(base_path: str, change_path: str) -> int:
    """One row per workload and e2e metric, plus one for failed ops.

    A gain does not count when the change fails more ops than the base or
    any of its runs is incorrect: such an "improved" reads "not met".
    """
    spec = benchmark_spec()

    def load(path):
        runs: dict[str, list[dict]] = {}
        for line in Path(path).read_text("utf-8").splitlines():
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
        return runs

    def side(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]".ljust(34)

    def failed_ratio(records):
        return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)

    base, change = load(base_path), load(change_path)
    print(f"{'workload':16} {'metric':16} {'base median [q1, q3]':34} {'change median [q1, q3]':34} "
          f"{'wins':>6} verdict")
    for workload in [w for w in WORKLOADS if w in base and w in change]:
        b_failed, c_failed = failed_ratio(base[workload]), failed_ratio(change[workload])
        incorrect = sum(not r["correct"] for r in change[workload])
        gain_void = c_failed > b_failed or incorrect
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["e2e"][name] for r in base[workload]]
            c = [r["e2e"][name] for r in change[workload]]
            verdict, tally = stats.verdict(b, c, metric["better"], metric["bound"])
            if verdict == "improved" and gain_void:
                verdict = "not met"
            print(f"{workload:16} {name:16} {side(stats.quartiles(b))} {side(stats.quartiles(c))} "
                  f"{tally:>6} {verdict}")
        failures = "worse" if c_failed > b_failed else "improved" if c_failed < b_failed else "unchanged"
        print(f"{workload:16} {'failed_ops_ratio':16} {b_failed:<34.5g} {c_failed:<34.5g} {'':>6} {failures}"
              + (f" ({incorrect} incorrect change runs)" if incorrect else ""))
    return 0


def selftest() -> int:
    spec = benchmark_spec()
    problems = []
    e2e_spec = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_spec = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e_spec != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {e2e_spec} != {END_TO_END}")
    if layer_spec != PER_LAYER:
        problems.append(f"BENCHMARK.json per_layer differs from PER_LAYER: "
                        f"{sorted(set(layer_spec) ^ set(PER_LAYER))}")
    for workload in WORKLOADS:
        for trace in (False, True):
            record = run_once(workload, seed=1, seconds=0.01, trace=trace)
            line = result_line(record)
            wanted = PER_LAYER if trace else END_TO_END
            if {k: v["unit"] for k, v in line["metrics"].items()} != wanted:
                problems.append(f"{workload} trace={int(trace)}: metric names or units differ")
            extras = ["failed_ops_ratio", "latency"] + (["solver_gap_max_ulp"] if workload == "solve-sweep" else [])
            if any(key not in record for key in extras) or "tail_percentile" not in record["latency"]:
                problems.append(f"{workload} trace={int(trace)}: record lacks one of {extras}")
            if not record["correct"] or record["failed"] != record["known_defect_failures"]:
                problems.append(f"{workload} trace={int(trace)}: unexpected failures {record['failures'][:3]}")
            print(f"{workload} trace={int(trace)}: {len(line['metrics'])} metrics, "
                  f"{record['attempted']} ops, {record['failed']} failed")
    for workload, fault in (("surface-export", "corrupt-export"), ("cli-mix", "wrong-exit"),
                            ("zeroth-registry", "wrong-exit")):
        clean = run_once(workload, seed=1, seconds=0.01, trace=False)
        faulty = run_once(workload, seed=1, seconds=0.01, trace=False, fault=fault)
        extra = faulty["failed"] - faulty["known_defect_failures"]
        ok = extra == 1 and not faulty["correct"] and faulty["failed_ops_ratio"] > clean["failed_ops_ratio"]
        print(f"{workload} with {fault}: failed_ops_ratio {clean['failed_ops_ratio']:.4g} -> "
              f"{faulty['failed_ops_ratio']:.4g}, correct={faulty['correct']}")
        if not ok:
            problems.append(f"{workload}: {fault} counted as {extra} unexpected failures, wanted 1")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full run record as a JSON line to this file")
    parser.add_argument("--spans", help="with --trace 1, write the traced pass's spans here (JSON lines)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"), help="compare two record files")
    parser.add_argument("--update-refs", action="store_true", help="regenerate refs.json and print changes")
    parser.add_argument("--selftest", action="store_true", help="check metric names, units and fault counting")
    args = parser.parse_args(argv)
    os.environ["PYTHONPATH"] = str(ROOT / "src")  # every child imports the checkout's package
    try:
        if args.compare:
            return compare(*args.compare)
        require_sources()
        if args.update_refs:
            return update_refs()
        if args.selftest:
            return selftest()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        spans_out = str(Path(args.spans).resolve()) if args.spans and args.trace else None
        records = []
        for workload in workloads:
            record = run_once(workload, args.seed, args.seconds, bool(args.trace), spans_out=spans_out)
            print_record(record)
            records.append(record)
            if args.record:
                with open(args.record, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        print(json.dumps(result_line(records[0])))
    else:
        lines = [result_line(r) for r in records]
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{r['workload']}.{k}": v for r, line in zip(records, lines)
                        for k, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
