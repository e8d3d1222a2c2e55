"""Runs one workload in-process and writes latencies, checks and layer timings.

Usage: python3 perfbench/worker.py JOB.json RESULT.json, with PYTHONPATH
naming the checkout's ``src``. ``run.py`` starts it as a fresh interpreter
per run, so its peak RSS belongs to the workload alone.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter_ns

import checks
import gen
from ops import CliOps, SetupProbes, timed_pass, warm_up
from tracing import HARNESS, Tracer, median_or_zero


def _import_package(root: Path):
    import market_eos

    src = (root / "src").resolve()
    if Path(market_eos.__file__).resolve().parent.parent != src:
        raise SystemExit(f"market_eos imported from {market_eos.__file__}, not from {src}")
    return market_eos


class SweepOps:
    """One market: analytic solve, bisection, cross-check, then the EoS step."""

    def __init__(self, pkg, markets: list[dict]):
        from market_eos import eos, equilibrium
        from market_eos.curves import LinearDemand, LinearSupply, UnitaryDemand

        self.equilibrium, self.eos = equilibrium, eos
        self.domain_error = pkg.DomainError
        self.errors = (pkg.DomainError, pkg.InvariantError, pkg.BracketingError, TypeError, ArithmeticError)
        self.markets = markets
        self.specs = []
        for m in markets:
            demand = (LinearDemand(k_s=m["k_s"], q_d0=m["q_d0"]) if m["family"] == "linear"
                      else UnitaryDemand(k_s=m["k_s"]))
            self.specs.append(equilibrium.MarketSpec(demand, LinearSupply(k_d=m["k_d"]),
                                                     households=m["households"],
                                                     interpretation=m["interpretation"]))
        self.gap_max_ulp = 0.0

    def __call__(self, index: int):
        market, spec = self.markets[index], self.specs[index]
        equilibrium, eos = self.equilibrium, self.eos
        step = "analytic"
        start = perf_counter_ns()
        try:
            analytic = equilibrium.clearing_price_analytic(spec)
            step = "numeric"
            numeric = equilibrium.clearing_price_numeric(spec)
            step = "eos"
            if market["family"] == "linear":
                result = eos.check_linear_consistency(spec)
            elif market["interpretation"] == "per-household":
                result = eos.derive_unitary_eos(spec)
            else:
                try:
                    result = eos.derive_unitary_eos(spec)
                except self.domain_error as exc:  # documented: no surface for aggregate demand
                    result = exc
        except self.errors as exc:
            return perf_counter_ns() - start, f"{step}: {type(exc).__name__}: {exc}", None
        latency = perf_counter_ns() - start
        return latency, self._check(market, analytic, numeric, result), None

    def _check(self, market: dict, analytic, numeric, result) -> str | None:
        price = analytic.clearing_price
        if not (math.isfinite(price) and price > 0):
            return f"analytic price {price!r}"
        if not analytic.residual <= 1e-9 * max(1.0, analytic.clearing_quantity):
            return f"analytic residual {analytic.residual!r}"
        gap = abs(numeric.clearing_price - price)
        self.gap_max_ulp = max(self.gap_max_ulp, gap / math.ulp(price))
        if not checks.within_price_tol(gap, price):
            return f"bisection price {numeric.clearing_price!r} vs analytic {price!r}"
        if market["family"] == "linear":
            if result.consistent or not result.eps_d_squared < 0:
                return f"linear market reported consistent: {result.to_dict()}"
        elif market["interpretation"] == "per-household":
            if not abs(result.K * market["households"] - price) <= 1e-12 * price:
                return f"K*N = {result.K * market['households']!r} but Pr* = {price!r}"
        elif not isinstance(result, self.domain_error):
            return "derive_unitary_eos accepted an aggregate-demand market"
        return None


# --------------------------------------------------------------------------- per-layer timings


def install_spans(tracer: Tracer) -> None:
    """Spans and counters at the module attributes each caller looks up."""
    from market_eos import cli, config, eos, equilibrium, zeroth_law

    for attr, layer in (("load_config", "config"), ("clearing_price_analytic", "equilibrium"),
                        ("clearing_price_numeric", "equilibrium"), ("check_linear_consistency", "eos"),
                        ("derive_unitary_eos", "eos"), ("sample_surface", "surface"),
                        ("render_csv", "surface"), ("render_json", "surface"), ("isocurves", "surface"),
                        ("family_collapse", "surface"), ("isoprice_collapse_check", "surface"),
                        ("rank_markets", "zeroth_law"), ("verify_equivalence_laws", "zeroth_law")):
        tracer.span(cli, attr, f"{layer}.{attr}")
    # _emit writes the export: the one private function wrapped, as the write boundary.
    tracer.span(cli, "_emit", "surface.write")
    tracer.span(cli, "main", "cli.main")
    tracer.span(config, "parse_config", "config.parse_config")
    for module in (eos, zeroth_law, equilibrium):
        tracer.span(module, "clearing_price_analytic", "equilibrium.clearing_price_analytic")
    tracer.count(zeroth_law, "clearing_price_analytic", "zeroth_law.analytic_solves")
    tracer.span(eos, "check_linear_consistency", "eos.check_linear_consistency")
    tracer.span(eos, "derive_unitary_eos", "eos.derive_unitary_eos")
    tracer.span(equilibrium, "clearing_price_numeric", "equilibrium.clearing_price_numeric")
    tracer.span(equilibrium, "auto_bracket", "equilibrium.auto_bracket")
    tracer.count(equilibrium, "excess_demand", "equilibrium.excess_demand_calls")


def per_call_ns(calls: list, repeat: int = 5) -> float:
    """Median over ``repeat`` loops of the mean time of one ``fn(*args)`` call."""
    means = []
    for _ in range(repeat):
        start = perf_counter_ns()
        for fn, args in calls:
            fn(*args)
        means.append((perf_counter_ns() - start) / len(calls))
    return median_or_zero(means)


EOS_Y_OF = {"UnitaryEoS": "eos.y_of_ns", "IdealGasEoS": "reference_eos.ideal_gas.y_of_ns",
            "CurieParamagnetEoS": "reference_eos.paramagnet.y_of_ns"}


def micro_layers(pkg, markets: list, eos_objects: list) -> dict:
    """Per-call costs of functions too cheap to time one span at a time."""
    out = {}
    calls = []
    for spec in markets[:256]:
        price = pkg.clearing_price_analytic(spec).clearing_price
        if math.isfinite(price) and price > 0:
            calls += [(spec.demand.quantity, (price,)), (spec.supply.quantity, (price,))]
    if calls:
        out["curves.quantity_ns"] = per_call_ns(calls * max(1, 4096 // len(calls)))
    grid = [(1.0 + 0.37 * i, 1.0 + 0.11 * j) for i in range(32) for j in range(32)]
    for eos in eos_objects:
        out[EOS_Y_OF[type(eos).__name__]] = per_call_ns([(eos.y_of, point) for point in grid])
    return out


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    n_ops = max(1, tracer.ops())
    out = {f"{layer}.self_ms": self_ns * 1e-6 / n_ops for layer, self_ns in tracer.self_ns_by_layer().items()}
    for metric, name, scale in (
        ("config.load_config_ms", "config.load_config", 1e-6),
        ("config.parse_config_ms", "config.parse_config", 1e-6),
        ("equilibrium.analytic_us", "equilibrium.clearing_price_analytic", 1e-3),
        ("equilibrium.numeric_us", "equilibrium.clearing_price_numeric", 1e-3),
        ("equilibrium.auto_bracket_us", "equilibrium.auto_bracket", 1e-3),
        ("eos.derive_unitary_eos_us", "eos.derive_unitary_eos", 1e-3),
        ("eos.check_linear_consistency_us", "eos.check_linear_consistency", 1e-3),
        ("surface.sample_surface_s", "surface.sample_surface", 1e-9),
        ("surface.render_csv_s", "surface.render_csv", 1e-9),
        ("surface.render_json_s", "surface.render_json", 1e-9),
        ("surface.write_s", "surface.write", 1e-9),
        ("zeroth_law.rank_markets_s", "zeroth_law.rank_markets", 1e-9),
        ("zeroth_law.verify_equivalence_laws_s", "zeroth_law.verify_equivalence_laws", 1e-9),
    ):
        out[metric] = median_or_zero(tracer.durations_ns(name)) * scale
    per_solve = tracer.counts_per_span("equilibrium.excess_demand_calls", "equilibrium.clearing_price_numeric")
    out["equilibrium.excess_demand_calls_median"] = median_or_zero(per_solve)
    out["equilibrium.excess_demand_calls_max"] = float(max(per_solve, default=0))
    out["zeroth_law.analytic_solves"] = median_or_zero(
        c for c in tracer.op_count_values("zeroth_law.analytic_solves") if c)
    details = traced["details"]
    for key in ("points", "bytes", "classes"):
        out[f"{'zeroth_law' if key == 'classes' else 'surface'}.{key}"] = median_or_zero(
            d[key] for d in details if d.get(key))
    out["zeroth_law.max_class_size"] = float(max((d.get("max_class_size", 0) for d in details), default=0))
    traced_ms, untraced_ms = traced["latency"]["mean_ms"], untraced["latency"]["mean_ms"]
    library_ms = sum(v for k, v in out.items() if k.endswith(".self_ms") and not k.startswith(HARNESS))
    out.update({
        "trace.traced_mean_ms": traced_ms,
        "trace.untraced_mean_ms": untraced_ms,
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.spans": float(len(tracer.spans)),
        # share of the traced op time that the library layers' spans cover
        "trace.accounted_share": library_ms / traced_ms if traced_ms else 0.0,
    })
    return out


# --------------------------------------------------------------------------- entry point


def build(job: dict, pkg):
    """(op runner, rounds factory, known-defect lookup, markets, EoS objects) of a workload."""
    from market_eos import cli

    workload, seed = job["workload"], job["seed"]
    if workload == "solve-sweep":
        ops = SweepOps(pkg, gen.sweep_markets(seed))

        def rounds():
            while True:
                yield range(len(ops.specs))

        def known(i):
            return gen.KNOWN_DEFECT_WINDOW if ops.markets[i]["out_of_window"] else None

        return ops, rounds, known, ops.specs, []

    ops = CliOps(job["paths"], job["refs"], Path(job["work"]), cli=cli, observing=job.get("observe", False))
    catalogue = {"cli-mix": gen.cli_catalogue, "surface-export": gen.surface_catalogue,
                 "zeroth-registry": gen.zeroth_catalogue}[workload]()
    if job.get("observe"):
        return ops, lambda: iter([catalogue]), ops.known_defect, [], []
    if workload == "cli-mix":
        rounds = lambda: gen.cli_rounds(seed)  # noqa: E731
    else:
        rounds = lambda: gen.kind_rounds(catalogue, seed, workload)  # noqa: E731
    config = pkg.load_config(job["paths"][job["layer_config"]])
    eos_objects = []
    if workload != "zeroth-registry":
        eos_objects = [*config.eos_entities.values(), pkg.derive_unitary_eos(config.market("credit"))]
    return ops, rounds, ops.known_defect, list(config.markets.values()), eos_objects


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text("utf-8"))
    pkg = _import_package(Path(job["root"]))
    os.chdir(job["work"])
    ops, rounds, known, markets, eos_objects = build(job, pkg)
    trace = bool(job["trace"])
    budget = job["seconds"] / 2 if trace else job["seconds"]

    if not job.get("observe"):
        warm_up(rounds(), ops)
    if isinstance(ops, CliOps):
        ops.fault = job.get("fault")  # armed after the warm-up, so a timed op carries it
    probes = SetupProbes(job["setup_config"], Path(job["work"])) if job.get("setup_config") else None
    untraced = timed_pass(rounds(), ops, budget, known, probes=probes)
    result: dict = {"untraced": untraced}
    if isinstance(ops, SweepOps):
        result["solver_gap_max_ulp"] = ops.gap_max_ulp
    if job.get("observe"):
        result["observed"] = [d["observed"] for d in untraced["details"]]

    if trace:
        tracer = Tracer()
        install_spans(tracer)
        try:
            traced = timed_pass(rounds(), ops, budget, known, tracer=tracer)
        finally:
            tracer.restore()
        layers = layer_metrics(tracer, traced, untraced)
        layers.update(micro_layers(pkg, markets, eos_objects))
        if isinstance(ops, SweepOps):
            layers["equilibrium.solver_gap_max_ulp"] = ops.gap_max_ulp
        for command, value in untraced["by_command_ms"].items():
            layers[f"cli.main_ms.{command}"] = value
        traced.pop("details")
        result["traced"] = traced
        result["layers"] = layers
        if job.get("spans_out"):
            with open(job["spans_out"], "w", encoding="utf-8") as fh:
                for record in tracer.to_records():
                    fh.write(json.dumps(record) + "\n")

    untraced.pop("details")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
