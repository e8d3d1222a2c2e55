"""CLI ops, the timed pass and set-up probes, shared by ``run.py`` and ``worker.py``.

An op runner takes one op and returns ``(latency_ns, failure reason or
None, detail dict or None)``. ``timed_pass`` drives any runner over whole
rounds of ops until the time budget is spent, and spreads the set-up
probes over the pass so that they sample the same phases of the machine
as the ops do.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy

import checks
import gen
import stats
from tracing import median_or_zero

# Fresh interpreters timed per run for setup_s, plus one uncounted first
# probe that only fills the bytecode cache.
SETUP_PROBES = 7
SETUP_CODE = (
    "import sys, time\n"
    "import market_eos\n"
    "market_eos.load_config(sys.argv[1])\n"
    "sys.stdout.write(str(time.monotonic_ns()))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed worker or probe...)."""


def spawn(argv: list[str], stdout, stderr, cwd) -> tuple[int, int, float]:
    """Run a child to completion; returns (latency_ns, exit code, peak RSS in MB).

    Children inherit this process's environment, whose PYTHONPATH names the
    checkout's ``src``.
    """
    start = perf_counter_ns()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=cwd)
    _, status, usage = os.wait4(proc.pid, 0)
    latency = perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return latency, proc.returncode, usage.ru_maxrss / 1024.0


class SetupProbes:
    """Time from spawning an interpreter until ``import market_eos`` and ``load_config`` return."""

    def __init__(self, config: str, work: Path):
        self.config, self.out_path = config, work / "setup.out"
        self.samples: list[float] = []
        self._probe()  # uncounted: fills the bytecode cache

    def _probe(self) -> float:
        with open(self.out_path, "wb") as out:
            start = time.monotonic_ns()
            _, code, _ = spawn([sys.executable, "-c", SETUP_CODE, self.config], out, subprocess.DEVNULL,
                               self.out_path.parent)
        if code != 0:
            raise BenchError(f"set-up probe exited {code}")
        return (int(self.out_path.read_text()) - start) / 1e9

    def due(self, fraction: float) -> None:
        """Probe until ``fraction`` of the run's probes are taken."""
        while len(self.samples) < math.ceil(SETUP_PROBES * min(1.0, fraction)):
            self.samples.append(self._probe())


class CliOps:
    """CLI ops checked against their references.

    With ``cli`` given, an op is an in-process ``cli.main(argv)`` call;
    without, it is a ``python -m market_eos.cli`` child whose peak RSS goes
    into the detail. Relative paths (exports, the missing config of the
    ``wrong-exit`` fault) resolve in ``work``.
    """

    def __init__(self, paths: dict, refs: dict, work: Path, cli=None, fault: str | None = None,
                 observing: bool = False):
        self.paths, self.refs, self.work, self.cli = paths, refs, work, cli
        self.fault, self.observing = fault, observing

    @staticmethod
    def known_defect(op: dict) -> str | None:
        return op["expect"].get("known_defect") if isinstance(op["expect"], dict) else None

    def _in_process(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        crashed = None
        start = perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # as a subprocess this is exit 1 with a traceback
            crashed, code = exc, 1
        latency = perf_counter_ns() - start
        stderr = err.getvalue()
        if crashed is not None:
            stderr += "Traceback (most recent call last):\n" + "".join(traceback.format_exception(crashed))
        return latency, code, out.getvalue().encode(), stderr.encode(), None

    def _child(self, argv: list[str]):
        out_path, err_path = self.work / "op.out", self.work / "op.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            latency, code, rss = spawn([sys.executable, "-m", "market_eos.cli", *argv], out, err, self.work)
        return latency, code, out_path.read_bytes(), err_path.read_bytes(), rss

    def __call__(self, op: dict):
        argv = [self.paths[a[1:-1]] if a.startswith("{") else a for a in op["argv"]]
        expected = checks.expectation(op, self.refs)
        if self.fault == "wrong-exit" and expected and expected["exit"] == 0:
            self.fault = None  # a missing config exits 2 where 0 is expected
            argv[argv.index("--config") + 1] = "missing-config.json"
        export = self.work / op["export"] if "export" in op else None
        if export is not None and export.exists():
            export.unlink()
        latency, code, stdout, stderr, rss = (self._child if self.cli is None else self._in_process)(argv)
        data = export.read_bytes() if export is not None and export.exists() else None
        if data is not None and self.fault == "corrupt-export":
            self.fault = None
            data = bytes([data[0] ^ 1]) + data[1:]
        reason = checks.check(op, expected, code, stdout, stderr, data)
        detail = {"command": op["argv"][0], **output_counts(op["argv"][0], argv, data or stdout)}
        if rss is not None:
            detail["rss_mb"] = rss
        if self.observing:
            detail["observed"] = checks.observe(op, code, stdout, data)
        return latency, reason, detail


def output_counts(command: str, argv: list[str], data: bytes) -> dict:
    """Size counts of one op's output, read after the op is timed."""
    if command == "surface" and data:
        # one "[...]" per point inside the "points" list, or one CSV row per point
        points = data.count(b"[") - 1 if "json" in argv else data.count(b"\n") - 1
        return {"bytes": len(data), "points": points}
    if command == "zeroth":
        members = [line.split(": ", 1)[1].split(", ") for line in data.decode().splitlines()
                   if line.startswith("class price=")]
        return {"classes": len(members), "max_class_size": max(map(len, members), default=0)}
    return {}


def warm_up(rounds, run) -> None:
    """One untimed round, so lazy set-up inside the process is not timed as an op."""
    for op in next(rounds):
        run(op)


def timed_pass(rounds, run, seconds: float, known, tracer=None, probes: SetupProbes | None = None) -> dict:
    """Run whole rounds until ``seconds`` have passed; returns latencies and outcomes.

    Set-up probes run between rounds and count towards the budget, not
    towards any op's latency.
    """
    # int64 latencies and no per-op detail for sweep ops, so the worker's
    # peak RSS does not grow with the number of ops a run completes
    latencies, failures, details, rounds_s = array("q"), [], [], []
    attempted = failed = known_failed = 0
    start = time.perf_counter()
    for round_ops in rounds:
        round_start = time.perf_counter()
        for op in round_ops:
            if tracer is None:
                latency, reason, detail = run(op)
            else:
                latency, reason, detail = tracer.run_op(attempted, run, op)
            attempted += 1
            latencies.append(latency)
            if detail is not None:
                details.append(detail)
            if reason is not None:
                failed += 1
                defect = known(op)
                known_failed += bool(defect)
                if len(failures) < 20:
                    failures.append({"op": op if isinstance(op, int) else op["key"], "reason": reason,
                                     "known_defect": defect})
        now = time.perf_counter()
        rounds_s.append(now - round_start)
        if probes is not None:
            probes.due((now - start) / seconds if seconds else 1.0)
        if gen.last_round(time.perf_counter() - start, rounds_s[-1], seconds):
            break
    if probes is not None:
        probes.due(1.0)
    wall_s = time.perf_counter() - start
    op_ns = numpy.frombuffer(latencies, dtype=numpy.int64)
    by_command: dict[str, list[int]] = {}
    for latency, detail in zip(latencies, details):  # CLI ops only: sweep ops keep no detail
        by_command.setdefault(detail["command"], []).append(latency)
    return {"latency": stats.summarize(numpy.sort(op_ns)),
            "by_command_ms": {c: median_or_zero(v) / 1e6 for c, v in by_command.items()},
            "attempted": attempted, "failed": failed, "known_failed": known_failed, "failures": failures,
            "rounds_s": rounds_s, "wall_s": wall_s, "op_s": float(op_ns.sum()) / 1e9,
            "peak_rss_mb": max((d.get("rss_mb", 0.0) for d in details), default=0.0),
            "setup_s": probes.samples if probes is not None else [], "details": details}
