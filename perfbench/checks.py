"""Output gate for CLI ops (standard library only).

An op's outcome is its exit code, stdout, stderr and the bytes of the file
it exported. It passes when it matches its reference: exit code, sha256 of
stdout and of the export, and the verdict lines. ``solve`` prints a
bisection cross-check, so its analytic fields are compared exactly and its
``cross_check_delta`` only against the documented price tolerance: a
correct but different solver does not fail.
"""

from __future__ import annotations

import json
import math
import re

from gen import sha256

# equilibrium.PRICE_TOL: documented relative tolerance of the bisection price.
PRICE_TOL = 1e-12
# Slack for the analytic price's own rounding, in units in the last place.
PRICE_ULP_SLACK = 4

VERDICT_MARKERS = ("collapse=", "laws:", "counterexample:")


def verdict_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if any(m in line for m in VERDICT_MARKERS)]


def within_price_tol(delta: float, price: float) -> bool:
    return delta <= PRICE_TOL * price + PRICE_ULP_SLACK * math.ulp(price)


def _solve_fields(stdout: str) -> dict:
    """Analytic fields and cross-check delta of ``solve`` (text or --json)."""
    text = stdout.strip()
    if text.startswith("{"):
        doc = json.loads(text)
        fields = {k: repr(float(doc[k])) for k in ("clearing_price", "clearing_quantity", "residual")}
        fields["market"] = doc["market"]
        return {"fields": fields, "price": float(doc["clearing_price"]),
                "delta": float(doc["cross_check_delta"])}
    pairs = dict(re.findall(r"(\S+?)=(\S+)", text))
    fields = {k: pairs[k] for k in ("Pr*", "Q*", "residual", "method")}
    return {"fields": fields, "price": float(pairs["Pr*"]), "delta": float(pairs["cross_check_delta"])}


def observe(op: dict, exit_code: int, stdout: bytes, export: bytes | None) -> dict:
    """Reference record of one outcome, as ``--update-refs`` stores it."""
    text = stdout.decode("utf-8", "replace")
    ref = {"exit": exit_code}
    if op["expect"] == "solve" and exit_code == 0:
        ref["fields"] = _solve_fields(text)["fields"]
    else:
        ref["stdout_sha256"] = sha256(stdout)
    if export is not None:
        ref["export_sha256"] = sha256(export)
    ref["verdicts"] = verdict_lines(text)
    return ref


def check(op: dict, ref: dict | None, exit_code: int, stdout: bytes, stderr: bytes,
          export: bytes | None) -> str | None:
    """None when the outcome matches ``ref``, else the reason it fails."""
    if ref is None:
        return f"no reference for op {op['key']!r}"
    if b"Traceback (most recent call last)" in stderr:
        return f"traceback, exit {exit_code}"
    if exit_code != ref["exit"]:
        return f"exit {exit_code}, expected {ref['exit']}"
    text = stdout.decode("utf-8", "replace")
    if "fields" in ref:
        try:
            got = _solve_fields(text)
        except (ValueError, KeyError) as exc:
            return f"unparsable solve output: {exc}"
        if got["fields"] != ref["fields"]:
            return f"solve fields {got['fields']} != {ref['fields']}"
        if not within_price_tol(got["delta"], got["price"]):
            return f"cross_check_delta {got['delta']!r} exceeds tolerance at price {got['price']!r}"
    elif sha256(stdout) != ref["stdout_sha256"]:
        return "stdout differs from reference"
    if "export_sha256" in ref and (export is None or sha256(export) != ref["export_sha256"]):
        return "export file differs from reference"
    if "verdicts" in ref and verdict_lines(text) != ref["verdicts"]:
        return f"verdicts {verdict_lines(text)} != {ref['verdicts']}"
    return None


def expectation(op: dict, refs: dict) -> dict | None:
    """The reference an op is checked against: stored, or its documented outcome."""
    if isinstance(op["expect"], dict):
        return op["expect"]
    return refs.get(op["key"])
