"""Seeded inputs for the four benchmark workloads (standard library only).

CLI-facing workloads draw their ops from fixed catalogues, so every op has
a stored reference in ``refs.json``; the seed picks the order of each round
and, where a catalogue entry has variants, which variant runs. The solver
sweep draws its markets continuously from the seed and is checked against
tolerances instead of stored references.

A *round* holds every op kind of a workload once. Runs stop only at a round
boundary, so the mix of op kinds is the same in every run and the latency
percentiles do not jump with the seed.
"""

from __future__ import annotations

import hashlib
import random

DEMO_CONFIG = "configs/demo.json"

# Documented outcome of an input that the seed commit gets wrong. Failures
# of these ops are counted in ``failed`` but do not make a run incorrect.
KNOWN_DEFECT_NONFINITE = "non-finite config value must exit 2 (ROADMAP item 4)"
KNOWN_DEFECT_WINDOW = "clearing price outside auto_bracket's [2**-60, 2**60] window (ROADMAP item 3)"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


# --------------------------------------------------------------------------
# cli-mix: one subprocess per op on configs/demo.json
# --------------------------------------------------------------------------

# Configs for the error paths, written to the run's work directory.
BAD_SCHEMA_CONFIG = {
    "version": "1",
    "markets": [{"name": "broken", "family": "linear", "k_s": -2.0, "q_d0": 10.0, "k_d": -3.0}],
}
# ``Infinity`` is accepted by json.loads and by the schema today; the
# documented outcome for a non-finite value is exit 2 (config error).
NONFINITE_CONFIG_TEXT = (
    '{"version": "1", "markets": ['
    '{"name": "inf", "family": "unitary", "k_s": Infinity, "k_d": 2.0, "goods": "grain"}, '
    '{"name": "staple", "family": "linear", "k_s": -2.0, "q_d0": 10.0, "k_d": 3.0, "goods": "bread"}]}'
)


def cli_catalogue() -> list[dict]:
    """Every cli-mix op: key, argv after ``-m market_eos.cli`` and expectation kind.

    ``{demo}``, ``{bad}`` and ``{nonfinite}`` are replaced by config paths.
    ``expect`` is ``"ref"`` (stored stdout hash and exit code), ``"solve"``
    (stored analytic fields, bisection delta checked by tolerance) or a
    dict giving the documented outcome of a known-defect input.
    """
    d = "{demo}"
    ops = [
        ("solve-staple", ["solve", "--config", d, "staple"], "solve"),
        ("solve-grain", ["solve", "--config", d, "grain"], "solve"),
        ("solve-credit-json", ["solve", "--config", d, "credit", "--json"], "solve"),
        ("consistency-staple", ["consistency", "--config", d, "staple"], "ref"),
        ("eos-credit", ["eos", "--config", d, "credit"], "ref"),
        ("collapse-credit", ["collapse", "--config", d, "credit", "--prices", "1,2,4,8"], "ref"),
        ("isocurves-gas", ["isocurves", "--config", d, "gas", "--t-values", "300,600", "--points", "20"], "ref"),
        ("isocurves-credit-json",
         ["isocurves", "--config", d, "credit", "--t-values", "1,2,4", "--points", "10", "--format", "json"], "ref"),
        ("surface-gas", ["surface", "--config", d, "gas"], "ref"),
        ("surface-magnet-json", ["surface", "--config", d, "magnet", "--format", "json"], "ref"),
        ("zeroth-demo", ["zeroth", "--config", d], "ref"),
        # documented exit 2: config or usage errors
        ("err2-unknown-market", ["solve", "--config", d, "nosuch"], "ref"),
        ("err2-bad-grid", ["surface", "--config", d, "gas", "--nx", "1"], "ref"),
        ("err2-bad-schema", ["zeroth", "--config", "{bad}"], "ref"),
        # documented exit 3: domain errors
        ("err3-eos-linear", ["eos", "--config", d, "staple"], "ref"),
        ("err3-consistency-unitary", ["consistency", "--config", d, "grain"], "ref"),
        ("defect-nonfinite-zeroth", ["zeroth", "--config", "{nonfinite}"],
         {"exit": 2, "stdout_sha256": sha256(b""), "known_defect": KNOWN_DEFECT_NONFINITE}),
    ]
    return [{"key": k, "argv": argv, "expect": expect} for k, argv, expect in ops]


def last_round(elapsed: float, round_seconds: float, seconds: float) -> bool:
    """Stop at the round boundary nearest the time budget, never before one round."""
    return elapsed + round_seconds / 2 >= seconds


def cli_rounds(seed: int):
    """Endless rounds of the cli-mix catalogue, each in a seeded order."""
    rng = random.Random(f"cli-mix/{seed}")
    ops = cli_catalogue()
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


# --------------------------------------------------------------------------
# surface-export: in-process ``surface`` commands writing to --out
# --------------------------------------------------------------------------

# Every op samples a 500 x 500 grid: at that size sampling, rendering and
# writing take over a second per op and a JSON export peaks near 190 MB,
# which is where surface cost lies. Ops of one size keep the latency
# percentiles in place when a slow phase of the machine fits one round
# fewer into a run; with a ladder of sizes and a few rounds per run, the
# tail percentile would move between sizes. Each EoS class writes CSV;
# one writes JSON too.
SURFACE_SIDE = 500
SURFACE_KINDS = (("gas", "csv"), ("magnet", "csv"), ("credit", "csv"), ("magnet", "json"))
# Two axis-range variants per surface, within each surface's domain.
SURFACE_RANGES = {
    "gas": ((1.0, 10.0, 100.0, 600.0), (0.5, 4.0, 250.0, 400.0)),
    "magnet": ((0.1, 2.0, 1.0, 300.0), (0.5, 5.0, 10.0, 20.0)),
    "credit": ((1.0, 100.0, 0.5, 8.0), (2.0, 64.0, 1.0, 3.0)),
}


def surface_catalogue() -> list[dict]:
    ops = []
    side = str(SURFACE_SIDE)
    for name, fmt in SURFACE_KINDS:
        for variant, (x0, x1, t0, t1) in enumerate(SURFACE_RANGES[name]):
            argv = ["surface", "--config", "{demo}", name, "--format", fmt,
                    "--nx", side, "--nt", side, "--x-min", repr(x0), "--x-max", repr(x1),
                    "--t-min", repr(t0), "--t-max", repr(t1), "--out", f"surface.{fmt}"]
            ops.append({"key": f"{name}-{fmt}-{side}x{side}-r{variant}", "kind": f"{name}-{fmt}",
                        "argv": argv, "export": f"surface.{fmt}", "expect": "ref"})
    return ops


def kind_rounds(catalogue: list[dict], seed: int, stream: str):
    """Rounds holding one op of every ``kind``; the seed picks variants and order."""
    rng = random.Random(f"{stream}/{seed}")
    kinds: dict[str, list[dict]] = {}
    for op in catalogue:
        kinds.setdefault(op["kind"], []).append(op)
    while True:
        order = [rng.choice(variants) for variants in kinds.values()]
        rng.shuffle(order)
        yield order


# --------------------------------------------------------------------------
# zeroth-registry: in-process ``zeroth`` on generated registries
# --------------------------------------------------------------------------

# Every registry holds 1000 markets, where the n^3 law check takes about
# a second; one size for the same reason as the surface grids. The
# variants differ in how many price classes form.
ZEROTH_N = 1000
ZEROTH_VARIANTS = 4
GOODS = ("bread", "grain", "credit", "steel", "water")
# Class prices are multiples of 1/64, so price/quantum is an exact integer
# far from a rounding tie and every member of a class gets the same tick.
PRICE_STEP = 1.0 / 64.0


def registry_document(n: int, variant: int) -> tuple[dict, list[int]]:
    """A registry of ``n`` markets in classes of varying size; returns (doc, class sizes).

    Members of a class share one clearing price by construction; class
    sizes follow a Chinese-restaurant process, so a few large classes
    form beside many singletons. Higher variants form fewer classes.
    """
    rng = random.Random(f"zeroth/{n}/{variant}")
    alpha = max(1.0, n / (5.0 * 2 ** variant))
    sizes: list[int] = []
    assignment = []
    for i in range(n):
        if rng.random() < alpha / (alpha + i):
            sizes.append(0)
            cls = len(sizes) - 1
        else:
            cls = rng.choices(range(len(sizes)), weights=sizes)[0]
        sizes[cls] += 1
        assignment.append(cls)
    ticks = rng.sample(range(16, 64 * 64), len(sizes))
    prices = [t * PRICE_STEP for t in ticks]
    markets = []
    for i, cls in enumerate(assignment):
        price = prices[cls]
        k_d = _log_uniform(rng, -1, 1)
        entry = {"name": f"m{i:04d}", "goods": rng.choice(GOODS)}
        if rng.random() < 0.5:
            k_s = -_log_uniform(rng, -1, 1)
            entry.update(family="linear", k_s=k_s, q_d0=price * (k_d - k_s), k_d=k_d)
        elif rng.random() < 0.5:
            households = int(round(_log_uniform(rng, 0, 3)))
            entry.update(family="unitary", k_s=price * price * k_d / households, k_d=k_d,
                         households=households)
        else:
            entry.update(family="unitary", k_s=price * price * k_d, k_d=k_d,
                         households=int(round(_log_uniform(rng, 0, 3))), interpretation="aggregate")
        markets.append(entry)
    return {"version": "1", "quantum": 1e-9, "markets": markets}, sorted(sizes, reverse=True)


def zeroth_catalogue() -> list[dict]:
    n = ZEROTH_N
    return [{"key": f"n{n}-v{variant}", "kind": f"n{n}", "n": n, "variant": variant,
             "argv": ["zeroth", "--config", f"{{registry:n{n}-v{variant}}}"], "expect": "ref"}
            for variant in range(ZEROTH_VARIANTS)]


# --------------------------------------------------------------------------
# solve-sweep: in-process solver calls on generated MarketSpecs
# --------------------------------------------------------------------------

SWEEP_MARKETS = 2048
# One market in 64 clears outside auto_bracket's window: half far below
# 2**-60 (linear), half far above 2**60 (unitary). Both are solvable.
SWEEP_OUT_OF_WINDOW_EVERY = 64


def sweep_markets(seed: int, count: int = SWEEP_MARKETS) -> list[dict]:
    """Market parameters with log-uniform coefficients, both families and readings.

    Each entry holds the ``MarketSpec`` fields plus ``out_of_window``.
    In-window prices lie in about [5e-9, 5e7]; households span 1 to 1000.
    """
    rng = random.Random(f"solve-sweep/{seed}")
    n_out = count // SWEEP_OUT_OF_WINDOW_EVERY
    slots = [False] * (count - n_out) + [True] * n_out
    rng.shuffle(slots)
    markets = []
    flip = False
    for out in slots:
        households = int(round(_log_uniform(rng, 0, 3)))
        interpretation = rng.choice(("per-household", "aggregate"))
        if out:
            flip = not flip
            if flip:  # LinearDemand(-1e20, 1) with k_d=1e-20 clears near 1e-20
                entry = {"family": "linear", "k_s": -_log_uniform(rng, 19.5, 20.5),
                         "q_d0": _log_uniform(rng, -0.5, 0.5), "k_d": _log_uniform(rng, -21, -19)}
            else:  # sqrt(N * k_s / k_d) is above 3e18
                entry = {"family": "unitary", "k_s": _log_uniform(rng, 38, 41), "k_d": _log_uniform(rng, -1, 1)}
                interpretation = "per-household"
        elif rng.random() < 0.5:
            entry = {"family": "linear", "k_s": -_log_uniform(rng, -4, 4),
                     "q_d0": _log_uniform(rng, -4, 4), "k_d": _log_uniform(rng, -4, 4)}
        else:
            entry = {"family": "unitary", "k_s": _log_uniform(rng, -4, 4), "k_d": _log_uniform(rng, -4, 4)}
        entry.update(households=households, interpretation=interpretation, out_of_window=out)
        markets.append(entry)
    return markets


def sweep_config(markets: list[dict], limit: int = 64) -> dict:
    """A config holding the first ``limit`` sweep markets (used for set-up timing)."""
    entries = []
    for i, m in enumerate(markets[:limit]):
        entry = {k: v for k, v in m.items() if k != "out_of_window"}
        entry["name"] = f"s{i:04d}"
        entries.append(entry)
    return {"version": "1", "markets": entries}

