"""Acceptance gate: eight criteria, each printing one PASS/FAIL line, and a property test that extends C1.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines. Every
criterion is evaluated first, its verdict printed, and only then
asserted, so a failing run still reports the full picture of that
criterion. Randomness is seeded; counts and tolerances are fixed.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from market_eos import (
    DomainError,
    IdealGasEoS,
    LinearDemand,
    LinearSupply,
    MarketSpec,
    UnitaryDemand,
    check_linear_consistency,
    cli,
    clearing_price_analytic,
    clearing_price_numeric,
    derive_unitary_eos,
    family_collapse,
    isocurves,
    isoprice_collapse_check,
    point_elasticity,
    rank_markets,
    verify_equivalence_laws,
)

from grid_oracles import curves

SEED = 20260817


def report(number: int, label: str, ok: bool, elapsed: float, limit: float) -> None:
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"ACCEPTANCE C{number} {label}: {status} ({elapsed:.3f}s, limit {limit:g}s)")
    assert ok, f"criterion C{number} failed its property check"
    assert in_time, f"criterion C{number} exceeded its {limit:g}s budget ({elapsed:.3f}s)"


def test_c1_unitary_elasticity_is_minus_one():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        k_s = rng.uniform(1e-6, 1e3)
        pr = rng.uniform(1e-6, 1e3)
        if abs(point_elasticity(UnitaryDemand(k_s=k_s), pr) + 1.0) > 1e-12:
            ok = False
            break
    report(1, "unitary elasticity = -1 (1e-12 abs, 1000 draws)", ok, time.perf_counter() - start, 1.0)


def test_c2_linear_market_inconsistency():
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        k_s = -rng.uniform(0.01, 100.0)
        k_d = rng.uniform(0.01, 100.0)
        market = MarketSpec(demand=LinearDemand(k_s=k_s, q_d0=1.0), supply=LinearSupply(k_d=k_d))
        rep = check_linear_consistency(market)
        if rep.consistent or rep.eps_d_squared >= 0 or rep.eps_d_direct != k_s:
            ok = False
            break
    report(2, "linear-linear inconsistency (1000 draws)", ok, time.perf_counter() - start, 1.0)


def test_c3_equilibrium_on_surface_and_k_identity():
    rng = np.random.default_rng(SEED + 2)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        market = MarketSpec(
            demand=UnitaryDemand(k_s=rng.uniform(0.01, 100.0)),
            supply=LinearSupply(k_d=rng.uniform(0.01, 100.0)),
            households=int(rng.integers(1, 10_001)),
        )
        eos = derive_unitary_eos(market)
        eq = clearing_price_analytic(market)
        q_s = eq.clearing_quantity
        q_d = float(market.demand.quantity(eq.clearing_price))
        # the implicit form q_d * Pr = K * Q_s, not the closed form that built K
        if abs(q_d * eq.clearing_price - eos.K * q_s) > 1e-12 * eos.K * q_s:
            ok = False
            break
        if abs(eos.K * market.households - eq.clearing_price) > 1e-12 * eq.clearing_price:
            ok = False
            break
    report(3, "equilibrium lies on surface, K*N = Pr* (1000 markets)", ok, time.perf_counter() - start, 1.0)


def test_c4_analytic_vs_bisection_oracle():
    rng = np.random.default_rng(SEED + 3)
    start = time.perf_counter()
    ok = True
    for family in ("linear", "unitary"):
        for _ in range(1000):
            if family == "linear":
                market = MarketSpec(
                    demand=LinearDemand(k_s=-rng.uniform(0.01, 100.0), q_d0=rng.uniform(0.01, 100.0)),
                    supply=LinearSupply(k_d=rng.uniform(0.01, 100.0)),
                )
            else:
                market = MarketSpec(
                    demand=UnitaryDemand(k_s=rng.uniform(0.01, 100.0)),
                    supply=LinearSupply(k_d=rng.uniform(0.01, 100.0)),
                    households=int(rng.integers(1, 101)),
                )
            analytic = clearing_price_analytic(market).clearing_price
            numeric = clearing_price_numeric(market).clearing_price
            if abs(analytic - numeric) > 1e-9 * analytic:
                ok = False
                break
        if not ok:
            break
    report(4, "analytic vs bisection 1e-9 rel (1000 per family)", ok, time.perf_counter() - start, 5.0)


def test_c5_isoprice_collapse_vs_gas_isotherms():
    rng = np.random.default_rng(SEED + 4)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        market = MarketSpec(
            demand=UnitaryDemand(k_s=rng.uniform(0.01, 100.0)),
            supply=LinearSupply(k_d=rng.uniform(0.01, 100.0)),
            households=int(rng.integers(1, 1001)),
        )
        prices = rng.uniform(0.01, 100.0, size=10)
        rep = isoprice_collapse_check(market, list(prices))
        if not rep.collapse or rep.max_rel_deviation > 1e-12:
            ok = False
            break
    if ok:
        family = isocurves(IdealGasEoS(), [300.0, 600.0], (0.01, 0.1), 50)
        verdict = family_collapse(family)
        ok = not verdict.collapse
        for (x0, y0), (x1, y1) in zip(curves(family)[0], curves(family)[1]):
            if x0 != x1 or abs(y1 / y0 - 2.0) > 1e-12:
                ok = False
                break
    report(5, "isoprice collapse vs distinct gas isotherms", ok, time.perf_counter() - start, 2.0)


def _random_registry(rng) -> tuple[dict, float]:
    """Named markets and a price quantum."""
    n = int(rng.integers(1, 51))
    entries = {}
    for i in range(n):
        roll = rng.uniform()
        if roll < 0.2 and entries:
            # clone an earlier market under a new name to force ties
            entries[f"m{i:02d}"] = entries[f"m{int(rng.integers(0, i)):02d}"]
        elif roll < 0.6:
            entries[f"m{i:02d}"] = MarketSpec(
                demand=LinearDemand(k_s=-rng.uniform(0.1, 50.0), q_d0=rng.uniform(0.1, 50.0)),
                supply=LinearSupply(k_d=rng.uniform(0.1, 50.0)),
            )
        else:
            entries[f"m{i:02d}"] = MarketSpec(
                demand=UnitaryDemand(k_s=rng.uniform(0.1, 50.0)),
                supply=LinearSupply(k_d=rng.uniform(0.1, 50.0)),
                households=int(rng.integers(1, 101)),
            )
    quantum = float(rng.choice([1e-9, 1e-6, 1e-3, 0.25]))
    return entries, quantum


def test_c6_zeroth_law_over_random_registries():
    rng = np.random.default_rng(SEED + 5)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        markets, quantum = _random_registry(rng)
        classes = verify_equivalence_laws(markets, quantum)
        prices = [price for price, _ in classes]
        flattened = [(price, name) for price, members in classes for name in members]
        # a partition: one class per distinct price, every market in exactly one class
        if prices != sorted(set(prices)) or sorted(name for _, name in flattened) != sorted(markets):
            ok = False
            break
        ranked = rank_markets(markets, quantum)
        if [(price, name) for name, price in ranked] != flattened:
            ok = False
            break
    report(6, "equivalence laws + ranking (200 registries)", ok, time.perf_counter() - start, 5.0)


def test_c7_surface_export_determinism(tmp_path):
    config = {
        "version": "1",
        "markets": [{"name": "m", "family": "unitary", "k_s": 8.0, "k_d": 2.0, "households": 4}],
        "grid": {"x_min": 1.0, "x_max": 10.0, "nx": 50, "t_min": 1.0, "t_max": 10.0, "nt": 50},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    start = time.perf_counter()
    outputs = []
    for run in range(2):
        out = tmp_path / f"surface_{run}.csv"
        code = cli.main(["surface", "--config", str(cfg), "m", "--out", str(out)])
        outputs.append((code, out.read_bytes()))
    ok = outputs[0][0] == 0 and outputs[1][0] == 0 and outputs[0][1] == outputs[1][1]
    if ok:
        # every exported point on the implicit form y * t = K * x
        eos = derive_unitary_eos(
            MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0), households=4)
        )
        lines = outputs[0][1].decode("utf-8").splitlines()[1:]
        ok = len(lines) == 2500
        for line in lines:
            x, t, y = (float(cell) for cell in line.split(","))
            if abs(y * t - eos.K * x) > 1e-9 * eos.K * x:
                ok = False
                break
    report(7, "cmd_surface 50x50 byte-identical + implicit-form audit", ok, time.perf_counter() - start, 2.0)


def test_c8_finite_difference_slope_audit():
    rng = np.random.default_rng(SEED + 6)
    start = time.perf_counter()
    ok = True
    curves = []
    for _ in range(100):
        curves.append(LinearDemand(k_s=-rng.uniform(0.01, 50.0), q_d0=rng.uniform(0.01, 50.0)))
        curves.append(LinearSupply(k_d=rng.uniform(0.01, 50.0)))
        curves.append(UnitaryDemand(k_s=rng.uniform(0.01, 50.0)))
    for curve in curves:
        pr = rng.uniform(0.1, 50.0)
        h = 1e-6 * pr
        fd = (float(curve.quantity(pr + h)) - float(curve.quantity(pr - h))) / (2.0 * h)
        analytic = curve.slope(pr)
        if abs(fd - analytic) > 1e-6 * max(1.0, abs(analytic)):
            ok = False
            break
    report(8, "slope vs central difference 1e-6 rel (100 per family)", ok, time.perf_counter() - start, 1.0)


every_positive_double = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(k_s=every_positive_double, pr=every_positive_double)
@example(k_s=1.0, pr=1e160)  # pr * pr overflows
@example(k_s=1.0, pr=1e-170)  # pr * pr underflows to zero
def test_unitary_elasticity_is_minus_one_over_every_positive_double(k_s, pr):
    # C1 draws from [1e-6, 1e3]; the paper's -1 holds at every price where the quantity is a nonzero double
    demand = UnitaryDemand(k_s=k_s)
    q = k_s / pr
    if q == 0.0 or math.isinf(q):
        with pytest.raises(DomainError):
            point_elasticity(demand, pr)
    else:
        assert math.copysign(1.0, point_elasticity(demand, pr)) == -1.0
        assert point_elasticity(demand, pr) == -1.0
    assert demand.slope(pr) <= 0.0
