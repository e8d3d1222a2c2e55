"""The benchmark's tracer wraps package functions by attribute name.

perfbench/worker.py is imported as it stands, so a renamed or deleted
attribute it wraps, or a surface type it has no metric for, fails here
rather than in the middle of a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from market_eos import DomainError, cli, config, derive_unitary_eos, eos, equilibrium, load_config, zeroth_law

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    # perfbench's modules import each other by flat names (gen, ops, tracing...)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("worker")
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "").parent == PERFBENCH:
            del sys.modules[name]


def test_tracer_installs_and_restores_every_span(worker):
    modules = (cli, config, eos, equilibrium, zeroth_law)
    before = [dict(vars(module)) for module in modules]
    tracer = worker.Tracer()
    try:
        worker.install_spans(tracer)
        assert [dict(vars(module)) for module in modules] != before
    finally:
        tracer.restore()
    assert [dict(vars(module)) for module in modules] == before


def test_every_demo_surface_has_a_y_of_metric(worker):
    cfg = load_config(ROOT / "configs" / "demo.json")
    surfaces = list(cfg.eos_entities.values())
    for market in cfg.markets.values():
        try:
            surfaces.append(derive_unitary_eos(market))
        except DomainError:  # a linear market has no surface
            pass
    assert len(surfaces) == 4
    assert {type(surface).__name__ for surface in surfaces} <= set(worker.EOS_Y_OF)
