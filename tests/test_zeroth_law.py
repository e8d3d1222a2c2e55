import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from market_eos import (
    DomainError,
    InvariantError,
    LinearDemand,
    LinearSupply,
    MarketRegistry,
    MarketSpec,
    UnitaryDemand,
    clearing_price_analytic,
    quantize,
    rank_markets,
    verify_equivalence_laws,
)

# clearing prices: A = 2, B = 2, C = 2 (cross-family), D = 4
MARKET_A = MarketSpec(demand=LinearDemand(k_s=-2.0, q_d0=10.0), supply=LinearSupply(k_d=3.0))
MARKET_B = MarketSpec(demand=LinearDemand(k_s=-3.0, q_d0=10.0), supply=LinearSupply(k_d=2.0))
MARKET_C = MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0))
MARKET_D = MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0), households=4)


def registry(**entries):
    return MarketRegistry(entries=entries)


def test_equal_clearing_prices_are_in_equilibrium():
    assert verify_equivalence_laws(registry(A=MARKET_A, B=MARKET_B)) == ((2.0, ("A", "B")),)


def test_reflexivity_of_single_market():
    assert verify_equivalence_laws(registry(A=MARKET_A)) == ((2.0, ("A",)),)


def test_cross_family_equilibrium():
    # linear market at Pr*=2 against a unitary one at sqrt(8/2)=2
    assert verify_equivalence_laws(registry(A=MARKET_A, C=MARKET_C)) == ((2.0, ("A", "C")),)


def test_unequal_prices_not_in_equilibrium():
    assert verify_equivalence_laws(registry(A=MARKET_A, D=MARKET_D)) == ((2.0, ("A",)), (4.0, ("D",)))


def test_ranking_with_tie():
    ranked = rank_markets(registry(A=MARKET_A, D=MARKET_D, B=MARKET_B))
    assert ranked == [("A", 2.0), ("B", 2.0), ("D", 4.0)]


def test_ranking_edge_sizes():
    assert rank_markets(registry(A=MARKET_A)) == [("A", 2.0)]
    assert rank_markets(registry()) == []


def test_quantize_half_to_even():
    assert quantize(2.0, 1e-9) == 2_000_000_000
    assert quantize(0.5, 1.0) == 0
    assert quantize(1.5, 1.0) == 2
    assert quantize(2.5, 1.0) == 2


@pytest.mark.parametrize("price, quantum", [(float("inf"), 1e-9), (float("nan"), 1e-9), (1e300, 1e-20)])
def test_quantize_rejects_non_finite_ticks(price, quantum):
    with pytest.raises(DomainError, match="not finite"):
        quantize(price, quantum)


def test_laws_pass_on_equal_price_triple():
    assert verify_equivalence_laws(registry(A=MARKET_A, B=MARKET_B, C=MARKET_C)) == ((2.0, ("A", "B", "C")),)


def test_mixed_prices_partition_into_two_classes():
    classes = verify_equivalence_laws(registry(A=MARKET_A, B=MARKET_B, D=MARKET_D))
    assert classes == ((2.0, ("A", "B")), (4.0, ("D",)))


def test_empty_registry_report():
    assert verify_equivalence_laws(registry()) == ()


def test_registry_invariants():
    for quantum in (0.0, float("inf"), float("nan")):
        with pytest.raises(InvariantError):
            MarketRegistry(entries={}, quantum=quantum)


def test_ranking_consistent_with_classes():
    reg = registry(A=MARKET_A, B=MARKET_B, C=MARKET_C, D=MARKET_D)
    ranked = rank_markets(reg)
    by_class = [(price, name) for price, members in verify_equivalence_laws(reg) for name in members]
    assert [(price, name) for name, price in ranked] == by_class


market_strategy = st.one_of(
    st.builds(
        MarketSpec,
        demand=st.builds(
            LinearDemand,
            k_s=st.floats(min_value=-50.0, max_value=-0.1),
            q_d0=st.floats(min_value=0.1, max_value=50.0),
        ),
        supply=st.builds(LinearSupply, k_d=st.floats(min_value=0.1, max_value=50.0)),
    ),
    st.builds(
        MarketSpec,
        demand=st.builds(UnitaryDemand, k_s=st.floats(min_value=0.1, max_value=50.0)),
        supply=st.builds(LinearSupply, k_d=st.floats(min_value=0.1, max_value=50.0)),
        households=st.integers(min_value=1, max_value=100),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    markets=st.lists(market_strategy, min_size=1, max_size=50),
    quantum=st.sampled_from([1e-9, 1e-6, 1e-3, 0.5]),
)
def test_laws_hold_for_random_registries(markets, quantum):
    reg = MarketRegistry(
        entries={f"m{i}": m for i, m in enumerate(markets)}, quantum=quantum
    )
    classes = verify_equivalence_laws(reg)
    # classes partition the registry, one class per distinct price
    names = [name for _, members in classes for name in members]
    assert sorted(names) == sorted(reg.entries)
    prices = [price for price, _ in classes]
    assert prices == sorted(set(prices))


def brute_force_relation(reg):
    """Pairwise verdicts as an int64 matrix, and whether the laws hold.

    Checks every pair for reflexivity and symmetry and every (a, b, c)
    triple for transitivity. Counts are int64, so with n <= 64 the number
    of intermediate markets b cannot wrap.
    """
    names = list(reg.entries)
    n = len(names)
    assert n <= 64
    tick = {name: quantize(clearing_price_analytic(market).clearing_price, reg.quantum)
            for name, market in reg.entries.items()}
    related = np.array([[tick[a] == tick[b] for b in names] for a in names], dtype=np.int64)
    paths = related @ related  # paths[a, c] = #b with a~b and b~c
    reflexive = bool(np.all(np.diag(related) == 1))
    symmetric = bool(np.array_equal(related, related.T))
    transitive = bool(np.all((paths > 0) <= (related == 1)))
    return names, related, (reflexive, symmetric, transitive)


# markets drawn with repeats, so registries hold classes of several members
registry_strategy = st.lists(market_strategy, min_size=1, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=64)
)


@settings(max_examples=40, deadline=None)
@given(markets=registry_strategy, quantum=st.sampled_from([1e-9, 1e-3, 0.5]))
def test_partition_agrees_with_brute_force_triples(markets, quantum):
    reg = MarketRegistry(entries={f"m{i}": m for i, m in enumerate(markets)}, quantum=quantum)
    names, related, laws = brute_force_relation(reg)
    classes = verify_equivalence_laws(reg)
    assert laws == (True, True, True)
    class_of = {name: k for k, (_, members) in enumerate(classes) for name in members}
    assert sorted(class_of) == sorted(names)
    assert sum(len(members) for _, members in classes) == len(names)
    same_class = np.array([[class_of[a] == class_of[b] for b in names] for a in names], dtype=np.int64)
    assert np.array_equal(same_class, related)


@pytest.mark.parametrize("module", ["numpy", "jsonschema"])
def test_import_leaves_test_only_dependency_unloaded(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"import sys, market_eos; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
