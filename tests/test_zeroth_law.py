import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from market_eos import (
    DomainError,
    LinearDemand,
    LinearSupply,
    MarketSpec,
    UnitaryDemand,
    clearing_price_analytic,
    verify_equivalence_laws,
)
from market_eos.equilibrium import AGGREGATE, PER_HOUSEHOLD

# clearing prices: A = 2, B = 2, C = 2 (cross-family), D = 4
MARKET_A = MarketSpec(demand=LinearDemand(k_s=-2.0, q_d0=10.0), supply=LinearSupply(k_d=3.0))
MARKET_B = MarketSpec(demand=LinearDemand(k_s=-3.0, q_d0=10.0), supply=LinearSupply(k_d=2.0))
MARKET_C = MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0))
MARKET_D = MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0), households=4)
QUANTUM = 1e-9


def exact_price(price):
    """A market clearing at exactly ``price``: ``q_d0 / (k_d - k_s)`` with ``k_d - k_s = 1``."""
    return MarketSpec(demand=LinearDemand(k_s=-0.5, q_d0=price), supply=LinearSupply(k_d=0.5))


def ranking(markets, quantum):
    """``(name, class price)`` pairs of the classes flattened in class order: the ranking."""
    return [(name, price) for price, members in verify_equivalence_laws(markets, quantum) for name in members]


def test_equal_clearing_prices_are_in_equilibrium():
    assert verify_equivalence_laws(dict(A=MARKET_A, B=MARKET_B), QUANTUM) == ((2.0, ("A", "B")),)


def test_reflexivity_of_single_market():
    assert verify_equivalence_laws(dict(A=MARKET_A), QUANTUM) == ((2.0, ("A",)),)


def test_cross_family_equilibrium():
    # linear market at Pr*=2 against a unitary one at sqrt(8/2)=2
    assert verify_equivalence_laws(dict(A=MARKET_A, C=MARKET_C), QUANTUM) == ((2.0, ("A", "C")),)


def test_unequal_prices_not_in_equilibrium():
    assert verify_equivalence_laws(dict(A=MARKET_A, D=MARKET_D), QUANTUM) == ((2.0, ("A",)), (4.0, ("D",)))


def test_ranking_with_tie():
    ranked = ranking(dict(A=MARKET_A, D=MARKET_D, B=MARKET_B), QUANTUM)
    assert ranked == [("A", 2.0), ("B", 2.0), ("D", 4.0)]


def test_ranking_edge_sizes():
    assert ranking(dict(A=MARKET_A), QUANTUM) == [("A", 2.0)]
    assert ranking({}, QUANTUM) == []


def test_ticks_round_half_to_even():
    assert verify_equivalence_laws({"a": exact_price(2.0)}, 1e-9) == ((2.0, ("a",)),)  # tick 2 000 000 000
    # 0.5 -> tick 0, 1.5 -> tick 2, 2.5 -> tick 2
    markets = {"half": exact_price(0.5), "one_and_half": exact_price(1.5), "two_and_half": exact_price(2.5)}
    assert verify_equivalence_laws(markets, 1.0) == ((0.0, ("half",)), (2.0, ("one_and_half", "two_and_half")))


@pytest.mark.parametrize("price, quantum, message", [
    (1e300, 1e-20, "price/quantum is not finite: 1e+300/1e-20"),
    *((sys.float_info.max, quantum, f"class price is not finite: price 1.7976931348623157e+308 on quantum {quantum}")
      for quantum in (3.0, 7.0, 1.5)),
])
def test_a_market_without_a_finite_tick_or_class_price_is_named(price, quantum, message):
    markets = {"fine": MARKET_A, "a": exact_price(price)}
    with pytest.raises(DomainError, match=f"^market 'a': {re.escape(message)}$"):
        verify_equivalence_laws(markets, quantum)


def test_laws_pass_on_equal_price_triple():
    assert verify_equivalence_laws(dict(A=MARKET_A, B=MARKET_B, C=MARKET_C), QUANTUM) == ((2.0, ("A", "B", "C")),)


def test_mixed_prices_partition_into_two_classes():
    classes = verify_equivalence_laws(dict(A=MARKET_A, B=MARKET_B, D=MARKET_D), QUANTUM)
    assert classes == ((2.0, ("A", "B")), (4.0, ("D",)))


def test_empty_registry_report():
    assert verify_equivalence_laws({}, QUANTUM) == ()


@pytest.mark.parametrize("quantum", [0.0, -0.0, -1e-9, float("inf"), float("-inf"), float("nan")])
def test_quantum_must_be_positive_and_finite(quantum):
    for markets in ({}, {"A": MARKET_A}):
        with pytest.raises(DomainError, match="quantum must be positive and finite"):
            verify_equivalence_laws(markets, quantum)


def test_ranking_consistent_with_classes():
    ranked = ranking(dict(D=MARKET_D, C=MARKET_C, B=MARKET_B, A=MARKET_A), QUANTUM)
    # by class price, names breaking ties
    assert ranked == sorted(ranked, key=lambda pair: (pair[1], pair[0]))
    assert ranked == [("A", 2.0), ("B", 2.0), ("C", 2.0), ("D", 4.0)]


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
    named = {f"m{i}": m for i, m in enumerate(markets)}
    classes = verify_equivalence_laws(named, quantum)
    # classes partition the markets, one class per distinct price
    names = [name for _, members in classes for name in members]
    assert sorted(names) == sorted(named)
    prices = [price for price, _ in classes]
    assert prices == sorted(set(prices))


positive_doubles = st.floats(min_value=math.ulp(0.0), max_value=sys.float_info.max)

# every positive double as a coefficient, N up to DBL_MAX, both families and both readings
wide_market_strategy = st.one_of(
    st.builds(
        MarketSpec,
        demand=st.builds(LinearDemand, k_s=positive_doubles.map(lambda k: -k), q_d0=positive_doubles),
        supply=st.builds(LinearSupply, k_d=positive_doubles),
        interpretation=st.sampled_from([PER_HOUSEHOLD, AGGREGATE]),
    ),
    st.builds(
        MarketSpec,
        demand=st.builds(UnitaryDemand, k_s=positive_doubles),
        supply=st.builds(LinearSupply, k_d=positive_doubles),
        households=st.integers(min_value=1, max_value=1000)
        | st.floats(min_value=1.0, max_value=sys.float_info.max).map(int),
        interpretation=st.sampled_from([PER_HOUSEHOLD, AGGREGATE]),
    ),
)


def reference_ticks(markets, quantum):
    """Each market's tick from the whole analytic point: its price, then ``round(price / quantum)``.

    Returns the ticks by name, or the first error with the market named
    as the ranking names it: the price's own, a non-finite quotient or a
    non-finite class price ``tick * quantum``.
    """
    ticks = {}
    for name, market in markets.items():
        try:
            price = clearing_price_analytic(market).clearing_price
        except DomainError as exc:
            return type(exc)(f"market {name!r}: {exc}")
        if not math.isfinite(price / quantum):
            return DomainError(f"market {name!r}: price/quantum is not finite: {price!r}/{quantum!r}")
        ticks[name] = round(price / quantum)
        if not math.isfinite(ticks[name] * quantum):
            return DomainError(f"market {name!r}: class price is not finite: price {price!r} on quantum {quantum!r}")
    return ticks


@settings(max_examples=300, deadline=None)
@given(markets=st.lists(wide_market_strategy, min_size=1, max_size=8),
       quantum=st.sampled_from([5e-324, 1e-9, 1.0, 1e300]) | positive_doubles)
def test_classes_match_the_quantized_analytic_point_over_all_positive_doubles(markets, quantum):
    named = {f"m{i}": m for i, m in enumerate(markets)}
    expected = reference_ticks(named, quantum)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as raised:
            verify_equivalence_laws(named, quantum)
        assert type(raised.value) is type(expected)
        assert str(raised.value) == str(expected)
        return
    ticks = sorted(set(expected.values()))
    assert verify_equivalence_laws(named, quantum) == tuple(
        (tick * quantum, tuple(sorted(name for name in named if expected[name] == tick))) for tick in ticks
    )


def brute_force_relation(markets, quantum):
    """Pairwise verdicts as an int64 matrix, and whether the laws hold.

    Checks every pair for reflexivity and symmetry and every (a, b, c)
    triple for transitivity. Counts are int64, so with n <= 64 the number
    of intermediate markets b cannot wrap.
    """
    names = list(markets)
    n = len(names)
    assert n <= 64
    tick = {name: round(clearing_price_analytic(market).clearing_price / quantum) for name, market in markets.items()}
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
    named = {f"m{i}": m for i, m in enumerate(markets)}
    names, related, laws = brute_force_relation(named, quantum)
    classes = verify_equivalence_laws(named, quantum)
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
