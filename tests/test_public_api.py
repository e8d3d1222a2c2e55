"""The package's public names: a name dropped or added changes the list below. README's library examples run."""

import doctest
from pathlib import Path

import market_eos

PUBLIC_NAMES = [
    "BracketingError", "ConfigDocument", "ConfigError", "ConsistencyReport", "CurieParamagnetEoS",
    "CurveCollapseReport", "DomainError", "EquilibriumPoint", "GAS_CONSTANT", "GridSpec", "IdealGasEoS",
    "InvariantError", "IsocurveFamily", "IsopriceCollapseReport", "LinearDemand", "LinearSupply", "MarketSpec",
    "SurfaceGrid", "UnitaryDemand", "UnitaryEoS", "check_linear_consistency", "classify_elasticity",
    "clearing_price_analytic", "clearing_price_numeric", "derive_unitary_eos", "excess_demand",
    "family_collapse", "isocurves", "isoprice_collapse_check", "load_config", "parse_config", "point_elasticity",
    "render_chunks", "sample_surface", "verify_equivalence_laws",
]


def test_all_is_sorted_unique_resolvable_and_the_expected_thirty_five_names():
    names = market_eos.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(market_eos, name)] == []
    assert len(PUBLIC_NAMES) == 35
    assert names == PUBLIC_NAMES


def test_the_readme_library_examples_run_as_doctests():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted >= 10
    assert result.failed == 0
