"""Constraint-surface derivation, residuals, and the consistency analysis."""

import json
import math
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import market_eos.eos as eos_module
from market_eos import (
    DomainError,
    EquilibriumPoint,
    InvariantError,
    LinearDemand,
    LinearSupply,
    MarketSpec,
    UnitaryDemand,
    check_linear_consistency,
    clearing_price_analytic,
    derive_unitary_eos,
)
from market_eos.record import set_field


def unitary_market(k_s=8.0, k_d=2.0, n=4):
    return MarketSpec(demand=UnitaryDemand(k_s=k_s), supply=LinearSupply(k_d=k_d), households=n)


def linear_market(k_s=-2.0, q_d0=10.0, k_d=3.0, n=1):
    return MarketSpec(
        demand=LinearDemand(k_s=k_s, q_d0=q_d0), supply=LinearSupply(k_d=k_d), households=n
    )


def test_linear_relations_hand_values():
    rel = check_linear_consistency(linear_market(k_s=-2.0, k_d=3.0))
    assert rel.eps_d_squared == -6.0
    assert rel.eps_s_squared == -6.0


def test_consistency_report_canonical_market():
    report = check_linear_consistency(linear_market())
    assert report.consistent is False
    assert report.eps_d_squared == -6.0
    assert report.eps_d_direct == -2.0
    assert report.classification_d == "imaginary"
    assert report.classification_s == "imaginary"
    assert "imaginary" in report.reason


def test_consistency_independent_of_households():
    report = check_linear_consistency(linear_market(k_s=-0.5, q_d0=1.0, k_d=0.5, n=7))
    assert report.consistent is False


def test_consistency_control_case_real_slope():
    # invariants forbid a positive linear demand slope; a curve forged past them is not reported consistent
    forged = object.__new__(LinearDemand)
    set_field(forged, "k_s", 2.0)
    set_field(forged, "q_d0", 10.0)
    with pytest.raises(InvariantError, match="is not negative"):
        check_linear_consistency(MarketSpec(demand=forged, supply=LinearSupply(k_d=3.0)))


def test_consistency_rejects_unitary_market():
    with pytest.raises(DomainError, match="requires a linear demand market"):
        check_linear_consistency(unitary_market())


def test_consistency_report_json_field_names():
    doc = json.loads(json.dumps(check_linear_consistency(linear_market()).to_dict()))
    assert list(doc) == [
        "eps_d_squared",
        "eps_s_squared",
        "eps_d_direct",
        "classification_d",
        "classification_s",
        "consistent",
        "reason",
    ]


def test_surface_constant_hand_values():
    assert derive_unitary_eos(unitary_market(8.0, 2.0, 4)).K == 1.0
    assert derive_unitary_eos(unitary_market(8.0, 2.0, 1)).K == 2.0
    assert derive_unitary_eos(unitary_market(5.0, 5.0, 1)).K == 1.0


def test_surface_constant_identity_with_clearing_price():
    market = unitary_market()
    eos = derive_unitary_eos(market)
    pr_star = clearing_price_analytic(market).clearing_price
    assert eos.K * market.households == pytest.approx(pr_star, rel=1e-12)


def test_derive_rejects_linear_market():
    with pytest.raises(DomainError, match="requires a unitary demand market"):
        derive_unitary_eos(linear_market())


def test_derive_rejects_aggregate_interpretation():
    market = MarketSpec(
        demand=UnitaryDemand(k_s=8.0),
        supply=LinearSupply(k_d=2.0),
        households=4,
        interpretation="aggregate",
    )
    with pytest.raises(DomainError):
        derive_unitary_eos(market)


def test_derive_rejects_non_finite_surface_constant(monkeypatch):
    huge = unitary_market(1e308, 1e-310, 1)  # K = Pr* = 1e309
    with pytest.raises(DomainError):
        derive_unitary_eos(huge)
    # the K*N identity check itself must fail when both sides are infinite
    monkeypatch.setattr(eos_module, "clearing_price_analytic", lambda m: EquilibriumPoint(math.inf, math.inf, 0.0))
    with pytest.raises(InvariantError, match="identity check"):
        derive_unitary_eos(huge)


def test_eos_rows_hand_values():
    eos = derive_unitary_eos(unitary_market(8.0, 2.0, 4))  # K = 1
    # rows yields the demands q_d = K * Q_s / Pr over Q_s, one list per price
    assert list(eos.rows([8.0, 0.0], [4.0, 1.0])) == [[2.0, 0.0], [8.0, 0.0]]
    assert (eos.y_of(8.0, 4.0), eos.y_of(0.0, 1.0)) == (2.0, 0.0)


def test_eos_to_dict_field_names():
    doc = derive_unitary_eos(unitary_market()).to_dict()
    assert list(doc) == ["K", "N", "source"]
    assert doc["N"] == 4
    assert doc["source"]["family"] == "unitary"


coef = st.floats(min_value=0.01, max_value=100.0)


@given(k_s=coef, k_d=coef, n=st.integers(min_value=1, max_value=10_000))
def test_equilibrium_point_lies_on_surface(k_s, k_d, n):
    market = unitary_market(k_s, k_d, n)
    eos = derive_unitary_eos(market)
    eq = clearing_price_analytic(market)
    q_s = eq.clearing_quantity
    q_d = market.demand.quantity(eq.clearing_price)
    # the implicit form q_d * Pr = K * Q_s, not the closed form that built K
    assert abs(q_d * eq.clearing_price - eos.K * q_s) <= 1e-12 * eos.K * q_s
    assert abs(eos.K * n - eq.clearing_price) <= 1e-12 * eq.clearing_price


@given(
    k_s=st.floats(min_value=-100.0, max_value=-0.01),
    k_d=st.floats(min_value=0.01, max_value=100.0),
)
def test_inconsistency_theorem(k_s, k_d):
    report = check_linear_consistency(linear_market(k_s=k_s, k_d=k_d))
    assert report.eps_d_squared < 0
    assert report.eps_d_direct == k_s
    assert report.consistent is False


# every binary exponent of a positive double, subnormals included, is equally likely
magnitude = st.builds(
    math.ldexp, st.floats(min_value=1.0, max_value=2.0, exclude_max=True), st.integers(-1074, 1023)
)


@example(k_s=-1e200, k_d=1e200)  # the squares overflow
@example(k_s=-1e-200, k_d=1e-200)  # the squares underflow to -0.0
@given(k_s=magnitude.map(lambda m: -m), k_d=magnitude)
def test_linear_verdict_over_all_finite_doubles(k_s, k_d):
    try:
        report = check_linear_consistency(linear_market(k_s=k_s, k_d=k_d))
    except DomainError:
        assert math.isinf(k_d * k_s)
        return
    assert report.consistent is False
    assert report.classification_d == report.classification_s == "imaginary"
    assert math.isfinite(report.eps_d_squared)
    assert math.isfinite(report.eps_s_squared)


@example(k_s=1e308, k_d=1e-308, n=1)  # k_s/k_d overflows, but K = Pr* = 1e308
@example(k_s=1e-308, k_d=1e308, n=1)  # k_s/k_d underflows to 0, K = 1e-308 is subnormal
@example(k_s=4.9e-320, k_d=2.76e306, n=3)  # K = 7.7e-314 is subnormal
@example(k_s=1.0, k_d=1e-310, n=7)  # k_d*N is subnormal, K = 3.8e154
@example(k_s=5e-324, k_d=1e300, n=10**300)  # K = 2e-462 rounds to 0.0, and so does Pr*/N = 2.2e-462
# N > 2**1022, so 1/N would be subnormal; K was 2.38 ULP off when the rescale formed it
@example(k_s=3.8730309140106764e-29, k_d=8.0356469715403165e+267, n=int(1.6125172304599684e+308))
@given(
    k_s=magnitude,
    k_d=magnitude,
    n=st.one_of(st.integers(min_value=1, max_value=10**6),
                st.floats(min_value=1.0, max_value=sys.float_info.max).map(int)),
)
def test_surface_constant_over_all_finite_doubles(k_s, k_d, n):
    with localcontext() as ctx:
        ctx.prec = 60
        exact = (Decimal(k_s) / (Decimal(k_d) * n)).sqrt()
        try:
            k = derive_unitary_eos(unitary_market(k_s, k_d, n)).K
        except DomainError:
            # only a subnormal K or a Pr* = K*N past the largest double is rejected
            assert exact < Decimal(sys.float_info.min) or exact * n > Decimal(sys.float_info.max)
            return
        direct = k_s / (k_d * n)
        if sys.float_info.min <= direct <= sys.float_info.max and k_d * n >= sys.float_info.min:
            assert k.hex() == math.sqrt(direct).hex()
        else:
            assert k >= sys.float_info.min  # float(exact) is 0.0 where exact underflows: the gap alone accepts K = 0
            assert abs(Decimal(k) - exact) <= 2 * Decimal(math.ulp(float(exact)))


def test_eos_domain_check():
    eos = derive_unitary_eos(unitary_market())
    with pytest.raises(DomainError):
        eos.y_of(1.0, 0.0)
    assert eos.y_of(8.0, 4.0) == 2.0
    assert eos.axis_labels() == ("Q_s", "q_d", "Pr")
    assert math.isclose(eos.K, 1.0)
