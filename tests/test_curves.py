import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from market_eos import (
    DomainError,
    InvariantError,
    LinearDemand,
    LinearSupply,
    UnitaryDemand,
    classify_elasticity,
    point_elasticity,
)


def central_difference(f, pr, h):
    return (f(pr + h) - f(pr - h)) / (2.0 * h)


def test_linear_demand_intercept():
    d = LinearDemand(k_s=-2.0, q_d0=10.0)
    assert d.quantity(0.0) == 10.0


def test_linear_demand_hand_value():
    d = LinearDemand(k_s=-2.0, q_d0=10.0)
    assert d.quantity(3.0) == 4.0


def test_unitary_demand_hand_value():
    d = UnitaryDemand(k_s=8.0)
    assert d.quantity(2.0) == 4.0


def test_linear_supply_values():
    assert LinearSupply(k_d=3.0).quantity(0.0) == 0.0
    assert LinearSupply(k_d=3.0).quantity(2.0) == 6.0
    assert LinearSupply(k_d=2.0).quantity(4.0) == 8.0


def test_linear_demand_slope_is_constant():
    d = LinearDemand(k_s=-2.0, q_d0=10.0)
    for pr in (0.0, 0.5, 3.0, 100.0):
        assert d.slope(pr) == -2.0


def test_unitary_demand_slope_hand_value():
    assert UnitaryDemand(k_s=8.0).slope(2.0) == -2.0


def test_unitary_slope_matches_central_difference_at_spec_point():
    d = UnitaryDemand(k_s=8.0)
    fd = central_difference(d.quantity, 1.7, 1e-6)
    analytic = d.slope(1.7)
    assert abs(fd - analytic) <= 1e-6 * abs(analytic)


def test_unitary_elasticity_is_minus_one():
    e = point_elasticity(UnitaryDemand(k_s=8.0), 5.0)
    assert e == pytest.approx(-1.0, abs=1e-12)
    assert classify_elasticity(e) == "unitary"


def test_linear_demand_elasticity_hand_value():
    e = point_elasticity(LinearDemand(k_s=-2.0, q_d0=10.0), 3.0)
    assert e == -1.5
    assert classify_elasticity(e) == "elastic"


def test_linear_supply_elasticity_is_plus_one():
    s = LinearSupply(k_d=3.0)
    for pr in (0.1, 1.0, 7.0, 250.0):
        e = point_elasticity(s, pr)
        assert e == 1.0
        assert classify_elasticity(e) == "unitary"


def test_classify_elasticity_bands():
    assert classify_elasticity(-3.0) == "elastic"
    assert classify_elasticity(-1.0) == "unitary"
    assert classify_elasticity(-1.0 + 5e-13) == "unitary"
    assert classify_elasticity(-0.2) == "inelastic"
    assert classify_elasticity(0.0) == "inelastic"


def test_demand_past_choke_price_is_not_clamped():
    d = LinearDemand(k_s=-2.0, q_d0=10.0)
    assert d.quantity(5.0) == 0.0  # the choke price q_d0 / |k_s|
    assert d.quantity(6.0) == -2.0  # raw value kept, never clamped
    assert d.quantity(4.0) == 2.0


def test_elasticity_undefined_at_zero_quantity():
    d = LinearDemand(k_s=-2.0, q_d0=10.0)
    with pytest.raises(DomainError):
        point_elasticity(d, 5.0)  # the choke price, where quantity is zero


@pytest.mark.parametrize("curve, pr0", [
    (LinearDemand(k_s=-1e300, q_d0=1e300), 1e10),  # quantity and slope * price both -inf: their quotient is NaN
    (LinearSupply(k_d=1e300), 1e10),
    (UnitaryDemand(k_s=1e300), 1e-10),
])
def test_elasticity_that_is_not_finite_raises(curve, pr0):
    with pytest.raises(DomainError, match="is not finite"):
        point_elasticity(curve, pr0)


def test_curve_invariants_rejected():
    with pytest.raises(InvariantError):
        LinearDemand(k_s=2.0, q_d0=10.0)
    with pytest.raises(InvariantError):
        LinearDemand(k_s=-2.0, q_d0=0.0)
    with pytest.raises(InvariantError):
        LinearSupply(k_d=0.0)
    with pytest.raises(InvariantError):
        UnitaryDemand(k_s=-8.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvariantError):
            LinearDemand(k_s=bad, q_d0=10.0)
        with pytest.raises(InvariantError):
            LinearDemand(k_s=-2.0, q_d0=bad)
        with pytest.raises(InvariantError):
            LinearSupply(k_d=bad)
        with pytest.raises(InvariantError):
            UnitaryDemand(k_s=bad)


def test_price_domain_errors():
    with pytest.raises(DomainError):
        LinearDemand(k_s=-2.0, q_d0=10.0).quantity(-1.0)
    with pytest.raises(DomainError):
        UnitaryDemand(k_s=8.0).quantity(0.0)
    with pytest.raises(DomainError):
        point_elasticity(LinearSupply(k_d=3.0), 0.0)


@pytest.mark.parametrize("method, pr", [
    (LinearDemand(k_s=-2.0, q_d0=10.0).slope, -1.0),
    (LinearSupply(k_d=3.0).quantity, -1.0),
    (LinearSupply(k_d=3.0).slope, -1.0),
    (UnitaryDemand(k_s=8.0).slope, -1.0),
    (UnitaryDemand(k_s=8.0).slope, 0.0),
], ids=["linear-demand-slope", "supply-quantity", "supply-slope", "unitary-slope-negative", "unitary-slope-zero"])
def test_price_guards_reject_prices_outside_the_curve_domain(method, pr):
    with pytest.raises(DomainError, match=f"^price must be (nonnegative|positive), got {pr}$"):
        method(pr)


positive = st.floats(min_value=1e-9, max_value=1e3, allow_nan=False)


@given(k_s=positive, pr=positive)
def test_unitary_elasticity_property(k_s, pr):
    assert abs(point_elasticity(UnitaryDemand(k_s=k_s), pr) + 1.0) <= 1e-12


@given(k_s=positive, pr=positive)
def test_unitary_quantity_times_price_identity(k_s, pr):
    q = UnitaryDemand(k_s=k_s).quantity(pr)
    assert abs(q * pr - k_s) <= 1e-12 * k_s


@given(
    k_s=st.floats(min_value=-100.0, max_value=-0.01),
    q_d0=st.floats(min_value=0.01, max_value=100.0),
    pr=st.floats(min_value=0.1, max_value=50.0),
)
def test_linear_demand_slope_matches_finite_difference(k_s, q_d0, pr):
    d = LinearDemand(k_s=k_s, q_d0=q_d0)
    fd = central_difference(d.quantity, pr, 1e-6 * pr)
    assert abs(fd - d.slope(pr)) <= 1e-6 * max(1.0, abs(d.slope(pr)))


@given(k_s=positive, pr=st.floats(min_value=0.1, max_value=1e3))
def test_unitary_slope_matches_finite_difference(k_s, pr):
    d = UnitaryDemand(k_s=k_s)
    fd = central_difference(d.quantity, pr, 1e-6 * pr)
    assert abs(fd - d.slope(pr)) <= 1e-6 * abs(d.slope(pr))


def test_quantity_behaves_like_float():
    # plain floats, no subclass: nothing to allocate or strip per evaluation
    assert type(UnitaryDemand(k_s=8.0).quantity(2.0)) is float
    assert type(LinearDemand(k_s=-2.0, q_d0=10.0).quantity(6.0)) is float
    assert type(point_elasticity(UnitaryDemand(k_s=8.0), 2.0)) is float
