"""Clearing solvers: closed forms, the bisection oracle, and bracketing."""

import math
import re
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import market_eos.equilibrium as equilibrium_module
from market_eos import (
    BracketingError,
    DomainError,
    InvariantError,
    LinearDemand,
    LinearSupply,
    MarketSpec,
    UnitaryDemand,
    clearing_price_analytic,
    clearing_price_numeric,
    excess_demand,
)
from market_eos.equilibrium import auto_bracket

LINEAR = MarketSpec(demand=LinearDemand(k_s=-2.0, q_d0=10.0), supply=LinearSupply(k_d=3.0))
UNITARY4 = MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0), households=4)
UNITARY_AGG = MarketSpec(
    demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0), interpretation="aggregate"
)


def test_linear_clearing_point():
    eq = clearing_price_analytic(LINEAR)
    assert eq.clearing_price == 2.0
    assert eq.clearing_quantity == 6.0
    assert eq.residual == 0.0


def test_excess_demand_hand_values():
    assert excess_demand(LINEAR, 2.0) == 0.0
    assert excess_demand(LINEAR, 1.0) == 5.0
    assert excess_demand(UNITARY4, 4.0) == 0.0


def test_unitary_per_household_clearing_point():
    eq = clearing_price_analytic(UNITARY4)
    assert eq.clearing_price == 4.0
    assert eq.clearing_quantity == 8.0


def test_unitary_aggregate_clearing_point():
    eq = clearing_price_analytic(UNITARY_AGG)
    assert eq.clearing_price == 2.0
    assert eq.clearing_quantity == 4.0


def test_aggregate_demand_interpretations():
    # per-household multiplies demand by N, aggregate does not; supply is k_d * pr
    assert excess_demand(UNITARY4, 4.0) == 8.0 - 8.0
    assert excess_demand(UNITARY_AGG, 4.0) == 2.0 - 8.0
    assert excess_demand(LINEAR, 3.0) == 4.0 - 9.0


def test_bisection_matches_analytic_linear():
    eq = clearing_price_numeric(LINEAR)
    assert abs(eq.clearing_price - 2.0) <= 2 * math.ulp(2.0)
    assert eq.residual <= 1e-9 * max(1.0, eq.clearing_quantity)


def test_bisection_matches_analytic_unitary():
    eq = clearing_price_numeric(UNITARY4)
    assert abs(eq.clearing_price - 4.0) <= 2 * math.ulp(4.0)


def test_bad_bracket_raises():
    # sqrt(1e308 / 1e-310) = 1e309: excess demand is positive at every positive double
    with pytest.raises(BracketingError, match="no sign change"):
        clearing_price_numeric(MarketSpec(demand=UnitaryDemand(k_s=1e308), supply=LinearSupply(k_d=1e-310)))


def test_bisection_raises_where_demand_and_supply_both_overflow():
    # Pr* = 1000, where demand N*k_s/Pr and supply k_d*Pr are both inf and excess demand is NaN;
    # NaN > 0.0 is False, so a NaN read as a sign would steer the search to 1.797...
    market = MarketSpec(demand=UnitaryDemand(k_s=1e308), supply=LinearSupply(k_d=1e308), households=1_000_000)
    with pytest.raises(BracketingError, match="is NaN: demand and supply both overflow there"):
        clearing_price_numeric(market)


@pytest.mark.parametrize(
    "market",
    [
        LINEAR,
        UNITARY4,
        UNITARY_AGG,
        MarketSpec(demand=UnitaryDemand(k_s=1e300), supply=LinearSupply(k_d=1e-6), households=1_000_000),
        MarketSpec(demand=UnitaryDemand(k_s=1e-308), supply=LinearSupply(k_d=1e308)),
        MarketSpec(demand=LinearDemand(k_s=-1e-300, q_d0=1e-150), supply=LinearSupply(k_d=1e150)),
        MarketSpec(demand=LinearDemand(k_s=-1e-300, q_d0=1e300), supply=LinearSupply(k_d=1e-8)),
    ],
)
def test_bisection_reads_excess_demand_at_most_70_times(market, monkeypatch):
    calls = []

    def counted(spec, pr):
        calls.append(pr)
        return excess_demand(spec, pr)

    monkeypatch.setattr(equilibrium_module, "excess_demand", counted)
    clearing_price_numeric(market)
    assert 0 < len(calls) <= 70


def test_auto_bracket_contains_root():
    lo, f_lo, hi, f_hi = auto_bracket(LINEAR)
    assert lo <= 2.0 <= hi
    assert (f_lo, f_hi) == (excess_demand(LINEAR, lo), excess_demand(LINEAR, hi))
    lo, f_lo, hi, f_hi = auto_bracket(UNITARY4)
    assert lo <= 4.0 <= hi
    assert (f_lo, f_hi) == (excess_demand(UNITARY4, lo), excess_demand(UNITARY4, hi))


def test_auto_bracket_degenerate_intercept():
    # Pr* = q_d0/(k_d - k_s) pushed toward zero still brackets
    tiny = MarketSpec(demand=LinearDemand(k_s=-2.0, q_d0=1e-12), supply=LinearSupply(k_d=3.0))
    lo, f_lo, hi, f_hi = auto_bracket(tiny)
    assert f_lo > 0 > f_hi
    pr_star = clearing_price_analytic(tiny).clearing_price
    assert lo <= pr_star <= hi
    eq = clearing_price_numeric(tiny)
    assert abs(eq.clearing_price - pr_star) <= 1e-9 * pr_star


@pytest.mark.parametrize(
    "market",
    [
        # sqrt(1e308 / 1e-310) = 1e309 is beyond the largest double
        MarketSpec(demand=UnitaryDemand(k_s=1e308), supply=LinearSupply(k_d=1e-310)),
        # sqrt(4 * 1e308 / 1e-308) = 2e308 is beyond the largest double
        MarketSpec(demand=UnitaryDemand(k_s=1e308), supply=LinearSupply(k_d=1e-308), households=4),
        # q_d0 / (k_d - k_s) = 1e-300 / 2e308 = 5e-609 rounds to 0
        MarketSpec(demand=LinearDemand(k_s=-1e308, q_d0=1e-300), supply=LinearSupply(k_d=1e308)),
    ],
)
def test_analytic_rejects_clearing_price_outside_positive_doubles(market):
    with pytest.raises(DomainError, match="not a positive finite double"):
        clearing_price_analytic(market)


def _exact_unitary_price(k_s: float, k_d: float, n: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(n) * Decimal(k_s) / Decimal(k_d)).sqrt()


@pytest.mark.parametrize(
    "k_s, k_d, n, price",
    [
        (1e300, 1e-6, 1_000_000, 1e156),  # n * k_s / k_d = 1e312 overflows
        (1e308, 1e-308, 1, 1e308),  # 1e616 overflows
        (1e-308, 1e308, 1, 1e-308),  # 1e-616 underflows to 0; the price is subnormal
        (1e-300, 1e10, 1, 1e-155),  # 1e-310 is subnormal, so its root has lost bits
    ],
)
def test_analytic_rescales_a_quotient_outside_the_normal_range(k_s, k_d, n, price):
    market = MarketSpec(demand=UnitaryDemand(k_s=k_s), supply=LinearSupply(k_d=k_d), households=n)
    assert clearing_price_analytic(market).clearing_price == price


positive_doubles = st.floats(min_value=math.ulp(0.0), max_value=sys.float_info.max)


@given(k_s=positive_doubles, k_d=positive_doubles, n=st.integers(min_value=1, max_value=10**9), agg=st.booleans())
def test_analytic_unitary_price_is_the_direct_formula_wherever_its_quotient_is_normal(k_s, k_d, n, agg):
    market = MarketSpec(
        demand=UnitaryDemand(k_s=k_s),
        supply=LinearSupply(k_d=k_d),
        households=n,
        interpretation="aggregate" if agg else "per-household",
    )
    n = 1 if agg else n
    quotient = n * k_s / k_d
    exact = _exact_unitary_price(k_s, k_d, n)
    try:
        price = clearing_price_analytic(market).clearing_price
    except DomainError:
        # only a root beyond the largest double is rejected
        assert exact > Decimal(sys.float_info.max) * (1 - Decimal(2) ** -51)
        return
    if sys.float_info.min <= quotient <= sys.float_info.max:
        direct = math.sqrt(k_s / k_d) if agg else math.sqrt(n * k_s / k_d)
        assert price.hex() == direct.hex()
    else:
        # scaled by powers of two, the rounding is that of the direct formula with no exponent limit
        assert abs(Decimal(price) - exact) <= 2 * Decimal(math.ulp(float(exact)))


def _market_over_all_doubles(k_s, q_d0, k_d, n, linear, agg):
    return MarketSpec(
        demand=LinearDemand(k_s=-k_s, q_d0=q_d0) if linear else UnitaryDemand(k_s=k_s),
        supply=LinearSupply(k_d=k_d),
        households=n,
        interpretation="aggregate" if agg else "per-household",
    )


@given(k_s=positive_doubles, q_d0=positive_doubles, k_d=positive_doubles, n=st.integers(min_value=1, max_value=10**9),
       linear=st.booleans(), agg=st.booleans())
def test_bisection_reads_excess_demand_at_most_66_times_over_all_positive_doubles(k_s, q_d0, k_d, n, linear, agg):
    market = _market_over_all_doubles(k_s, q_d0, k_d, n, linear, agg)
    calls = []

    def counted(spec, pr):
        calls.append(pr)
        return excess_demand(spec, pr)

    # the two ends auto_bracket reads are not read again, so at most 64 midpoints follow them
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equilibrium_module, "excess_demand", counted)
        try:
            clearing_price_numeric(market)
        except BracketingError:
            pass
    assert 2 <= len(calls) <= 66
    assert len(set(calls)) == len(calls)


@given(k_s=positive_doubles, q_d0=positive_doubles, k_d=positive_doubles, n=st.integers(min_value=1, max_value=2**1000),
       linear=st.booleans(), agg=st.booleans(), pr=positive_doubles)
def test_excess_demand_never_increases_from_one_positive_double_to_the_next(k_s, q_d0, k_d, n, linear, agg, pr):
    # each step of excess demand is a correctly rounded, monotone operation, so the computed sign changes
    # once at most and the bisection's final bracket is unique; NaN, where demand and supply both
    # overflow, is no reading
    market = _market_over_all_doubles(k_s, q_d0, k_d, n, linear, agg)
    prices = [pr]
    try:  # the clearing price is where the order matters most
        prices.append(clearing_price_analytic(market).clearing_price)
    except DomainError:
        pass
    for p in prices:
        if p == sys.float_info.max:
            continue
        here, there = excess_demand(market, p), excess_demand(market, math.nextafter(p, math.inf))
        if not (math.isnan(here) or math.isnan(there)):
            assert here >= there


@given(k_s=positive_doubles, q_d0=positive_doubles, k_d=positive_doubles, n=st.integers(min_value=1, max_value=2**1000),
       linear=st.booleans(), agg=st.booleans())
def test_bisection_stops_at_a_zero_or_beside_a_sign_change_over_all_positive_doubles(k_s, q_d0, k_d, n, linear, agg):
    # the stopping contract, whatever midpoints are chosen: the returned price reads an exact zero, or
    # an adjacent double reads the opposite sign and at least the same magnitude
    market = _market_over_all_doubles(k_s, q_d0, k_d, n, linear, agg)
    try:
        point = clearing_price_numeric(market)
    except BracketingError:
        return
    p = point.clearing_price
    f_p = excess_demand(market, p)
    assert point.residual == abs(f_p)
    if f_p != 0.0:
        neighbours = [q for q in (math.nextafter(p, 0.0), math.nextafter(p, math.inf)) if 0.0 < q < math.inf]
        assert any(
            f_q != 0.0 and (f_q > 0.0) != (f_p > 0.0) and abs(f_p) <= abs(f_q)
            for f_q in (excess_demand(market, q) for q in neighbours)
        )


def _orientation_agnostic_bisection(market):
    """Reference oracle: the bisection that reads supply through its curve and re-derives which end is positive."""

    def read(pr):
        q = market.demand.quantity(pr)
        if isinstance(market.demand, UnitaryDemand) and market.interpretation == "per-household":
            q = market.households * q
        return q - market.supply.quantity(pr)

    lo, hi = math.ulp(0.0), sys.float_info.max
    f_lo, f_hi = read(lo), read(hi)
    if f_lo != 0.0 and f_hi != 0.0 and (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketingError(
            f"no sign change in excess demand over the positive doubles: "
            f"excess_demand({lo}) = {f_lo}, excess_demand({hi}) = {f_hi}"
        )
    while f_lo != 0.0 and f_hi != 0.0:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        f_mid = read(mid)
        if f_mid != f_mid:
            raise BracketingError(f"excess demand at {mid} is NaN: demand and supply both overflow there")
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    pr_star, f_star = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    return pr_star, market.supply.quantity(pr_star), abs(f_star)


@settings(max_examples=300)
@given(k_s=positive_doubles, q_d0=positive_doubles, k_d=positive_doubles, n=st.integers(min_value=1, max_value=2**1000),
       linear=st.booleans(), agg=st.booleans())
@example(k_s=1e308, q_d0=1.0, k_d=1e308, n=10**6, linear=False, agg=False)  # NaN at the midpoint 219.98...
@example(k_s=2.926302070098786e-290, q_d0=1.5e-323, k_d=6.4533546845947005e-31, n=1, linear=True, agg=False)
def test_bisection_returns_the_orientation_agnostic_loops_point_bit_for_bit_over_all_positive_doubles(
        k_s, q_d0, k_d, n, linear, agg):
    # the search steers by f_lo > 0 > f_hi alone, which auto_bracket's f_lo >= 0 >= f_hi makes true
    # on entry; every point, and every NaN error, must be the one the oriented comparison gives
    market = _market_over_all_doubles(k_s, q_d0, k_d, n, linear, agg)
    try:
        _, f_lo, _, f_hi = auto_bracket(market)
    except BracketingError:
        pass
    else:
        assert f_lo >= 0.0 >= f_hi
    try:
        expected = _orientation_agnostic_bisection(market)
    except BracketingError as error:
        with pytest.raises(BracketingError, match=f"^{re.escape(str(error))}$"):
            clearing_price_numeric(market)
        return
    point = clearing_price_numeric(market)
    got = (point.clearing_price, point.clearing_quantity, point.residual)
    assert [v.hex() for v in got] == [v.hex() for v in expected]


@pytest.mark.parametrize(
    ("market", "pr", "message"),
    [
        (LINEAR, -1.0, "price must be nonnegative, got -1.0"),
        (UNITARY4, 0.0, "price must be positive, got 0.0"),
        (UNITARY4, -1.0, "price must be positive, got -1.0"),
        (UNITARY_AGG, 0.0, "price must be positive, got 0.0"),
        (UNITARY_AGG, -1.0, "price must be positive, got -1.0"),
    ],
)
def test_excess_demand_outside_the_demand_domain_raises_the_demand_curves_error(market, pr, message):
    # supply is read without its own price check, so the demand curve's check is the one that raises
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        excess_demand(market, pr)


def test_bisection_lands_far_from_the_closed_form_where_a_coefficient_is_subnormal():
    # the limit README documents: excess demand is rounded at the scale of the subnormal q_d0,
    # so its computed sign change lies 3.18e14 ULP (of either price) from the closed form
    market = MarketSpec(
        demand=LinearDemand(k_s=-2.926302070098786e-290, q_d0=1.5e-323),
        supply=LinearSupply(k_d=6.4533546845947005e-31),
    )
    analytic = clearing_price_analytic(market).clearing_price
    numeric = clearing_price_numeric(market).clearing_price
    assert (analytic, numeric) == (2.2967851760294625e-293, 2.385234353846151e-293)
    gap = numeric - analytic
    assert gap / math.ulp(analytic) == gap / math.ulp(numeric) == 318008959490554.0


def test_a_root_below_the_smallest_subnormal_rounds_up_in_closed_form_and_has_no_bracket():
    # Pr* = 5e-324 / 1.7 is below the smallest positive double
    market = MarketSpec(demand=LinearDemand(k_s=-0.1, q_d0=5e-324), supply=LinearSupply(k_d=1.6))
    assert clearing_price_analytic(market).clearing_price == 5e-324
    with pytest.raises(BracketingError, match="no sign change in excess demand over the positive doubles"):
        clearing_price_numeric(market)


def test_market_spec_invariants():
    with pytest.raises(InvariantError):
        MarketSpec(demand=LinearSupply(k_d=3.0), supply=LinearSupply(k_d=3.0))
    with pytest.raises(InvariantError, match="supply must be a supply curve, got UnitaryDemand"):
        MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=UnitaryDemand(k_s=2.0))
    with pytest.raises(InvariantError):
        MarketSpec(demand=LinearDemand(k_s=-2.0, q_d0=10.0), supply=LinearSupply(k_d=3.0), households=0)
    # a count beyond the largest double cannot take part in float arithmetic
    with pytest.raises(InvariantError, match="households"):
        MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0), households=10**400)
    with pytest.raises(InvariantError):
        MarketSpec(
            demand=LinearDemand(k_s=-2.0, q_d0=10.0),
            supply=LinearSupply(k_d=3.0),
            interpretation="per-capita",
        )


def test_excess_demand_strictly_decreasing():
    for market in (LINEAR, UNITARY4):
        prices = [0.05 + 0.11 * i for i in range(100)]
        values = [excess_demand(market, pr) for pr in prices]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_scale_covariance():
    lam = 3.7
    scaled = MarketSpec(
        demand=LinearDemand(k_s=-2.0 * lam, q_d0=10.0 * lam),
        supply=LinearSupply(k_d=3.0 * lam),
    )
    base = clearing_price_analytic(LINEAR)
    eq = clearing_price_analytic(scaled)
    assert eq.clearing_price == pytest.approx(base.clearing_price, rel=1e-12)
    assert eq.clearing_quantity == pytest.approx(lam * base.clearing_quantity, rel=1e-12)


linear_markets = st.builds(
    MarketSpec,
    demand=st.builds(
        LinearDemand,
        k_s=st.floats(min_value=-100.0, max_value=-0.01),
        q_d0=st.floats(min_value=0.01, max_value=100.0),
    ),
    supply=st.builds(LinearSupply, k_d=st.floats(min_value=0.01, max_value=100.0)),
)

unitary_markets = st.builds(
    MarketSpec,
    demand=st.builds(UnitaryDemand, k_s=st.floats(min_value=0.01, max_value=100.0)),
    supply=st.builds(LinearSupply, k_d=st.floats(min_value=0.01, max_value=100.0)),
    households=st.integers(min_value=1, max_value=10_000),
)


@given(market=linear_markets)
def test_analytic_vs_numeric_linear(market):
    analytic = clearing_price_analytic(market)
    numeric = clearing_price_numeric(market)
    assert abs(analytic.clearing_price - numeric.clearing_price) <= 1e-9 * analytic.clearing_price


@given(market=unitary_markets)
def test_analytic_vs_numeric_unitary(market):
    analytic = clearing_price_analytic(market)
    numeric = clearing_price_numeric(market)
    assert abs(analytic.clearing_price - numeric.clearing_price) <= 1e-9 * analytic.clearing_price


@given(market=st.one_of(linear_markets, unitary_markets))
def test_residual_bound_at_equilibrium(market):
    eq = clearing_price_analytic(market)
    assert eq.residual <= 1e-9 * max(1.0, eq.clearing_quantity)
    assert eq.clearing_quantity == market.supply.quantity(eq.clearing_price)


scales = st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(
    k_s=scales,
    q_d0=scales,
    k_d=scales,
    n=st.integers(min_value=1, max_value=10**6),
    linear=st.booleans(),
    agg=st.booleans(),
)
# k_d - k_s overflows while the price, 1e300 / 2e308 = 5e-09, is a normal double
@example(k_s=1e308, q_d0=1e300, k_d=1e308, n=1, linear=True, agg=False)
def test_solvers_agree_within_two_ulp_over_three_hundred_decades(k_s, q_d0, k_d, n, linear, agg):
    demand = LinearDemand(k_s=-k_s, q_d0=q_d0) if linear else UnitaryDemand(k_s=k_s)
    market = MarketSpec(
        demand=demand,
        supply=LinearSupply(k_d=k_d),
        households=n,
        interpretation="aggregate" if agg else "per-household",
    )
    try:
        analytic = clearing_price_analytic(market).clearing_price
    except DomainError:
        with pytest.raises(BracketingError):
            clearing_price_numeric(market)
        return
    numeric = clearing_price_numeric(market).clearing_price
    assert abs(numeric - analytic) <= 2 * math.ulp(analytic)
