import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from market_eos import (
    CurieParamagnetEoS,
    DomainError,
    GAS_CONSTANT,
    IdealGasEoS,
    InvariantError,
)


def test_ideal_gas_hand_value():
    gas = IdealGasEoS(n=1.0, R=8.314)
    assert abs(gas.y_of(0.024, 300.0) - 103925.0) <= 0.5


def test_boyle_symmetry():
    gas = IdealGasEoS()
    p1 = gas.y_of(0.01, 310.0)
    p2 = gas.y_of(0.02, 310.0)
    assert p1 == pytest.approx(2.0 * p2, rel=1e-15)


def test_pressure_linear_in_temperature():
    gas = IdealGasEoS()
    assert gas.y_of(0.024, 600.0) == pytest.approx(2.0 * gas.y_of(0.024, 300.0), rel=1e-15)


def test_gas_domain_and_invariants():
    gas = IdealGasEoS()
    with pytest.raises(DomainError):
        gas.y_of(0.024, 0.0)
    with pytest.raises(DomainError):
        gas.y_of(0.0, 300.0)
    with pytest.raises(InvariantError):
        IdealGasEoS(n=0.0)
    with pytest.raises(InvariantError):
        IdealGasEoS(R=-1.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvariantError):
            IdealGasEoS(n=bad)
        with pytest.raises(InvariantError):
            IdealGasEoS(R=bad)
    assert GAS_CONSTANT == 8.314


def test_curie_zero_field():
    mag = CurieParamagnetEoS(D=3.0)
    assert mag.y_of(0.0, 5.0) == 0.0


def test_curie_hand_value():
    mag = CurieParamagnetEoS(D=2.0, mu0=1.0)
    assert mag.y_of(3.0, 6.0) == 1.0


def test_curie_oddness_and_linearity():
    mag = CurieParamagnetEoS(D=2.5, mu0=1.3)
    assert mag.y_of(-3.0, 6.0) == -mag.y_of(3.0, 6.0)
    assert mag.y_of(2.0 * 3.0, 6.0) == 2.0 * mag.y_of(3.0, 6.0)


def test_curie_invariants():
    with pytest.raises(InvariantError):
        CurieParamagnetEoS(D=0.0)
    with pytest.raises(InvariantError):
        CurieParamagnetEoS(D=1.0, mu0=0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvariantError):
            CurieParamagnetEoS(D=bad)
        with pytest.raises(InvariantError):
            CurieParamagnetEoS(D=1.0, mu0=bad)
    with pytest.raises(DomainError):
        CurieParamagnetEoS(D=1.0).y_of(1.0, 0.0)


def test_surface_residual_hand_values():
    # rows yields (y, w, r) per point, with y * w == r the implicit form
    [(ps, vs, nrts)] = IdealGasEoS(n=1.0).rows([0.024], [300.0])
    assert abs(ps[0] - 103925.0) <= 0.5
    assert (vs, nrts) == ([0.024], [8.314 * 300.0])
    assert list(CurieParamagnetEoS(D=1.0).rows([0.0], [1.0])) == [([0.0], [1.0], [0.0])]


def test_residual_coherent_with_specific_ops():
    gas = IdealGasEoS(n=2.0, R=8.314)
    v, t = 0.031, 412.0
    [(ps, vs, nrts)] = gas.rows([v], [t])
    assert ps == [gas.y_of(v, t)]
    assert (vs, nrts) == ([v], [2.0 * 8.314 * t])
    assert abs(ps[0] * v - nrts[0]) <= 2 * math.ulp(nrts[0])
    mag = CurieParamagnetEoS(D=2.0, mu0=0.5)
    assert list(mag.rows([3.0], [6.0])) == [([mag.y_of(3.0, 6.0)], [6.0], [12.0])]
    assert mag.y_of(3.0, 6.0) == 2.0


@given(
    t=st.floats(min_value=1.0, max_value=1000.0),
    v1=st.floats(min_value=0.001, max_value=10.0),
    v2=st.floats(min_value=0.001, max_value=10.0),
)
def test_isotherm_pv_constant(t, v1, v2):
    gas = IdealGasEoS(n=1.0)
    pv1 = gas.y_of(v1, t) * v1
    pv2 = gas.y_of(v2, t) * v2
    assert abs(pv1 - pv2) <= 1e-12 * max(abs(pv1), abs(pv2))


def test_axis_labels():
    assert IdealGasEoS().axis_labels() == ("V", "P", "T")
    assert CurieParamagnetEoS(D=1.0).axis_labels() == ("B0", "M", "T")
