"""Grid sampling, iso-curves, collapse checks, and deterministic exports."""

import io
import json
import math
import os
import sys
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from market_eos import (
    CurieParamagnetEoS,
    DomainError,
    GridSpec,
    IdealGasEoS,
    InvariantError,
    IsocurveFamily,
    LinearSupply,
    MarketSpec,
    SurfaceGrid,
    UnitaryDemand,
    derive_unitary_eos,
    family_collapse,
    isocurves,
    isoprice_collapse_check,
    render_chunks,
    render_csv,
    render_json,
    sample_surface,
)
import market_eos.surface as surface_module
from market_eos.surface import AUDIT_EPS, MAX_GRID_POINTS, write_export

from grid_oracles import curves, document, points
from packaged_schemas import load_schema

UNIT_EOS = derive_unitary_eos(
    MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0), households=4)
)  # K = 1
GRID_2X2 = GridSpec(x_min=1.0, x_max=2.0, nx=2, t_min=1.0, t_max=2.0, nt=2)


def test_two_by_two_surface_values():
    grid = sample_surface(UNIT_EOS, GRID_2X2)
    assert points(grid) == (
        (1.0, 1.0, 1.0),
        (2.0, 1.0, 2.0),
        (1.0, 2.0, 0.5),
        (2.0, 2.0, 1.0),
    )
    assert (grid.x_label, grid.y_label, grid.t_label) == ("Q_s", "q_d", "Pr")
    assert (grid.x_values, grid.t_values) == ((1.0, 2.0), (1.0, 2.0))
    assert grid.y_rows == ((1.0, 2.0), (0.5, 1.0))


def test_surface_grid_rows_must_match_axes():
    with pytest.raises(InvariantError):
        SurfaceGrid("x", "y", "t", x_values=(1.0, 2.0), t_values=(1.0,), y_rows=((1.0,),))
    with pytest.raises(InvariantError):
        SurfaceGrid("x", "y", "t", x_values=(1.0,), t_values=(1.0, 2.0), y_rows=((1.0,),))
    with pytest.raises(InvariantError):
        SurfaceGrid("x", "y", "t", x_values=(), t_values=(), y_rows=())


def test_point_count_matches_grid():
    assert len(points(sample_surface(UNIT_EOS, GRID_2X2))) == 4
    grid = GridSpec(x_min=1.0, x_max=2.0, nx=5, t_min=1.0, t_max=2.0, nt=3)
    assert len(points(sample_surface(UNIT_EOS, grid))) == 15


def test_ideal_gas_surface_value():
    gas = IdealGasEoS(n=1.0, R=8.314)
    grid = GridSpec(x_min=0.024, x_max=0.048, nx=2, t_min=300.0, t_max=600.0, nt=2)
    sampled = sample_surface(gas, grid)
    x, t, y = points(sampled)[0]
    assert (x, t) == (0.024, 300.0)
    assert abs(y - 103925.0) <= 0.5


def test_csv_has_header_plus_point_lines():
    text = render_csv(sample_surface(UNIT_EOS, GRID_2X2))
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0] == "x,t,y"


def test_csv_round_trip_bit_exact():
    grid = GridSpec(x_min=0.7, x_max=9.3, nx=7, t_min=0.3, t_max=11.0, nt=5)
    sampled = sample_surface(IdealGasEoS(n=1.37), grid)
    lines = render_csv(sampled).splitlines()[1:]
    parsed = [tuple(float(cell) for cell in line.split(",")) for line in lines]
    assert tuple(parsed) == points(sampled)


def test_isotherms_double_with_temperature():
    family = isocurves(IdealGasEoS(), [300.0, 600.0], (0.01, 0.1), 20)
    cold, hot = curves(family)
    for (x0, y0), (x1, y1) in zip(cold, hot):
        assert x0 == x1
        assert y1 == pytest.approx(2.0 * y0, rel=1e-15)
    verdict = family_collapse(family)
    assert verdict.n_curves == 2
    assert verdict.collapse is False


def test_unit_price_isocurve_is_identity():
    family = isocurves(UNIT_EOS, [1.0], (1.0, 5.0), 9)
    assert len(curves(family)) == 1
    assert all(y == x for x, y in curves(family)[0])


def test_isoprice_collapse_canonical_market():
    market = MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0), households=4)
    report = isoprice_collapse_check(market, [1.0, 2.0, 4.0, 8.0])
    assert report.collapse is True
    assert report.line_slope == 0.25
    assert report.max_rel_deviation <= 1e-12
    # cleared states: (N*q_d, q_d) at each price
    assert report.points[0] == (32.0, 8.0)


def test_isoprice_collapse_rejects_an_overflowing_cleared_state():
    # k_s / 1e-320 overflows: the cleared state is (inf, inf), not a point on the line
    market = MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0), households=4)
    with pytest.raises(DomainError, match=r"price 1e-320 gives a non-finite cleared state"):
        isoprice_collapse_check(market, [1.0, 1e-320])


def test_isoprice_slope_is_one_for_single_household():
    market = MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0))
    assert isoprice_collapse_check(market, [1.0, 3.0]).line_slope == 1.0


def test_gas_isotherms_do_not_collapse():
    family = isocurves(IdealGasEoS(), [300.0, 600.0], (0.01, 0.1), 10)
    assert family_collapse(family).collapse is False


@pytest.mark.parametrize("rows", [
    ((1.0, 2.0), (math.nan, math.inf)),  # once read as max_rel_difference=0.0, collapse=True
    ((1.0, math.inf), (1.0, math.inf)),
    ((math.nan, 2.0), (1.0, 2.0)),
    ((1.0, -math.inf),),  # one curve, compared with itself
])
def test_family_collapse_rejects_a_non_finite_value(rows):
    family = IsocurveFamily((1.0, 2.0), tuple(1.0 + j for j in range(len(rows))), rows)
    with pytest.raises(DomainError, match="non-finite"):
        family_collapse(family)


def test_family_collapse_of_one_finite_curve_is_a_collapse():
    verdict = family_collapse(IsocurveFamily((1.0, 2.0), (1.0,), ((3.0, 4.0),)))
    assert (verdict.n_curves, verdict.max_rel_difference, verdict.collapse) == (1, 0.0, True)


def test_isoprice_check_rejects_linear_and_empty():
    from market_eos import LinearDemand

    with pytest.raises(DomainError, match="unitary demand markets"):
        isoprice_collapse_check(
            MarketSpec(demand=LinearDemand(k_s=-2.0, q_d0=10.0), supply=LinearSupply(k_d=3.0)),
            [1.0],
        )
    market = MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0))
    with pytest.raises(DomainError):
        isoprice_collapse_check(market, [])
    aggregate = MarketSpec(
        demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0), interpretation="aggregate"
    )
    with pytest.raises(DomainError):
        isoprice_collapse_check(aggregate, [1.0])


def test_surface_json_validates_against_schema():
    doc = json.loads(render_json(sample_surface(UNIT_EOS, GRID_2X2)))
    jsonschema.validate(doc, load_schema("surface"))


def test_isocurves_json_validates_against_schema():
    doc = json.loads(render_json(isocurves(IdealGasEoS(), [300.0, 600.0], (0.01, 0.1), 4)))
    jsonschema.validate(doc, load_schema("isocurves"))


def test_exports_are_deterministic():
    grid = GridSpec(x_min=1.0, x_max=10.0, nx=13, t_min=1.0, t_max=10.0, nt=11)
    a = render_csv(sample_surface(UNIT_EOS, grid))
    b = render_csv(sample_surface(UNIT_EOS, grid))
    assert a == b
    assert render_json(sample_surface(UNIT_EOS, grid)) == render_json(
        sample_surface(UNIT_EOS, grid)
    )


def test_render_chunks_are_one_per_row_and_join_to_the_renderers():
    grid = sample_surface(UNIT_EOS, GridSpec(x_min=1.0, x_max=2.0, nx=3, t_min=1.0, t_max=2.0, nt=4))
    family = isocurves(UNIT_EOS, [1.0, 2.0, 4.0], (1.0, 2.0), 3)
    for obj in (grid, family):
        csv_chunks = list(render_chunks(obj, "csv"))
        assert len(csv_chunks) == 1 + len(obj.t_values)  # header, then one per row
        assert "".join(csv_chunks) == render_csv(obj)
        json_chunks = list(render_chunks(obj, "json"))
        assert len(json_chunks) == 2 + len(obj.t_values)  # head, one per row, tail
        assert "".join(json_chunks) == render_json(obj)
        assert json.loads(render_json(obj)) == document(obj)
    with pytest.raises(DomainError, match="unsupported export format 'xml'"):
        render_chunks(grid, "xml")


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split writer forks")


@pytest.fixture
def split_all(monkeypatch, forks):
    """Every export of two or more rows is split; the list holds one entry per fork."""
    monkeypatch.setattr(surface_module, "SPLIT_POINTS", 0)
    return forks


def rows_object(kind, n_rows):
    xs = (1.0, 1.5, 2.0)
    ts = tuple(1.0 + 0.25 * j for j in range(n_rows))
    rows = tuple(tuple(UNIT_EOS.y_of(x, t) for x in xs) for t in ts)
    return SurfaceGrid(*UNIT_EOS.axis_labels(), xs, ts, rows) if kind is SurfaceGrid else IsocurveFamily(xs, ts, rows)


@needs_fork
@pytest.mark.parametrize("n_rows", [1, 2, 3, 7])
@pytest.mark.parametrize("kind", [SurfaceGrid, IsocurveFamily])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_split_export_writes_the_text_of_render_chunks(split_all, fmt, kind, n_rows):
    obj = rows_object(kind, n_rows)
    out = io.StringIO()
    write_export(obj, fmt, out)
    assert out.getvalue() == "".join(render_chunks(obj, fmt))
    assert len(split_all) == (n_rows >= 2)  # one row is written here alone


def test_small_exports_are_written_by_one_process(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked below SPLIT_POINTS"))
    grid = sample_surface(UNIT_EOS, GridSpec(x_min=1.0, x_max=2.0, nx=255, t_min=1.0, t_max=2.0, nt=257))
    out = io.StringIO()
    write_export(grid, "json", out)  # 65 535 points, one short of 2**16
    assert out.getvalue() == render_json(grid)


def test_split_export_leaves_a_small_grid_no_fork_or_a_running_thread_to_one_process(monkeypatch):
    import threading

    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked where one process exports the grid"))
    split_sized = GridSpec(x_min=1.0, x_max=2.0, nx=256, t_min=1.0, t_max=2.0, nt=256)
    with surface_module.split_export(UNIT_EOS, GridSpec(1.0, 2.0, 255, 1.0, 2.0, 257), "csv") as write:
        assert write is None  # 65 535 points, one short of 2**16
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        with surface_module.split_export(UNIT_EOS, split_sized, "csv") as write:
            assert write is None
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    monkeypatch.delattr(os, "fork")
    with surface_module.split_export(UNIT_EOS, split_sized, "csv") as write:
        assert write is None


@needs_fork
@pytest.mark.parametrize(
    "error, raised",
    [(OSError("disk full"), OSError), (MemoryError(), MemoryError), (ValueError("a bug"), RuntimeError)],
)
def test_a_failing_child_raises_here(split_all, failing_child, error, raised):
    failing_child(error)
    with pytest.raises(raised):
        write_export(rows_object(SurfaceGrid, 4), "csv", io.StringIO())
    assert len(split_all) == 1


class ClosedAfterTheHead(io.StringIO):
    def write(self, text):
        if self.tell():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@needs_fork
def test_a_failing_write_here_kills_and_reaps_the_child(split_all):
    with pytest.raises(BrokenPipeError):
        write_export(rows_object(IsocurveFamily, 5), "json", ClosedAfterTheHead())
    assert len(split_all) == 1


def test_domain_violation_names_offending_point():
    gas = IdealGasEoS()
    grid = GridSpec(x_min=-1.0, x_max=1.0, nx=3, t_min=300.0, t_max=600.0, nt=2)
    with pytest.raises(DomainError, match=r"grid point \(x=-1\.0"):
        sample_surface(gas, grid)


def test_grid_spec_invariants():
    with pytest.raises(InvariantError):
        GridSpec(x_min=2.0, x_max=1.0, nx=2, t_min=1.0, t_max=2.0, nt=2)
    with pytest.raises(InvariantError):
        GridSpec(x_min=1.0, x_max=2.0, nx=1, t_min=1.0, t_max=2.0, nt=2)
    with pytest.raises(InvariantError):
        GridSpec(x_min=1.0, x_max=float("inf"), nx=2, t_min=1.0, t_max=2.0, nt=2)
    with pytest.raises(InvariantError, match="t_min must be finite"):
        GridSpec(x_min=1.0, x_max=2.0, nx=2, t_min=float("nan"), t_max=2.0, nt=2)
    for t_min in (2.0, 3.0):
        with pytest.raises(InvariantError, match=r"need t_min < t_max, got \["):
            GridSpec(x_min=1.0, x_max=2.0, nx=2, t_min=t_min, t_max=2.0, nt=2)


def test_point_limit_is_checked_before_any_axis_is_built():
    limit = MAX_GRID_POINTS
    GridSpec(x_min=1.0, x_max=2.0, nx=limit // 2, t_min=1.0, t_max=2.0, nt=2)
    with pytest.raises(InvariantError, match="exceeds the limit"):
        GridSpec(x_min=1.0, x_max=2.0, nx=limit // 2 + 1, t_min=1.0, t_max=2.0, nt=2)
    with pytest.raises(InvariantError, match="exceeds the limit"):
        GridSpec(x_min=1.0, x_max=2.0, nx=10**12, t_min=1.0, t_max=2.0, nt=10**12)
    with pytest.raises(DomainError, match="exceed the limit"):
        isocurves(UNIT_EOS, [1.0, 2.0], (1.0, 5.0), limit // 2 + 1)
    with pytest.raises(DomainError, match="exceed the limit"):
        isocurves(UNIT_EOS, [1.0], (1.0, 5.0), 10**12)


def test_isocurve_argument_errors():
    with pytest.raises(DomainError):
        isocurves(UNIT_EOS, [1.0], (1.0, 5.0), 1)
    with pytest.raises(DomainError):
        isocurves(UNIT_EOS, [1.0], (5.0, 1.0), 4)
    with pytest.raises(DomainError):
        isocurves(UNIT_EOS, [], (1.0, 5.0), 4)


class _RowOffBy64Ulp(IdealGasEoS):
    """A surface whose closed-form rows are 64 ULP above the implicit form they report."""

    def rows(self, xs, ts):
        for ys, ws, rs in super().rows(xs, ts):
            yield [y + 64 * math.ulp(y) for y in ys], ws, rs


class _NanImplicitForm(IdealGasEoS):
    """A surface whose implicit form is NaN: an audit written as ``gap > bound`` passes it."""

    def rows(self, xs, ts):
        for ys, ws, rs in super().rows(xs, ts):
            yield ys, ws, [math.nan] * len(rs)


def test_non_finite_points_fail_the_audit():
    # y = n R t / x overflows to inf on every point of this grid
    grid = GridSpec(x_min=1e-320, x_max=1e-300, nx=2, t_min=1e300, t_max=1e308, nt=2)
    with pytest.raises(DomainError, match=r"grid point \(x=1e-320, t=1e\+300\) gives non-finite y=inf"):
        sample_surface(IdealGasEoS(), grid)
    # finite bounds whose linear spacing overflows: 3 * (max / 3) rounds up to inf
    wide = GridSpec(x_min=0.0, x_max=sys.float_info.max, nx=4, t_min=1.0, t_max=2.0, nt=2)
    with pytest.raises(DomainError, match="grid x value inf is not finite"):
        sample_surface(CurieParamagnetEoS(D=1.0), wide)
    with pytest.raises(DomainError, match="grid t value nan is not finite"):
        isocurves(IdealGasEoS(), [300.0, float("nan")], (0.01, 0.1), 4)
    for surface in (_RowOffBy64Ulp(), _NanImplicitForm()):
        with pytest.raises(InvariantError, match="fails its residual audit"):
            sample_surface(surface, GRID_2X2)


def test_subnormal_points_are_rejected_even_when_exact():
    # y = t / x = 2**-1023 exactly: on its implicit form, but with 52 significant bits
    gas = IdealGasEoS(n=1.0, R=1.0)
    grid = GridSpec(x_min=2.0**1023, x_max=1.5 * 2.0**1023, nx=2, t_min=1.0, t_max=2.0, nt=2)
    with pytest.raises(DomainError, match=r"grid point \(x=8\.98846567431158e\+307, t=1\.0\) underflows"):
        sample_surface(gas, grid)


def test_zero_points_are_rejected_where_x_is_not_zero():
    # each surface is zero exactly where x is: a zero y anywhere else has underflowed
    with pytest.raises(DomainError, match=r"grid point \(x=1\.0, t=5e-324\) underflows: y=0\.0"):
        sample_surface(IdealGasEoS(n=0.01), GridSpec(x_min=1.0, x_max=2.0, nx=2, t_min=5e-324, t_max=1e-323, nt=2))
    with pytest.raises(DomainError, match=r"grid point \(x=1e-300, t=1e\+300\) underflows: y=0\.0"):
        sample_surface(UNIT_EOS, GridSpec(x_min=1e-300, x_max=2e-300, nx=2, t_min=1e300, t_max=2e300, nt=2))
    across_zero = GridSpec(x_min=-1.0, x_max=1.0, nx=3, t_min=1.0, t_max=2.0, nt=2)
    assert sample_surface(UNIT_EOS, across_zero).y_rows == ((-1.0, 0.0, 1.0), (-0.5, 0.0, 0.5))
    assert sample_surface(CurieParamagnetEoS(D=2.0), across_zero).y_rows == ((-2.0, 0.0, 2.0), (-1.0, 0.0, 1.0))


def test_errors_name_the_first_failing_point_for_unsorted_t_values():
    # the first curve overflows before the later t = -1 leaves the domain
    magnet = CurieParamagnetEoS(D=2.0)
    with pytest.raises(DomainError, match=r"grid point \(x=1\.7e\+308, t=1\.0\) gives non-finite y=inf"):
        isocurves(magnet, [1.0, -1.0], (1.0, 1.7e308), 2)
    with pytest.raises(DomainError, match=r"grid point \(x=1\.0, t=-1\.0\) outside the surface domain"):
        isocurves(magnet, [2.0, -1.0, 1.0], (1.0, 1.7e308), 2)
    with pytest.raises(DomainError, match=r"grid point \(x=10000000000\.0, t=1e-290\) underflows"):
        isocurves(IdealGasEoS(n=1e-10), [1e-290, 1.0, 0.0], (1e-300, 1e10), 2)
    with pytest.raises(DomainError, match=r"grid point \(x=1e-300, t=1e-300\) outside .*: n\*R\*t = 8\.314e-310"):
        isocurves(IdealGasEoS(n=1e-10), [1e-300, 1.0, 0.0], (1e-300, 1.0), 2)


def test_points_with_a_subnormal_hoisted_constant_are_rejected():
    # the audit compares y * w against the rounded constant itself, so it cannot see the bits it lost
    cases = [
        (IdealGasEoS(n=1.37), GridSpec(x_min=1e-300, x_max=2e-300, nx=2, t_min=1e-312, t_max=2e-312, nt=2),
         r"grid point \(x=1e-300, t=1e-312\) outside the surface domain: n\*R\*t = 1\.13901\d*e-311 is below"),
        (CurieParamagnetEoS(D=1e-300, mu0=1e10), GRID_2X2,
         r"grid point \(x=1\.0, t=1\.0\) outside the surface domain: D/mu0 = 1e-310 is below"),
        (UNIT_EOS, GridSpec(x_min=1e-310, x_max=1e-300, nx=2, t_min=1e-320, t_max=1e-310, nt=2),
         r"grid point \(x=1e-310, t=1e-320\) outside the surface domain: K\*x = 1e-310 is below"),
        # n*R*t is normal, but its factor n*R is subnormal and has lost bits
        (IdealGasEoS(n=1.37e-320), GridSpec(x_min=1.0, x_max=2.0, nx=2, t_min=1e300, t_max=2e300, nt=2),
         r"grid point \(x=1\.0, t=1e\+300\) outside the surface domain: n\*R = 1\.139\d*e-319 is below"),
    ]
    for eos, grid, message in cases:
        with pytest.raises(DomainError, match=message):
            sample_surface(eos, grid)
        with pytest.raises(DomainError, match=message):
            isocurves(eos, grid.t_values(), (grid.x_min, grid.x_max), grid.nx)


def _per_point_csv(header, rows):
    """The renderer's reference: every value formatted on its own."""
    lines = [header] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _scale(exponent):
    """Strategy for positive floats near 10**exponent, down to the smallest subnormal."""
    return st.floats(min_value=1.0, max_value=9.99).map(lambda m: max(m * 10.0**exponent, 5e-324))


@st.composite
def _exponent_form_grids(draw):
    """A surface of one of the three kinds on a grid whose values print in
    exponent form (1e-05, 1e+16, subnormals). t stays within 16 decades
    of x, so y = c * x**a * t**b stays finite for all three."""
    eos = draw(st.sampled_from([IdealGasEoS(n=1.37), CurieParamagnetEoS(D=2.5, mu0=1.3), UNIT_EOS]))
    x_min = draw(st.sampled_from([5e-324, 1e-310, 1e-05, 1e16]) | _scale(draw(st.integers(-323, 16))))
    t_min = draw(st.sampled_from([1e-05, 1e16]) | _scale(draw(st.integers(-323, 16))))
    t_min = max(5e-324, x_min * 1e-16, min(t_min, x_min * 1e16))
    grid = GridSpec(
        x_min=x_min,
        x_max=x_min * 2 ** draw(st.integers(1, 30)),
        nx=draw(st.integers(2, 6)),
        t_min=t_min,
        t_max=t_min * 2 ** draw(st.integers(1, 30)),
        nt=draw(st.integers(2, 6)),
    )
    return eos, grid


def _subnormal_constant_rejected(eos, grid) -> bool:
    """Whether some grid point's hoisted constant is subnormal; if so, both samplers must reject it."""
    if isinstance(eos, IdealGasEoS):
        constants = [eos.n * eos.R * t for t in grid.t_values()]
    elif isinstance(eos, CurieParamagnetEoS):
        constants = [eos.D / eos.mu0]
    else:
        constants = [eos.K * x for x in grid.x_values()]
    if not any(0 < abs(c) < sys.float_info.min for c in constants):
        return False
    message = r"outside the surface domain: (n\*R\*t|D/mu0|K\*x) = .* is below the smallest normal double"
    with pytest.raises(DomainError, match=message):
        sample_surface(eos, grid)
    with pytest.raises(DomainError, match=message):
        isocurves(eos, grid.t_values(), (grid.x_min, grid.x_max), grid.nx)
    return True


@given(_exponent_form_grids())
def test_renderers_match_stdlib_and_per_point_reference(case):
    eos, grid = case
    if _subnormal_constant_rejected(eos, grid):
        return
    sampled = sample_surface(eos, grid)
    assert render_json(sampled) == json.dumps(document(sampled), indent=2) + "\n"
    assert render_csv(sampled) == _per_point_csv("x,t,y", points(sampled))
    family = isocurves(eos, grid.t_values(), (grid.x_min, grid.x_max), grid.nx)
    assert render_json(family) == json.dumps(document(family), indent=2) + "\n"
    rows = [(t, x, y) for t, curve in zip(family.t_values, curves(family)) for x, y in curve]
    assert render_csv(family) == _per_point_csv("t,x,y", rows)


@given(_exponent_form_grids())
def test_rows_match_per_point_closed_form(case):
    eos, grid = case
    if _subnormal_constant_rejected(eos, grid):
        return
    xs, ts = grid.x_values(), grid.t_values()
    reference = _bits([eos.y_of(x, t) for x in xs] for t in ts)
    assert _bits(sample_surface(eos, grid).y_rows) == reference
    assert _bits(isocurves(eos, ts, (grid.x_min, grid.x_max), grid.nx).y_rows) == reference


def _bits(rows):
    return [[y.hex() for y in ys] for ys in rows]


def _exact_y(eos, x, t):
    """y at (x, t) in exact rational arithmetic on the float constants and coordinates."""
    x, t = Fraction(x), Fraction(t)
    if isinstance(eos, IdealGasEoS):
        return Fraction(eos.n) * Fraction(eos.R) * t / x
    if isinstance(eos, CurieParamagnetEoS):
        return Fraction(eos.D) / Fraction(eos.mu0) * x / t
    return Fraction(eos.K) * x / t


# n*R*t is subnormal here: y = n*R*t/x is 636 epsilons off while y * x matches the rounded n*R*t
@example((IdealGasEoS(n=1.37), GridSpec(x_min=1e-300, x_max=2e-300, nx=2, t_min=1e-312, t_max=2e-312, nt=2)))
@given(_exponent_form_grids())
def test_exported_values_are_within_the_audit_bound_of_the_exact_value(case):
    eos, grid = case
    try:
        sampled = sample_surface(eos, grid)
    except DomainError:
        return
    rel, absolute = AUDIT_EPS * Fraction(sys.float_info.epsilon), AUDIT_EPS * Fraction(math.ulp(0.0))
    for x, t, y in points(sampled):
        exact = _exact_y(eos, x, t)
        assert abs(Fraction(y) - exact) <= rel * abs(exact) + absolute, (x, t, y)
