"""Grid sampling, iso-curves, collapse checks, and deterministic exports."""

import io
import json
import math
import os
import signal
import struct
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
    UnitaryEoS,
    derive_unitary_eos,
    family_collapse,
    isocurves,
    isoprice_collapse_check,
    render_chunks,
    sample_surface,
)
import market_eos.surface as surface_module
from market_eos.surface import MAX_GRID_POINTS

from grid_oracles import curves, document, exact_y, points
from packaged_schemas import load_schema

UNIT_EOS = derive_unitary_eos(
    MarketSpec(demand=UnitaryDemand(k_s=8.0), supply=LinearSupply(k_d=2.0), households=4)
)  # K = 1
GRID_2X2 = GridSpec(x_min=1.0, x_max=2.0, nx=2, t_min=1.0, t_max=2.0, nt=2)


def export(obj, fmt):
    """The whole ``fmt`` text of ``obj``: the chunks of ``render_chunks`` joined."""
    return "".join(render_chunks(obj, fmt))


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
    text = export(sample_surface(UNIT_EOS, GRID_2X2), "csv")
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0] == "x,t,y"


def test_csv_round_trip_bit_exact():
    grid = GridSpec(x_min=0.7, x_max=9.3, nx=7, t_min=0.3, t_max=11.0, nt=5)
    sampled = sample_surface(IdealGasEoS(n=1.37), grid)
    lines = export(sampled, "csv").splitlines()[1:]
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


def test_family_collapse_of_finite_curves_whose_difference_overflows_reads_the_relative_gap():
    # 1.7e308 - (-1.7e308) overflows; the gap relative to 1.7e308 is 2, not inf
    verdict = family_collapse(IsocurveFamily((1.0,), (1.0, 2.0), ((1.7e308,), (-1.7e308,))))
    assert (verdict.n_curves, verdict.max_rel_difference, verdict.collapse) == (2, 2.0, False)


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
    doc = json.loads(export(sample_surface(UNIT_EOS, GRID_2X2), "json"))
    jsonschema.validate(doc, load_schema("surface"))


def test_isocurves_json_validates_against_schema():
    doc = json.loads(export(isocurves(IdealGasEoS(), [300.0, 600.0], (0.01, 0.1), 4), "json"))
    jsonschema.validate(doc, load_schema("isocurves"))


def test_exports_are_deterministic():
    grid = GridSpec(x_min=1.0, x_max=10.0, nx=13, t_min=1.0, t_max=10.0, nt=11)
    a = export(sample_surface(UNIT_EOS, grid), "csv")
    b = export(sample_surface(UNIT_EOS, grid), "csv")
    assert a == b
    assert export(sample_surface(UNIT_EOS, grid), "json") == export(sample_surface(UNIT_EOS, grid), "json")


def test_render_chunks_are_one_per_row_and_join_to_the_per_point_text():
    grid = sample_surface(UNIT_EOS, GridSpec(x_min=1.0, x_max=2.0, nx=3, t_min=1.0, t_max=2.0, nt=4))
    family = isocurves(UNIT_EOS, [1.0, 2.0, 4.0], (1.0, 2.0), 3)
    family_rows = [(t, x, y) for t, curve in zip(family.t_values, curves(family)) for x, y in curve]
    for obj, header, rows in ((grid, "x,t,y", points(grid)), (family, "t,x,y", family_rows)):
        csv_chunks = list(render_chunks(obj, "csv"))
        assert len(csv_chunks) == 1 + len(obj.t_values)  # header, then one per row
        assert "".join(csv_chunks) == _per_point_csv(header, rows)
        json_chunks = list(render_chunks(obj, "json"))
        assert len(json_chunks) == 2 + len(obj.t_values)  # head, one per row, tail
        assert "".join(json_chunks) == json.dumps(document(obj), indent=2) + "\n"
    with pytest.raises(DomainError, match="unsupported export format 'xml'"):
        render_chunks(grid, "xml")
    with pytest.raises(TypeError, match="^cannot render GridSpec as CSV$"):  # at the call, not the first chunk
        render_chunks(GRID_2X2, "csv")


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split writer forks")


@pytest.fixture
def split_all(monkeypatch, forks):
    """Every surface export is split; the list holds one entry per fork."""
    monkeypatch.setattr(surface_module, "SPLIT_POINTS", 0)
    return forks


def rows_grid(n_rows):
    return GridSpec(x_min=1.0, x_max=2.0, nx=3, t_min=1.0, t_max=2.5, nt=n_rows)


def split_text(grid, fmt, file, eos=UNIT_EOS):
    """Write the chunks ``split_export`` yields for the surface of ``eos`` on ``grid`` to ``file``."""
    with surface_module.split_export(eos, grid, fmt) as chunks:
        assert chunks is not None
        file.writelines(chunks)


@needs_fork
@pytest.mark.parametrize("n_rows", [2, 3, 7])
@pytest.mark.parametrize("eos", [UNIT_EOS, IdealGasEoS(), CurieParamagnetEoS(D=2.0)], ids=["market", "gas", "magnet"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_split_export_writes_the_text_of_render_chunks(split_all, fmt, eos, n_rows):
    out = io.StringIO()
    split_text(rows_grid(n_rows), fmt, out, eos)
    assert out.getvalue() == "".join(render_chunks(sample_surface(eos, rows_grid(n_rows)), fmt))
    assert len(split_all) == 1


def test_split_export_leaves_a_small_grid_no_fork_or_a_running_thread_to_one_process(monkeypatch):
    import threading

    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked where one process exports the grid"))
    split_sized = GridSpec(x_min=1.0, x_max=2.0, nx=256, t_min=1.0, t_max=2.0, nt=256)
    with surface_module.split_export(UNIT_EOS, GridSpec(1.0, 2.0, 255, 1.0, 2.0, 257), "csv") as chunks:
        assert chunks is None  # 65 535 points, one short of 2**16
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        with surface_module.split_export(UNIT_EOS, split_sized, "csv") as chunks:
            assert chunks is None
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    monkeypatch.delattr(os, "fork")
    with surface_module.split_export(UNIT_EOS, split_sized, "csv") as chunks:
        assert chunks is None


@needs_fork
@pytest.mark.parametrize(
    "error, raised",
    [(OSError("disk full"), OSError), (MemoryError(), MemoryError), (ValueError("a bug"), RuntimeError)],
)
def test_a_failing_child_raises_here(split_all, failing_child, error, raised):
    failing_child(error)
    with pytest.raises(raised):
        split_text(rows_grid(4), "csv", io.StringIO())
    assert len(split_all) == 1


class ClosedAfterTheHead(io.StringIO):
    def write(self, text):
        if self.tell():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@needs_fork
def test_a_successful_export_reaps_its_child_without_a_kill(split_all, monkeypatch):
    kills = []
    monkeypatch.setattr(os, "kill", lambda *args: kills.append(args))
    out = io.StringIO()
    split_text(rows_grid(6), "csv", out)
    assert out.getvalue() == "".join(render_chunks(sample_surface(UNIT_EOS, rows_grid(6)), "csv"))
    assert kills == []
    assert len(split_all) == 1  # and reaped, which the fixture checks


@needs_fork
def test_a_child_killed_while_rendering_raises_with_its_exit_status(split_all, monkeypatch):
    parent, render = os.getpid(), surface_module._rows_text

    def killed_in_the_child(*args):
        if os.getpid() != parent:  # after the child's check report
            os.kill(os.getpid(), signal.SIGKILL)
        return render(*args)

    monkeypatch.setattr(surface_module, "_rows_text", killed_in_the_child)
    out = io.StringIO()
    with pytest.raises(RuntimeError, match="exited -9$"):
        split_text(rows_grid(6), "csv", out)
    head, *rows = render_chunks(sample_surface(UNIT_EOS, rows_grid(6)), "csv")
    assert out.getvalue() == "".join([head, *rows[:3]])  # this process's rows, none of the child's, and no tail
    assert len(split_all) == 1  # and reaped, which the fixture checks


@needs_fork
def test_a_failing_write_here_kills_and_reaps_the_child(split_all):
    with pytest.raises(BrokenPipeError):
        split_text(rows_grid(5), "json", ClosedAfterTheHead())
    assert len(split_all) == 1


def test_domain_violation_names_offending_point():
    gas = IdealGasEoS()
    grid = GridSpec(x_min=-1.0, x_max=1.0, nx=3, t_min=300.0, t_max=600.0, nt=2)
    with pytest.raises(DomainError, match=r"grid point \(x=-1\.0"):
        sample_surface(gas, grid)


SURFACES = [IdealGasEoS(), CurieParamagnetEoS(D=2.0), UNIT_EOS]
SURFACE_IDS = ["gas", "magnet", "market"]
T_NAME = {IdealGasEoS: "temperature", CurieParamagnetEoS: "temperature", UnitaryEoS: "price"}


@pytest.fixture
def no_y_of(monkeypatch):
    """Every surface's ``y_of`` fails the test: sampling states each domain in ``rows`` alone."""
    for cls in T_NAME:
        monkeypatch.setattr(cls, "y_of", lambda self, x, t: pytest.fail(f"{type(self).__name__}.y_of called"))


@pytest.mark.parametrize("eos", SURFACES, ids=SURFACE_IDS)
def test_sampling_calls_no_y_of(no_y_of, eos):
    inside = GridSpec(x_min=1.0, x_max=2.0, nx=3, t_min=1.0, t_max=2.0, nt=3)
    assert sample_surface(eos, inside).y_rows == tuple(map(tuple, eos.rows(inside.x_values(), inside.t_values())))
    isocurves(eos, [2.0, 1.0], (1.0, 2.0), 3)
    with pytest.raises(DomainError, match=r"^grid point \(x=1\.0, t=-1\.0\) outside the surface domain"):
        sample_surface(eos, GridSpec(x_min=1.0, x_max=2.0, nx=3, t_min=-1.0, t_max=1.0, nt=3))
    with pytest.raises(DomainError, match=r"^grid point \(x=1\.0, t=0\.0\) outside the surface domain"):
        isocurves(eos, [2.0, 0.0], (1.0, 2.0), 3)


@needs_fork
@pytest.mark.parametrize("eos", SURFACES, ids=SURFACE_IDS)
def test_a_split_export_calls_no_y_of(no_y_of, split_all, eos):
    out = io.StringIO()
    split_text(rows_grid(4), "csv", out, eos)
    assert out.getvalue() == export(sample_surface(eos, rows_grid(4)), "csv")
    outside = GridSpec(x_min=1.0, x_max=2.0, nx=3, t_min=-1.0, t_max=1.0, nt=4)
    with pytest.raises(DomainError, match=r"^grid point \(x=1\.0, t=-1\.0\) outside the surface domain"):
        split_text(outside, "csv", io.StringIO(), eos)
    assert len(split_all) == 2


@pytest.mark.parametrize("eos", SURFACES, ids=SURFACE_IDS)
def test_rows_and_y_of_raise_at_the_first_t_outside_the_domain(eos):
    xs = [-2.0, 1.0, 3.0] if not isinstance(eos, IdealGasEoS) else [1.0, 3.0]
    rows = eos.rows(xs, [2.0, 1.0, 0.0, -1.0])
    assert [next(rows), next(rows)] == list(eos.rows(xs, [2.0, 1.0]))
    what = T_NAME[type(eos)]
    with pytest.raises(DomainError, match=rf"^grid point \(x={xs[0]}, t=0\.0\) outside the surface domain: "
                                          rf"{what} must be positive, got 0\.0$"):
        next(rows)
    with pytest.raises(DomainError, match=rf"^grid point \(x=0\.5, t=-3\.0\) outside the surface domain: "
                                          rf"{what} must be positive, got -3\.0$"):
        eos.y_of(0.5, -3.0)
    assert eos.y_of(0.5, 3.0) == next(eos.rows([0.5], [3.0]))[0]
    assert [list(eos.rows([], ts)) for ts in ([-1.0, 2.0], [])] == [[[], []], []]


def test_gas_rows_raise_at_the_first_volume_outside_the_domain_in_t_then_x_order():
    gas = IdealGasEoS()
    with pytest.raises(DomainError, match=r"^grid point \(x=-1\.0, t=-2\.0\) outside the surface domain: "
                                          r"temperature must be positive, got -2\.0$"):
        next(gas.rows([-1.0, 0.0, 1.0], [-2.0, 1.0]))
    with pytest.raises(DomainError, match=r"^grid point \(x=0\.0, t=3\.0\) outside the surface domain: "
                                          r"volume must be positive, got 0\.0$"):
        next(gas.rows([0.0, 1.0], [3.0, -2.0]))


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


def test_non_finite_points_are_rejected():
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
    # n*R*t = 8.314e-310 is subnormal, but y = 8.314e-10 at the first point is not: the second point underflows
    with pytest.raises(DomainError, match=r"grid point \(x=1\.0, t=1e-300\) underflows: y=8\.314e-310"):
        isocurves(IdealGasEoS(n=1e-10), [1e-300, 1.0, 0.0], (1e-300, 1.0), 2)


def test_points_whose_intermediate_leaves_the_normal_range_export_the_unbounded_exponent_value():
    # each intermediate is subnormal or overflows while every y is normal; the reference runs the same float
    # operations on inputs scaled by S, exactly, so that every intermediate is normal
    S = 2.0**200
    cases = [
        (IdealGasEoS(n=1.37), GridSpec(x_min=1e-300, x_max=2e-300, nx=2, t_min=1e-312, t_max=2e-312, nt=2),
         lambda x, t: 1.37 * 8.314 * (t * S) / (x * S)),  # n*R*t is subnormal
        (IdealGasEoS(n=1.37e-320), GridSpec(x_min=1.0, x_max=2.0, nx=2, t_min=1e300, t_max=2e300, nt=2),
         lambda x, t: 1.37e-320 * S * 8.314 * t / x / S),  # n*R is subnormal, n*R*t is normal
        (IdealGasEoS(n=1e300), GridSpec(x_min=1e100, x_max=2e100, nx=2, t_min=1e10, t_max=2e10, nt=2),
         lambda x, t: 1e300 / S * 8.314 * t / x * S),  # n*R*t overflows
        (CurieParamagnetEoS(D=1e-300, mu0=1e10), GridSpec(x_min=1e10, x_max=2e10, nx=2, t_min=1.0, t_max=2.0, nt=2),
         lambda x, t: 1e-300 * S / 1e10 * (x / t) / S),  # D/mu0 is subnormal
        (CurieParamagnetEoS(D=1e300), GridSpec(x_min=1e-10, x_max=2e-10, nx=2, t_min=1e300, t_max=2e300, nt=2),
         lambda x, t: 1e300 * (x * S / t) / S),  # x/t is subnormal
        (UNIT_EOS, GridSpec(x_min=1e-310, x_max=1e-300, nx=2, t_min=1e-320, t_max=1e-310, nt=2),
         lambda x, t: UNIT_EOS.K * (x * S) / (t * S)),  # K*x is subnormal
    ]
    for eos, grid, reference in cases:
        expected = _bits([reference(x, t) for x in grid.x_values()] for t in grid.t_values())
        assert _bits(sample_surface(eos, grid).y_rows) == expected
        assert _bits(isocurves(eos, grid.t_values(), (grid.x_min, grid.x_max), grid.nx).y_rows) == expected


def _per_point_csv(header, rows):
    """The renderer's reference: every value formatted on its own."""
    lines = [header] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _scale(exponent):
    """Strategy for positive floats near 10**exponent, down to the smallest subnormal."""
    return st.floats(min_value=1.0, max_value=9.99).map(lambda m: max(m * 10.0**exponent, 5e-324))


_FIXED_SURFACES = st.sampled_from([IdealGasEoS(n=1.37), CurieParamagnetEoS(D=2.5, mu0=1.3), UNIT_EOS])


@st.composite
def _exponent_form_grids(draw, surfaces=_FIXED_SURFACES):
    """A surface drawn from ``surfaces`` on a grid whose values print in
    exponent form (1e-05, 1e+16, subnormals). t stays within 16 decades
    of x, so y = c * x**a * t**b stays normal for each fixed surface."""
    eos = draw(surfaces)
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


@given(_exponent_form_grids())
def test_renderers_match_stdlib_and_per_point_reference(case):
    eos, grid = case
    sampled = sample_surface(eos, grid)
    assert export(sampled, "json") == json.dumps(document(sampled), indent=2) + "\n"
    assert export(sampled, "csv") == _per_point_csv("x,t,y", points(sampled))
    family = isocurves(eos, grid.t_values(), (grid.x_min, grid.x_max), grid.nx)
    assert export(family, "json") == json.dumps(document(family), indent=2) + "\n"
    rows = [(t, x, y) for t, curve in zip(family.t_values, curves(family)) for x, y in curve]
    assert export(family, "csv") == _per_point_csv("t,x,y", rows)


@given(_exponent_form_grids())
def test_rows_match_per_point_closed_form(case):
    eos, grid = case
    xs, ts = grid.x_values(), grid.t_values()
    reference = _bits([eos.y_of(x, t) for x in xs] for t in ts)
    assert _bits(sample_surface(eos, grid).y_rows) == reference
    assert _bits(isocurves(eos, ts, (grid.x_min, grid.x_max), grid.nx).y_rows) == reference


def _bits(rows):
    return [[y.hex() for y in ys] for ys in rows]


# every positive finite double, each binary exponent equally likely, subnormals included
positive_doubles = st.builds(
    lambda exponent, fraction: struct.unpack("<d", struct.pack("<Q", exponent << 52 | fraction))[0],
    st.integers(0, 2046), st.integers(0, 2**52 - 1)).filter(bool)
any_constant_surfaces = st.one_of(
    st.builds(IdealGasEoS, n=positive_doubles, R=positive_doubles),
    st.builds(CurieParamagnetEoS, D=positive_doubles, mu0=positive_doubles),
    st.builds(UnitaryEoS, K=positive_doubles, source_market=st.just(UNIT_EOS.source_market)),
)
# Rounded operations in each closed form, each within 2**-53 of its exact value: n*R, *t, /x; D/mu0, x/t, *; K*x, /t
ROUNDINGS = {IdealGasEoS: 3, CurieParamagnetEoS: 3, UnitaryEoS: 2}


def _grid(eos, x_min, t_min):
    return eos, GridSpec(x_min=x_min, x_max=2 * x_min, nx=2, t_min=t_min, t_max=2 * t_min, nt=2)


# x/t is subnormal
@example(_grid(CurieParamagnetEoS(D=1e300), 1e-10, 1e300))
# n*R*t overflows
@example(_grid(IdealGasEoS(n=1e300, R=8.314), 1e100, 1e10))
# x/t overflows
@example(_grid(CurieParamagnetEoS(D=1e-300), 1e300, 1e-100))
# n*R*t is subnormal
@example(_grid(IdealGasEoS(n=1e-300, R=1.0), 1e-300, 1e-10))
# K = 1e200, and K*x overflows
@example(_grid(derive_unitary_eos(MarketSpec(demand=UnitaryDemand(k_s=1e300), supply=LinearSupply(k_d=1e-100),
                                              households=1)), 1e200, 1e200))
@given(_exponent_form_grids(any_constant_surfaces))
def test_exported_values_are_within_their_rounding_bound_of_the_exact_value(case):
    eos, grid = case
    exact = {(x, t): exact_y(eos, x, t) for t in grid.t_values() for x in grid.x_values()}
    low, high = 2 * Fraction(sys.float_info.min), Fraction(sys.float_info.max) / 2
    try:
        sampled = sample_surface(eos, grid)
    except DomainError:
        # the grid is positive, inside every domain: only a y outside the normal range is refused
        assert not all(low <= y <= high for y in exact.values())
        return
    bound = ROUNDINGS[type(eos)] * Fraction(1, 2**53)
    for x, t, y in points(sampled):
        assert abs(Fraction(y) - exact[x, t]) <= bound * exact[x, t], (x, t, y)
