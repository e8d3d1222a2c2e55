"""Constraint-surface sampling, iso-curve families and collapse checks.

Works with any equation of state exposing the shared contract: the
market surface, the ideal gas and the Curie paramagnet.

- ``axis_labels()`` names the x, y and t axes.
- ``y_of(x, t)`` is the closed form at one point. It raises
  ``DomainError`` outside the domain, which is a condition on x and a
  condition on t. It leaves out points whose hoisted constant
  (``n*R*t``, ``D/mu0``, ``K*x``) is subnormal: the audit below would
  compare against that same constant and miss the bits it lost.
- ``rows(xs, ts)`` yields, per t, the closed form over ``xs`` with its
  constants hoisted and the same bits as ``y_of``, plus the two sides of
  the implicit form ``y * w == r`` each y satisfies: ``P * V = n*R*T``,
  ``M * T = (D/mu0) * B0`` and ``q_d * Pr = K * Q_s``.

Sampling checks the domain once per axis value, then evaluates one row
at a time. Every point is audited against its implicit form, which does
not repeat the division that produced y: ``|y*w - r|`` must be at most
``AUDIT_EPS`` machine epsilons of ``|r|`` plus ``AUDIT_EPS`` subnormal
ULPs. A product that overflows while y is finite is compared again
with x and t scaled down by the overflow excess, a power of two, which
every surface allows: each depends on x and t only through their ratio.
A non-finite y, a subnormal y, a zero y where x is not zero (each
surface is zero exactly where x is, so that y underflowed), and a grid
of more than ``MAX_GRID_POINTS`` points are rejected. Errors name the
first failing point in (t, x) order.

Sampled surfaces and iso-curve families share one row layout: the x
axis, the t values, and one tuple of y values per t. Exports are plain
CSV or JSON, byte-deterministic for a given grid, and built one t row
at a time from one layout per format: ``render_chunks`` yields the rows
and ``write_export`` writes them as they come, a forked child rendering
the second half of a large export's rows. ``split_export`` forks before
sampling instead: each process samples, audits and renders its half of
a large surface's rows, and nothing is written until both halves have
passed their audit. Both split through ``market_eos.split``, which only
a split imports. Only the sampled grid, half of it in each process
of a split, and a row are held: a 2000 x 2000 gas export peaks near
92 MB (peak RSS, 2-vCPU VM, Python 3.11), 168 MB when one process held
the whole grid, where the whole text took 602-846 MB.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from itertools import chain, repeat
from typing import TextIO

from .curves import UnitaryDemand
from .equilibrium import PER_HOUSEHOLD, MarketSpec
from .errors import DomainError, InvariantError
from .record import Record, set_field

# Audit bound in machine epsilons (relative) and subnormal ULPs
# (absolute). Rounding leaves at most about two epsilons between the
# sides of an implicit form; a y 64 ULP off is at least 32 epsilons off.
AUDIT_EPS = 4
_AUDIT_REL = AUDIT_EPS * sys.float_info.epsilon
_AUDIT_ABS = AUDIT_EPS * math.ulp(0.0)
_DBL_MIN = sys.float_info.min

# Largest number of points a surface grid or an iso-curve family may
# have: a 2000 x 2000 grid, whose streamed CLI surface export peaks near
# 92 MB of memory as CSV and as JSON, most of it the half of the sampled
# grid each process holds (1000 x 1000: 34 MB); an iso-curve family is
# sampled by one process and peaks near 170 MB. Checked before any axis
# is built.
MAX_GRID_POINTS = 4_000_000

# Smallest export, in points, that ``write_export`` and ``split_export`` split. The fork,
# the pipe and the temporary file cost 2.0-2.4 ms from a small process, which sampling and
# rendering in two processes win back between 2**12 and 2**14 points (gas CSV, 2-vCPU VM).
SPLIT_POINTS = 2**16

# Pointwise relative tolerance for declaring curves (or points on a
# line) degenerate.
COLLAPSE_REL = 1e-12


class GridSpec(Record):
    """Rectangular sampling grid with finite bounds, linear spacing in both directions."""

    __slots__ = ("x_min", "x_max", "nx", "t_min", "t_max", "nt")

    def __init__(self, x_min: float, x_max: float, nx: int, t_min: float, t_max: float, nt: int) -> None:
        for name, value in (("x_min", x_min), ("x_max", x_max), ("t_min", t_min), ("t_max", t_max)):
            if not math.isfinite(value):
                raise InvariantError(f"{name} must be finite, got {value}")
        if not x_min < x_max:
            raise InvariantError(f"need x_min < x_max, got [{x_min}, {x_max}]")
        if not t_min < t_max:
            raise InvariantError(f"need t_min < t_max, got [{t_min}, {t_max}]")
        if nx < 2 or nt < 2:
            raise InvariantError(f"need nx >= 2 and nt >= 2, got nx={nx}, nt={nt}")
        if nx * nt > MAX_GRID_POINTS:
            raise InvariantError(f"grid of nx*nt = {nx * nt} points exceeds the limit of {MAX_GRID_POINTS}")
        set_field(self, "x_min", x_min)
        set_field(self, "x_max", x_max)
        set_field(self, "nx", nx)
        set_field(self, "t_min", t_min)
        set_field(self, "t_max", t_max)
        set_field(self, "nt", nt)

    def x_values(self) -> list[float]:
        return _linspace(self.x_min, self.x_max, self.nx)

    def t_values(self) -> list[float]:
        return _linspace(self.t_min, self.t_max, self.nt)


def _set_rows(obj: Record, x_values: tuple, t_values: tuple, y_rows: tuple) -> None:
    if not x_values or not t_values:
        raise InvariantError("need at least one x value and one t value")
    if len(y_rows) != len(t_values) or any(len(ys) != len(x_values) for ys in y_rows):
        raise InvariantError(f"need {len(t_values)} rows of {len(x_values)} y values, one per t value")
    set_field(obj, "x_values", x_values)
    set_field(obj, "t_values", t_values)
    set_field(obj, "y_rows", y_rows)


class SurfaceGrid(Record):
    """Sampled surface in rows: ``y_rows[j][i]`` is y at ``(x_values[i], t_values[j])``."""

    __slots__ = ("x_label", "y_label", "t_label", "x_values", "t_values", "y_rows")

    def __init__(self, x_label: str, y_label: str, t_label: str, x_values: tuple[float, ...],
                 t_values: tuple[float, ...], y_rows: tuple[tuple[float, ...], ...]) -> None:
        set_field(self, "x_label", x_label)
        set_field(self, "y_label", y_label)
        set_field(self, "t_label", t_label)
        _set_rows(self, x_values, t_values, y_rows)


class IsocurveFamily(Record):
    """One curve per fixed t value over a shared, strictly increasing x axis.

    ``y_rows[j][i]`` is y at ``(x_values[i], t_values[j])``.
    """

    __slots__ = ("x_values", "t_values", "y_rows")

    def __init__(self, x_values: tuple[float, ...], t_values: tuple[float, ...],
                 y_rows: tuple[tuple[float, ...], ...]) -> None:
        _set_rows(self, x_values, t_values, y_rows)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _row_passes(xs: list[float], ys: list[float], ws: list[float], rs: list[float],
                bounds: list[float] | None = None) -> bool:
    """Every y is normal, or zero where its x is, and every ``y * w`` is within the audit bound of ``r``.

    Each surface is zero exactly where x is, so a zero y anywhere else
    has underflowed. Written so that a NaN anywhere fails it. The scan
    for small y is skipped when every y is normal and of one sign, and
    the audit lists its failures, which runs faster than ``all`` over a
    generator. ``bounds``, if given, holds each r's bound, computed once
    for a list of right-hand sides that many rows share.
    """
    one_signed_normal = min(ys) >= _DBL_MIN or max(ys) <= -_DBL_MIN
    if not one_signed_normal and any(abs(y) < _DBL_MIN and (y or x) for x, y in zip(xs, ys)):
        return False
    if bounds is None:
        return not [y for y, w, r in zip(ys, ws, rs) if not abs(y * w - r) <= _AUDIT_REL * abs(r) + _AUDIT_ABS]
    return not [y for y, w, r, bound in zip(ys, ws, rs, bounds) if not abs(y * w - r) <= bound]


def _audit_point(eos, x: float, y: float, t: float, w: float, r: float) -> None:
    """Raise unless y is finite, normal or zero where x is, and on its implicit form ``y * w == r``."""
    if not math.isfinite(y):
        raise DomainError(f"grid point (x={x}, t={t}) gives non-finite y={y}")
    if _row_passes([x], [y], [w], [r]):
        return
    if abs(y) < _DBL_MIN and (y or x):
        raise DomainError(f"grid point (x={x}, t={t}) underflows: y={y} is below the smallest normal double")
    if math.isinf(y * w) or math.isinf(r):
        # y depends on x/t alone, so scaling both by 2**-k keeps y and
        # scales each side exactly. k is the overflow excess of y * w,
        # small enough that the scaled x and t stay normal.
        k = max(1, math.frexp(y)[1] + math.frexp(w)[1] - 1022)
        x_k, t_k = math.ldexp(x, -k), math.ldexp(t, -k)
        [(ys, ws, rs)] = eos.rows([x_k], [t_k])
        if ys == [y] and _row_passes([x_k], ys, ws, rs):
            return
    raise InvariantError(
        f"emitted point (x={x}, t={t}, y={y}) fails its residual audit: "
        f"the implicit form gives {y * w!r} against {r!r}"
    )


def _first_outside(eos, points) -> tuple[int | None, DomainError | None]:
    """Index of the first ``(x, t)`` of ``points`` outside the domain and its error, or ``(None, None)``."""
    for i, (x, t) in enumerate(points):
        try:
            eos.y_of(x, t)
        except DomainError as exc:
            error = DomainError(f"grid point (x={x}, t={t}) outside the surface domain: {exc}")
            error.__cause__ = exc
            return i, error
    return None, None


def _checked_axes(eos, xs: list[float], ts: list[float]) -> tuple[list[float], list[float], DomainError | None]:
    """The axes to sample, cut before the first point outside the domain, and that point's error.

    Linear spacing can round past the double range between finite
    bounds, and isocurve t values come from the caller, so each axis
    value is checked once before sampling. The domain is a condition on
    x and one on t: along the first row ``y_of`` meets the first x
    outside it, and if there is none, down the first column the first t.
    Only the points before that one are sampled, so every error names
    the first failing point in (t, x) order.
    """
    for axis, values in (("x", xs), ("t", ts)):
        for value in values:
            if not math.isfinite(value):
                raise DomainError(f"grid {axis} value {value} is not finite")
    stop, outside = _first_outside(eos, zip(xs, repeat(ts[0])))
    if outside is None:
        stop, outside = _first_outside(eos, zip(repeat(xs[0]), ts))
        return xs, ts[:stop], outside
    return xs[:stop], ts[:1] if stop else [], outside


def _audited_rows(eos, xs: list[float], ts: list[float]) -> list[tuple[float, ...]]:
    """One tuple of audited y values per t over ``xs``, every point inside the domain."""
    y_rows, last_rs, bounds = [], None, None
    for t, (ys, ws, rs) in zip(ts, eos.rows(xs, ts)):
        if rs is not last_rs:
            last_rs, bounds = rs, None
        elif bounds is None:  # met again: the market and the magnet yield one right-hand side list for every row
            bounds = [_AUDIT_REL * abs(r) + _AUDIT_ABS for r in rs]
        if not _row_passes(xs, ys, ws, rs, bounds):
            for x, y, w, r in zip(xs, ys, ws, rs):
                _audit_point(eos, x, y, t, w, r)
        y_rows.append(tuple(ys))
    return y_rows


def _sample_rows(eos, xs: list[float], ts: list[float]) -> tuple[tuple[float, ...], ...]:
    """One tuple of audited y values per t, in x order; errors name the first failing point in (t, x) order."""
    xs, ts, outside = _checked_axes(eos, xs, ts)
    y_rows = _audited_rows(eos, xs, ts)
    if outside is not None:
        raise outside
    return tuple(y_rows)


def sample_surface(eos, grid: GridSpec) -> SurfaceGrid:
    """Evaluate the surface closed form at every grid point.

    Ordering is deterministic (t outer, x inner) and every emitted
    point is audited against the surface's implicit form.
    """
    xs, ts = grid.x_values(), grid.t_values()
    return SurfaceGrid(*eos.axis_labels(), tuple(xs), tuple(ts), _sample_rows(eos, xs, ts))


def isocurves(
    eos, t_values: list[float], x_range: tuple[float, float], n_points: int
) -> IsocurveFamily:
    """One constant-t curve per entry of ``t_values`` over ``x_range``."""
    if n_points < 2:
        raise DomainError(f"n_points must be at least 2, got {n_points}")
    x_lo, x_hi = x_range
    if not x_lo < x_hi:
        raise DomainError(f"need x_min < x_max, got [{x_lo}, {x_hi}]")
    if not t_values:
        raise DomainError("t_values must not be empty")
    if len(t_values) * n_points > MAX_GRID_POINTS:
        raise DomainError(
            f"{len(t_values)} curves of {n_points} points exceed the limit of {MAX_GRID_POINTS} points"
        )
    xs = _linspace(x_lo, x_hi, n_points)
    return IsocurveFamily(
        x_values=tuple(xs), t_values=tuple(t_values), y_rows=_sample_rows(eos, xs, t_values)
    )


def _max_rel_gap(pairs) -> float:
    """Largest ``|a - b| / max(|a|, |b|, 1e-300)`` over the pairs ``(a, b)``, 0.0 for none.

    NaN as soon as a value is NaN or infinite, whose gap is NaN.
    """
    max_rel = 0.0
    for a, b in pairs:
        gap = abs(a - b) / max(abs(a), abs(b), 1.0e-300)
        if gap != gap:
            return gap
        if gap > max_rel:
            max_rel = gap
    return max_rel


class IsopriceCollapseReport(Record):
    """Degeneracy check of the clearing-constrained market states.

    At each exogenous price the cleared state (Q^s, q^d) is generated;
    all of them land on the single line q^d = Q^s / N instead of
    forming one curve per price.
    """

    __slots__ = ("line_slope", "prices", "points", "max_rel_deviation", "collapse")

    def __init__(self, line_slope: float, prices: tuple[float, ...], points: tuple[tuple[float, float], ...],
                 max_rel_deviation: float, collapse: bool) -> None:
        set_field(self, "line_slope", line_slope)
        set_field(self, "prices", prices)
        set_field(self, "points", points)
        set_field(self, "max_rel_deviation", max_rel_deviation)
        set_field(self, "collapse", collapse)


def isoprice_collapse_check(market: MarketSpec, prices: list[float]) -> IsopriceCollapseReport:
    """Generate cleared states at each price and test the line degeneracy.

    For unitary demand the cleared transaction quantity equals the
    aggregate demand, so (Q^s, q^d) = (N * q^d, q^d) for every price:
    one line of slope 1/N, not a family of curves.
    """
    if not isinstance(market.demand, UnitaryDemand):
        raise DomainError("isoprice collapse is defined for unitary demand markets")
    if market.interpretation != PER_HOUSEHOLD:
        raise DomainError("isoprice collapse needs the per-household demand reading")
    if not prices:
        raise DomainError("prices must not be empty")

    n = market.households
    points = []
    for pr in prices:
        q_d = market.demand.quantity(pr)
        q_s = n * q_d
        if not (math.isfinite(q_d) and math.isfinite(q_s)):
            raise DomainError(f"price {pr} gives a non-finite cleared state (Q_s={q_s}, q_d={q_d})")
        points.append((q_s, q_d))
    max_rel = _max_rel_gap((q_d, q_s / n) for q_s, q_d in points)
    return IsopriceCollapseReport(
        line_slope=1.0 / n,
        prices=tuple(prices),
        points=tuple(points),
        max_rel_deviation=max_rel,
        collapse=max_rel <= COLLAPSE_REL,
    )


class CurveCollapseReport(Record):
    """Whether every curve of a family coincides with the first."""

    __slots__ = ("n_curves", "max_rel_difference", "collapse")

    def __init__(self, n_curves: int, max_rel_difference: float, collapse: bool) -> None:
        set_field(self, "n_curves", n_curves)
        set_field(self, "max_rel_difference", max_rel_difference)
        set_field(self, "collapse", collapse)


def family_collapse(family: IsocurveFamily) -> CurveCollapseReport:
    """Pointwise comparison of all curves against the first one, itself included.

    Raises ``DomainError`` where a y value is not finite.
    """
    rows = family.y_rows
    max_rel = _max_rel_gap(zip(chain.from_iterable(repeat(rows[0], len(rows))), chain.from_iterable(rows)))
    if math.isnan(max_rel):
        raise DomainError("a curve of the family has a non-finite y value")
    return CurveCollapseReport(
        n_curves=len(family.y_rows),
        max_rel_difference=max_rel,
        collapse=max_rel <= COLLAPSE_REL,
    )


def _fmt17(value: float) -> str:
    return format(float(value), ".17g")


def _layout(format: str, x_values, labels: tuple[str, str, str] | None, t_values=()) -> tuple:
    """``(head, row pattern, t formatter, separator before each later row, tail)`` of an export.

    The export is that of a surface with axis ``labels`` (x, y, t) or,
    where ``labels`` is None, of an iso-curve family over ``t_values``.
    A row is the pattern with ``{t}`` set to the formatted t and its
    ``%`` slots to the y row; a pattern without ``{t}`` leaves t out.
    CSV values are ``%.17g`` (the bytes of ``format(y, ".17g")``), which
    re-parse bit-exactly; JSON numbers are ``repr``, as the json encoder
    writes a finite float. Each x is formatted once, each t once per row.
    """
    if format not in ("csv", "json"):
        raise DomainError(f"unsupported export format {format!r}")
    if format == "csv":
        if labels is not None:
            header, line = "x,t,y\n", "{x},{{t}},%.17g\n"
        else:
            header, line = "t,x,y\n", "{{t}},{x},%.17g\n"
        return header, "".join(line.format(x=_fmt17(x)) for x in x_values), _fmt17, "", ""
    if labels is not None:
        keyed = "".join(
            f"  {json.dumps(key)}: {json.dumps(label)},\n"
            for key, label in zip(("x_label", "y_label", "t_label"), labels)
        )
        head = "{\n" + keyed + '  "points": [\n'
        pattern = ",\n".join(f"    [\n      {x!r},\n      {{t}},\n      %r\n    ]" for x in x_values)
    else:
        t_list = ",\n".join(f"    {t!r}" for t in t_values)
        head = '{\n  "t_values": [\n' + t_list + '\n  ],\n  "curves": [\n'
        points = ",\n".join(f"      [\n        {x!r},\n        %r\n      ]" for x in x_values)
        pattern = "    [\n" + points + "\n    ]"
    return head, pattern, repr, ",\n", "\n  ]\n}\n"


def _layout_of(obj: SurfaceGrid | IsocurveFamily, format: str) -> tuple:
    if isinstance(obj, SurfaceGrid):
        return _layout(format, obj.x_values, (obj.x_label, obj.y_label, obj.t_label))
    if isinstance(obj, IsocurveFamily):
        return _layout(format, obj.x_values, None, obj.t_values)
    raise TypeError(f"cannot render {type(obj).__name__} as {format.upper()}")


def _rows_text(layout: tuple, t_values, y_rows, start: int) -> Iterator[str]:
    """The export's rows of ``t_values`` and ``y_rows``, the first being row ``start``, each built when it is read."""
    _, pattern, t_cell, sep, _ = layout
    later = sep + pattern
    for j, (t, ys) in enumerate(zip(t_values, y_rows), start):
        yield (later if j else pattern).replace("{t}", t_cell(t)) % tuple(ys)


def render_chunks(obj: SurfaceGrid | IsocurveFamily, format: str) -> Iterator[str]:
    """The ``csv`` or ``json`` text of ``obj`` in chunks: a head, one chunk per t row, then a JSON tail.

    Each row is rendered when it is read, so a writer that takes the
    chunks as they come holds at most one of them.
    """
    head, *_, tail = layout = _layout_of(obj, format)
    return chain([head], _rows_text(layout, obj.t_values, obj.y_rows, 0), [tail] if tail else [])


def _splits(n_rows: int, n_x: int) -> bool:
    """Whether an export of ``n_rows`` rows of ``n_x`` points is made by two processes."""
    threading = sys.modules.get("threading")  # never imported: no other Python thread was started
    return (n_rows >= 2 and n_rows * n_x >= SPLIT_POINTS and hasattr(os, "fork")
            and (threading is None or threading.active_count() == 1))


def write_export(obj: SurfaceGrid | IsocurveFamily, format: str, file: TextIO) -> None:
    """Write the text ``render_chunks(obj, format)`` yields to the text file ``file``.

    Where ``os.fork`` exists and no other Python thread runs, an export
    of two or more rows and at least ``SPLIT_POINTS`` points is rendered
    by two processes: a forked child renders rows ``[n//2:]`` into an
    unnamed temporary file while this process renders rows ``[:n//2]``,
    and the child's rows are copied after its own. A child's
    ``MemoryError`` or ``OSError`` is raised here; any other failure of
    the child raises ``RuntimeError``.
    """
    head, *_, tail = layout = _layout_of(obj, format)
    if _splits(len(obj.t_values), len(obj.x_values)):
        from .split import forked

        with forked(layout, obj.t_values, lambda start, stop: obj.y_rows[start:stop]) as write:
            write(file)
    else:
        file.writelines(chain([head], _rows_text(layout, obj.t_values, obj.y_rows, 0), [tail]))


@contextmanager
def split_export(eos, grid: GridSpec, format: str) -> Iterator[Callable[[TextIO], None] | None]:
    """Sample, audit and render the surface of ``eos`` on ``grid`` in two processes.

    Yields ``write(file)``, which writes the bytes of
    ``write_export(sample_surface(eos, grid), format, file)``, or None
    where one process exports the grid: where ``write_export`` would not
    split it, and where a point lies outside the domain, so that
    ``sample_surface`` audits the points before it and names the first
    failing one. Otherwise this process checks the axes and the domain,
    forks, then samples, audits and renders rows ``[:n//2]`` while a
    child does rows ``[n//2:]``. It yields only once both halves have
    passed their audit, and its own error comes first, as its rows do.
    """
    xs, ts = grid.x_values(), grid.t_values()
    if not _splits(len(ts), len(xs)) or _checked_axes(eos, xs, ts)[2] is not None:
        yield None
        return
    from .split import forked

    layout = _layout(format, xs, eos.axis_labels())
    with forked(layout, ts, lambda start, stop: _audited_rows(eos, xs, ts[start:stop])) as write:
        yield write


def render_csv(obj: SurfaceGrid | IsocurveFamily) -> str:
    """CSV text: columns x,t,y for a surface, t,x,y for isocurves."""
    return "".join(render_chunks(obj, "csv"))


def render_json(obj: SurfaceGrid | IsocurveFamily) -> str:
    """JSON text, the bytes ``json.dumps(doc, indent=2) + "\\n"`` writes for the document.

    A surface's document is ``{"x_label", "y_label", "t_label", "points": [[x, t, y], ...]}``
    in row-major (t, x) order; an iso-curve family's is
    ``{"t_values": [...], "curves": [[[x, y], ...] per t]}``.
    """
    return "".join(render_chunks(obj, "json"))
