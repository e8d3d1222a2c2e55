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
and ``write_export`` writes them as they come, the second half of a
large export's rows rendered by a forked child. Only the sampled grid
and a row are held: a 2000 x 2000 gas export peaks near 170 MB (peak
RSS, 2-vCPU VM, Python 3.11), where the whole text took 602-846 MB.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Iterator
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
# have: a 2000 x 2000 grid, whose streamed CLI export peaks near 170 MB
# of memory as CSV and as JSON, most of it the sampled grid (1000 x 1000:
# 54 MB). Checked before any axis is built.
MAX_GRID_POINTS = 4_000_000

# Smallest export, in points, that ``write_export`` splits. The fork and the temporary
# file cost 2-3 ms, which a split wins back at 2**12 to 2**14 points (CSV, 2-vCPU VM).
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


def _row_passes(xs: list[float], ys: list[float], ws: list[float], rs: list[float]) -> bool:
    """Every y is normal, or zero where its x is, and every ``y * w`` is within the audit bound of ``r``.

    Each surface is zero exactly where x is, so a zero y anywhere else
    has underflowed. Written so that a NaN anywhere fails it. The scan
    for small y is skipped when every y is normal and of one sign, and
    the audit lists its failures, which runs faster than ``all`` over a
    generator.
    """
    one_signed_normal = min(ys) >= _DBL_MIN or max(ys) <= -_DBL_MIN
    if not one_signed_normal and any(abs(y) < _DBL_MIN and (y or x) for x, y in zip(xs, ys)):
        return False
    return not [y for y, w, r in zip(ys, ws, rs) if not abs(y * w - r) <= _AUDIT_REL * abs(r) + _AUDIT_ABS]


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


def _sample_rows(eos, xs: list[float], ts: list[float]) -> tuple[tuple[float, ...], ...]:
    """One tuple of audited y values per t, in x order.

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
        ts = ts[:stop]
    else:
        xs, ts = xs[:stop], ts[:1] if stop else []
    y_rows = []
    for t, (ys, ws, rs) in zip(ts, eos.rows(xs, ts)):
        if not _row_passes(xs, ys, ws, rs):
            for x, y, w, r in zip(xs, ys, ws, rs):
                _audit_point(eos, x, y, t, w, r)
        y_rows.append(tuple(ys))
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
    max_rel = 0.0
    for pr in prices:
        q_d = market.demand.quantity(pr)
        q_s = n * q_d
        if not (math.isfinite(q_d) and math.isfinite(q_s)):
            raise DomainError(f"price {pr} gives a non-finite cleared state (Q_s={q_s}, q_d={q_d})")
        line_y = q_s / n
        scale = max(abs(q_d), abs(line_y), 1.0e-300)
        max_rel = max(max_rel, abs(q_d - line_y) / scale)
        points.append((q_s, q_d))
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
    """Pointwise comparison of all curves against the first one."""
    base = family.y_rows[0]
    max_rel = 0.0
    for ys in family.y_rows[1:]:
        for y0, y in zip(base, ys):
            scale = max(abs(y0), abs(y), 1.0e-300)
            max_rel = max(max_rel, abs(y - y0) / scale)
    return CurveCollapseReport(
        n_curves=len(family.y_rows),
        max_rel_difference=max_rel,
        collapse=max_rel <= COLLAPSE_REL,
    )


def _fmt17(value: float) -> str:
    return format(float(value), ".17g")


def _layout(obj: SurfaceGrid | IsocurveFamily, format: str) -> tuple:
    """``(head, row pattern, t formatter, separator before each later row, tail)`` of an export.

    A row is the pattern with ``{t}`` set to the formatted t and its
    ``%`` slots to the y row; a pattern without ``{t}`` leaves t out.
    CSV values are ``%.17g`` (the bytes of ``format(y, ".17g")``), which
    re-parse bit-exactly; JSON numbers are ``repr``, as the json encoder
    writes a finite float. Each x is formatted once, each t once per row.
    """
    if format not in ("csv", "json"):
        raise DomainError(f"unsupported export format {format!r}")
    if not isinstance(obj, (SurfaceGrid, IsocurveFamily)):
        raise TypeError(f"cannot render {type(obj).__name__} as {format.upper()}")
    if format == "csv":
        if isinstance(obj, SurfaceGrid):
            header, line = "x,t,y\n", "{x},{{t}},%.17g\n"
        else:
            header, line = "t,x,y\n", "{{t}},{x},%.17g\n"
        return header, "".join(line.format(x=_fmt17(x)) for x in obj.x_values), _fmt17, "", ""
    if isinstance(obj, SurfaceGrid):
        labels = "".join(
            f"  {json.dumps(key)}: {json.dumps(getattr(obj, key))},\n"
            for key in ("x_label", "y_label", "t_label")
        )
        head = "{\n" + labels + '  "points": [\n'
        pattern = ",\n".join(f"    [\n      {x!r},\n      {{t}},\n      %r\n    ]" for x in obj.x_values)
    else:
        t_list = ",\n".join(f"    {t!r}" for t in obj.t_values)
        head = '{\n  "t_values": [\n' + t_list + '\n  ],\n  "curves": [\n'
        points = ",\n".join(f"      [\n        {x!r},\n        %r\n      ]" for x in obj.x_values)
        pattern = "    [\n" + points + "\n    ]"
    return head, pattern, repr, ",\n", "\n  ]\n}\n"


def _rows_text(layout: tuple, obj: SurfaceGrid | IsocurveFamily, start: int, stop: int) -> Iterator[str]:
    """Rows ``start`` to ``stop`` of the export, each built when it is read."""
    _, pattern, t_cell, sep, _ = layout
    later = sep + pattern
    for j in range(start, stop):
        yield (later if j else pattern).replace("{t}", t_cell(obj.t_values[j])) % tuple(obj.y_rows[j])


def render_chunks(obj: SurfaceGrid | IsocurveFamily, format: str) -> Iterator[str]:
    """The ``csv`` or ``json`` text of ``obj`` in chunks: a head, one chunk per t row, then a JSON tail.

    Each row is rendered when it is read, so a writer that takes the
    chunks as they come holds at most one of them.
    """
    head, *_, tail = layout = _layout(obj, format)
    return chain([head], _rows_text(layout, obj, 0, len(obj.t_values)), [tail] if tail else [])


def write_export(obj: SurfaceGrid | IsocurveFamily, format: str, file: TextIO) -> None:
    """Write the text ``render_chunks(obj, format)`` yields to the text file ``file``.

    Where ``os.fork`` exists and no other Python thread runs, an export
    of two or more rows and at least ``SPLIT_POINTS`` points is rendered
    by two processes: a forked child renders rows ``[n//2:]`` into an
    unnamed temporary file while this process writes rows ``[:n//2]``,
    then copies the child's rows after its own. A child's ``MemoryError``
    or ``OSError`` is raised here; any other failure raises ``RuntimeError``.
    """
    head, *_, tail = layout = _layout(obj, format)
    n = len(obj.t_values)
    file.write(head)
    threading = sys.modules.get("threading")  # never imported: no other Python thread was started
    if (n >= 2 and n * len(obj.x_values) >= SPLIT_POINTS and hasattr(os, "fork")
            and (threading is None or threading.active_count() == 1)):
        _write_split(layout, obj, file, n)
    else:
        file.writelines(_rows_text(layout, obj, 0, n))
    file.write(tail)


def _write_split(layout: tuple, obj: SurfaceGrid | IsocurveFamily, file: TextIO, n: int) -> None:
    import shutil
    import signal
    import tempfile

    half = n // 2
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spill:
        file.flush()  # nothing unwritten is copied into the child
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                spill.writelines(_rows_text(layout, obj, half, n))
                spill.flush()
                status = 0
            except MemoryError:
                status = 3
            except OSError:
                status = 4
            finally:  # any other exception is a bug and leaves status 1
                os._exit(status)
        try:
            file.writelines(_rows_text(layout, obj, 0, half))
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        if status == 3:
            raise MemoryError
        if status == 4:
            raise OSError(f"rendering rows {half} to {n} of the export into a temporary file failed")
        if status != 0:
            raise RuntimeError(f"the child rendering rows {half} to {n} of the export exited {status}")
        spill.seek(0)
        shutil.copyfileobj(spill, file)


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
