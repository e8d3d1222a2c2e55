"""Constraint-surface sampling, iso-curve families and collapse checks.

Works with any equation of state exposing the shared contract
(``axis_labels``, ``y_of``, ``residual``, ``check_domain``): the market
surface, the ideal gas and the Curie paramagnet. Exports are plain CSV
or JSON and are byte-deterministic for a given grid.

Sampled surfaces and iso-curve families share one row layout: the x
axis, the t values, and one tuple of y values per t. Every point is
still evaluated and audited on its own; the layout lets the renderers
format each axis value once instead of once per point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .curves import UnitaryDemand
from .equilibrium import PER_HOUSEHOLD, MarketSpec
from .errors import DomainError, InvariantError

# Every emitted point must sit on its surface to this relative bound.
RESIDUAL_AUDIT_REL = 1e-9

# Pointwise relative tolerance for declaring curves (or points on a
# line) degenerate.
COLLAPSE_REL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling grid with finite bounds, linear spacing in both directions."""

    x_min: float
    x_max: float
    nx: int
    t_min: float
    t_max: float
    nt: int

    def __post_init__(self) -> None:
        for name in ("x_min", "x_max", "t_min", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise InvariantError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.x_min < self.x_max:
            raise InvariantError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not self.t_min < self.t_max:
            raise InvariantError(f"need t_min < t_max, got [{self.t_min}, {self.t_max}]")
        if self.nx < 2 or self.nt < 2:
            raise InvariantError(f"need nx >= 2 and nt >= 2, got nx={self.nx}, nt={self.nt}")

    def x_values(self) -> list[float]:
        return _linspace(self.x_min, self.x_max, self.nx)

    def t_values(self) -> list[float]:
        return _linspace(self.t_min, self.t_max, self.nt)


def _check_rows(x_values: tuple, t_values: tuple, y_rows: tuple) -> None:
    if not x_values or not t_values:
        raise InvariantError("need at least one x value and one t value")
    if len(y_rows) != len(t_values) or any(len(ys) != len(x_values) for ys in y_rows):
        raise InvariantError(f"need {len(t_values)} rows of {len(x_values)} y values, one per t value")


@dataclass(frozen=True)
class SurfaceGrid:
    """Sampled surface in rows: ``y_rows[j][i]`` is y at ``(x_values[i], t_values[j])``."""

    x_label: str
    y_label: str
    t_label: str
    x_values: tuple[float, ...]
    t_values: tuple[float, ...]
    y_rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        _check_rows(self.x_values, self.t_values, self.y_rows)

    @property
    def points(self) -> tuple[tuple[float, float, float], ...]:
        """(x, t, y) triples, row-major in t then x; built on each access."""
        return tuple(
            (x, t, y)
            for t, ys in zip(self.t_values, self.y_rows)
            for x, y in zip(self.x_values, ys)
        )

    def to_dict(self) -> dict:
        return {
            "x_label": self.x_label,
            "y_label": self.y_label,
            "t_label": self.t_label,
            "points": [list(p) for p in self.points],
        }


@dataclass(frozen=True)
class IsocurveFamily:
    """One curve per fixed t value over a shared, strictly increasing x axis.

    ``y_rows[j][i]`` is y at ``(x_values[i], t_values[j])``.
    """

    x_values: tuple[float, ...]
    t_values: tuple[float, ...]
    y_rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        _check_rows(self.x_values, self.t_values, self.y_rows)

    @property
    def curves(self) -> tuple[tuple[tuple[float, float], ...], ...]:
        """One tuple of (x, y) pairs per t value; built on each access."""
        return tuple(tuple(zip(self.x_values, ys)) for ys in self.y_rows)

    def to_dict(self) -> dict:
        return {
            "t_values": list(self.t_values),
            "curves": [[list(p) for p in curve] for curve in self.curves],
        }


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _evaluate(eos, x: float, t: float) -> float:
    try:
        y = eos.y_of(x, t)
    except DomainError as exc:
        raise DomainError(f"grid point (x={x}, t={t}) outside the surface domain: {exc}") from exc
    if not math.isfinite(y):
        raise DomainError(f"grid point (x={x}, t={t}) gives non-finite y={y}")
    if not abs(eos.residual(x, y, t)) <= RESIDUAL_AUDIT_REL * max(1.0, abs(y)):
        raise InvariantError(f"emitted point (x={x}, t={t}, y={y}) fails its residual audit")
    return y


def _sample_rows(eos, xs: list[float], ts) -> tuple[tuple[float, ...], ...]:
    """One tuple of audited y values per t, in x order.

    Linear spacing can round past the double range between finite
    bounds, and isocurve t values come from the caller, so each axis
    value is checked once before sampling.
    """
    for axis, values in (("x", xs), ("t", ts)):
        for value in values:
            if not math.isfinite(value):
                raise DomainError(f"grid {axis} value {value} is not finite")
    return tuple(tuple([_evaluate(eos, x, t) for x in xs]) for t in ts)


def sample_surface(eos, grid: GridSpec) -> SurfaceGrid:
    """Evaluate the surface closed form at every grid point.

    Ordering is deterministic (t outer, x inner) and every emitted
    point is audited against the surface residual.
    """
    xs = grid.x_values()
    ts = grid.t_values()
    x_label, y_label, t_label = eos.axis_labels()
    return SurfaceGrid(
        x_label=x_label,
        y_label=y_label,
        t_label=t_label,
        x_values=tuple(xs),
        t_values=tuple(ts),
        y_rows=_sample_rows(eos, xs, ts),
    )


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
    xs = _linspace(x_lo, x_hi, n_points)
    return IsocurveFamily(
        x_values=tuple(xs), t_values=tuple(t_values), y_rows=_sample_rows(eos, xs, t_values)
    )


@dataclass(frozen=True)
class IsopriceCollapseReport:
    """Degeneracy check of the clearing-constrained market states.

    At each exogenous price the cleared state (Q^s, q^d) is generated;
    all of them land on the single line q^d = Q^s / N instead of
    forming one curve per price.
    """

    line_slope: float
    prices: tuple[float, ...]
    points: tuple[tuple[float, float], ...]
    max_rel_deviation: float
    collapse: bool

    def to_dict(self) -> dict:
        return {
            "line_slope": self.line_slope,
            "prices": list(self.prices),
            "points": [list(p) for p in self.points],
            "max_rel_deviation": self.max_rel_deviation,
            "collapse": self.collapse,
        }


def isoprice_collapse_check(
    market: MarketSpec, prices: list[float], rel_tol: float = COLLAPSE_REL
) -> IsopriceCollapseReport:
    """Generate cleared states at each price and test the line degeneracy.

    For unitary demand the cleared transaction quantity equals the
    aggregate demand, so (Q^s, q^d) = (N * q^d, q^d) for every price:
    one line of slope 1/N, not a family of curves.
    """
    if not isinstance(market.demand, UnitaryDemand):
        raise TypeError("isoprice collapse is defined for unitary demand markets")
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
        line_y = q_s / n
        scale = max(abs(q_d), abs(line_y), 1.0e-300)
        max_rel = max(max_rel, abs(q_d - line_y) / scale)
        points.append((q_s, q_d))
    return IsopriceCollapseReport(
        line_slope=1.0 / n,
        prices=tuple(prices),
        points=tuple(points),
        max_rel_deviation=max_rel,
        collapse=max_rel <= rel_tol,
    )


@dataclass(frozen=True)
class CurveCollapseReport:
    """Whether every curve of a family coincides with the first."""

    n_curves: int
    max_rel_difference: float
    collapse: bool

    def to_dict(self) -> dict:
        return {
            "n_curves": self.n_curves,
            "max_rel_difference": self.max_rel_difference,
            "collapse": self.collapse,
        }


def family_collapse(family: IsocurveFamily, rel_tol: float = COLLAPSE_REL) -> CurveCollapseReport:
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
        collapse=max_rel <= rel_tol,
    )


def _fmt17(value: float) -> str:
    return format(float(value), ".17g")


def render_csv(obj: SurfaceGrid | IsocurveFamily) -> str:
    """CSV text: columns x,t,y for a surface, t,x,y for isocurves.

    Values carry 17 significant digits so re-parsing reproduces every
    float bit-exactly. Each x is formatted once per object and each t
    once per row.
    """
    if isinstance(obj, SurfaceGrid):
        lines = ["x,t,y"]
    elif isinstance(obj, IsocurveFamily):
        lines = ["t,x,y"]
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as CSV")
    xs = [_fmt17(x) + "," for x in obj.x_values]
    for t, ys in zip(obj.t_values, obj.y_rows):
        t_cell = _fmt17(t) + ","
        if isinstance(obj, SurfaceGrid):
            lines += [f"{x}{t_cell}{y:.17g}" for x, y in zip(xs, ys)]
        else:
            lines += [f"{t_cell}{x}{y:.17g}" for x, y in zip(xs, ys)]
    return "\n".join(lines) + "\n"


def _render_surface_json(grid: SurfaceGrid) -> str:
    """The text of ``json.dumps(grid.to_dict(), indent=2)``, written row by row.

    Numbers are written with ``repr``, which is what the json encoder
    writes for a finite float; sampling admits only finite values.
    """
    heads = [f"    [\n      {x!r},\n      " for x in grid.x_values]
    points = []
    for t, ys in zip(grid.t_values, grid.y_rows):
        middle = f"{t!r},\n      "
        points += [f"{head}{middle}{y!r}\n    ]" for head, y in zip(heads, ys)]
    labels = "".join(
        f"  {json.dumps(key)}: {json.dumps(getattr(grid, key))},\n"
        for key in ("x_label", "y_label", "t_label")
    )
    return "{\n" + labels + '  "points": [\n' + ",\n".join(points) + "\n  ]\n}\n"


def render_json(obj: SurfaceGrid | IsocurveFamily) -> str:
    if isinstance(obj, SurfaceGrid):
        return _render_surface_json(obj)
    if isinstance(obj, IsocurveFamily):
        return json.dumps(obj.to_dict(), indent=2) + "\n"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def export(obj: SurfaceGrid | IsocurveFamily, format: str, destination: str | Path) -> Path:
    """Write ``obj`` to ``destination`` as ``csv`` or ``json``."""
    if format == "csv":
        text = render_csv(obj)
    elif format == "json":
        text = render_json(obj)
    else:
        raise DomainError(f"unsupported export format {format!r}")
    path = Path(destination)
    path.write_text(text, encoding="utf-8")
    return path
