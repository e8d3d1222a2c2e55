"""Per-point views of sampled grids, rebuilt from their axes and rows.

A ``SurfaceGrid`` or ``IsocurveFamily`` holds only ``x_values``,
``t_values`` and one row of y values per t. The tests check the rows,
the CSV and the JSON exports against these independently built views,
and each y against its value in exact rational arithmetic.
"""

from fractions import Fraction

from market_eos import CurieParamagnetEoS, IdealGasEoS, SurfaceGrid


def points(grid):
    """(x, t, y) triples of a surface, row-major in t then x."""
    return tuple((x, t, y) for t, ys in zip(grid.t_values, grid.y_rows) for x, y in zip(grid.x_values, ys))


def curves(family):
    """One tuple of (x, y) pairs per t value of an iso-curve family."""
    return tuple(tuple(zip(family.x_values, ys)) for ys in family.y_rows)


def document(obj):
    """The JSON document ``render_chunks(obj, "json")`` writes, as dicts and lists."""
    if isinstance(obj, SurfaceGrid):
        labels = {"x_label": obj.x_label, "y_label": obj.y_label, "t_label": obj.t_label}
        return {**labels, "points": [list(p) for p in points(obj)]}
    return {"t_values": list(obj.t_values), "curves": [[list(p) for p in curve] for curve in curves(obj)]}


def exact_y(eos, x, t):
    """y at (x, t) in exact rational arithmetic on the float constants and coordinates."""
    x, t = Fraction(x), Fraction(t)
    if isinstance(eos, IdealGasEoS):
        return Fraction(eos.n) * Fraction(eos.R) * t / x
    if isinstance(eos, CurieParamagnetEoS):
        return Fraction(eos.D) / Fraction(eos.mu0) * x / t
    return Fraction(eos.K) * x / t
