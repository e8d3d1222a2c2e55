"""Classical reference equations of state: ideal gas and Curie paramagnet.

Both expose the same surface-evaluation contract as the market surface
(axis labels, rows of the closed form, and y(x, t)), so samplers treat
all three interchangeably. Each closed form is its float expression
evaluated as if the exponent range had no limit: where an intermediate
is not normal, the same operations run on the ``math.frexp`` mantissas
(the mantissa route), and the exponents are put back once. ``rows`` is
where each surface states its domain: it checks each row before it
computes it, and raises ``DomainError`` at the first point outside.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator

from .errors import DomainError, InvariantError
from .record import Record, set_field

GAS_CONSTANT = 8.314

_DBL_MIN, _DBL_MAX = sys.float_info.min, sys.float_info.max


def _normal(value: float) -> bool:
    """Whether ``value`` is a normal double: nonzero, finite and not subnormal."""
    return _DBL_MIN <= abs(value) <= _DBL_MAX


def _abs_range(xs: list[float]) -> tuple[float, float]:
    """The smallest and largest nonzero ``|x|`` over ``xs``, zero where there is none."""
    magnitudes = [abs(x) for x in xs if x]
    return (min(magnitudes), max(magnitudes)) if magnitudes else (0.0, 0.0)


def _outside(x: float, t: float, reason: str) -> DomainError:
    """The error for the point ``(x, t)``, outside a surface's domain for ``reason``."""
    return DomainError(f"grid point (x={x}, t={t}) outside the surface domain: {reason}")


def _positive(xs: list[float], ts: list[float], what: str) -> Iterator[float]:
    """``ts``, each checked when it is read: a ``t <= 0`` raises at ``(xs[0], t)``, unless ``xs`` is empty."""
    for t in ts:
        if t <= 0 and xs:
            raise _outside(xs[0], t, f"{what} must be positive, got {t}")
        yield t


def _ldexp(m: float, e: int) -> float:
    """``m * 2**e`` rounded once, ``±inf`` where it overflows."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


class IdealGasEoS(Record):
    """P * V = n * R * T for n moles of ideal gas."""

    __slots__ = ("n", "R")

    def __init__(self, n: float = 1.0, R: float = GAS_CONSTANT) -> None:
        if not (n > 0 and math.isfinite(n)):
            raise InvariantError(f"amount of substance n must be positive and finite, got {n}")
        if not (R > 0 and math.isfinite(R)):
            raise InvariantError(f"gas constant R must be positive and finite, got {R}")
        set_field(self, "n", n)
        set_field(self, "R", R)

    def axis_labels(self) -> tuple[str, str, str]:
        return ("V", "P", "T")

    def y_of(self, x: float, t: float) -> float:
        """Pressure at volume x and temperature t."""
        return next(self.rows([x], [t]))[0]

    def rows(self, xs: list[float], ts: list[float]) -> Iterator[list[float]]:
        """Per t, the pressures ``n*R*t / x`` over ``xs``.

        A ``t <= 0`` raises ``DomainError`` at ``(xs[0], t)``, and the
        first row whose t passes raises at the first ``x <= 0``. ``n*R``
        is computed once and ``n*R*t`` once per row; a row where either
        is not normal takes the mantissa route.
        """
        nr = self.n * self.R
        nr_normal = _normal(nr)
        nonpositive = next((x for x in xs if x <= 0), None)
        for t in _positive(xs, ts, "temperature"):
            if nonpositive is not None:
                raise _outside(nonpositive, t, f"volume must be positive, got {nonpositive}")
            c = nr * t
            if nr_normal and _normal(c):
                yield [c / x for x in xs]
            else:
                (m_n, e_n), (m_r, e_r), (m_t, e_t) = math.frexp(self.n), math.frexp(self.R), math.frexp(t)
                m_c, e_c = m_n * m_r * m_t, e_n + e_r + e_t
                yield [_ldexp(m_c / m_x, e_c - e_x) for m_x, e_x in map(math.frexp, xs)]


class CurieParamagnetEoS(Record):
    """M = (D / mu0) * (B0 / T): Curie-law paramagnet.

    D is the Curie constant of the material; mu0 defaults to 1 for a
    unit-free treatment and can be set to the physical permeability.
    """

    __slots__ = ("D", "mu0")

    def __init__(self, D: float, mu0: float = 1.0) -> None:
        if not (D > 0 and math.isfinite(D)):
            raise InvariantError(f"Curie constant D must be positive and finite, got {D}")
        if not (mu0 > 0 and math.isfinite(mu0)):
            raise InvariantError(f"permeability mu0 must be positive and finite, got {mu0}")
        set_field(self, "D", D)
        set_field(self, "mu0", mu0)

    def axis_labels(self) -> tuple[str, str, str]:
        return ("B0", "M", "T")

    def y_of(self, x: float, t: float) -> float:
        """Magnetization at applied field x and temperature t."""
        return next(self.rows([x], [t]))[0]

    def rows(self, xs: list[float], ts: list[float]) -> Iterator[list[float]]:
        """Per t, the magnetizations ``(D/mu0) * (x/t)`` over ``xs``.

        A ``t <= 0`` raises ``DomainError`` at ``(xs[0], t)``. ``D/mu0`` is
        computed once; a row takes the mantissa route unless it and
        ``x/t`` at the smallest and largest nonzero ``|x|`` are normal,
        which makes every nonzero ``x/t`` of the row normal.
        """
        c = self.D / self.mu0
        c_normal = _normal(c)
        lo, hi = _abs_range(xs)
        for t in _positive(xs, ts, "temperature"):
            if c_normal and _DBL_MIN <= lo / t and hi / t <= _DBL_MAX:
                yield [c * (x / t) for x in xs]
            else:
                (m_d, e_d), (m_mu, e_mu), (m_t, e_t) = math.frexp(self.D), math.frexp(self.mu0), math.frexp(t)
                m_c, e_c = m_d / m_mu, e_d - e_mu
                yield [_ldexp(m_c * (m_x / m_t), e_c + e_x - e_t) for m_x, e_x in map(math.frexp, xs)]

