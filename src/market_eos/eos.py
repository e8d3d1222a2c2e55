"""Equations of state: the market surface, the ideal gas and the Curie paramagnet.

Treating a one-good market the way equilibrium thermodynamics treats a
gas, the state coordinates are supplied quantity Q^s (extensive),
demand per household q^d (intensive, the force-like coordinate) and
price Pr (the temperature-like coordinate). For a unit-elastic demand
market clearing against a linear supply curve, those coordinates are
constrained to a surface

    q^d = K * Q^s / Pr,    K = sqrt(k_s / (k_d * N)),

where K plays the role a gas constant plays for an ideal gas (P * V =
n * R * T) and 1/K is the factor by which the per-household demand is
amplified into supplied quantity, as D/mu0 is in Curie's law. The three
surfaces share one contract, written down on ``_Surface``, so samplers
treat them alike. The same construction fails for a linear demand
curve: deriving the elasticity coefficients from the curve relations
gives a negative square (an imaginary slope) while the slope read
directly off the curve is real and negative, so the two
determinations contradict each other once market clearing ties demand
to supply. Both results are reproduced here, the first as a derivation
with a built-in identity check, the second as an explicit report.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .curves import LinearDemand, UnitaryDemand
from .equilibrium import _DBL_MAX, _DBL_MIN, PER_HOUSEHOLD, MarketSpec, _sqrt_quotient, clearing_price_analytic
from .errors import DomainError, InvariantError
from .record import Record, set_field

GAS_CONSTANT = 8.314

# The derived identity K * N == Pr* is exact algebra; allow only float
# rounding when checking it at construction.
EOS_SELF_CHECK_REL = 1e-12


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


class _Surface(Record):
    """The contract that the three surfaces share, and that samplers read.

    - ``axis_labels()`` names the x, y and t axes.
    - ``rows(xs, ts)`` yields, per t, the list of y over ``xs``: the
      surface's closed form, its float expression evaluated as if the
      exponent range had no limit. Where an intermediate is not normal,
      the same operations run on the ``math.frexp`` mantissas (the
      mantissa route) and the exponents are put back once, so each y is
      within 3 (gas, magnet) or 2 (market) rounding errors of the exact
      value wherever it is normal. ``rows`` is where each surface states
      its domain: it checks each row before it computes it, and raises
      ``DomainError`` at the first point outside.
    - ``y_of(x, t)`` is ``rows`` at one point.
    """

    __slots__ = ()
    _AXES: tuple[str, str, str]

    def axis_labels(self) -> tuple[str, str, str]:
        return self._AXES

    def y_of(self, x: float, t: float) -> float:
        """y at x and t, on the surface."""
        return next(self.rows([x], [t]))[0]


class UnitaryEoS(_Surface):
    """Constraint surface q^d = K * Q^s / Pr for one unitary market.

    K is computed, never user-set, and is specific to the source
    market: it depends on the demand coefficient, the supply slope and
    the household count.
    """

    __slots__ = ("K", "source_market")
    _AXES = ("Q_s", "q_d", "Pr")

    def __init__(self, K: float, source_market: MarketSpec) -> None:
        set_field(self, "K", K)
        set_field(self, "source_market", source_market)

    def rows(self, xs: list[float], ts: list[float]) -> Iterator[list[float]]:
        """Per t, the demands ``K*x / t`` over ``xs``.

        A ``t <= 0`` raises ``DomainError`` at ``(xs[0], t)``. ``K*x`` is
        computed once per call. Unless it is normal at the smallest and
        largest nonzero ``|x|``, which makes every nonzero ``K*x`` normal,
        every row takes the mantissa route.
        """
        lo, hi = _abs_range(xs)
        prices = _positive(xs, ts, "price")
        if _normal(self.K * lo) and _normal(self.K * hi):
            kx = [self.K * x for x in xs]
            for t in prices:
                yield [v / t for v in kx]
        else:
            m_k, e_k = math.frexp(self.K)
            kx = [(m_k * m_x, e_k + e_x) for m_x, e_x in map(math.frexp, xs)]
            for m_t, e_t in map(math.frexp, prices):
                yield [_ldexp(m / m_t, e - e_t) for m, e in kx]

    def to_dict(self) -> dict:
        market = self.source_market
        return {
            "K": self.K,
            "N": market.households,
            "source": {
                "family": "unitary",
                "k_s": market.demand.k_s,
                "k_d": market.supply.k_d,
                "households": market.households,
                "interpretation": market.interpretation,
            },
        }


class IdealGasEoS(_Surface):
    """P * V = n * R * T for n moles of ideal gas."""

    __slots__ = ("n", "R")
    _AXES = ("V", "P", "T")

    def __init__(self, n: float = 1.0, R: float = GAS_CONSTANT) -> None:
        if not (n > 0 and math.isfinite(n)):
            raise InvariantError(f"amount of substance n must be positive and finite, got {n}")
        if not (R > 0 and math.isfinite(R)):
            raise InvariantError(f"gas constant R must be positive and finite, got {R}")
        set_field(self, "n", n)
        set_field(self, "R", R)

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


class CurieParamagnetEoS(_Surface):
    """M = (D / mu0) * (B0 / T): Curie-law paramagnet.

    D is the Curie constant of the material; mu0 defaults to 1 for a
    unit-free treatment and can be set to the physical permeability.
    """

    __slots__ = ("D", "mu0")
    _AXES = ("B0", "M", "T")

    def __init__(self, D: float, mu0: float = 1.0) -> None:
        if not (D > 0 and math.isfinite(D)):
            raise InvariantError(f"Curie constant D must be positive and finite, got {D}")
        if not (mu0 > 0 and math.isfinite(mu0)):
            raise InvariantError(f"permeability mu0 must be positive and finite, got {mu0}")
        set_field(self, "D", D)
        set_field(self, "mu0", mu0)

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


class ConsistencyReport(Record):
    """Outcome of the two-way elasticity determination for a linear market.

    ``eps_d_squared`` and ``eps_s_squared`` come from the curve
    relations; ``eps_d_direct`` is the slope read directly off the
    demand curve. A negative square is classified ``imaginary`` and
    clashes with the always-real direct slope.
    """

    __slots__ = ("eps_d_squared", "eps_s_squared", "eps_d_direct", "classification_d", "classification_s",
                 "consistent", "reason")

    def __init__(self, eps_d_squared: float, eps_s_squared: float, eps_d_direct: float,
                 classification_d: str, classification_s: str, consistent: bool, reason: str) -> None:
        set_field(self, "eps_d_squared", eps_d_squared)
        set_field(self, "eps_s_squared", eps_s_squared)
        set_field(self, "eps_d_direct", eps_d_direct)
        set_field(self, "classification_d", classification_d)
        set_field(self, "classification_s", classification_s)
        set_field(self, "consistent", consistent)
        set_field(self, "reason", reason)


def check_linear_consistency(market: MarketSpec) -> ConsistencyReport:
    """Two-way elasticity determination for a linear-demand market.

    Market clearing equates demand and supply quantities, fixing their
    ratio k_pr at 1, so eps_d_squared = eps_s_squared = k_d * k_s. With
    the negative demand slope a ``LinearDemand`` must have, that square
    is negative, so the verdict is always inconsistent. The sign is read
    from the float product's sign bit, which stays right when it
    underflows to -0.0. Raises ``DomainError`` for a market without
    linear demand or a square that is not finite.
    """
    if not isinstance(market.demand, LinearDemand):
        raise DomainError(
            "check_linear_consistency requires a linear demand market; "
            "use derive_unitary_eos for unitary demand"
        )
    k_s, k_d = market.demand.k_s, market.supply.k_d
    square = k_d * k_s
    if not math.isfinite(square):
        raise DomainError(
            f"eps_d_squared = {square} and eps_s_squared = {square} "
            f"are not both finite for k_s={k_s}, k_d={k_d}, k_pr=1.0"
        )
    if math.copysign(1.0, square) > 0:
        raise InvariantError(f"eps_d_squared = k_d*k_s = {square} is not negative for k_s={k_s}, k_d={k_d}")
    return ConsistencyReport(
        eps_d_squared=square,
        eps_s_squared=square,
        eps_d_direct=k_s,
        classification_d="imaginary",
        classification_s="imaginary",
        consistent=False,
        reason=(
            f"eps_d_squared = k_d*k_s*k_pr = {square} < 0 makes eps_d imaginary, "
            f"while the slope read directly off the demand curve is real ({k_s}); "
            "market clearing forces k_pr = 1.0, so the two determinations contradict"
        ),
    )


def derive_unitary_eos(market: MarketSpec) -> UnitaryEoS:
    """Constraint-surface constant K for a unitary market.

    K = sqrt(k_s / (k_d * N)), rescaled as the clearing price is where
    the quotient or ``k_d * N`` is not a normal double. A K below the
    smallest normal double, subnormal or rounded to zero, raises
    ``DomainError``. Construction self-checks the derived
    identity K == clearing price / N before returning. A market without
    unitary demand, or read in aggregate, raises ``DomainError``.
    """
    if not isinstance(market.demand, UnitaryDemand):
        raise DomainError(
            "derive_unitary_eos requires a unitary demand market; "
            "use check_linear_consistency for linear demand"
        )
    if market.interpretation != PER_HOUSEHOLD:
        raise DomainError(
            "the constraint surface needs the per-household (intensive) demand reading; "
            f"market uses {market.interpretation!r}"
        )
    k_s, k_d, n = market.demand.k_s, market.supply.k_d, market.households
    supply_n = k_d * n
    # a subnormal k_d*N has lost bits already: an infinite quotient sends the root down the rescale path
    k = _sqrt_quotient(k_s / supply_n if supply_n >= _DBL_MIN else math.inf, k_s, k_d, n, -1)
    if k < _DBL_MIN:  # subnormal, or rounded to zero: the identity check below would pass at 0 <= 0
        raise DomainError(f"K = {k!r} is below the smallest normal double")
    pr_star = clearing_price_analytic(market).clearing_price
    if not (abs(k - pr_star / n) <= EOS_SELF_CHECK_REL * (pr_star / n)):
        raise InvariantError(
            f"surface constant failed its identity check: K = {k} "
            f"but the clearing price over N is {pr_star / n}"
        )
    return UnitaryEoS(K=k, source_market=market)
