"""Market equation of state and the linear-market consistency analysis.

Treating a one-good market the way equilibrium thermodynamics treats a
gas, the state coordinates are supplied quantity Q^s (extensive),
demand per household q^d (intensive, the force-like coordinate) and
price Pr (the temperature-like coordinate). For a unit-elastic demand
market clearing against a linear supply curve, those coordinates are
constrained to a surface

    q^d = K * Q^s / Pr,    K = sqrt(k_s / (k_d * N)),

where K plays the role a gas constant plays for an ideal gas and 1/K
is the factor by which the per-household demand is amplified into
supplied quantity. The same construction fails for a linear demand
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
from .equilibrium import _DBL_MIN, PER_HOUSEHOLD, MarketSpec, _sqrt_quotient, clearing_price_analytic
from .errors import DomainError, InvariantError
from .record import Record, set_field
from .reference_eos import _abs_range, _ldexp, _normal, _positive

# The derived identity K * N == Pr* is exact algebra; allow only float
# rounding when checking it at construction.
EOS_SELF_CHECK_REL = 1e-12


class UnitaryEoS(Record):
    """Constraint surface q^d = K * Q^s / Pr for one unitary market.

    K is computed, never user-set, and is specific to the source
    market: it depends on the demand coefficient, the supply slope and
    the household count.
    """

    __slots__ = ("K", "source_market")

    def __init__(self, K: float, source_market: MarketSpec) -> None:
        set_field(self, "K", K)
        set_field(self, "source_market", source_market)

    def axis_labels(self) -> tuple[str, str, str]:
        return ("Q_s", "q_d", "Pr")

    def y_of(self, x: float, t: float) -> float:
        """Per-household demand on the surface at supply x, price t."""
        return next(self.rows([x], [t]))[0]

    def rows(self, xs: list[float], ts: list[float]) -> Iterator[list[float]]:
        """Per t, the demands ``K*x / t`` over ``xs``.

        A ``t <= 0`` raises ``DomainError`` at ``(xs[0], t)``. ``K*x`` is
        computed once per call. Unless it is normal at the smallest and
        largest nonzero ``|x|``, which makes every nonzero ``K*x`` normal,
        every row takes the mantissa route, as the reference surfaces do.
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
