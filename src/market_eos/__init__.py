"""Market-clearing equilibria and equation-of-state surfaces for simple markets."""

from .config import ConfigDocument, load_config, parse_config
from .curves import (
    LinearDemand,
    LinearSupply,
    UnitaryDemand,
    classify_elasticity,
    point_elasticity,
)
from .eos import (
    GAS_CONSTANT,
    ConsistencyReport,
    CurieParamagnetEoS,
    IdealGasEoS,
    UnitaryEoS,
    check_linear_consistency,
    derive_unitary_eos,
)
from .equilibrium import (
    EquilibriumPoint,
    MarketSpec,
    clearing_price_analytic,
    clearing_price_numeric,
    excess_demand,
)
from .errors import (
    BracketingError,
    ConfigError,
    DomainError,
    InvariantError,
)
from .surface import (
    CurveCollapseReport,
    GridSpec,
    IsocurveFamily,
    IsopriceCollapseReport,
    SurfaceGrid,
    family_collapse,
    isocurves,
    isoprice_collapse_check,
    render_chunks,
    sample_surface,
)
from .zeroth_law import verify_equivalence_laws

__version__ = "0.1.0"

__all__ = [
    "BracketingError",
    "ConfigDocument",
    "ConfigError",
    "ConsistencyReport",
    "CurieParamagnetEoS",
    "CurveCollapseReport",
    "DomainError",
    "EquilibriumPoint",
    "GAS_CONSTANT",
    "GridSpec",
    "IdealGasEoS",
    "InvariantError",
    "IsocurveFamily",
    "IsopriceCollapseReport",
    "LinearDemand",
    "LinearSupply",
    "MarketSpec",
    "SurfaceGrid",
    "UnitaryDemand",
    "UnitaryEoS",
    "check_linear_consistency",
    "classify_elasticity",
    "clearing_price_analytic",
    "clearing_price_numeric",
    "derive_unitary_eos",
    "excess_demand",
    "family_collapse",
    "isocurves",
    "isoprice_collapse_check",
    "load_config",
    "parse_config",
    "point_elasticity",
    "render_chunks",
    "sample_surface",
    "verify_equivalence_laws",
]
