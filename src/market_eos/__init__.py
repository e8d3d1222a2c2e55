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
    ConsistencyReport,
    UnitaryEoS,
    amplification_factor,
    check_linear_consistency,
    derive_unitary_eos,
    linear_consistency_from_coefficients,
)
from .equilibrium import (
    EquilibriumPoint,
    MarketSpec,
    auto_bracket,
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
from .reference_eos import (
    GAS_CONSTANT,
    CurieParamagnetEoS,
    IdealGasEoS,
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
    render_csv,
    render_json,
    sample_surface,
)
from .zeroth_law import (
    MarketRegistry,
    quantize,
    rank_markets,
    verify_equivalence_laws,
)

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
    "MarketRegistry",
    "MarketSpec",
    "SurfaceGrid",
    "UnitaryDemand",
    "UnitaryEoS",
    "amplification_factor",
    "auto_bracket",
    "check_linear_consistency",
    "classify_elasticity",
    "clearing_price_analytic",
    "clearing_price_numeric",
    "derive_unitary_eos",
    "excess_demand",
    "family_collapse",
    "isocurves",
    "isoprice_collapse_check",
    "linear_consistency_from_coefficients",
    "load_config",
    "parse_config",
    "point_elasticity",
    "quantize",
    "rank_markets",
    "render_chunks",
    "render_csv",
    "render_json",
    "sample_surface",
    "verify_equivalence_laws",
]
