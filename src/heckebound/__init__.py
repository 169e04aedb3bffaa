"""Exact upper bounds for the number of prime-to-p Hecke eigensystems
of mod-p automorphic forms on totally indefinite quaternionic settings,
with every intermediate quantity computed in exact rational arithmetic
and cross-checkable against brute-force enumeration oracles.
"""

from .arith import (
    QuadraticCharacter,
    bernoulli,
    generalized_bernoulli,
    kronecker,
    zeta_special_value,
)
from .bounds import (
    BoundReport,
    InternalCheckError,
    asymptotic_check,
    asymptotic_exponent,
    bound_constant,
    detect_p_degree,
    final_bound,
    final_bounds,
    siegel_bound,
    superspecial_mass,
    superspecial_masses,
)
from .groups import (
    dim_bound,
    dim_bounds,
    gl_order,
    irr_count,
    irr_counts,
    level_group_order,
    sp_order,
    unitary_order,
)
from .numberfield import (
    FieldSpec,
    Place,
    QuaternionData,
    SettingError,
    ShimuraSetting,
    check_setting,
    resolve_ramification,
    split_prime,
    splitting,
    validate_setting,
)

__version__ = "0.1.0"

__all__ = [
    "QuadraticCharacter",
    "bernoulli",
    "generalized_bernoulli",
    "kronecker",
    "zeta_special_value",
    "BoundReport",
    "InternalCheckError",
    "asymptotic_check",
    "asymptotic_exponent",
    "bound_constant",
    "detect_p_degree",
    "final_bound",
    "final_bounds",
    "siegel_bound",
    "superspecial_mass",
    "superspecial_masses",
    "dim_bound",
    "dim_bounds",
    "gl_order",
    "irr_count",
    "irr_counts",
    "level_group_order",
    "sp_order",
    "unitary_order",
    "FieldSpec",
    "Place",
    "QuaternionData",
    "SettingError",
    "ShimuraSetting",
    "check_setting",
    "resolve_ramification",
    "split_prime",
    "splitting",
    "validate_setting",
    "__version__",
]
