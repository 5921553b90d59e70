"""Two-body QUBO/Ising models embedding the hinge penalty -min(0, m)."""

from .algebra import (
    AffineExpr,
    IsingModel,
    QuadraticExpr,
    QuboModel,
    QuboParseError,
    affine_mul,
    energy,
    export_qubo,
    ising_from_qubo,
    parse_qubo,
    quadratic_to_model,
    qubo_from_ising,
)
from .encoding import BinaryExpansion, delta
from .formulation import (
    BuiltModel,
    ConfigError,
    LinearModelSpec,
    ReluPenaltySpec,
    build_cost_plus_relu,
    build_from_config,
    recommend_M,
)
from .oracle import (
    Grid1D,
    WolfeDualOptimum,
    legendre_conjugate_num,
    qloss_min_form,
    qloss_reference,
    relu_reference,
    wolfe_dual_analytic,
)
from .solvers import (
    AnnealConfig,
    BitCapExceeded,
    SolveResult,
    exhaustive_solve,
    exhaustive_solve_many,
    fix_bits,
    simulated_anneal,
)

__version__ = "0.1.0"

__all__ = [
    "AffineExpr",
    "AnnealConfig",
    "BinaryExpansion",
    "BitCapExceeded",
    "BuiltModel",
    "ConfigError",
    "Grid1D",
    "IsingModel",
    "LinearModelSpec",
    "QuadraticExpr",
    "QuboModel",
    "QuboParseError",
    "ReluPenaltySpec",
    "SolveResult",
    "WolfeDualOptimum",
    "affine_mul",
    "build_cost_plus_relu",
    "build_from_config",
    "delta",
    "energy",
    "exhaustive_solve",
    "exhaustive_solve_many",
    "export_qubo",
    "fix_bits",
    "ising_from_qubo",
    "legendre_conjugate_num",
    "parse_qubo",
    "qloss_min_form",
    "qloss_reference",
    "quadratic_to_model",
    "qubo_from_ising",
    "recommend_M",
    "relu_reference",
    "simulated_anneal",
    "wolfe_dual_analytic",
]
