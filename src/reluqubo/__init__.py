"""Two-body QUBO/Ising models embedding ReLU-type penalties max(a*m, b*m)."""

from .algebra import (
    IsingModel,
    QuboModel,
    QuboParseError,
    energy,
    export_qubo,
    ising_from_qubo,
    parse_qubo,
    qubo_from_ising,
)
from .encoding import BinaryExpansion
from .formulation import (
    BuiltModel,
    ConfigError,
    LinearModelSpec,
    ReluPenaltySpec,
    build_cost_plus_relu,
    build_from_config,
    read_config,
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
    "AnnealConfig",
    "BinaryExpansion",
    "BitCapExceeded",
    "BuiltModel",
    "ConfigError",
    "Grid1D",
    "IsingModel",
    "LinearModelSpec",
    "QuboModel",
    "QuboParseError",
    "ReluPenaltySpec",
    "SolveResult",
    "WolfeDualOptimum",
    "build_cost_plus_relu",
    "build_from_config",
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
    "qubo_from_ising",
    "read_config",
    "recommend_M",
    "relu_reference",
    "simulated_anneal",
    "wolfe_dual_analytic",
]
