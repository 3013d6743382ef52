"""Axiswise double-phase energies on tensor grids.

Discretizes the Dirichlet problem for the operator that sums, axis by
axis, a p-growth and a weighted q-growth flux of the partial derivatives,
provides the energy-descent solver and weak-form certificates, a
sampling-based convexity lab for modulus estimates, and a reduced-gradient
control loop on top of the solution operator.
"""

from __future__ import annotations

from .control import (
    ControlConfig,
    ControlReport,
    Objective,
    SolutionOperator,
    gateaux_derivative,
    optimize_control,
    reduced_gradient,
    tracking_objective,
)
from .convexity import (
    ConvexityCertificate,
    HyperconvexityTrial,
    SampledSpace,
    SamplerConfig,
    certificate_record,
    check_sum_lemma,
    estimate_modulus,
    grid_function_space,
    real_line_space,
    run_trial,
)
from .energy import (
    EnergyBreakdown,
    Exponents,
    WeightField,
    apply_divergence_operator,
    apply_pseudo_operator,
    energy,
    energy_gradient,
    hessian_apply,
    validate_exponents,
    weak_residual,
)
from .errors import (
    CGBreakdownError,
    ConfigError,
    InnerSolveError,
    SingularLinearizationError,
)
from .grid import (
    EdgeField,
    Grid,
    GridFunction,
    forward_diff,
    inner_product,
    neg_divergence,
    quadrature,
    read_grid_function,
    sobolev_norm,
    write_grid_function,
)
from .solver import SolveReport, SolverConfig, solve_inner

__all__ = [
    "Grid",
    "GridFunction",
    "EdgeField",
    "forward_diff",
    "neg_divergence",
    "quadrature",
    "inner_product",
    "sobolev_norm",
    "write_grid_function",
    "read_grid_function",
    "Exponents",
    "WeightField",
    "EnergyBreakdown",
    "validate_exponents",
    "energy",
    "energy_gradient",
    "apply_pseudo_operator",
    "apply_divergence_operator",
    "weak_residual",
    "hessian_apply",
    "HyperconvexityTrial",
    "ConvexityCertificate",
    "SampledSpace",
    "SamplerConfig",
    "real_line_space",
    "grid_function_space",
    "run_trial",
    "estimate_modulus",
    "check_sum_lemma",
    "certificate_record",
    "SolverConfig",
    "SolveReport",
    "solve_inner",
    "Objective",
    "ControlConfig",
    "ControlReport",
    "SolutionOperator",
    "tracking_objective",
    "gateaux_derivative",
    "reduced_gradient",
    "optimize_control",
    "ConfigError",
    "SingularLinearizationError",
    "CGBreakdownError",
    "InnerSolveError",
]

__version__ = "0.1.0"
