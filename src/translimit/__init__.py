"""Slab transport in the diffusive scaling, its diffusion limit, and the
numerical verification of the convergence estimates connecting them."""

__version__ = "0.1.0"

from .errors import (
    CertificationError,
    ConvergenceError,
    SolvabilityError,
    TranslimitError,
    ValidationError,
)
from .velocity_space import (
    AngularQuadrature,
    CertReport,
    DiffusionTensor,
    ScatteringOperator,
    SphereQuadrature,
    apply_K,
    assemble_scattering,
    build_angular_quadrature,
    build_sphere_quadrature,
    certify_assumptions,
    diffusion_moment,
    diffusion_tensor,
    kernel_isotropic,
    kernel_linear,
    pinv_apply,
)
from .problem import (
    CoefficientField,
    Grid1D,
    KernelSpec,
    ManufacturedCase,
    ProblemSpec,
    cells_for_eps,
    manufactured_case,
    mms_diffusion_source,
    mms_transport_source,
    scaled_fields,
)
from .diffusion import DiffusionSolution, solve_diffusion
from .transport import (
    IterationLog,
    OutflowTrace,
    SolverOptions,
    SweepPlan,
    TransportSolution,
    directional_derivative,
    outflow_trace,
    particle_balance,
    solve_transport,
    sweep,
)
from .analysis import (
    ConvergenceReport,
    FitResult,
    NormSet,
    convergence_study,
    expansion_remainder,
    first_order_corrector,
    fit_loglog,
    norms,
    space_velocity_norm,
    split_mean_fluctuation,
    velocity_average,
)
from .config import Config, StudySpec, load_config

__all__ = [
    "__version__",
    "TranslimitError", "ValidationError", "SolvabilityError",
    "CertificationError", "ConvergenceError",
    "SphereQuadrature", "AngularQuadrature", "ScatteringOperator",
    "CertReport", "DiffusionTensor",
    "build_sphere_quadrature", "build_angular_quadrature",
    "kernel_isotropic", "kernel_linear", "assemble_scattering",
    "certify_assumptions", "apply_K", "pinv_apply", "diffusion_moment",
    "diffusion_tensor",
    "Grid1D", "CoefficientField", "KernelSpec", "ProblemSpec",
    "ManufacturedCase", "manufactured_case", "scaled_fields", "cells_for_eps",
    "mms_transport_source", "mms_diffusion_source",
    "DiffusionSolution", "solve_diffusion",
    "SolverOptions", "IterationLog", "TransportSolution", "OutflowTrace",
    "SweepPlan", "sweep", "solve_transport", "directional_derivative",
    "outflow_trace",
    "particle_balance",
    "NormSet", "norms", "velocity_average", "split_mean_fluctuation",
    "space_velocity_norm", "first_order_corrector",
    "expansion_remainder", "FitResult", "fit_loglog",
    "ConvergenceReport", "convergence_study",
    "Config", "StudySpec", "load_config",
]
