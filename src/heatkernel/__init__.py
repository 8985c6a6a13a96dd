"""Desk-scale numerical laboratory for Schrodinger heat kernels.

Computes exact kernels for quadratic potentials, spectral reference kernels
for general bounded potentials on truncated domains, reverse-Holder /
Muckenhoupt / doubling diagnostics for the potential, and fits the upper
and lower Gaussian-type bound envelopes against computed kernels.
"""

from .bounds import (
    BoundEnvelope,
    ChainPlan,
    FitResult,
    GridFunction,
    avg_lower,
    avg_upper,
    chain_plan,
    chained_lower_bound,
    dirichlet_ball_lower,
    dirichlet_interval_lower,
    evaluate_envelope,
    fefferman_phong_ratio,
    fit_constants,
    gaussian_upper,
    grid_points,
    grid_samples,
    interval_clamp_time,
    moser_ratio,
    quadratic_sharp_branches,
    quadratic_sharp_envelope,
    symmetrized_upper,
    energy_test_family,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    GeometryError,
    IntegrationError,
    ParameterError,
)
from .explicit import (
    KernelValue,
    QuadraticCoeffs,
    a0_shift_check,
    gaussian_kernel,
    quadratic_kernel,
    quadratic_log_kernel,
)
from .ode import AnsatzState, ansatz_log, assemble_kernel, closed_form_state, integrate_odes
from .potentials import (
    Cube,
    DoublingFit,
    PolynomialPotential,
    Potential,
    PowerPotential,
    ScaledPotential,
    SumPotential,
    TabulatedPotential,
    WeightClassReport,
    ap_constant,
    constant,
    cube_average,
    doubling_fit,
    eval_potential,
    m_beta,
    rh_constant,
)
from .spectral import (
    DiscreteHamiltonian,
    ProbeGrid,
    SpectralKernel,
    build_spectral,
    cached_spectral,
    converged_kernel,
    dirichlet_interval_kernel,
    eval_spectral,
    pde_residual,
    semigroup_defect,
    separable_kernel_2d,
    spectral_log_kernel,
)

__version__ = "0.1.0"
