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
    MAX_CHAIN_M,
    chain_length,
    chain_plan,
    chained_lower_bound,
    log_envelope,
    fefferman_phong_ratio,
    fit_constants,
    grid_columns,
    grid_points,
    grid_samples,
    moser_ratio,
    energy_test_family,
)
from .errors import (
    ConfigError,
    DomainError,
    IntegrationError,
    ParameterError,
)
from .explicit import (
    QuadraticCoeffs,
    gaussian_log_kernel,
    quadratic_kernel,
    quadratic_log_kernel,
)
from .ode import ANSATZ_COEFFS, ansatz_log, closed_form_error, closed_form_states, integrate_odes
from .potentials import (
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
    cube_averages,
    doubling_fit,
    m_beta,
    rh_constant,
)
from .spectral import (
    ProbeGrid,
    SpectralKernel,
    build_spectral,
    cached_spectral,
    dirichlet_interval_log_kernel,
    eval_spectral,
    pde_residual,
    semigroup_defect,
    spectral_log_kernel,
)

__version__ = "0.1.0"
