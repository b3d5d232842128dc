"""Numerics for Bargmann-type integral transforms and their kernel spaces.

Five transforms between L2 spaces and reproducing-kernel Hilbert spaces
(Fock, weighted Bergman, eigenspaces of the hyperbolic Landau operator, and
two Dirichlet-type spaces), each with independent evaluation routes, plus
the invariant disk operators whose kernels characterize the target spaces
and a verification engine exercising the documented invariants.
"""

from .special import (
    BasisFamily,
    HypResult,
    HypSeriesError,
    bargmann_fock,
    basis_matrix,
    bergman,
    dirichlet,
    disk_eigen,
    gen_dirichlet,
    hermite_l2,
    hermite_sequence,
    hyp1f1,
    hyp2f1_table,
    hyp_series,
    jacobi_sequence,
    laguerre_l2,
    laguerre_sequence,
    log_gamma,
    monomial_normalizer,
    papadakis_sum,
    pochhammer,
    reproducing_kernel,
)
from .quadrature import (
    QuadratureRule,
    disk_rule,
    gauss_halfline,
    gauss_line,
    gaussian_plane_rule,
)
from .kernels import (
    KernelFamily,
    OmegaWeight,
    TargetSpace,
    classical_kernel,
    dirichlet_kernel,
    gen_dirichlet_kernel,
    generalized_second_kernel,
    kernel_matrix,
    kernel_series,
    omega,
    omega_laplace,
    omega_laplace_closed,
    second_kernel,
)
from .transforms import (
    CoefficientVector,
    TransformOperator,
    circle_points,
    forward,
    forward_gram,
    forward_map,
    inverse_integral,
    isometry_norms,
    make_transform,
    pairing_residuals,
    reverse_pairing_residual,
    round_trip_integral,
    round_trip_series,
    series_transform,
    target_coefficients,
)
from .operators import (
    DiskOperator,
    MonomialExpansion,
    apply_exact,
    apply_fd,
    casimir,
    gen_invariant_laplacian,
    harmonic_membership,
    hyperbolic_landau,
    invariant_laplacian,
    landau_eigenvalue,
    operator_sample_points,
    point_spectrum,
)
from .verify import Check, RunConfig, SUITES, VerificationReport, run_suite

__version__ = "0.1.0"
