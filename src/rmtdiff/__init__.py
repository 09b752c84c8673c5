"""Spectral statistics of differences of random reduced density matrices.

The library covers four layers, each cross-checked against the others:

* sampling  -- random density matrices (fixed-trace Wishart), differences,
  eigendecomposition, reproducible parallel streams;
* finite_law -- exact joint and marginal eigenvalue densities at finite
  dimensions via the derivative principle;
* asym_law / moments -- the limiting rescaled eigenvalue density from free
  additive convolution, its absolute moments, trace and operator-norm
  distances;
* montecarlo / figures / acceptance -- Monte Carlo comparison harness,
  dataset reproduction and the verification suite behind the CLI.
"""

from .errors import (
    BoundaryPoint,
    DimensionOrder,
    DomainError,
    NegativeDensityWarning,
    NoConvergence,
    NonHermitian,
    PoleError,
    QuadratureFailure,
    RmtDiffError,
    SizeLimit,
    Unsupported,
    ZeroMatrix,
)
from .sampling import (
    EnsembleParams,
    SpectrumSample,
    hermitian_eigenvalues,
    is_density_matrix,
    make_rng,
    page_entropy_mean,
    reduced_density_from_ginibre,
    sample_ginibre,
    sample_pure_state_reduced,
    von_neumann_entropy,
)
from .finite_law import (
    OrthantPiecewisePoly,
    build_psi_poly,
    derivative_principle_selftest,
    joint_eigen_density,
    n2_exact_density,
    single_eigenvalue_marginal,
    w_poly,
)
from .asym_law import (
    AedResult,
    aed_curve,
    aed_grid,
    aed_symmetric,
    atom_weight,
    cauchy_transform,
    marchenko_pastur,
    r_transform_sum,
    support_points,
)
from .moments import (
    absolute_moment,
    distance_to_mixed_asymptotic,
    even_moment,
    moment_via_quadrature,
    operator_norm_asymptotic,
    trace_distance_asymptotic,
)
from .montecarlo import (
    HistogramResult,
    build_histogram,
    difference_spectra,
    l1_distance,
    mean_entropy_mc,
    operator_norm_mc,
    trace_distance_mc,
)

__version__ = "0.1.0"
