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

``__all__`` joins the first five modules' public lists, which check input in ``_checks``.
"""

from .errors import *  # noqa: F403 -- the error types, importable from the package too
from . import asym_law, finite_law, moments, montecarlo, sampling
from .asym_law import *  # noqa: F403 -- each module's __all__ is its public list
from .finite_law import *  # noqa: F403
from .moments import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .sampling import *  # noqa: F403

__all__ = [n for mod in (sampling, finite_law, asym_law, moments, montecarlo) for n in mod.__all__]

__version__ = "0.1.0"
