"""Random reduced density matrices, their parameters, and spectra.

Partial-tracing a uniformly random bipartite pure state gives a random
density matrix; the same law is obtained by normalizing G G^H of a complex
Gaussian (Ginibre) rectangle by its trace.  Both constructions are provided
as independent sampling paths so they can cross-validate each other.

All samplers take an explicit ``numpy.random.Generator``; streams are
derived from a 64-bit master seed and a worker index through a Philox
counter-based generator, so parallel sub-streams never overlap and every
run is reproducible bit-for-bit.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionOrder, DomainError, NoConvergence, NonHermitian, ZeroMatrix

__all__ = [
    "EnsembleParams",
    "SpectrumSample",
    "make_rng",
    "sample_ginibre",
    "reduced_density_from_ginibre",
    "sample_pure_state_reduced",
    "hermitian_eigenvalues",
    "page_entropy_mean",
    "von_neumann_entropy",
    "is_density_matrix",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

HERMITIAN_TOL = 1e-10

# Invariant tolerances of ``is_density_matrix``.
_DENSITY_HERM_TOL = 1e-12
_DENSITY_TRACE_TOL = 1e-12
_DENSITY_PSD_TOL = 1e-10


def _mix64(v: int) -> int:
    """SplitMix64 finalizer; a bijective 64-bit scrambler."""
    v = (v + _GOLDEN) & _MASK64
    v ^= v >> 30
    v = (v * 0xBF58476D1CE4E5B9) & _MASK64
    v ^= v >> 27
    v = (v * 0x94D049BB133111EB) & _MASK64
    v ^= v >> 31
    return v


def worker_seed(master_seed: int, worker: int) -> int:
    """Derive the sub-stream key for one worker from the master seed; NumPy integers act as ints."""
    return _mix64((operator.index(master_seed) & _MASK64) ^ _mix64(operator.index(worker) + 1))


def make_rng(seed: int, worker: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, worker); distinct workers never overlap."""
    return np.random.Generator(np.random.Philox(key=worker_seed(seed, worker)))


def _check_count(name: str, value) -> None:
    """Raise DomainError unless ``value`` is an integer >= 1 (Python or numpy)."""
    if type(value) is int and value >= 1:  # per-point callers: skip the slow ABC check
        return
    if not isinstance(value, numbers.Integral) or value < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class EnsembleParams:
    """Dimensions, difference weights and master seed of one ensemble.

    ``n_small`` is the dimension the density matrices live in, ``m_large``
    the dimension traced out.  The difference matrix is
    ``weight_p * rho1 - weight_q * rho2``.
    """

    n_small: int
    m_large: int
    weight_p: float = 1.0
    weight_q: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_count("n_small", self.n_small)
        _check_count("m_large", self.m_large)
        if not isinstance(self.seed, numbers.Integral):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))  # frozen: a NumPy integer becomes its int
        if not (0.0 < self.weight_p < math.inf and 0.0 < self.weight_q < math.inf):
            raise DomainError(
                f"weights must be finite and positive, got {self.weight_p!r}, {self.weight_q!r}"
            )
        if math.isinf(self.dim_ratio) or math.isinf(self.weight_ratio):
            raise DomainError("derived ratios must be finite")

    @property
    def dim_ratio(self) -> float:
        """Ratio of kept to traced-out dimension (the MP-type parameter)."""
        return self.n_small / self.m_large

    @property
    def weight_ratio(self) -> float:
        """Ratio weight_q / weight_p of the two difference weights."""
        return self.weight_q / self.weight_p

    def rng(self, worker: int = 0) -> np.random.Generator:
        return make_rng(self.seed, worker)


@dataclass(frozen=True)
class SpectrumSample:
    """Ascending eigenvalues of one draw."""

    eigenvalues: np.ndarray


def sample_ginibre(n_rows: int, n_cols: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrix; each entry has unit-variance real and imaginary parts."""
    _check_count("n_rows", n_rows)
    _check_count("n_cols", n_cols)
    re = rng.standard_normal((n_rows, n_cols))
    im = rng.standard_normal((n_rows, n_cols))
    return re + 1j * im


def reduced_density_from_ginibre(g: np.ndarray) -> np.ndarray:
    """G G^H normalized to unit trace: a fixed-trace Wishart density matrix."""
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite g gives a non-finite trace
        s = g @ g.conj().T
        tr = float(s.trace().real)
    if not math.isfinite(tr):
        raise DomainError("Tr(G G^H) is not finite; the input matrix must be finite")
    if tr <= 0.0:
        raise ZeroMatrix("Tr(G G^H) vanished; degenerate input matrix")
    return s / tr


def _reduced_density_batch(n: int, m: int, b: int, rng: np.random.Generator) -> np.ndarray:
    """(b, N, N) reduced density matrices of uniformly random bipartite pure states.

    Each draws a normalized complex Gaussian vector in dimension N*M (real
    parts first; equivalent to a Haar-uniform unit vector), reshapes it to
    N x M and traces out the M-dimensional factor.
    """
    psi = rng.standard_normal((b, n * m)) + 1j * rng.standard_normal((b, n * m))
    nrm = np.linalg.norm(psi, axis=1)
    if np.any(nrm == 0.0):
        raise ZeroMatrix("zero state vector")
    v = (psi / nrm[:, None]).reshape(b, n, m)
    return v @ v.conj().transpose(0, 2, 1)


def sample_pure_state_reduced(
    params: EnsembleParams, rng: np.random.Generator
) -> np.ndarray:
    """Reduced density matrix of a uniformly random bipartite pure state.

    A batch of one of the pure-state builder that ``mean_entropy_mc`` also
    uses.  Distributionally identical to ``reduced_density_from_ginibre``
    but computed along an independent code path for cross-validation.
    """
    return _reduced_density_batch(params.n_small, params.m_large, 1, rng)[0]


def hermitian_eigenvalues(h: np.ndarray) -> SpectrumSample:
    """Ascending real eigenvalues of a Hermitian matrix.

    Raises DomainError unless h is one square matrix with finite entries,
    NonHermitian when the max entrywise deviation from h^H exceeds 1e-10, and
    NoConvergence when LAPACK does not converge.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {h.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        dev = abs(h - h.conj().T).max() if h.size else 0.0
    # a non-finite entry makes its own deviation non-finite
    if not math.isfinite(dev) and not np.isfinite(h).all():
        raise DomainError("matrix entries must be finite")
    if dev > HERMITIAN_TOL:
        raise NonHermitian(f"max |h - h^H| = {dev:.3e} exceeds {HERMITIAN_TOL}")
    try:
        vals = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # iteration budget exceeded in LAPACK
        raise NoConvergence(str(exc)) from exc
    return SpectrumSample(eigenvalues=vals)


def page_entropy_mean(n: int, m: int) -> float:
    """Mean entanglement entropy of a random pure state: sum_{k=m+1}^{mn} 1/k - (n-1)/(2m)."""
    _check_count("n", n)
    _check_count("m", m)
    if n > m:
        raise DimensionOrder(f"requires n <= m, got n={n} > m={m}")
    harmonic = sum(1.0 / k for k in range(m + 1, m * n + 1))
    return harmonic - (n - 1) / (2.0 * m)


def von_neumann_entropy(eigenvalues: np.ndarray) -> float:
    """Entropy -sum(l log l) in nats; zero and tiny-negative eigenvalues contribute 0.

    A stack of spectra (any shape) gives the sum of their entropies.  A NaN
    or infinite eigenvalue raises DomainError.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if not math.isfinite(lam.sum()):
        raise DomainError("eigenvalues must be finite")
    lam = lam[lam > 1e-300]
    return float(-np.sum(lam * np.log(lam)))


def is_density_matrix(rho: np.ndarray) -> bool:
    """Check the density-matrix invariants: finite, Hermitian, unit trace, PSD."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    with np.errstate(invalid="ignore", over="ignore"):
        dev = abs(rho - rho.conj().T).max()
    if not dev <= _DENSITY_HERM_TOL:  # NaN where an entry is not finite
        return False
    if abs(np.trace(rho).real - 1.0) > _DENSITY_TRACE_TOL:
        return False
    return bool(np.linalg.eigvalsh(rho)[0] >= -_DENSITY_PSD_TOL)
