"""Batched Monte Carlo over difference spectra, on reproducible sub-streams.

``workers`` is the number of independent sub-streams: stream w is the
counter-based generator (seed, w) of ``sampling``, it draws its share of the
samples, and the results are joined in stream order.  Output is therefore
byte-reproducible for a fixed (seed, workers) pair and depends on both.  The
streams run one after another in the calling thread; the batched BLAS and
LAPACK calls that do the work already use the cores.

``difference_spectra`` is the one sampling kernel.  Each draw is
Z = X J X^H with X = [sqrt(p) G1/||G1||_F, sqrt(q) G2/||G2||_F] (N x 2M) and
J = diag(I_M, -I_M), so rank Z <= 2M.  When N > 2M and the textbook LAPACK
flop count favours it (2Nk^2 + 8k^3/3 < 2N^2 k + 4N^3/3 with k = 2M, a pure
function of (N, M)), the kernel takes R from a batched QR of X and solves
only the 2M x 2M Hermitian R J R^H; the other N - 2M eigenvalues are exact
zeros, which are the atom of weight 1 - 2/c of the asymptotic law.  Otherwise
it forms the two N x N Gram products and solves the N x N problem.  Both
paths consume the random stream in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sampling import EnsembleParams

__all__ = [
    "difference_spectra",
    "pooled_spectrum",
    "HistogramResult",
    "build_histogram",
    "bin_theory_mass",
    "l1_distance",
    "trace_distance_mc",
    "operator_norm_mc",
    "mean_entropy_mc",
    "mean_purity_mc",
]

_BATCH_ENTRIES = 4_000_000


def _batches(n: int, m: int, n_samples: int) -> list[slice]:
    """Slices covering ``n_samples`` draws; sized from (N, M) alone, never from free memory."""
    step = max(1, _BATCH_ENTRIES // max(n * m, n * n))
    return [slice(i, min(i + step, n_samples)) for i in range(0, n_samples, step)]


def _ginibre(rng: np.random.Generator, b: int, n: int, m: int) -> np.ndarray:
    """b complex Ginibre N x M matrices: real parts drawn first, then imaginary."""
    return rng.standard_normal((b, n, m)) + 1j * rng.standard_normal((b, n, m))


def _gram(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G G^H for each matrix of the batch, and its (real) trace."""
    s = g @ g.conj().transpose(0, 2, 1)
    return s, np.trace(s, axis1=1, axis2=2).real


def _use_reduced(n: int, m: int) -> bool:
    """Whether the rank-2M path costs fewer flops than the N x N Gram path.

    Textbook LAPACK counts with k = 2M: Householder QR of N x k plus a
    k x k ``eigvalsh`` against two N x N Gram products plus an N x N
    ``eigvalsh``.  The crossover sits near k/N = 0.84, so draws just past
    the rank edge N > 2M keep the Gram path.
    """
    k = 2 * m
    return 2 * n * k * k + 8 * k**3 / 3 < 2 * n * n * k + 4 * n**3 / 3


def difference_spectra(
    params: EnsembleParams,
    n_samples: int,
    rng: np.random.Generator | None = None,
    *,
    rescaled: bool = True,
) -> np.ndarray:
    """(n_samples, N) ascending eigenvalues of independent difference draws.

    Shapes where ``_use_reduced`` holds take the rank-2M path described in
    the module docstring; its N - 2M zero eigenvalues are exact.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if rng is None:
        rng = params.rng()
    n, m = params.n_small, params.m_large
    p, q = params.weight_p, params.weight_q
    reduced = _use_reduced(n, m)
    out = np.empty((n_samples, n))
    for sl in _batches(n, m, n_samples):
        b = sl.stop - sl.start
        g1 = _ginibre(rng, b, n, m)
        g2 = _ginibre(rng, b, n, m)
        if reduced:
            out[sl] = _reduced_spectra(g1, g2, p, q)
        else:
            s1, t1 = _gram(g1)
            s2, t2 = _gram(g2)
            z = p * s1 / t1[:, None, None] - q * s2 / t2[:, None, None]
            out[sl] = np.linalg.eigvalsh(z)
    if rescaled:
        out *= n
    return out


def _frobenius_sq(g: np.ndarray) -> np.ndarray:
    return np.einsum("bij,bij->b", g.real, g.real) + np.einsum("bij,bij->b", g.imag, g.imag)


def _reduced_spectra(g1: np.ndarray, g2: np.ndarray, p: float, q: float) -> np.ndarray:
    """Ascending spectra of p G1 G1^H/||G1||^2 - q G2 G2^H/||G2||^2 for N > 2M."""
    b, n, m = g1.shape
    x = np.concatenate((g1, g2), axis=2)
    x[:, :, :m] *= np.sqrt(p / _frobenius_sq(g1))[:, None, None]
    x[:, :, m:] *= np.sqrt(q / _frobenius_sq(g2))[:, None, None]
    r = np.linalg.qr(x, mode="r")
    # R J R^H = A A^H - C C^H; R is upper triangular, so A = R[:, :, :M]
    # is zero below row M and A A^H fills only the leading M x M block.
    a = r[:, :m, :m]
    c = r[:, :, m:]
    h = -(c @ c.conj().transpose(0, 2, 1))
    h[:, :m, :m] += a @ a.conj().transpose(0, 2, 1)
    vals = np.zeros((b, n))
    vals[:, : 2 * m] = np.linalg.eigvalsh(h)
    vals.sort(axis=1)
    return vals


def _fan_out(params: EnsembleParams, n_samples: int, workers: int, reduce) -> list:
    """``reduce`` of each sub-stream's raw (unrescaled) spectra, in stream order.

    Stream w = (seed, w) draws ``n_samples // workers`` samples, one more for
    w < ``n_samples % workers``; streams left with no draws are skipped.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    base, extra = divmod(n_samples, workers)
    return [
        reduce(difference_spectra(params, base + (w < extra), params.rng(w), rescaled=False))
        for w in range(min(workers, n_samples))
    ]


def pooled_spectrum(
    params: EnsembleParams,
    n_samples: int,
    *,
    workers: int = 1,
    rescaled: bool = True,
) -> np.ndarray:
    """All eigenvalues of n_samples draws pooled into one array.

    Draws are split across ``workers`` sub-streams and joined in stream
    order, so the output is deterministic for fixed (seed, workers).
    """
    scale = params.n_small if rescaled else 1
    return np.concatenate(_fan_out(params, n_samples, workers, lambda s: (s * scale).ravel()))


@dataclass(frozen=True)
class HistogramResult:
    """Normalized histogram of pooled eigenvalues.

    ``normalized_density`` integrates to the fraction of all pooled
    eigenvalues that fell inside the range (atom-excluded values and
    out-of-range values count in the denominator but not in any bin).
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    normalized_density: np.ndarray
    total_samples: int
    atom_fraction: float = 0.0
    atom_threshold: float | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)


def build_histogram(
    values: np.ndarray,
    bins: int,
    *,
    value_range: tuple[float, float] | None = None,
    atom_threshold: float | None = None,
) -> HistogramResult:
    """Histogram pooled values; optionally split off |x| < atom_threshold as atom mass."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    values = np.asarray(values, dtype=float).ravel()
    total = values.size
    atom_fraction = 0.0
    continuous = values
    if atom_threshold is not None:
        mask = np.abs(values) < atom_threshold
        atom_fraction = float(mask.sum()) / total
        continuous = values[~mask]
    if value_range is None:
        value_range = (float(continuous.min()), float(continuous.max()))
    counts, edges = np.histogram(continuous, bins=bins, range=value_range)
    widths = np.diff(edges)
    density = counts / (total * widths)
    return HistogramResult(
        bin_edges=edges,
        counts=counts,
        normalized_density=density,
        total_samples=total,
        atom_fraction=atom_fraction,
        atom_threshold=atom_threshold,
    )


_GL5_NODES, _GL5_WEIGHTS = np.polynomial.legendre.leggauss(5)


def bin_theory_mass(theory_density, edges: np.ndarray) -> np.ndarray:
    """Per-bin mass of a density, by 5-point Gauss-Legendre.

    ``theory_density`` is called once, on the (bins, 5) array of all nodes.
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = half[:, None] * _GL5_NODES + 0.5 * (edges[:-1] + edges[1:])[:, None]
    return half * (np.asarray(theory_density(xs), dtype=float) @ _GL5_WEIGHTS)


def l1_distance(hist: HistogramResult, theory_density) -> float:
    """L1 distance between bin masses of the histogram and of an array-valued density."""
    emp = hist.normalized_density * hist.widths
    th = bin_theory_mass(theory_density, hist.bin_edges)
    return float(np.sum(np.abs(emp - th)))


def trace_distance_mc(params: EnsembleParams, n_samples: int, *, workers: int = 1) -> float:
    """Monte Carlo mean of (1/2) sum |lambda_i| over difference draws."""
    totals = _fan_out(params, n_samples, workers, lambda s: float(np.sum(np.abs(s)) * 0.5))
    return sum(totals) / n_samples


def operator_norm_mc(params: EnsembleParams, n_samples: int, *, workers: int = 1) -> float:
    """Monte Carlo mean of max |lambda_i| (raw, unrescaled)."""
    totals = _fan_out(
        params, n_samples, workers, lambda s: float(np.sum(np.max(np.abs(s), axis=1)))
    )
    return sum(totals) / n_samples


def _reduced_density_batch(n: int, m: int, b: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of reduced density matrices via the normalized-state path."""
    psi = rng.standard_normal((b, n * m)) + 1j * rng.standard_normal((b, n * m))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    v = psi.reshape(b, n, m)
    return v @ v.conj().transpose(0, 2, 1)


def _ginibre_density_batch(n: int, m: int, b: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of G G^H / Tr(G G^H) for complex Ginibre N x M matrices G."""
    s, t = _gram(_ginibre(rng, b, n, m))
    return s / t[:, None, None]


_DENSITY_BATCHES = {"ginibre": _ginibre_density_batch, "pure-state": _reduced_density_batch}


def _batch_mean(params: EnsembleParams, n_samples: int, density_batch, total) -> float:
    """Mean over stream (seed, 0) draws; ``total`` sums a batch of density matrices."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = params.rng()
    n, m = params.n_small, params.m_large
    acc = 0.0
    for sl in _batches(n, m, n_samples):
        acc += total(density_batch(n, m, sl.stop - sl.start, rng))
    return acc / n_samples


def _entropy_total(rho: np.ndarray) -> float:
    lam = np.clip(np.linalg.eigvalsh(rho), 1e-300, None)
    return float(-np.sum(lam * np.log(lam)))


def mean_entropy_mc(params: EnsembleParams, n_samples: int) -> float:
    """Mean von Neumann entropy (nats) of sampled reduced density matrices."""
    return _batch_mean(params, n_samples, _reduced_density_batch, _entropy_total)


def mean_purity_mc(params: EnsembleParams, n_samples: int, *, path: str = "ginibre") -> float:
    """Mean Tr(rho^2); ``path`` selects which of the two samplers to exercise."""
    if path not in _DENSITY_BATCHES:
        raise ValueError("path must be 'ginibre' or 'pure-state'")
    return _batch_mean(
        params, n_samples, _DENSITY_BATCHES[path],
        lambda rho: float(np.einsum("bij,bji->", rho, rho).real),
    )
