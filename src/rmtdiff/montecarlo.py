"""Batched Monte Carlo over difference spectra, on reproducible sub-streams.

``difference_spectra(params, n_samples, workers=)`` is the one front end: the
pooled spectrum and the trace-distance and operator-norm means reduce its
array.  ``workers`` is the number of independent sub-streams: stream w is the
counter-based generator (seed, w) of ``sampling``, it draws its share of the
samples, and the results are joined in stream order.  Each stream is cut into
``_batches`` slices and each slice into blocks of ``_BLOCK_ENTRIES // d^2``
draws.  The calling thread draws the blocks of all streams in stream order:
stream by stream, slice by slice, the slice's earlier streams (chi-square
rows, and the normals below the diagonal when N > M), then each block's last
stream (the normals of the bottom block, or below the diagonal when N <= M),
each stream in pieces that belong to one block; consecutive draws give the
numbers one call would.  One ``_on_cores`` pass hands all drawn blocks of a
request through one queue to a thread on each core (``os.sched_getaffinity``),
which fills a block's Y, normalises it, forms Z and writes its eigenvalues,
with the OpenBLAS that numpy loaded held at one thread.  A block's draws are dropped
once it is solved and each thread reuses its own block buffers, so memory is
one slice's draws plus a few blocks, not a slice-wide Y, Y^H and Z.  Each
draw's products and eigensolve are the same single-threaded LAPACK calls
whatever thread takes its block, so output bytes are fixed by (seed,
workers) alone: not by the core count, the thread timing or
``OPENBLAS_NUM_THREADS``.  One core solves matrices below ``_SPLIT_MIN_D``
and everything where that OpenBLAS is absent.

``_spectra``, behind ``difference_spectra``, is the one sampling kernel.  It
draws only what the eigenvalue law of Z = p rho1 - q rho2 needs.  With
k = min(N, M), K = max(N, M), r = min(N - k, k) and d = k + r = min(N, 2M):

* rho1 is drawn as T/t1 (+) 0 with T = B B^T, B the k x k real lower
  bidiagonal Laguerre factor of Dumitriu and Edelman (J. Math. Phys. 43,
  2002): B_ii^2 ~ chi^2_{2(K-i)}, B_{i+1,i}^2 ~ chi^2_{2(k-1-i)},
  t1 = ||B||_F^2.
* rho2 is drawn as Y Y^H/t2 with Y of size d x k: on top the k x k lower
  Bartlett factor (Y_ii^2 ~ chi^2_{2(M-i)}, complex normals below the
  diagonal), at the bottom an r x k upper trapezoid (Y_{k+j,j}^2 ~
  chi^2_{2(N-M-j)}, complex normals right of the diagonal), t2 = ||Y||_F^2.

The kernel solves the d x d Hermitian p (T/t1 (+) 0_r) - q Y Y^H/t2 and pads
with N - d exact zeros, the atom of weight 1 - 2/c of the asymptotic law.
Two facts make the eigenvalue law exact.  rho2 is unitarily invariant and
independent of rho1, so rho1 may be replaced by any matrix with the same
eigenvalue law, here the tridiagonal model.  And G2 G2^H = L L^H for the
N x k Bartlett factor L of G2, whose rows below k form an iid complex normal
A = Q R; conjugating by diag(I_k, Q^H) leaves T (+) 0 fixed and turns A
into R, the upper trapezoid above.

Complex normals have unit-variance real and imaginary parts, drawn as
consecutive (real, imaginary) pairs with the entries in row-major order.
Each ``_batches`` slice consumes the stream in this order: rho1 diagonal
chi^2, rho1 subdiagonal chi^2, rho2 diagonal chi^2, rho2 normals below the
diagonal, bottom-block chi^2, bottom-block normals.
"""

from __future__ import annotations

import ctypes
import math
import os
import queue
import threading
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from ._checks import count, instance, interval, points, real
from .errors import DomainError, UsageError
from .sampling import EnsembleParams, _reduced_density_batch, von_neumann_entropy

__all__ = [
    "difference_spectra",
    "HistogramResult",
    "build_histogram",
    "bin_theory_mass",
    "l1_distance",
    "trace_distance_mc",
    "operator_norm_mc",
    "mean_entropy_mc",
]

_BATCH_ENTRIES = 4_000_000


def _batches(n: int, m: int, n_samples: int) -> list[slice]:
    """Slices covering ``n_samples`` draws; sized from (N, M) alone, never from free memory."""
    step = max(1, _BATCH_ENTRIES // max(n * m, n * n))
    return [slice(i, min(i + step, n_samples)) for i in range(0, n_samples, step)]


@cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for stem in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get = getattr(handle, stem.format("get"), None)
            put = getattr(handle, stem.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


_PIN_LOCK = threading.Lock()

# Matrices below this dimension are solved by one core.  On two cores a split
# of d < 12 saved at most 13 % of the wall time of difference_spectra, for
# 45-90 % more CPU.
_SPLIT_MIN_D = 12

# Entries of one block's d x d matrices; a block holds _BLOCK_ENTRIES // d^2
# draws (at least one).  Blocks of one to three draws at d >= 80 ran slower
# than slice-wide buffers: their GIL-holding scatters hand the lock back and
# forth too often.
_BLOCK_ENTRIES = 2**17


def _cores(b: int, d: int) -> int:
    """The number of cores that solve b draws of d x d matrices.

    One when d < ``_SPLIT_MIN_D`` or without a bundled OpenBLAS, otherwise
    one per allowed core (``os.sched_getaffinity``), at most b.
    """
    if d < _SPLIT_MIN_D or _openblas_threads() is None:
        return 1
    allowed = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(b, allowed or 1)


@contextmanager
def _one_blas_thread():
    """Hold the bundled OpenBLAS at one thread, and restore its count after, also on error.

    The lock keeps concurrent callers from restoring each other's count.
    Without a bundled OpenBLAS nothing is held.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    with _PIN_LOCK:
        before = get()
        put(1)
        try:
            yield
        finally:
            put(before)


def _on_cores(solve, items, cores: int) -> None:
    """Call ``solve(item, core)`` for each of ``items`` on ``cores`` threads, core 0 the caller.

    The calling thread draws ``items`` in order onto one queue, which the
    other threads empty until they get a ``None``.  While ``cores`` items
    wait, it solves the oldest instead of drawing on (so at most 2 cores - 1
    are drawn and not yet solved), and it drains the queue at the end.  Once
    a draw or a solve raises, nothing more is drawn, the items taken after it
    are skipped, every thread is joined and the first exception is raised.
    No reference to an item outlives its solve here.  OpenBLAS is held at
    one thread throughout.
    """
    todo = queue.SimpleQueue()
    errors: list[BaseException] = []

    def work(core):  # the other threads' loop, and the calling thread's at the end
        try:
            while (item := todo.get()) is not None:
                if not errors:
                    solve(item, core)
                del item  # not kept alive while this thread waits
        except BaseException as exc:  # raised again by the calling thread
            errors.append(exc)

    with _one_blas_thread():
        threads = []
        try:
            for core in range(1, cores):
                thread = threading.Thread(target=work, args=(core,))
                thread.start()
                threads.append(thread)
            for item in items:
                todo.put(item)
                del item  # the queue and its solver hold it, nothing else
                with suppress(queue.Empty):  # another thread may take the last one first
                    while todo.qsize() >= cores and not errors:
                        solve(todo.get_nowait(), 0)
                if errors:
                    break
        except BaseException as exc:  # raised again below, once every thread is joined
            errors.append(exc)
        for _ in range(cores):
            todo.put(None)
        work(0)  # the calling thread drains the queue with the others
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _spectra(params: EnsembleParams, streams: list) -> np.ndarray:
    """(draws, N) raw ascending eigenvalues of the (rng, count) ``streams``, rows in stream order.

    Every shape takes the min(N, 2M) solve of the module docstring; the
    other max(N - 2M, 0) eigenvalues of each row are exact zeros.  A generator
    draws the blocks; each is one ``_on_cores`` item: its output rows and its own draws.
    """
    n, m = params.n_small, params.m_large
    p, q = params.weight_p, params.weight_q
    k, big = min(n, m), max(n, m)
    r = min(n - k, k)
    d = k + r
    i, j = np.arange(k), np.arange(r)
    below, right = np.tril_indices(k, -1), np.triu_indices(r, 1, k)
    out = np.zeros((sum(count for _, count in streams), n))
    # the first stream's first slice is the longest
    longest = _batches(n, m, streams[0][1])[0].stop
    cores = _cores(longest, d)
    blk = min(max(1, _BLOCK_ENTRIES // (d * d)), -(-longest // cores))
    # one block buffer set per core, allocated here: a worker thread's own
    # allocations stay in its glibc arena after they are freed
    buffers = [(np.zeros((blk, d, k), dtype=complex), np.empty((blk, d, k), dtype=complex),
                np.empty((blk, d, d), dtype=complex)) for _ in range(cores)]

    def blocks():
        dfs = (2 * (big - i), 2 * (k - 1 - i[:-1]), 2 * (m - i))
        # floats per draw of the slice's and of each block's normals (see the module docstring)
        early, late = (2 * below[0].size, 2 * right[0].size) if r else (0, 2 * below[0].size)
        row = 0
        for rng, count in streams:
            for sl in _batches(n, m, count):
                rows = np.split(out[row:][sl], range(blk, sl.stop - sl.start, blk))
                # the slice's earlier streams, in order, each in pieces of one block
                drawn = [[rng.chisquare(df, (len(v), df.size)) for v in rows] for df in dfs]
                drawn.append([rng.standard_normal((len(v), early)).view(complex) for v in rows])
                drawn.append([rng.chisquare(2 * (n - m - j), (len(v), r)) for v in rows])
                drawn = list(zip(rows, *drawn))  # one entry per block, popped as it is yielded
                while drawn:
                    v, a2, s2, t2, lower, b2 = drawn.pop(0)
                    last = rng.standard_normal((len(v), late)).view(complex)
                    yield (v, a2, s2, t2, lower, b2, last) if r else (v, a2, s2, t2, last, b2, lower)
                    del v, a2, s2, t2, lower, b2, last  # not kept alive while the next is drawn
            row += count

    def solve(block, core):
        rows, a2, s2, t2, lower, b2, upper = block
        # + p T/||B||^2 on the leading k x k block: T_ii = a_i^2 + s_{i-1}^2, T_{i+1,i} = s_i a_i;
        # ahead of the products, as numpy's sums ran 10x slower right after the complex matmul
        w = p / (a2.sum(axis=1) + s2.sum(axis=1))[:, None]
        diag, sub, off = w * a2, w * s2, w * np.sqrt(s2 * a2[:, :-1])
        y, yc, z = (x[: len(rows)] for x in buffers[core])
        # entries outside the pattern stay the zeros the buffer was made with
        y[:, i, i] = np.sqrt(t2)
        y[:, below[0], below[1]] = lower
        y[:, k + j, j] = np.sqrt(b2)
        y[:, k + right[0], right[1]] = upper
        sq = np.square(y.view(float), out=yc.view(float))
        y *= np.sqrt(q / sq.sum(axis=(1, 2)))[:, None, None]
        # Z starts as -q Y Y^H/t2: the d x k factor is negated, exactly, instead of the d x d product
        np.negative(np.conjugate(y, out=yc), out=yc)
        np.matmul(y, yc.transpose(0, 2, 1), out=z)
        # views into each flattened d*d matrix, for i < k: (i, i) sits at
        # i(d + 1), (i + 1, i) at d + i(d + 1) and (i, i + 1) at 1 + i(d + 1)
        flat = z.reshape(len(rows), d * d)
        flat[:, : k * (d + 1) : d + 1] += diag
        flat[:, d + 1 : k * (d + 1) : d + 1] += sub
        flat[:, d : d + (k - 1) * (d + 1) : d + 1] += off
        flat[:, 1 : 1 + (k - 1) * (d + 1) : d + 1] += off
        rows[:, :d] = np.linalg.eigvalsh(z)
        rows.sort(axis=1)  # places the N - d padded zeros

    _on_cores(solve, blocks(), cores)
    return out


def difference_spectra(
    params: EnsembleParams,
    n_samples: int,
    *,
    workers: int = 1,
    rescaled: bool = True,
) -> np.ndarray:
    """(n_samples, N) ascending eigenvalues of difference draws, rows in stream order.

    Stream w = (seed, w) draws ``n_samples // workers`` samples, one more for
    w < ``n_samples % workers``; streams left with no draws are skipped.
    """
    instance("params", params, EnsembleParams)
    n_samples, workers = count("n_samples", n_samples), count("workers", workers)
    instance("rescaled", rescaled, bool)
    base, extra = divmod(n_samples, workers)
    streams = range(min(workers, n_samples))
    out = _spectra(params, [(params.rng(w), base + (w < extra)) for w in streams])
    if rescaled:
        out *= params.n_small
    return out


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
    """Histogram pooled values; optionally split off |x| < atom_threshold as atom mass.

    Raises ``UsageError`` unless ``bins`` is an integer >= 2, and ``DomainError`` if a
    value is NaN or infinite, if there are none, if every value falls in the atom
    and no ``value_range`` is given, if ``value_range`` is not finite with lo < hi,
    if the range is wider than the float range, or if ``atom_threshold`` is not a
    finite real >= 0.
    """
    bins = count("bins", bins, 2, UsageError)
    value_range = interval("value_range", value_range)
    if atom_threshold is not None:
        atom_threshold = real("atom_threshold", atom_threshold, 0.0)
    values = points("histogram values", values).ravel()
    if values.size == 0:
        raise DomainError("a histogram needs at least one value")
    total = values.size
    atom_fraction = 0.0
    continuous = values
    if atom_threshold is not None:
        mask = np.abs(values) < atom_threshold
        atom_fraction = float(mask.sum()) / total
        continuous = values[~mask]
    if value_range is None:
        if continuous.size == 0:
            raise DomainError("every value falls in the atom: give value_range")
        value_range = (float(continuous.min()), float(continuous.max()))
    if not math.isfinite(value_range[1] - value_range[0]):
        raise DomainError(f"histogram range {value_range} is wider than the float range")
    try:
        counts, edges = np.histogram(continuous, bins=bins, range=value_range)
    except ValueError as exc:  # a range too narrow for bins of finite width, such as [1e300, 1e300]
        raise DomainError(str(exc)) from None
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
    Raises DomainError for non-finite edges, or edges whose nodes leave the
    float range.
    """
    instance("theory_density", theory_density, Callable)
    edges = points("edges", edges)
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError(f"edges must be a list of at least two reals, got shape {edges.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        half = 0.5 * (edges[1:] - edges[:-1])
        xs = half[:, None] * _GL5_NODES + 0.5 * (edges[:-1] + edges[1:])[:, None]
    if not np.isfinite(xs).all():
        raise DomainError("the quadrature nodes of these edges lie beyond the float range")
    return half * (np.asarray(theory_density(xs), dtype=float) @ _GL5_WEIGHTS)


def l1_distance(hist: HistogramResult, theory_density) -> float:
    """L1 distance between bin masses of the histogram and of an array-valued density."""
    instance("hist", hist, HistogramResult)
    emp = hist.normalized_density * hist.widths
    th = bin_theory_mass(theory_density, hist.bin_edges)
    return float(np.sum(np.abs(emp - th)))


def trace_distance_mc(params: EnsembleParams, n_samples: int, *, workers: int = 1) -> float:
    """Monte Carlo mean of (1/2) sum |lambda_i| over difference draws."""
    raw = difference_spectra(params, n_samples, workers=workers, rescaled=False)
    return float(np.sum(np.abs(raw)) * 0.5) / n_samples


def operator_norm_mc(params: EnsembleParams, n_samples: int, *, workers: int = 1) -> float:
    """Monte Carlo mean of max |lambda_i| (raw, unrescaled)."""
    raw = difference_spectra(params, n_samples, workers=workers, rescaled=False)
    return float(np.sum(np.max(np.abs(raw), axis=1))) / n_samples


def mean_entropy_mc(params: EnsembleParams, n_samples: int) -> float:
    """Mean von Neumann entropy (nats) of reduced density matrices drawn on stream (seed, 0).

    Each ``_batches`` slice is solved by one ``eigvalsh`` call on the calling
    thread, with OpenBLAS held at one thread, not blocked or split across
    cores: the sizes it serves (AC-13's are 2 x 2) keep its slices small.
    """
    instance("params", params, EnsembleParams)
    n_samples = count("n_samples", n_samples)
    rng = params.rng()
    n, m = params.n_small, params.m_large
    total = 0.0
    for sl in _batches(n, m, n_samples):
        rho = _reduced_density_batch(n, m, sl.stop - sl.start, rng)
        with _one_blas_thread():
            lam = np.linalg.eigvalsh(rho)
        total += von_neumann_entropy(lam)
    return total / n_samples
