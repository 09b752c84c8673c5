"""Monte Carlo vs theory comparison harness shared by the CLI and figures.

Units: histograms pool rescaled eigenvalues x = N * lambda of
Z = p rho1 - q rho2.  Theory overlays are expressed in the same units; the
weighted asymptotic density is computed for the normalized difference
rho1 - eta rho2 and mapped back by x -> x/p, density -> density/p.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import __version__ as _version
from .asym_law import _check_density_c, _law_density, _support_intervals, atom_weight
from .finite_law import single_eigenvalue_marginal
from .montecarlo import (
    HistogramResult,
    _check_bins,
    bin_theory_mass,
    build_histogram,
    difference_spectra,
)
from .sampling import EnsembleParams
from .svgplot import render_xy

__all__ = [
    "TheoryOverlay",
    "theory_overlay",
    "run_hist",
    "write_hist",
    "write_histogram_csv",
    "write_xy_csv",
]


@dataclass(frozen=True)
class TheoryOverlay:
    """Density curve (rescaled units), atom weight and atom threshold."""

    density: object  # callable: array -> array of the same shape, float -> float
    atom_weight: float
    atom_threshold: float | None
    label: str


def _exact_marginal(n: int, m: int, p: float):
    scale = n * p

    def density(x):
        out = single_eigenvalue_marginal(n, m, np.asarray(x, dtype=float) / scale) / scale
        return float(out) if out.ndim == 0 else out

    return density


def theory_overlay(params: EnsembleParams) -> TheoryOverlay:
    """Reference density for the rescaled spectrum of the given ensemble.

    Equal weights at n = 2 or 3 use the exact finite-dimension law (what the
    histogram actually estimates there); anything else falls back to the
    asymptotic density, numerically inverted when the weights differ; c or
    eta outside the asymptotic density's range raises ``DomainError``.  With
    an origin atom the threshold is half the smallest |support edge|.
    """
    n = params.n_small
    c = params.dim_ratio
    p = params.weight_p
    eta = params.weight_ratio
    if eta == 1.0 and n in (2, 3) and n <= params.m_large:
        density = _exact_marginal(n, params.m_large, p)
        return TheoryOverlay(density, atom_weight=0.0, atom_threshold=None, label=f"exact n={n}")
    _check_density_c(c, eta)
    atom = atom_weight(c, eta)
    threshold = None
    if atom > 0.0:
        threshold = 0.5 * p * min(abs(v) for ab in _support_intervals(c, eta) for v in ab)

    def density(x):
        return _law_density(np.asarray(x, dtype=float) / p, c, eta) / p

    label = "aed" if eta == 1.0 else "aed-weighted"
    return TheoryOverlay(density, atom_weight=atom, atom_threshold=threshold, label=label)


def run_hist(
    params: EnsembleParams,
    samples: int,
    bins: int = 60,
    *,
    workers: int = 1,
    value_range: tuple[float, float] | None = None,
) -> tuple[HistogramResult, TheoryOverlay, np.ndarray]:
    """Pool rescaled difference spectra, bin them, and tabulate the overlay.

    Returns (histogram, overlay, per-bin theory density).  Eigenvalues in
    the atom window |x| < threshold (gap half-width, present when the
    origin carries a point mass) are excluded from the bins but kept in the
    normalization denominator, so the continuous parts are comparable.
    Bad ``bins``, ``samples``, ``workers`` or ``value_range``, N = 1 (where
    every draw is the constant p - q), and a theory overlay out of range
    raise ``ValueError`` before any draw.
    """
    _check_bins(bins, value_range)
    if params.n_small < 2:
        raise ValueError("a histogram needs N >= 2: for N = 1 every draw is the constant p - q")
    overlay = theory_overlay(params)
    pooled = difference_spectra(params, samples, workers=workers, rescaled=True).ravel()
    hist = build_histogram(
        pooled, bins, value_range=value_range, atom_threshold=overlay.atom_threshold
    )
    theory = bin_theory_mass(overlay.density, hist.bin_edges) / hist.widths
    return hist, overlay, theory


def write_hist(
    params: EnsembleParams,
    samples: int,
    bins: int,
    csv_path: str,
    *,
    workers: int = 1,
    value_range: tuple[float, float] | None = None,
    svg_title: str | None = None,
) -> list[str]:
    """Run ``run_hist`` and write its CSV, plus an SVG next to it given ``svg_title``.

    Metadata: ``default_meta``, the overlay label and, with an atom at the
    origin, its threshold, measured fraction and theory weight.  Returns the paths.
    """
    hist, overlay, theory = run_hist(
        params, samples, bins, workers=workers, value_range=value_range
    )
    meta = default_meta(params, samples, bins, workers)
    meta["overlay"] = overlay.label
    if overlay.atom_threshold is not None:
        meta["atom_threshold"] = "%.17g" % overlay.atom_threshold
        meta["atom_fraction"] = "%.17g" % hist.atom_fraction
        meta["atom_weight_theory"] = "%.17g" % overlay.atom_weight
    write_histogram_csv(csv_path, hist, theory, meta)
    if svg_title is None:
        return [csv_path]
    svg_path = os.path.splitext(csv_path)[0] + ".svg"
    bars = (hist.bin_edges, hist.normalized_density, "steelblue")
    render_xy(svg_path, title=svg_title, bars=bars, lines=[(hist.centers, theory, "crimson")])
    return [csv_path, svg_path]


def write_histogram_csv(path, hist: HistogramResult, theory: np.ndarray, meta: dict) -> None:
    """Rows `bin_lo,bin_hi,empirical,theory` with 17-significant-digit values."""
    columns = (hist.bin_edges[:-1], hist.bin_edges[1:], hist.normalized_density, theory)
    write_xy_csv(path, "bin_lo,bin_hi,empirical,theory", columns, meta)


def write_xy_csv(path, header: str, columns, meta: dict | None = None) -> None:
    """Generic numeric CSV with a fixed header and 17-digit formatting."""
    arrays = [np.asarray(col, dtype=float) for col in columns]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*arrays):
            fh.write(",".join("%.17g" % v for v in row) + "\n")
        for k, v in (meta or {}).items():
            fh.write(f"# {k}={v}\n")


def default_meta(params: EnsembleParams, samples: int, bins: int, workers: int) -> dict:
    return {
        "version": _version,
        "n": params.n_small,
        "m": params.m_large,
        "p": "%.17g" % params.weight_p,
        "q": "%.17g" % params.weight_q,
        "seed": params.seed,
        "samples": samples,
        "bins": bins,
        "workers": workers,
    }
