"""Reproduction of the reference comparison datasets.

Each preset pins an ensemble, a sample count and an overlay, writes the data
as CSV (ground truth) and optionally a quick-look SVG.  Identifiers follow
the fig* naming used by the verification workflow; fast mode divides sample
counts by ten for smoke runs.
"""

from __future__ import annotations

import os

import numpy as np

from ._checks import count
from .errors import Unsupported, UsageError
from .finite_law import joint_eigen_density, region_gamma
from .harness import write_hist, write_xy_csv
from .moments import trace_distance_asymptotic
from .montecarlo import trace_distance_mc
from .sampling import EnsembleParams
from .svgplot import render_heatmap, render_xy

__all__ = ["FIGURE_IDS", "run_fig"]

_HIST_PRESETS = {
    # fig id: (n, m, q-weight, samples, seed)
    "fig2a": (2, 10, 1.0, 30_000, 1201),
    "fig2b": (3, 3, 1.0, 30_000, 1202),
    "fig2c": (20, 35, 1.0, 5_000, 1203),
    "fig2d": (50, 70, 1.0, 5_000, 1204),
    "fig4a": (40, 50, 1.0, 3_000, 1401),
    "fig4b": (80, 50, 1.0, 3_000, 1402),
    "fig4c": (80, 30, 1.0, 3_000, 1403),
    "fig4d": (100, 20, 1.0, 3_000, 1404),
    # weighted differences rho1 - eta rho2
    "fig6l": (50, 50, 0.2, 3_000, 1601),
    "fig6r": (50, 100, 2.0, 3_000, 1602),
    "fig7l": (50, 75, 4.0, 3_000, 1701),
    "fig7r": (50, 125, 0.4, 3_000, 1702),
}

FIGURE_IDS = ("fig1", "fig2a", "fig2b", "fig2c", "fig2d", "fig4a", "fig4b",
              "fig4c", "fig4d", "fig5", "fig6", "fig7")

_FIG5_SEED = 1500
_FIG5_DOT_CS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0)


def _emit_hist(fig_id: str, out_dir: str, fast: bool, svg: bool, workers: int) -> list[str]:
    n, m, q, samples, seed = _HIST_PRESETS[fig_id]
    if fast:
        samples = max(samples // 10, 100)
    params = EnsembleParams(n_small=n, m_large=m, weight_q=q, seed=seed)
    title = f"{fig_id}: n={n} m={m} eta={q:g}, {samples} samples" if svg else None
    return write_hist(
        params, samples, 60, os.path.join(out_dir, f"{fig_id}.csv"),
        workers=workers, svg_title=title,
    )


def _emit_fig1(out_dir: str, fast: bool, svg: bool) -> list[str]:
    k = 61 if fast else 121
    axis = np.linspace(-1.02, 1.02, k)
    z = np.zeros((k, k))
    ls = axis.tolist()
    for j, l2 in enumerate(ls):
        for i, l1 in enumerate(ls):
            lam = (l1, l2, -l1 - l2)
            if min(map(abs, lam)) < 1e-9 or region_gamma(lam) < 1e-9:
                continue
            z[j, i] = max(joint_eigen_density(lam, 3, 3, exact=False), 0.0)
    csv_path = os.path.join(out_dir, "fig1.csv")
    write_xy_csv(csv_path, "lambda1,lambda2,density",
                 [np.tile(axis, k), np.repeat(axis, k), z.ravel()], meta={"n": 3, "m": 3})
    written = [csv_path]
    if svg:
        svg_path = os.path.join(out_dir, "fig1.svg")
        step = max(1, k // 81)
        render_heatmap(
            svg_path, axis[::step], axis[::step], z[::step, ::step],
            title="joint density, n=3 m=3",
        )
        written.append(svg_path)
    return written


def _emit_fig5(out_dir: str, fast: bool, svg: bool, workers: int) -> list[str]:
    cs = np.linspace(0.02, 6.0, 300)
    curve = np.array([trace_distance_asymptotic(float(c)) for c in cs])
    curve_path = os.path.join(out_dir, "fig5_curve.csv")
    write_xy_csv(curve_path, "c,trace_distance", [cs, curve], meta={"points": cs.size})
    samples = 30 if fast else 300
    n = 100
    dot_c, dot_val = [], []
    for i, c in enumerate(_FIG5_DOT_CS):
        m = max(1, round(n / c))
        params = EnsembleParams(n_small=n, m_large=m, seed=_FIG5_SEED + i)
        dot_c.append(params.dim_ratio)
        dot_val.append(trace_distance_mc(params, samples, workers=workers))
    dots_path = os.path.join(out_dir, "fig5_mc.csv")
    write_xy_csv(
        dots_path, "c,trace_distance_mc", [dot_c, dot_val],
        meta={"n": n, "samples": samples},
    )
    written = [curve_path, dots_path]
    if svg:
        svg_path = os.path.join(out_dir, "fig5.svg")
        render_xy(
            svg_path,
            title="trace distance vs c",
            lines=[(cs, curve, "royalblue")],
            points=[(np.array(dot_c), np.array(dot_val), "crimson")],
        )
        written.append(svg_path)
    return written


def run_fig(
    fig_id: str,
    out_dir: str,
    *,
    fast: bool = False,
    svg: bool = True,
    workers: int = 1,
) -> list[str]:
    """Produce the CSV (and optional SVG) files for one preset figure id."""
    if fig_id not in FIGURE_IDS:
        raise Unsupported(
            f"unknown figure id {fig_id!r}; choose from {', '.join(FIGURE_IDS)}"
        )
    workers = count("workers", workers, 1, UsageError)
    os.makedirs(out_dir, exist_ok=True)
    if fig_id == "fig1":
        return _emit_fig1(out_dir, fast, svg)
    if fig_id == "fig5":
        return _emit_fig5(out_dir, fast, svg, workers)
    if fig_id in ("fig6", "fig7"):
        files = []
        for side in ("l", "r"):
            files.extend(_emit_hist(fig_id + side, out_dir, fast, svg, workers))
        return files
    return _emit_hist(fig_id, out_dir, fast, svg, workers)
