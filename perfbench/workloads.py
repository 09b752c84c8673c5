"""The benchmark's four workloads: jobs, their output checks and warm-ups.

A job does what ``rmtdiff hist``, ``fig`` or ``verify`` would call, with
inputs derived from the benchmark seed, and returns its checks as
``(label, deviation, tolerance)`` triples; the job passes when every
deviation is within its tolerance.  Tolerances are those of the matching
acceptance criterion at full level (AC-xx in the labels).  Shapes, c, eta
and the job lists are fixed; the seed picks Monte Carlo master seeds and
random evaluation points only.

Library functions are looked up on their module at call time
(``asym_law.aed_grid``, not a name bound at import), so the traced run sees
every call the jobs make.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np
from scipy.integrate import quad, simpson

from rmtdiff import (
    asym_law,
    finite_law,
    harness,
    moments,
    montecarlo,
    sampling,
    svgplot,
)

Check = tuple[str, float, float]


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], list[Check]]
    # why the check is expected to fail at this commit; None for a healthy job
    known_defect: str | None = None


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, str, int], list[Job]]  # (seed, scratch dir, nproc)
    warmup: Callable[[str, int], None]  # (scratch dir, nproc)


def _seed(seed: int, k: int) -> int:
    """Master seed of job k, mixed from the benchmark seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


def _points(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k, 1])


def _params(n, m, q=1.0, seed=0):
    return sampling.EnsembleParams(n_small=n, m_large=m, weight_q=q, seed=seed)


# ---------------------------------------------------------------- Monte Carlo

_BINS = 60


def _hist(params, draws: int, workers: int, out_dir: str, tag: str) -> list[Check]:
    """``rmtdiff hist --format svg``: histogram, overlay, CSV and SVG."""
    hist, overlay, theory = harness.run_hist(params, draws, _BINS, workers=workers)
    meta = harness.default_meta(params, draws, _BINS, workers)
    meta["overlay"] = overlay.label
    csv_path = os.path.join(out_dir, f"{tag}.csv")
    harness.write_histogram_csv(csv_path, hist, theory, meta)
    svgplot.render_xy(
        os.path.join(out_dir, f"{tag}.svg"),
        title=f"n={params.n_small} m={params.m_large} ({draws} samples)",
        bars=(hist.bin_edges, hist.normalized_density, "steelblue"),
        lines=[(hist.centers, theory, "crimson")],
    )
    back = np.loadtxt(csv_path, delimiter=",", skiprows=1, comments="#")
    l1 = float(np.sum(np.abs(hist.normalized_density - theory) * hist.widths))
    tol = 0.05  # AC-04 / AC-05 / AC-11
    checks = [
        (f"AC-04 L1 hist vs {overlay.label}", l1, tol),
        ("csv round trip", float(np.max(np.abs(back[:, 2] - hist.normalized_density))), 0.0),
    ]
    if overlay.atom_threshold is not None:
        checks.append(("AC-03 atom fraction", abs(hist.atom_fraction - overlay.atom_weight), 0.02))
    return checks


def _trace_distance(params, draws: int, workers: int) -> list[Check]:
    got = montecarlo.trace_distance_mc(params, draws, workers=workers)
    want = moments.trace_distance_asymptotic(params.dim_ratio)
    return [(f"AC-09 trace distance c={params.dim_ratio:g}", abs(got - want), 0.01)]


def _operator_norm(params, draws: int, workers: int) -> list[Check]:
    got = params.n_small * montecarlo.operator_norm_mc(params, draws, workers=workers)
    want = params.n_small * moments.operator_norm_asymptotic(params.dim_ratio, params.n_small)
    return [("AC-10 relative operator norm", abs(got - want) / want, 0.05)]


def _page_entropy(seed: int, draws: int) -> list[Check]:
    got = montecarlo.mean_entropy_mc(_params(2, 2, seed=seed), draws)
    return [("AC-13 2x2 entropy vs Page", abs(got - sampling.page_entropy_mean(2, 2)), 0.01)]


def _scalar_draws(seed: int, draws: int) -> list[Check]:
    """The scalar sampling path of demos/01: one matrix at a time."""
    n, m = 4, 16
    params = _params(n, m, seed=seed)
    rng = params.rng()
    entropy = purity = 0.0
    for _ in range(draws):
        rho = sampling.sample_pure_state_reduced(params, rng)
        lam = sampling.hermitian_eigenvalues(rho).eigenvalues
        entropy += sampling.von_neumann_entropy(lam)
        rho = sampling.reduced_density_from_ginibre(sampling.sample_ginibre(n, m, rng))
        lam = sampling.hermitian_eigenvalues(rho).eigenvalues
        purity += float(np.sum(lam * lam))
    return [
        ("AC-13 entropy vs Page, pure-state path",
         abs(entropy / draws - sampling.page_entropy_mean(n, m)), 0.01),
        ("AC-13 tolerance: purity vs (N+M)/(NM+1), Ginibre path",
         abs(purity / draws - (n + m) / (n * m + 1)), 0.01),
    ]


def _mc_spectra(seed: int, out_dir: str, nproc: int) -> list[Job]:
    jobs = []
    # (40, 50) needs the most draws: its finite-N bias alone is ~0.025 of the 0.05 L1 tolerance
    for k, (n, m, draws) in enumerate(((40, 50, 1000), (80, 50, 300), (80, 30, 300), (100, 20, 300))):
        p = _params(n, m, seed=_seed(seed, k))
        jobs.append(Job(f"hist_{n}x{m}", partial(_hist, p, draws, 1, out_dir, f"h{n}x{m}")))
    for k, (n, m, q) in enumerate(((50, 50, 0.2), (50, 100, 2.0)), start=10):
        p = _params(n, m, q, seed=_seed(seed, k))
        jobs.append(Job(f"hist_{n}x{m}_q{q:g}", partial(_hist, p, 600, 1, out_dir, f"w{m}")))
    for k, (n, m, draws) in enumerate(((100, 100, 60), (100, 20, 100)), start=20):
        p = _params(n, m, seed=_seed(seed, k))
        jobs.append(Job(f"trace_distance_c{n / m:g}", partial(_trace_distance, p, draws, 1)))
    p = _params(200, 200, seed=_seed(seed, 30))
    jobs.append(Job("operator_norm_200", partial(_operator_norm, p, 40, 1)))
    p = _params(2, 10, seed=_seed(seed, 40))
    jobs.append(Job("hist_2x10_exact", partial(_hist, p, 50_000, 1, out_dir, "h2x10")))
    jobs.append(Job("page_entropy_2x2", partial(_page_entropy, _seed(seed, 41), 20_000)))
    jobs.append(Job("scalar_draws_4x16", partial(_scalar_draws, _seed(seed, 42), 1000)))
    return jobs


def _mc_workers(seed: int, out_dir: str, nproc: int) -> list[Job]:
    jobs = []
    for k, (n, m) in enumerate(((100, 20), (80, 50))):
        p = _params(n, m, seed=_seed(seed, k))
        jobs.append(Job(f"hist_{n}x{m}_w{nproc}", partial(_hist, p, 400, nproc, out_dir, f"h{n}x{m}")))
    p = _params(100, 100, seed=_seed(seed, 20))
    jobs.append(Job(f"trace_distance_c1_w{nproc}", partial(_trace_distance, p, 120, nproc)))
    p = _params(200, 200, seed=_seed(seed, 30))
    jobs.append(Job(f"operator_norm_200_w{nproc}", partial(_operator_norm, p, 60, nproc)))
    return jobs


def _warm_mc(out_dir: str, workers: int) -> None:
    _hist(_params(20, 20, seed=1), 20, workers, out_dir, "warm")
    _hist(_params(20, 20, 0.5, seed=1), 20, workers, out_dir, "warm")
    _hist(_params(2, 10, seed=1), 20, workers, out_dir, "warm")
    montecarlo.trace_distance_mc(_params(20, 20, seed=1), 4, workers=workers)
    montecarlo.operator_norm_mc(_params(20, 20, seed=1), 4, workers=workers)
    if workers == 1:
        _page_entropy(1, 10)
        _scalar_draws(1, 2)


# ---------------------------------------------------------------- theory

_AC01_C = (0.25, 0.8, 1.0, 1.6, 2.0, 2.5, 5.0)
_AC02_C = (0.5, 1.0, 1.9, 2.1, 3.0, 5.0)
_AC08_Z = (0.5, 1.0, 2.0, 3.7)


def _density_at(c: float, seed: int, k: int, points: int) -> list[Check]:
    """aed_grid's unit mass and aed_curve against the closed form at random points."""
    rng = _points(seed, k)
    res = asym_law.aed_grid(c)
    mass = res.atom_weight + res.trapezoid_mass()
    _, x_plus = asym_law.support_points(c)
    xs = np.sort(rng.uniform(-1.1 * x_plus, 1.1 * x_plus, points))
    numeric = asym_law.aed_curve(xs, c)
    closed = np.array([asym_law.aed_symmetric(float(x), c) for x in xs])
    return [
        ("AC-01 atom + trapezoid mass - 1", abs(mass - 1.0), 1e-6),
        ("AC-02 aed_curve vs aed_symmetric", float(np.max(np.abs(numeric - closed))), 1e-8),
    ]


def _binned_grid_mass(res, edges: np.ndarray) -> np.ndarray:
    """Per-bin mass of a tabulated density by the cumulative trapezoid rule."""
    cum = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(res.grid) * (res.density[1:] + res.density[:-1]))))
    return np.diff(np.interp(edges, res.grid, cum))


def _weighted(n: int, m: int, q: float) -> list[Check]:
    """aed_grid's unit mass, and the hist overlay's bin masses against the grid's."""
    params = _params(n, m, q)
    c, eta = params.dim_ratio, params.weight_ratio
    res = asym_law.aed_grid(c, eta)
    mass = res.atom_weight + res.trapezoid_mass()
    overlay = harness.theory_overlay(params)
    edges = np.linspace(res.grid[0], res.grid[-1], _BINS + 1)
    overlay_mass = montecarlo.bin_theory_mass(overlay.density, edges)
    return [
        ("AC-01 atom + trapezoid mass - 1", abs(mass - 1.0), 1e-6),
        ("AC-11 L1 overlay bins vs aed_grid bins",
         float(np.sum(np.abs(overlay_mass - _binned_grid_mass(res, edges)))), 0.05),
    ]


def _moment_grid() -> list[Check]:
    worst = m2 = 0.0
    for z in _AC08_Z:
        for c in _AC02_C:
            closed = moments.absolute_moment(z, c)
            worst = max(worst, abs(closed - moments.moment_via_quadrature(z, c)) / abs(closed))
    for c in _AC02_C:
        m2 = max(m2, abs(moments.absolute_moment(2, c) - 2 * c))
    return [("AC-08 closed vs quadrature (relative)", worst, 1e-5), ("AC-08 m2 = 2c", m2, 1e-10)]


def _weighted_moment(c: float, eta: float) -> list[Check]:
    # free independence: E x^2 = c (1 + eta^2) + (1 - eta)^2 for x = N (rho1 - eta rho2)
    want = c * (1.0 + eta * eta) + (1.0 - eta) ** 2
    got = moments.moment_via_quadrature(2.0, c, eta)
    return [("AC-08 weighted m2 vs free-convolution closed form", abs(got - want) / want, 1e-5)]


def _continuous_mass() -> list[Check]:
    worst = max(abs(asym_law.atom_weight(c) + moments.continuous_mass(c) - 1.0) for c in _AC01_C)
    return [("AC-01 atom + continuous_mass - 1", worst, 1e-6)]


def _mp_distance_to_mixed(c: float) -> float:
    """0.5 E|x - 1| under the rescaled Marchenko-Pastur law, by plain adaptive quadrature."""
    lo, hi = (1.0 - math.sqrt(c)) ** 2, (1.0 + math.sqrt(c)) ** 2

    def f(x):
        return abs(x - 1.0) * asym_law.marchenko_pastur(x, c)[0]

    cuts = sorted({lo, hi, min(max(1.0, lo), hi)})
    cont = sum(quad(f, a, b, limit=200, epsabs=1e-12, epsrel=1e-12)[0] for a, b in zip(cuts[:-1], cuts[1:]))
    return 0.5 * (cont + max(1.0 - 1.0 / c, 0.0))


def _distances() -> list[Check]:
    td = max(
        abs(moments.trace_distance_asymptotic(c) - 0.5 * moments.absolute_moment(1, c))
        / moments.trace_distance_asymptotic(c)
        for c in _AC02_C
    )
    small = 1e-3
    ratio = moments.trace_distance_asymptotic(small) / moments.distance_to_mixed_asymptotic(small)
    edge = 2.0 * math.sqrt(0.02)
    mixed = max(
        abs(moments.distance_to_mixed_asymptotic(c) - _mp_distance_to_mixed(c))
        for c in (0.25, 0.5, 2.0, 5.0)
    )
    return [
        ("AC-08 trace distance vs m1/2 (relative)", td, 1e-5),
        ("AC-12 trace-distance ratio vs sqrt 2", abs(ratio - math.sqrt(2.0)), 0.02 * math.sqrt(2.0)),
        ("AC-10 small-c operator norm (relative)",
         abs(moments.operator_norm_asymptotic(0.01, 1) - edge) / edge, 0.03),
        ("AC-01 tolerance: distance to mixed vs MP quadrature", mixed, 1e-6),
    ]


_WEIGHTED = (
    # (n, m, q): fig6l = AC-11 first case, fig6r = AC-11 second, fig7l, fig7r,
    # and the c > 2, eta != 1 case whose origin atom the support scan misses
    (50, 50, 0.2),
    (50, 100, 2.0),
    (50, 75, 4.0),
    (50, 125, 0.4),
    (60, 20, 0.5),
)

_DEFECTS = {
    1e-3: "aed_symmetric's near-origin series covers the whole support at small c: mass off by +3.1e-3",
    (60, 20, 0.5): "the support scan finds a fake band at the origin and misses the atom: "
                   "mass off by -1.2e-2",
}


def _theory_curves(seed: int, out_dir: str, nproc: int) -> list[Job]:
    jobs = []
    for k, c in enumerate(sorted(set(_AC01_C) | set(_AC02_C) | {2.0, 1e-3})):
        jobs.append(Job(f"density_c{c:g}", partial(_density_at, c, seed, k, 400), _DEFECTS.get(c)))
    for n, m, q in _WEIGHTED:
        jobs.append(Job(f"weighted_{n}x{m}_q{q:g}", partial(_weighted, n, m, q), _DEFECTS.get((n, m, q))))
    jobs.append(Job("moments_ac08_grid", _moment_grid))
    jobs.append(Job("moment_weighted_c1_eta0.2", partial(_weighted_moment, 1.0, 0.2)))
    jobs.append(Job("continuous_mass_ac01_grid", _continuous_mass))
    jobs.append(Job("distances", _distances))
    return jobs


def _warm_theory(out_dir: str, nproc: int) -> None:
    asym_law.aed_grid(1.0, count=101)
    asym_law.aed_curve(np.linspace(-1.0, 1.0, 5), 1.0, 0.5)
    harness.theory_overlay(_params(20, 20, 0.5))
    moments.absolute_moment(1.0, 1.0)
    moments.moment_via_quadrature(1.0, 1.0)
    moments.continuous_mass(1.0)
    moments.distance_to_mixed_asymptotic(1.0)


# ---------------------------------------------------------------- exact law

def _interior_points(seed: int, k: int, n: int, count: int, spread: float) -> list[np.ndarray]:
    """Random zero-sum points at least 1e-3 from every orthant wall and the region boundary."""
    rng = _points(seed, k)
    out = []
    while len(out) < count:
        lam = rng.uniform(-spread, spread, size=n)
        lam[-1] = -float(np.sum(lam[:-1]))
        if np.min(np.abs(lam)) > 1e-3 and finite_law.region_gamma(lam) > 1e-3:
            out.append(lam)
    return out


def _psi_direct(point, n: int, m: int) -> Fraction:
    """psi from its defining sum over k in {0..M-1}^N, in exact rationals."""
    d = n * (2 * m - 1) - 1
    z = [abs(Fraction(float(v))) for v in point]
    gamma = 1 - sum(z) / 2
    w = [
        Fraction(math.factorial(2 * (m - 1) - k), math.factorial(k) * math.factorial(m - 1 - k))
        for k in range(m)
    ]
    total = Fraction(0)
    for ks in np.ndindex(*(m,) * n):
        e = d - sum(ks)
        term = gamma**e / math.factorial(e)
        for zi, k in zip(z, ks):
            term *= w[k] * zi**k
        total += term
    return total * Fraction(math.factorial(n * m - 1) ** 2, math.factorial(m - 1) ** n)


def _psi(n: int, m: int, seed: int, k: int) -> list[Check]:
    psi = finite_law.build_psi_poly(n, m)
    worst = 0.0
    for lam in _interior_points(seed, k, n, 3, 0.6):
        want = float(_psi_direct(lam, n, m))
        worst = max(worst, abs(psi.evaluate(lam) - want) / abs(want))
    return [("AC-06 tolerance: expanded psi vs defining sum (relative)", worst, 1e-9)]


def _n3_symmetry(m: int, seed: int, k: int) -> list[Check]:
    sym = 0.0
    negative = 0.0
    for lam in _interior_points(seed, k, 3, 6, 0.6):
        base = finite_law.joint_eigen_density(lam, 3, m)
        perm = finite_law.joint_eigen_density(lam[[1, 2, 0]], 3, m)
        refl = finite_law.joint_eigen_density(-lam, 3, m)
        scale = max(abs(base), 1e-30)
        sym = max(sym, abs(perm - base) / scale, abs(refl - base) / scale)
        negative = max(negative, -base)
    return [("AC-07 permutation and reflection symmetry", sym, 1e-10), ("AC-07 nonnegative", negative, 0.0)]


def _n2_law(m: int, seed: int, k: int) -> list[Check]:
    worst = 0.0
    for t in _points(seed, k).uniform(0.02, 0.95, 10):
        want = finite_law.n2_exact_density(t, m)
        worst = max(worst, abs(finite_law.joint_eigen_density((t, -t), 2, m) - want) / want)
    return [("AC-06 joint law vs closed-form N=2 marginal", worst, 1e-9)]


def _fig2b_overlay() -> list[Check]:
    """The N=3 exact marginal through bin_theory_mass, as fig2b overlays it."""
    overlay = harness.theory_overlay(_params(3, 3))
    mass = montecarlo.bin_theory_mass(overlay.density, np.linspace(-3.0, 3.0, _BINS + 1))
    return [
        ("AC-07 tolerance: overlay bin masses sum to 1", abs(float(np.sum(mass)) - 1.0), 1e-3),
        ("AC-07 reflection symmetry of bin masses", float(np.max(np.abs(mass - mass[::-1]))), 1e-10),
    ]


def _n2_grid(m: int) -> list[Check]:
    xs = np.linspace(-0.999, 0.999, 2001)
    dens = np.array([finite_law.n2_exact_density(float(x), m) for x in xs])
    return [("AC-05 N=2 normalization", abs(float(simpson(dens, x=xs)) - 1.0), 1e-8)]


def _fig1_grid(seed: int, k: int) -> list[Check]:
    """fig1's fast float grid of the N=3, M=3 joint density, spot-checked in exact mode."""
    axis = np.linspace(-1.02, 1.02, 61)
    for l2 in axis:
        for l1 in axis:
            lam = np.array([l1, l2, -l1 - l2])
            if np.min(np.abs(lam)) < 1e-9 or finite_law.region_gamma(lam) < 1e-9:
                continue
            finite_law.joint_eigen_density(lam, 3, 3, exact=False)
    worst = max(
        abs(
            finite_law.joint_eigen_density(lam, 3, 3, exact=False)
            - finite_law.joint_eigen_density(lam, 3, 3)
        )
        for lam in _interior_points(seed, k, 3, 5, 0.6)
    )
    return [("float path vs exact (absolute)", worst, 1e-6)]


def _exact_law(seed: int, out_dir: str, nproc: int) -> list[Job]:
    jobs = [
        Job(f"psi_{n}x{m}", partial(_psi, n, m, seed, k))
        for k, (n, m) in enumerate(((3, 4), (3, 5), (2, 10)))
    ]
    jobs.append(Job("joint_density_n3_m4", partial(_n3_symmetry, 4, seed, 10)))
    jobs.append(Job("n2_law_m10", partial(_n2_law, 10, seed, 11)))
    jobs.append(Job("fig2b_overlay", _fig2b_overlay))
    jobs.append(Job("n2_density_grid", partial(_n2_grid, 10)))
    jobs.append(Job("fig1_float_grid", partial(_fig1_grid, seed, 12)))
    return jobs


def _warm_exact(out_dir: str, nproc: int) -> None:
    finite_law.build_psi_poly(2, 2)
    finite_law.joint_eigen_density((0.1, 0.2, -0.3), 3, 4)
    finite_law.joint_eigen_density((0.1, 0.2, -0.3), 3, 3, exact=False)
    finite_law.joint_eigen_density((0.1, -0.1), 2, 10)
    finite_law.single_eigenvalue_marginal(3, 3, [0.1])
    finite_law.n2_exact_density(0.1, 10)


WORKLOADS = {
    "mc_spectra": Workload(_mc_spectra, lambda d, n: _warm_mc(d, 1)),
    "mc_workers": Workload(_mc_workers, _warm_mc),
    "theory_curves": Workload(_theory_curves, _warm_theory),
    "exact_law": Workload(_exact_law, _warm_exact),
}
