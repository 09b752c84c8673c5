"""Verification suite: one entry per acceptance criterion, CLI-reportable.

Every criterion compares an implementation route against an independent one
(closed form vs quadrature, exact law vs Monte Carlo, polynomial machinery
vs hand-derived special cases) at a pinned tolerance.  ``fast`` level
divides Monte Carlo sample counts by ten and multiplies tolerances by
three; analytic checks run identically at both levels.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .asym_law import (
    aed_curve,
    aed_symmetric,
    atom_weight,
    support_points,
)
from .errors import Unsupported
from .finite_law import (
    derivative_principle_selftest,
    joint_eigen_density,
    n2_exact_density,
    single_eigenvalue_marginal,
)
from .harness import run_hist
from .moments import (
    absolute_moment,
    continuous_mass,
    distance_to_mixed_asymptotic,
    moment_via_quadrature,
    operator_norm_asymptotic,
    trace_distance_asymptotic,
)
from .montecarlo import (
    build_histogram,
    difference_spectra,
    l1_distance,
    mean_entropy_mc,
    operator_norm_mc,
    trace_distance_mc,
)
from .sampling import EnsembleParams, page_entropy_mean

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_verify", "format_report_line"]


@dataclass(frozen=True)
class CriterionResult:
    criterion_id: str
    measured: float
    expected: float
    tolerance: float
    passed: bool
    detail: str = ""


def _result(cid, measured, expected, tol, extra_ok=True, detail=""):
    ok = abs(measured - expected) <= tol and extra_ok
    return CriterionResult(cid, float(measured), float(expected), float(tol), ok, detail)


def _scale(level: str, samples: int) -> int:
    return max(samples // 10, 50) if level == "fast" else samples


def _tol(level: str, tol: float) -> float:
    return 3.0 * tol if level == "fast" else tol


def ac01_aed_normalization(level: str) -> CriterionResult:
    worst = 0.0
    for c in (0.25, 0.8, 1.0, 1.6, 2.0, 2.5, 5.0):
        total = atom_weight(c) + continuous_mass(c)
        worst = max(worst, abs(total - 1.0))
    return _result("AC-01", worst, 0.0, _tol(level, 1e-6), detail="max |mass-1| over c-grid")


def ac02_closed_vs_inversion(level: str) -> CriterionResult:
    worst = 0.0
    for c in (0.5, 1.0, 1.9, 2.1, 3.0, 5.0):
        _, xp = support_points(c)
        xs = np.linspace(-1.1 * xp, 1.1 * xp, 2001)
        closed = aed_symmetric(xs, c)
        numeric = aed_curve(xs, c)
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
    return _result("AC-02", worst, 0.0, _tol(level, 1e-8), detail="sup over 2001-point grids")


def ac03_atom_fraction(level: str) -> CriterionResult:
    params = EnsembleParams(n_small=100, m_large=20, seed=303)
    samples = _scale(level, 3000)
    pooled = difference_spectra(params, samples, rescaled=True).ravel()
    x_minus, _ = support_points(params.dim_ratio)
    frac = float(np.mean(np.abs(pooled) < 0.5 * x_minus))
    return _result("AC-03", frac, 0.600, _tol(level, 0.02), detail=f"{samples} samples")


def ac04_mc_vs_aed(level: str) -> CriterionResult:
    params = EnsembleParams(n_small=80, m_large=50, seed=304)
    samples = _scale(level, 3000)
    hist, overlay, _ = run_hist(params, samples, 60)
    dist = l1_distance(hist, overlay.density)
    return _result("AC-04", dist, 0.0, _tol(level, 0.05), detail="L1, 60 bins")


def ac05_exact_n2_law(level: str) -> CriterionResult:
    from scipy.integrate import quad

    norm_ok = True
    for m in (2, 5, 10):
        val, _ = quad(lambda x: n2_exact_density(x, m), -1, 1, points=[0.0], limit=300)
        norm_ok = norm_ok and abs(val - 1.0) <= _tol(level, 1e-8)
    params = EnsembleParams(n_small=2, m_large=10, seed=305)
    samples = _scale(level, 30_000)
    hist, overlay, _ = run_hist(params, samples, 60)
    dist = l1_distance(hist, overlay.density)
    return _result(
        "AC-05", dist, 0.0, _tol(level, 0.05), extra_ok=norm_ok,
        detail="L1 vs exact law; normalization folded in",
    )


def ac06_derivative_principle(level: str) -> CriterionResult:
    worst = 0.0
    ts = [k / 64 for k in (1, 2, 3, 5, 7, 9, 11, 14, 17, 20, 23, 26, 29, 32, 36, 40, 44, 48, 52, 56)]
    for m in (2, 5, 10):
        for t in ts:
            a = joint_eigen_density((t, -t), 2, m)
            b = n2_exact_density(t, m)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    gue_ok = derivative_principle_selftest()
    return _result(
        "AC-06", worst, 0.0, _tol(level, 1e-9), extra_ok=gue_ok,
        detail="20 interior points x M in {2,5,10}; unitary-ensemble selftest",
    )


def ac07_n3_joint_law(level: str) -> CriterionResult:
    rng = np.random.default_rng(307)
    sym_ok = True
    nonneg_ok = True
    for _ in range(40):
        lam = rng.uniform(-0.6, 0.6, size=3)
        lam[2] = -lam[0] - lam[1]
        if np.min(np.abs(lam)) < 1e-3 or 1 - 0.5 * np.sum(np.abs(lam)) < 1e-3:
            continue
        base = joint_eigen_density(lam, 3, 3)
        nonneg_ok = nonneg_ok and base >= 0.0
        perm = joint_eigen_density(lam[[1, 2, 0]], 3, 3)
        refl = joint_eigen_density(-lam, 3, 3)
        scale = max(abs(base), 1e-30)
        sym_ok = sym_ok and abs(perm - base) / scale < 1e-10
        sym_ok = sym_ok and abs(refl - base) / scale < 1e-10
    coincide_ok = joint_eigen_density((0.2, 0.2, -0.4), 3, 3) == 0.0
    params = EnsembleParams(n_small=3, m_large=3, seed=307)
    samples = _scale(level, 30_000)
    pooled = difference_spectra(params, samples, rescaled=False).ravel()
    hist = build_histogram(pooled, 60, value_range=(-1.0, 1.0))
    centers = hist.centers
    theory_vals = single_eigenvalue_marginal(3, 3, centers)
    emp_mass = hist.normalized_density * hist.widths
    th_mass = theory_vals * hist.widths
    dist = float(np.sum(np.abs(emp_mass - th_mass)))
    return _result(
        "AC-07", dist, 0.0, _tol(level, 0.1),
        extra_ok=sym_ok and nonneg_ok and coincide_ok,
        detail="L1 of marginal vs MC; symmetry/nonnegativity folded in",
    )


def ac08_moments_oracle(level: str) -> CriterionResult:
    worst = 0.0
    for z in (0.5, 1.0, 2.0, 3.7):
        for c in (0.5, 1.0, 1.9, 2.1, 3.0, 5.0):
            closed = absolute_moment(z, c)
            quadv = moment_via_quadrature(z, c)
            worst = max(worst, abs(closed - quadv) / abs(closed))
    m2_ok = all(
        abs(absolute_moment(2, c) - 2 * c) <= 1e-10
        for c in (0.5, 1.0, 1.9, 2.1, 3.0, 5.0)
    )
    return _result(
        "AC-08", worst, 0.0, _tol(level, 1e-5), extra_ok=m2_ok,
        detail="max relative gap over (z, c) grid; m2 = 2c folded in",
    )


def ac09_trace_distance(level: str) -> CriterionResult:
    samples = _scale(level, 500)
    mc1 = trace_distance_mc(EnsembleParams(100, 100, seed=309), samples)
    want1 = (2.0 + math.pi / 2.0) / (2.0 * math.pi)
    mc5 = trace_distance_mc(EnsembleParams(100, 20, seed=310), samples)
    want5 = 0.9
    lower = (1.0 / (4.0 * math.pi)) * (
        3.0 * math.sqrt(0.0) + 6.0 * math.asin(1.0)
    )
    branch_ok = abs(trace_distance_asymptotic(2.0) - 0.75) <= 1e-8 and abs(
        lower - 0.75
    ) <= 1e-8
    worst = max(abs(mc1 - want1), abs(mc5 - want5))
    return _result(
        "AC-09", worst, 0.0, _tol(level, 0.01), extra_ok=branch_ok,
        detail=f"c=1: {mc1:.4f} vs {want1:.4f}; c=5: {mc5:.4f} vs 0.9",
    )


def ac10_operator_norm(level: str) -> CriterionResult:
    samples = _scale(level, 300)
    params = EnsembleParams(200, 200, seed=311)
    mc = 200.0 * operator_norm_mc(params, samples)
    want = 0.25 * (math.sqrt(5.0) + 3.0) ** 1.5 * (math.sqrt(5.0) - 1.0) ** 0.5
    rel = abs(mc - want) / want
    small_c_ok = (
        abs(operator_norm_asymptotic(0.01, 1) - 2.0 * math.sqrt(0.02))
        / (2.0 * math.sqrt(0.02))
        <= 0.03
    )
    return _result(
        "AC-10", rel, 0.0, _tol(level, 0.05), extra_ok=small_c_ok,
        detail=f"N=M=200 mean rescaled max |lambda| = {mc:.4f} vs {want:.4f}",
    )


def ac11_weighted_case(level: str) -> CriterionResult:
    samples = _scale(level, 3000)
    worst = 0.0
    for n, m, q, seed in ((50, 50, 0.2, 312), (50, 100, 2.0, 313)):
        params = EnsembleParams(n_small=n, m_large=m, weight_q=q, seed=seed)
        hist, overlay, _ = run_hist(params, samples, 60)
        worst = max(worst, l1_distance(hist, overlay.density))
    return _result(
        "AC-11", worst, 0.0, _tol(level, 0.05),
        detail="L1 for (c=1, eta=0.2) and (c=0.5, eta=2)",
    )


def ac12_sqrt2_relations(level: str) -> CriterionResult:
    c = 1e-3
    ratio = trace_distance_asymptotic(c) / distance_to_mixed_asymptotic(c)
    rel = abs(ratio / math.sqrt(2.0) - 1.0)
    # operator-norm counterpart: leading small-c laws 2 sqrt(2c) vs 2 sqrt(c)
    structural = abs(
        (2.0 * math.sqrt(2.0 * c)) / (2.0 * math.sqrt(c)) - math.sqrt(2.0)
    ) < 1e-15
    limit_ok = (
        abs(
            operator_norm_asymptotic(1e-6, 1)
            / (2.0 * math.sqrt(1e-6) + 1e-6)
            / math.sqrt(2.0)
            - 1.0
        )
        < 0.01
    )
    return _result(
        "AC-12", ratio, math.sqrt(2.0), _tol(level, 0.02 * math.sqrt(2.0)),
        extra_ok=structural and limit_ok,
        detail=f"trace-distance ratio at c={c:g}; rel dev {rel:.2e}",
    )


def ac13_page_formula(level: str) -> CriterionResult:
    samples = _scale(level, 100_000)
    mc = mean_entropy_mc(EnsembleParams(2, 2, seed=314), samples)
    want = page_entropy_mean(2, 2)
    return _result(
        "AC-13", mc, want, _tol(level, 0.01), detail=f"{samples} pure-state samples"
    )


CRITERIA = {
    "AC-01": ac01_aed_normalization,
    "AC-02": ac02_closed_vs_inversion,
    "AC-03": ac03_atom_fraction,
    "AC-04": ac04_mc_vs_aed,
    "AC-05": ac05_exact_n2_law,
    "AC-06": ac06_derivative_principle,
    "AC-07": ac07_n3_joint_law,
    "AC-08": ac08_moments_oracle,
    "AC-09": ac09_trace_distance,
    "AC-10": ac10_operator_norm,
    "AC-11": ac11_weighted_case,
    "AC-12": ac12_sqrt2_relations,
    "AC-13": ac13_page_formula,
}


def run_criterion(cid: str, level: str = "full") -> CriterionResult:
    if level not in ("fast", "full"):
        raise Unsupported(f"level must be 'fast' or 'full', got {level!r}")
    if cid not in CRITERIA:
        raise Unsupported(f"unknown criterion {cid!r}; valid ids: {', '.join(CRITERIA)}")
    return CRITERIA[cid](level)


def format_report_line(r: CriterionResult) -> str:
    return "%s,%.6g,%.6g,%.6g,%s" % (
        r.criterion_id,
        r.measured,
        r.expected,
        r.tolerance,
        "PASS" if r.passed else "FAIL",
    )


def run_verify(level: str = "full", out_path=None) -> int:
    """Run every criterion; return 0 iff all pass.

    One report line each goes to stdout and its elapsed seconds to stderr.
    """
    results, lines = [], []
    for cid in CRITERIA:
        start = time.perf_counter()
        results.append(run_criterion(cid, level))
        lines.append(format_report_line(results[-1]))
        print(lines[-1])
        print(f"{cid} {time.perf_counter() - start:.2f} s", file=sys.stderr)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("criterion,measured,expected,tolerance,status\n")
            fh.write("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 1
