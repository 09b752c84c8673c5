"""Properties of the asymptotic law over random (c, eta, x), and mpmath spot checks."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtdiff import asym_law
from rmtdiff.asym_law import (
    aed_curve,
    aed_symmetric,
    atom_weight,
    find_support_numeric,
    support_points,
)
from rmtdiff.moments import continuous_mass

ratios = st.floats(0.02, 20.0)
weights = st.floats(0.05, 20.0)
# keeps edge probes clear of the transition, where the gap closes like (c-2)^{3/2}
off_transition = st.one_of(st.floats(0.02, 1.95), st.floats(2.05, 20.0))
unit = st.floats(-1.2, 1.2)


def _span(c, eta):
    intervals = find_support_numeric(c, eta)
    return intervals, max(abs(intervals[0][0]), abs(intervals[-1][1]))


@given(ratios, weights, st.lists(unit, min_size=1, max_size=40))
def test_density_nonnegative(c, eta, rel):
    _, span = _span(c, eta)
    assert np.all(aed_curve(np.array(rel) * span, c, eta) >= 0.0)


@given(
    ratios,
    weights,
    unit,
    st.sampled_from([1.0, 1e-6, 1e-12]),
    st.sampled_from([5e-10, 1e-9, 1e-3, 1.0]),
)
def test_cubic_roots_match_np_roots(c, eta, rel, shrink, im):
    # np.roots (LAPACK eigenvalues of a companion matrix) is independent of the
    # closed-form solve.  Tiny |z| sends one root to infinity, where the
    # companion matrix in G loses the finite roots and the one in h = 1/G the
    # infinite one, so each root is matched in whichever of the two is nearer
    _, span = _span(c, eta)
    z = complex(1.2 * rel * span * shrink, im * shrink)
    coef = asym_law._cubic_coefficients(c, eta) @ (1.0, z)
    got = asym_law._solve_cubics(np.array([z]), c, eta)[0]
    in_g, in_h = np.roots(coef), 1.0 / np.roots(coef[::-1])

    def rel(a, b):
        return abs(a - b) / abs(b)

    perms = list(itertools.permutations(range(3)))
    gap = min(
        max(min(rel(got[i], in_g[p[i]]), rel(got[i], in_h[q[i]])) for i in range(3))
        for p in perms
        for q in perms
    )
    assert gap <= 1e-9


@given(ratios, unit)
def test_symmetric_density_even(c, rel):
    _, x_plus = support_points(c)
    x = rel * x_plus
    assert aed_symmetric(x, c) == aed_symmetric(-x, c) >= 0.0
    pair = aed_curve(np.array([x, -x]), c)
    assert pair[0] == pytest.approx(pair[1], rel=1e-9, abs=1e-12)


@settings(max_examples=25)
@given(ratios, weights)
def test_atom_plus_continuous_mass_is_one(c, eta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = atom_weight(c, eta) + continuous_mass(c, eta)
    assert total == pytest.approx(1.0, abs=1e-6)


@given(off_transition, weights)
def test_density_switches_on_at_discriminant_edges(c, eta):
    intervals = find_support_numeric(c, eta)
    edges = [e for ab in intervals for e in ab]
    # a step well inside every interval and every gap between intervals
    delta = 1e-3 * float(np.min(np.diff(edges)))
    inside = [a + delta for a, _ in intervals] + [b - delta for _, b in intervals]
    outside = [a - delta for a, _ in intervals] + [b + delta for _, b in intervals]
    assert np.all(aed_curve(np.array(inside), c, eta) > 0.0)
    assert np.all(aed_curve(np.array(outside), c, eta) < 1e-12)
    if c > 2.0:
        # the rank atom sits in the gap around the origin
        assert len(intervals) == 2 and intervals[0][1] < 0.0 < intervals[1][0]


@given(ratios)
def test_equal_weight_edges_match_closed_form(c):
    x_minus, x_plus = support_points(c)
    if x_minus:
        want = [(-x_plus, -x_minus), (x_minus, x_plus)]
    else:
        want = [(-x_plus, x_plus)]
    got = find_support_numeric(c, 1.0)
    assert len(got) == len(want)
    for (a, b), (wa, wb) in zip(got, want):
        assert a == pytest.approx(wa, abs=1e-12)
        assert b == pytest.approx(wb, abs=1e-12)


def _mp_density(x: float, c: float) -> mpmath.mpf:
    """-Im G / pi from the equal-weight cubic solved at real x in 40 digits."""
    with mpmath.workdps(40):
        x, c = mpmath.mpf(x), mpmath.mpf(c)
        roots = mpmath.polyroots([c * c * x, c * (2 - c), -x, 1], maxsteps=200, extraprec=200)
        im = min(mpmath.im(r) for r in roots)
        return -im / mpmath.pi if im < 0 else mpmath.mpf(0)


@pytest.mark.parametrize("c", [1e-4, 1e-3, 1e-2, 1.0])
def test_closed_form_against_mpmath(c):
    _, x_plus = support_points(c)
    for t in (1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 0.999):
        x = t * x_plus
        want = _mp_density(x, c)
        assert abs(aed_symmetric(x, c) - want) <= 1e-11 * want
    assert aed_symmetric(0.0, c) == pytest.approx(1.0 / (math.pi * math.sqrt(c * (2.0 - c))), rel=1e-15)


def _mp_pair_density(x: float, c: float, eta: float) -> float:
    """|Im G|/pi of the weighted cubic's complex pair at real x, from 60-digit roots (0 if all real)."""
    with mpmath.workdps(60):
        x, c, eta = mpmath.mpf(x), mpmath.mpf(c), mpmath.mpf(eta)
        coeffs = [eta * c * c * x, c * eta * (2 - c) + c * (1 - eta) * x, (1 - eta) * (1 - c) - x, 1]
        roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=400)
        return float(max(abs(mpmath.im(r)) for r in roots) / mpmath.pi)


@pytest.mark.parametrize(
    "c, eta", [(2.0, 0.5), (2.0, 0.2), (2.0, 2.0), (1.0, 0.2), (3.0, 0.5), (0.5, 2.0), (2.2, 0.9)]
)
def test_weighted_density_next_to_edges_against_mpmath(c, eta):
    # 1e-12 ... 1e-2 on both sides of every edge: square-root edges, and at
    # c = 2 the one-sided |x|^(-1/2) edge at the origin
    edges = [e for ab in find_support_numeric(c, eta) for e in ab]
    xs = np.array([e + s * 10.0**-k for e in edges for s in (-1.0, 1.0) for k in range(2, 13)])
    want = np.array([_mp_pair_density(x, c, eta) for x in xs])
    assert np.max(np.abs(aed_curve(xs, c, eta) - want)) <= 1e-9


def _mp_pair_density_scaled(x: float, c: float, eta: float) -> mpmath.mpf:
    """``_mp_pair_density`` in 80 digits, solved for y = G sqrt|x|: at tiny |x| the pair stays O(1)."""
    with mpmath.workdps(80):
        x, c, eta = mpmath.mpf(x), mpmath.mpf(c), mpmath.mpf(eta)
        t = 1 / mpmath.sqrt(abs(x))
        coeffs = [eta * c * c * x, c * eta * (2 - c) + c * (1 - eta) * x, (1 - eta) * (1 - c) - x, 1]
        scaled = [a * t ** (3 - i) for i, a in enumerate(coeffs)]
        roots = mpmath.polyroots(scaled, maxsteps=500, extraprec=400)
        return max(abs(mpmath.im(r * t)) for r in roots) / mpmath.pi


@pytest.mark.parametrize("eta", [0.5, 0.2, 2.0, 5.0])
def test_weighted_density_at_origin_edge_c2(eta):
    # at c = 2 the support ends at x = 0 on one side (x < 0 for eta < 1), where
    # two of the h = 1/G roots are O(sqrt|x|): neither may be lost to cancellation
    mags = [10.0**-k for k in (15, 17, 18, 19, 30, 100, 300)] + [1e-310]
    xs = np.array([s * m for m in mags for s in (-1.0, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = aed_curve(xs, 2.0, eta)
    support = xs < 0.0 if eta < 1.0 else xs > 0.0
    for x, g in zip(xs[support], got[support]):
        want = _mp_pair_density_scaled(x, 2.0, eta)
        assert abs(g - want) <= 1e-12 * want
    assert np.all(got[~support] == 0.0)


# c = 2 puts the support's edge at the origin for eta != 1, where the pair in h = 1/G is
# O(sqrt|x|) next to an O(1) real root: Vieta's side of the switch
_INTERIOR_C = [float(c) for c in np.geomspace(1e-6, 1e6, 13)] + [2.0]
_INTERIOR_ETA = [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0]


def _mp_pair_and_condition(x: float, c: float, eta: float) -> tuple[float, float]:
    """|Im G|/pi of the cubic's complex pair at real x, from 40-digit roots in h = 1/G, and
    its condition number: the relative change of the density per relative rounding of the
    two terms (u_k, v_k x) that make each coefficient a_k = u_k + v_k x in float.

    The roots h of h^3 + a1 h^2 + a2 h + a3 move by dh/da_k = -h^(3-k)/f'(h), and G = 1/h
    by -dh/h^2.  Near a support edge, and at large c where the pair sits next to a double
    root, that number is large whatever the solver: the density then loses about kappa u.
    """
    rows = asym_law._cubic_coefficients(c, eta)[:3]  # a3, a2, a1 as (u, v)
    with mpmath.workdps(40):
        xm, cm, em = mpmath.mpf(x), mpmath.mpf(c), mpmath.mpf(eta)
        a3 = em * cm * cm * xm
        a2 = cm * em * (2 - cm) + cm * (1 - em) * xm
        a1 = (1 - em) * (1 - cm) - xm
        roots = mpmath.polyroots([1, a1, a2, a3], maxsteps=400, extraprec=100)
        h = max(roots, key=lambda r: abs(mpmath.im(r)))
        slope = 3 * h * h + 2 * a1 * h + a2
        dg = (1 / (slope * h * h), 1 / (slope * h), 1 / slope)  # dG/da3, dG/da2, dG/da1
        im = abs(mpmath.im(1 / h))
        kappa = sum((abs(u) + abs(v * x)) * abs(mpmath.im(d)) for (u, v), d in zip(rows, dg)) / im
        return float(im / mpmath.pi), float(kappa)


def _switch_points(c: float, eta: float, intervals) -> list[float]:
    """Points just either side of where the cubic's real root in h = 1/G and its complex
    pair have equal modulus, by np.roots: the real-axis route changes formula there."""

    def excess(x):
        a3, a2, a1 = (u + v * x for u, v in asym_law._cubic_coefficients(c, eta)[:3])
        r = np.roots([1.0, a1, a2, a3])
        return abs(r[np.argmin(np.abs(r.imag))]) - abs(r[np.argmax(np.abs(r.imag))])

    out = []
    for a, b in intervals:
        xs = a + (b - a) * np.linspace(1e-3, 1.0 - 1e-3, 41)
        signs = [excess(x) > 0.0 for x in xs]
        for lo, hi, s_lo, s_hi in zip(xs[:-1], xs[1:], signs[:-1], signs[1:]):
            if s_lo == s_hi:
                continue
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if (excess(mid) > 0.0) == s_lo else (lo, mid)
            out += [lo, hi, lo - 1e-9 * (b - a), hi + 1e-9 * (b - a)]
    return out


@pytest.mark.parametrize("eta", _INTERIOR_ETA)
@pytest.mark.parametrize("c", _INTERIOR_C)
def test_real_axis_inversion_against_mpmath(c, eta):
    # points 1e-6 ... 0.4 of each support interval's width in from each edge (not the
    # middle: at c = 2, eta = 1 that is the origin, where the density is unbounded),
    # +-1e-10 ... 1e-3 around the origin where that is inside, and both sides of the
    # real/pair switch
    intervals = find_support_numeric(c, eta)
    ts = (1e-6, 1e-3, 0.25, 0.4)
    xs = [x for a, b in intervals for t in ts for x in (a + t * (b - a), b - t * (b - a))]
    xs += [
        x for x in (s * 10.0**-k for k in (3, 5, 7, 10) for s in (1.0, -1.0))
        if any(a + 1e-6 * (b - a) <= x <= b - 1e-6 * (b - a) for a, b in intervals)
    ]
    xs += _switch_points(c, eta, intervals)
    got = aed_curve(np.array(xs), c, eta)
    for x, g in zip(xs, got):
        want, kappa = _mp_pair_and_condition(x, c, eta)
        # 1e-11 relative where the density is well conditioned, and where it is not, a
        # small multiple of what rounding the coefficients alone costs (the complex
        # solver ``_solve_cubics`` also errs up to 11 u kappa over this grid)
        assert abs(g - want) <= (1e-11 + 32.0 * 2.0**-53 * kappa) * want, (x, g, want, kappa)


def test_real_axis_switch_points_are_found():
    # the Vieta switch is exercised: at (1, 0.05), (1, 20) and (10, 1) the real root's
    # modulus crosses the pair's inside the support
    for c, eta in ((1.0, 0.05), (1.0, 20.0), (10.0, 1.0)):
        assert len(_switch_points(c, eta, find_support_numeric(c, eta))) >= 4
