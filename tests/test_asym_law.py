import cmath
import math
import warnings

import numpy as np
import pytest

from rmtdiff.asym_law import (
    aed_curve,
    aed_grid,
    aed_numeric,
    aed_symmetric,
    atom_weight,
    cauchy_roots,
    find_support_numeric,
    marchenko_pastur,
    r_transform_sum,
    support_points,
    _cubic_coefficients,
)
from rmtdiff import asym_law as law
from rmtdiff.errors import DomainError, PoleError


def cauchy_roots_trigonometric(z: complex, c: float) -> list[complex]:
    """Equal-weight roots in closed trigonometric form (independent solver).

    G_k = 2 sqrt((2-c)^2+3z^2)/(3cz) sin(Arcsin(eta(z))/3 + 2 pi k/3)
          + (c-2)/(3cz),  k = 0, 1, 2.
    """
    u = 2.0 - c
    disc = cmath.sqrt(u * u + 3.0 * z * z)
    e = (9.0 * (c + 1.0) * z * z + u**3) / disc**3
    theta0 = cmath.asin(e) / 3.0
    return [
        2.0 * disc / (3.0 * c * z) * cmath.sin(theta0 + 2.0 * math.pi * k / 3.0) + (c - 2.0) / (3.0 * c * z)
        for k in range(3)
    ]


def aed_symmetric_wform(x: float, c: float) -> float:
    """Cube-root expression of the equal-weight density; x inside the support."""
    s = math.sqrt(4.0 * c + 1.0)
    xp2 = (s + 3.0) ** 3 * (s - 1.0) / 16.0
    xm2 = (s - 3.0) ** 3 * (s + 1.0) / 16.0  # negative for c < 2
    u = 2.0 - c
    x2 = x * x
    rad = x2 * (x2 - xm2) * (xp2 - x2)
    w = (math.sqrt(rad) + math.sqrt(3.0) * (c + 1.0) * (x2 + u**3 / (9.0 * (c + 1.0)))) ** (1 / 3)
    return (w - (x2 + u * u / 3.0) / w) / (2.0 * math.pi * c * abs(x))


class TestSupportPoints:
    def test_critical_ratio_inner_edge_vanishes(self):
        xm, xp = support_points(2.0)
        assert xm == pytest.approx(0.0, abs=1e-15)
        assert xp == pytest.approx(3.0 * math.sqrt(3.0), rel=1e-14)

    def test_no_inner_edge_below_two(self):
        xm, xp = support_points(1.0)
        assert xm is None
        assert xp == pytest.approx(0.25 * (math.sqrt(5) + 3) ** 1.5 * (math.sqrt(5) - 1) ** 0.5)

    def test_small_c_scaling(self):
        c = 1e-6
        _, xp = support_points(c)
        assert xp == pytest.approx(2.0 * math.sqrt(2.0 * c), rel=2e-3)

    def test_inner_edge_values(self):
        xm, _ = support_points(2.5)
        assert xm == pytest.approx(0.0925400078090, rel=1e-10)
        xm3, _ = support_points(3.0)
        assert xm3 == pytest.approx(0.2528175418836, rel=1e-10)


class TestAtomWeight:
    def test_below_transition(self):
        assert atom_weight(1.0) == 0.0
        assert atom_weight(2.0) == 0.0

    def test_above_transition(self):
        assert atom_weight(5.0) == pytest.approx(0.6)

    def test_weighted_measured_deficit(self):
        # the rank value holds off the equal-weight line as well
        w = atom_weight(5.0, eta=1.0 + 1e-12)
        assert w == pytest.approx(0.6, abs=1e-5)


class TestSymmetricDensity:
    def test_outside_support_zero(self):
        _, xp = support_points(1.0)
        assert aed_symmetric(xp + 0.1, 1.0) == 0.0
        assert aed_symmetric(-xp - 0.1, 1.0) == 0.0

    def test_gap_zero(self):
        # x = 0.1 sits inside the spectral gap for c = 3 (x_minus ~ 0.253)
        assert aed_symmetric(0.1, 3.0) == 0.0
        # but inside the support for c = 2.5 (x_minus ~ 0.0925)
        assert aed_symmetric(0.1, 2.5) > 0.09

    def test_even(self):
        for x in (0.3, 1.7, 2.9):
            assert aed_symmetric(x, 1.3) == aed_symmetric(-x, 1.3)

    def test_origin_limit(self):
        for c in (0.5, 1.0, 1.9):
            want = 1.0 / (math.pi * math.sqrt(c * (2.0 - c)))
            assert aed_symmetric(0.0, c) == pytest.approx(want, rel=1e-12)

    def test_series_matches_inversion_near_origin(self):
        for c in (0.5, 1.0, 1.9):
            for x in (1e-4, -1e-4, 3e-5):
                assert aed_symmetric(x, c) == pytest.approx(
                    aed_numeric(x, c), abs=1e-9
                )

    def test_edge_vanishing(self):
        _, xp = support_points(1.0)
        assert aed_symmetric(xp - 1e-6, 1.0) < 1e-2

    def test_wform_agrees(self):
        for c in (0.5, 1.0, 1.9, 2.1, 3.0, 5.0):
            xm, xp = support_points(c)
            lo = xm if xm else 0.0
            for x in np.linspace(lo + 1e-3, xp - 1e-3, 25):
                a = aed_symmetric(float(x), c)
                b = aed_symmetric_wform(float(x), c)
                assert abs(a - b) < 1e-10

    def test_second_moment_is_2c(self):
        from rmtdiff.moments import moment_via_quadrature

        for c in (0.5, 1.0, 3.0):
            assert moment_via_quadrature(2.0, c) == pytest.approx(2 * c, rel=1e-5)


class TestSymmetricDensityArrays:
    def test_array_equals_scalar_calls_bitwise(self):
        rng = np.random.default_rng(7)
        for c in (1e-3, 0.5, 1.0, 2.0, 2.5, 5.0):
            _, xp = support_points(c)
            xs = np.concatenate((rng.uniform(-1.2 * xp, 1.2 * xp, 500), [0.0, xp, -xp, 1e-9 * xp]))
            got = aed_symmetric(xs, c)
            want = np.array([aed_symmetric(float(x), c) for x in xs])
            assert np.array_equal(got, want)

    def test_shapes(self):
        assert type(aed_symmetric(0.3, 1.0)) is float
        assert np.shape(aed_symmetric(np.array(0.3), 1.0)) == ()
        assert aed_symmetric(np.linspace(-1.0, 1.0, 5), 1.0).shape == (5,)
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        out = aed_symmetric(grid, 1.0)
        assert out.shape == (3, 4)
        assert np.array_equal(out.ravel(), aed_symmetric(grid.ravel(), 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_anywhere_raises(self, bad):
        xs = np.array([[0.1, 0.2], [0.3, 0.4]])
        xs[1, 0] = bad
        with pytest.raises(DomainError):
            aed_symmetric(xs, 1.0)

    def test_origin_diverges_at_transition(self):
        assert aed_symmetric(0.0, 2.0) == math.inf
        assert aed_symmetric(np.array([0.0, 1.0]), 2.0)[0] == math.inf

    @pytest.mark.parametrize("x", [1e-310, 5e-324])
    def test_subnormal_x(self, x):
        for c in (0.5, 1.0, 1.9):
            want = 1.0 / (math.pi * math.sqrt(c * (2.0 - c)))
            assert aed_symmetric(x, c) == aed_symmetric(-x, c) == pytest.approx(want, rel=1e-15)
        assert aed_symmetric(x, 3.0) == 0.0
        # (6 sqrt(3)/|x|)^(1/3)/(4 pi), with 6 sqrt(3)/|x| itself past the largest double
        want = math.exp((math.log(6.0 * math.sqrt(3.0)) - math.log(x)) / 3.0) / (4.0 * math.pi)
        assert aed_symmetric(x, 2.0) == pytest.approx(want, rel=1e-12)

    def test_tiny_x_at_transition_follows_asymptote(self):
        # eta = 3 sqrt(3)/|x| at c = 2, so the density is (6 sqrt(3)/|x|)^(1/3)/(4 pi)
        # up to a relative (2 eta)^(-2/3); x^2 underflows for |x| below ~1e-154
        xs = np.logspace(-300, -100, 201)
        want = (6.0 * math.sqrt(3.0) / xs) ** (1.0 / 3.0) / (4.0 * math.pi)
        for x in (xs, -xs):
            assert np.allclose(aed_symmetric(x, 2.0), want, rtol=1e-12, atol=0.0)


class TestSupportMask:
    def test_zero_just_outside_every_edge(self):
        # a narrow gap (0.00125, 0.00244): 1.2e-8 below its upper edge the
        # Richardson remainder of the default eps read 1.4e-7
        c, eta = 1.9375, 2.0
        intervals = find_support_numeric(c, eta)
        assert len(intervals) == 2
        outside = [a - 1.2e-8 for a, _ in intervals] + [b + 1.2e-8 for _, b in intervals]
        inside = [a + 1.2e-8 for a, _ in intervals] + [b - 1.2e-8 for _, b in intervals]
        assert np.all(aed_curve(np.array(outside), c, eta) == 0.0)
        assert np.all(aed_curve(np.array(inside), c, eta) > 0.0)

    @pytest.mark.parametrize("c, eta", [(1.9, 5.0), (10.0, 0.5), (50.0, 0.2), (100.0, 0.5)])
    def test_small_within_ulps_of_every_edge(self, c, eta):
        # a double root of the cubic sits on each edge; an unchecked Newton
        # step on its ~0 slope throws the pair off by up to 1e-2 there
        edges = np.array([e for ab in find_support_numeric(c, eta) for e in ab])
        xs = (edges[:, None] + np.arange(-20, 21) * np.spacing(np.abs(edges))[:, None]).ravel()
        assert np.max(aed_curve(xs, c, eta)) <= 1e-6

    @pytest.mark.parametrize("eta", [0.2, 0.5, 2.0, 4.0])
    def test_hard_edge_at_transition(self, eta):
        # at c = 2 the weighted density diverges like |x|^(-1/2) at its edge
        # x = 0; quadrature and grid both need it accurate right up to it
        from rmtdiff.moments import continuous_mass

        assert continuous_mass(2.0, eta) == pytest.approx(1.0, abs=1e-9)
        res = aed_grid(2.0, eta)
        assert res.trapezoid_mass() == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.isfinite(res.density))


class TestCauchyRoots:
    def test_large_z_asymptote(self):
        z = 1000.0 + 1.0j
        ev = cauchy_roots(z, 1.0)
        assert abs(z * ev.value - 1.0) < 1e-2

    def test_residual_small(self):
        for z in (0.5 + 0.3j, 2.0 + 1e-6j, -1.2 + 0.01j):
            for c, eta in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.2)):
                ev = cauchy_roots(z, c, eta)
                a3, a2, a1, a0 = _cubic_coefficients(z, c, eta)
                g = ev.value
                res = abs(((a3 * g + a2) * g + a1) * g + a0)
                scale = sum(abs(v) for v in (a3 * g**3, a2 * g**2, a1 * g, a0))
                assert res <= 1e-12 * max(scale, 1.0)

    def test_selected_negative_imag(self):
        for x in np.linspace(-3.0, 3.0, 11):
            ev = cauchy_roots(complex(x, 1e-6), 1.0)
            assert ev.value.imag <= 0.0

    def test_origin_density_c1(self):
        ev = cauchy_roots(1e-18 + 1e-9j, 1.0)
        assert -ev.value.imag / math.pi == pytest.approx(1.0 / math.pi, rel=1e-6)

    def test_trigonometric_form_matches(self):
        z = 1.0 + 0.5j
        for c in (0.5, 1.0, 2.5, 4.0):
            poly = sorted(
                (complex(r) for r in cauchy_roots(z, c).roots),
                key=lambda r: (round(r.real, 9), round(r.imag, 9)),
            )
            trig = sorted(
                cauchy_roots_trigonometric(z, c),
                key=lambda r: (round(r.real, 9), round(r.imag, 9)),
            )
            for a, b in zip(poly, trig):
                assert abs(a - b) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            cauchy_roots(1.0 - 0.5j, 1.0)


class TestNumericInversion:
    @pytest.mark.parametrize("c", [0.5, 1.0, 1.9, 2.1, 3.0, 5.0])
    def test_matches_closed_form(self, c):
        _, xp = support_points(c)
        xs = np.linspace(-1.1 * xp, 1.1 * xp, 301)
        closed = np.array([aed_symmetric(float(x), c) for x in xs])
        numeric = aed_curve(xs, c)
        assert float(np.max(np.abs(closed - numeric))) <= 1e-8

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.9, 2.0, 2.1, 3.0, 5.0])
    def test_matches_closed_form_on_acceptance_grids(self, c):
        # the AC-02 grids, and c = 2 but for its |x|^(-1/3) divergence at x = 0
        _, xp = support_points(c)
        xs = np.linspace(-1.1 * xp, 1.1 * xp, 2001)
        if c == 2.0:
            xs = xs[xs != 0.0]
        assert np.max(np.abs(aed_curve(xs, c) - aed_symmetric(xs, c))) <= 1e-12

    @pytest.mark.parametrize("c, eta", [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 0.5), (2.0, 0.5), (3.0, 2.0)])
    def test_origin_warns_nothing(self, c, eta):
        # a3 = 0 at x = 0 sends one root of the cubic in G to infinity
        xs = np.linspace(-1.0, 1.0, 201)
        assert 0.0 in xs
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            dens = aed_curve(xs, c, eta)
        assert np.all(np.isfinite(dens))

    @pytest.mark.parametrize("c", [0.01, 0.5, 1.0, 1.9])
    def test_tiny_x(self, c):
        # the real root near infinity carries a rounding Im G ~ 1e-16 |G| ~ 1e-16/|x|,
        # above the pair's own |Im G| once |x| < 1e-46 or so
        xs = np.concatenate((np.logspace(-300, -10, 59), [1e-310, 5e-324]))
        for x in (xs, -xs):
            assert np.allclose(aed_curve(x, c), aed_symmetric(x, c), rtol=1e-12, atol=0.0)

    def test_atom_excluded_at_origin(self):
        for c in (2.5, 5.0):
            assert aed_numeric(0.0, c) == pytest.approx(0.0, abs=1e-10)

    def test_scalar_matches_curve(self):
        xs = np.linspace(-2.0, 2.0, 21)
        curve = aed_curve(xs, 1.0)
        scalars = [aed_numeric(float(x), 1.0) for x in xs]
        assert np.allclose(curve, scalars, atol=1e-12)


class TestMarchenkoPastur:
    def test_unit_aspect(self):
        cont, atom = marchenko_pastur(2.0, 1.0)
        assert atom == 0.0
        assert cont == pytest.approx(math.sqrt(2.0 * 2.0) / (2 * math.pi * 2.0))
        assert marchenko_pastur(4.0 + 1e-12, 1.0)[0] == 0.0

    def test_atom(self):
        _, atom = marchenko_pastur(0.0, 4.0)
        assert atom == pytest.approx(0.75)

    @pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
    def test_normalization(self, c):
        from scipy.integrate import quad

        lo = (1 - math.sqrt(c)) ** 2
        hi = (1 + math.sqrt(c)) ** 2
        span = hi - lo

        def g(th):
            x = lo + span * math.sin(th) ** 2
            return (
                marchenko_pastur(x, c)[0]
                * span
                * 2.0
                * math.sin(th)
                * math.cos(th)
            )

        val, _ = quad(g, 0, math.pi / 2, limit=200)
        assert val + max(1 - 1 / c, 0.0) == pytest.approx(1.0, abs=1e-8)


class TestRTransform:
    def test_at_zero(self):
        assert r_transform_sum(0.0, 1.0, 0.25) == pytest.approx(0.75)
        assert r_transform_sum(0.0, 2.0, 1.0) == 0.0

    def test_free_cumulants_equal_weights(self):
        # Taylor coefficients around 0 are 0, 2c, 0, 2c^3, ...
        c = 0.7
        h = 1e-2
        pts = [r_transform_sum(complex(0, 0) + h * w, c) for w in (1, 1j, -1, -1j)]
        # coefficient extraction by 4-point DFT on the circle |z| = h
        coeffs = [
            sum(p * w ** (-k) for p, w in zip(pts, (1, 1j, -1, -1j))) / 4 / h**k
            for k in range(4)
        ]
        assert abs(coeffs[0]) < 1e-12
        assert coeffs[1].real == pytest.approx(2 * c, rel=1e-4)
        assert abs(coeffs[2]) < 1e-8
        assert coeffs[3].real == pytest.approx(2 * c**3, rel=1e-2)

    def test_poles(self):
        with pytest.raises(PoleError):
            r_transform_sum(1.0, 1.0, 1.0)

    def test_functional_equation(self):
        for c, eta in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.2), (2.5, 1.0)):
            for z in (0.3 + 0.8j, -1.1 + 0.2j, 2.0 + 1.5j):
                g = cauchy_roots(z, c, eta).value
                lhs = r_transform_sum(g, c, eta) + 1.0 / g
                assert abs(lhs - z) < 1e-10


class TestNormalizationGrid:
    @pytest.mark.parametrize("c", [0.25, 0.8, 1.0, 1.6, 2.0, 2.5, 5.0])
    @pytest.mark.parametrize("eta", [0.2, 1.0, 2.0, 4.0])
    def test_mass_plus_atom_is_one(self, c, eta):
        from rmtdiff.moments import continuous_mass

        if eta == 1.0:
            total = continuous_mass(c) + atom_weight(c)
            assert total == pytest.approx(1.0, abs=1e-6)
        else:
            # the atom is the rank value max(1 - 2/c, 0), so this checks the
            # quadrature of the continuous part over the discriminant support
            mass = continuous_mass(c, eta)
            assert mass <= 1.0 + 1e-6
            assert mass + atom_weight(c, eta) == pytest.approx(1.0, abs=1e-6)


class TestWeightedSupport:
    def test_support_for_weighted_case(self):
        intervals = find_support_numeric(1.0, 0.2)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo < 0.0 < hi
        # total mass over the detected support is ~1 (no atom for c <= 2)
        from rmtdiff.moments import continuous_mass

        assert continuous_mass(1.0, 0.2) == pytest.approx(1.0, abs=1e-6)


class TestAedResult:
    @pytest.mark.parametrize("c", [1e-4, 1e-3, 1.0, 2.0, 2.5])
    def test_trapezoid_invariant(self, c):
        res = aed_grid(c)
        assert res.atom_weight + res.trapezoid_mass() == pytest.approx(1.0, abs=1e-6)
        assert np.all(res.density >= 0.0)

    def test_csv_round_trip(self, tmp_path):
        res = aed_grid(1.0, count=201)
        path = tmp_path / "aed.csv"
        res.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,density"
        assert lines[-1].startswith("# atom_weight=")
        body = [ln.split(",") for ln in lines[1:-1]]
        xs = np.array([float(a) for a, _ in body])
        ds = np.array([float(b) for _, b in body])
        assert np.array_equal(xs, res.grid)
        assert np.array_equal(ds, res.density)

    @pytest.mark.parametrize("c", [1.999, 1.9999, 2.0001, 2.001])
    @pytest.mark.parametrize("eta", [1.0, 0.2, 0.5, 2.0, 5.0])
    def test_unit_mass_next_to_transition(self, c, eta):
        # the origin edge is nearly the c = 2 divergence here, so the grid's
        # origin cluster is what carries the mass next to it
        res = aed_grid(c, eta)
        assert res.atom_weight + res.trapezoid_mass() == pytest.approx(1.0, abs=5e-6)

    def test_weighted_grid_mass(self):
        res = aed_grid(1.0, eta=0.2)
        assert res.trapezoid_mass() + res.atom_weight == pytest.approx(1.0, abs=1e-6)


class TestRankAtomRegression:
    def test_weighted_atom_case_c3(self):
        from rmtdiff.harness import theory_overlay
        from rmtdiff.moments import continuous_mass
        from rmtdiff.sampling import EnsembleParams

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # IntegrationWarning included
            assert atom_weight(3.0, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
            assert continuous_mass(3.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-9)
            overlay = theory_overlay(EnsembleParams(60, 20, weight_q=0.5))
        # half the gap edge nearest the origin: the atom's eigenvalues stay out of the bins
        assert overlay.atom_threshold == pytest.approx(0.0536, abs=1e-4)
        intervals = find_support_numeric(3.0, 0.5)
        assert len(intervals) == 2 and intervals[0][1] < 0.0 < intervals[1][0]

    def test_gap_without_atom_at_transition(self):
        # c = 2, eta = 0.5: no atom, but a gap (0, 0.00834) that a midpoint
        # density test alone misses (it reads ~1e-21 of roundoff there)
        intervals = find_support_numeric(2.0, 0.5)
        assert len(intervals) == 2
        assert intervals[0][1] == pytest.approx(0.0, abs=1e-12)
        assert intervals[1][0] == pytest.approx(0.00833511, rel=1e-6)


class TestDomainValidation:
    def test_symmetric_density_nan_c(self):
        with pytest.raises(DomainError):
            aed_symmetric(1.0, math.nan)

    def test_numeric_density_nan_eta(self):
        with pytest.raises(DomainError):
            aed_numeric(0.5, 1.0, math.nan)

    def test_grid_nan_c(self):
        with pytest.raises(DomainError):
            aed_grid(math.nan)

    def test_support_points_inf_c(self):
        with pytest.raises(DomainError):
            support_points(math.inf)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: aed_symmetric(math.inf, 1.0),
            lambda: aed_numeric(math.nan, 1.0),
            lambda: aed_curve(np.array([0.0, math.nan]), 1.0),
            lambda: aed_curve([0.0], 1.0, -1.0),
            lambda: aed_grid(1.0, math.inf),
            lambda: atom_weight(math.inf),
            lambda: atom_weight(3.0, math.nan),
            lambda: find_support_numeric(math.nan, 0.5),
            lambda: find_support_numeric(1.0, 0.0),
            lambda: cauchy_roots(complex(math.nan, 1.0), 1.0),
        ],
    )
    def test_non_finite_or_non_positive(self, call):
        with pytest.raises(DomainError):
            call()


class TestBatchedKernel:
    def test_roots_match_np_roots(self):
        rng = np.random.default_rng(5)
        zs = rng.uniform(-6.0, 6.0, 50) + 1j * 10.0 ** rng.uniform(-9.0, 0.0, 50)
        for c, eta in ((1.0, 1.0), (3.0, 0.5), (0.4, 4.0)):
            batched = law._solve_cubics(zs, c, eta)
            for z, got in zip(zs, batched):
                want = np.roots(_cubic_coefficients(z, c, eta))
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(np.sort_complex(got) - np.sort_complex(want))) < 1e-10 * scale
