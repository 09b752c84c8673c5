import cmath
import functools
import math
import warnings

import numpy as np
import pytest

from rmtdiff.asym_law import (
    aed_curve,
    aed_grid,
    aed_symmetric,
    atom_weight,
    cauchy_transform,
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

    @pytest.mark.parametrize(
        "c, edge",
        [(c, 1) for c in (1e-6, 1e-10, 1e-13, 1e-16, 1e-20)]
        + [(2.0 + e, 0) for e in (1e-12, 1e-9, 1e-6)],
    )
    def test_edges_near_zero_and_two_against_mpmath(self, c, edge):
        # s - 1 and s - 3 cancel as c -> 0 and c -> 2 when taken as differences
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            s = mpmath.sqrt(4 * mpmath.mpf(c) + 1)
            want = [(s - 3) ** 1.5 * (s + 1) ** 0.5 / 4, (s + 3) ** 1.5 * (s - 1) ** 0.5 / 4][edge]
            assert abs(support_points(c)[edge] / want - 1) < 1e-14


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
                    aed_curve(np.array([x]), c)[0], abs=1e-9
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


class TestSymmetricDensityScalarPath:
    CS = [3e-10, 1e-3, 1.0, 1.999, 2.0, 2.000001, 2.001, 3.0, 1e7]

    @staticmethod
    def points(c):
        x_minus, x_plus = support_points(c)
        pts = [0.0, -0.0, 1e-310, 5e-324]
        for edge in [x_plus] + ([x_minus] if x_minus else []):
            pts += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf)]
        pts += list(np.linspace(0.0, 1.1 * x_plus, 21)[1:])
        return np.array(pts + [-x for x in pts])

    @pytest.mark.parametrize("c", CS)
    def test_scalars_match_array_bitwise(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xs = self.points(c)
            want = aed_symmetric(xs, c)
            for x, w in zip(xs, want):
                for scalar in (float(x), np.float64(x), np.array(x)):
                    got = aed_symmetric(scalar, c)
                    assert type(got) is float
                    assert np.float64(got).tobytes() == w.tobytes(), (scalar, c)

    @pytest.mark.parametrize("c", CS)
    def test_int_and_float32_inputs(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xs = np.array([0, 1, -2, 3, 5000], dtype=np.int64)
            want = aed_symmetric(xs.astype(float), c)
            for k, x in enumerate(xs):
                for scalar in (int(x), x):
                    got = aed_symmetric(scalar, c)
                    assert type(got) is float and np.float64(got).tobytes() == want[k].tobytes()
            xs32 = self.points(c).astype(np.float32)
            want = aed_symmetric(xs32.astype(float), c)
            for k, x in enumerate(xs32):
                got = aed_symmetric(x, c)
                assert type(got) is float and np.float64(got).tobytes() == want[k].tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalar_raises(self, bad):
        for x in (bad, np.float64(bad), np.float32(bad)):
            with pytest.raises(DomainError, match="x must be finite"):
                aed_symmetric(x, 1.0)

    @pytest.mark.parametrize("c", [math.nan, -1.0, 0.0, 1e8, 1e-11])
    def test_bad_c_raises_before_bad_x(self, c):
        for x in (math.nan, math.inf, np.array([math.nan])):
            with pytest.raises(DomainError, match="^c "):
                aed_symmetric(x, c)


class TestSupportMask:
    def test_zero_just_outside_every_edge(self):
        # a narrow gap (0.00125, 0.00244): 1.2e-8 from each edge the discriminant
        # mask alone decides between exactly 0 and a positive density
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
        assert abs(z * cauchy_transform(z, 1.0) - 1.0) < 1e-2

    def test_residual_small(self):
        for z in (0.5 + 0.3j, 2.0 + 1e-6j, -1.2 + 0.01j):
            for c, eta in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.2)):
                g = cauchy_transform(z, c, eta)
                a3, a2, a1, a0 = _cubic_coefficients(c, eta) @ (1.0, z)
                res = abs(((a3 * g + a2) * g + a1) * g + a0)
                scale = sum(abs(v) for v in (a3 * g**3, a2 * g**2, a1 * g, a0))
                assert res <= 1e-12 * max(scale, 1.0)

    def test_selected_negative_imag(self):
        for x in np.linspace(-3.0, 3.0, 11):
            assert cauchy_transform(complex(x, 1e-6), 1.0).imag <= 0.0

    def test_origin_density_c1(self):
        g = cauchy_transform(1e-18 + 1e-9j, 1.0)
        assert -g.imag / math.pi == pytest.approx(1.0 / math.pi, rel=1e-6)

    def test_trigonometric_form_matches(self):
        z = 1.0 + 0.5j
        for c in (0.5, 1.0, 2.5, 4.0):
            poly = sorted(
                (complex(r) for r in law._solve_cubics(np.array([z]), c, 1.0)[0]),
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
            cauchy_transform(1.0 - 0.5j, 1.0)


@functools.lru_cache(maxsize=1)
def legendre_4000() -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_legendre

    return roots_legendre(4000)


def stieltjes_oracle(zs: np.ndarray, c: float, eta: float) -> np.ndarray:
    """integral rho(x)/(z - x) dx + atom/z at each z, from the density alone.

    rho is ``aed_curve`` on 4000-node Gauss-Legendre rules in theta over
    x = lo + (hi - lo) sin^2(theta) on each interval of ``find_support_numeric``,
    which absorbs the square-root edges; no cubic root is selected.
    """
    t, w = legendre_4000()
    th = 0.25 * math.pi * (t + 1.0)
    total = atom_weight(c, eta) / zs
    for lo, hi in find_support_numeric(c, eta):
        xs = lo + (hi - lo) * np.sin(th) ** 2
        wx = 0.25 * math.pi * w * (hi - lo) * np.sin(2.0 * th) * aed_curve(xs, c, eta)
        total = total + (wx / (zs[:, None] - xs)).sum(axis=1)
    return total


class TestPhysicalBranch:
    """cauchy_transform against the Stieltjes transform of the density it inverts."""

    @pytest.mark.parametrize("c, eta", [(1.0, 1.0), (0.5, 1.0), (3.0, 1.0), (1.0, 0.2),
                                        (0.5, 2.0), (3.0, 0.5)])
    def test_across_the_support(self, c, eta):
        support = find_support_numeric(c, eta)
        lo, hi = support[0][0], support[-1][1]
        re = np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 9)
        zs = (re[:, None] + 1j * np.array([1e-2, 0.1, 1.0])).ravel()
        want = stieltjes_oracle(zs, c, eta)
        got = np.array([cauchy_transform(z, c, eta) for z in zs])
        assert np.all(np.abs(got - want) <= 1e-5 * np.abs(want))

    @pytest.mark.parametrize("c, eta", [(1.0, 1.0), (0.5, 1.0), (3.0, 1.0), (1.0, 0.2),
                                        (0.5, 2.0), (3.0, 0.5), (5.0, 1.0), (4.0, 3.0)])
    def test_outside_and_in_the_gap(self, c, eta):
        support = find_support_numeric(c, eta)
        lo, hi = support[0][0], support[-1][1]
        re = [lo - 3.0, lo - 0.3, lo - 0.03, hi + 0.03, hi + 0.3, hi + 3.0]
        for (_, a), (b, _) in zip(support[:-1], support[1:]):
            re += [a + f * (b - a) for f in (0.25, 0.5, 0.75)]
        zs = (np.array(re)[:, None] + 1j * np.array([1e-9, 1e-6, 1e-3, 1.0])).ravel()
        want = stieltjes_oracle(zs, c, eta)
        got = np.array([cauchy_transform(z, c, eta) for z in zs])
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


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

    def test_tiny_x_at_transition(self):
        # at c = 2 all three coefficients of the cubic in 1/G scale with x, and
        # unscaled Cardano lost w^2 and p3^3 to underflow below |x| ~ 1e-157
        xs = np.array([10.0 ** -k for k in (150, 157, 170, 200, 250, 308)] + [1e-310])
        for x in (xs, -xs):
            assert np.allclose(aed_curve(x, 2.0), aed_symmetric(x, 2.0), rtol=1e-12, atol=0.0)

    def test_atom_excluded_at_origin(self):
        for c in (2.5, 5.0):
            assert aed_curve(np.array([0.0]), c)[0] == pytest.approx(0.0, abs=1e-10)

    def test_scalar_matches_curve(self):
        xs = np.linspace(-2.0, 2.0, 21)
        curve = aed_curve(xs, 1.0)
        scalars = [aed_curve(np.array([x]), 1.0)[0] for x in xs]
        assert np.allclose(curve, scalars, atol=1e-12)

    @pytest.mark.parametrize("c, eta", [(1.0, 1.0), (3.0, 1.0), (3.0, 0.5), (0.7, 2.0)])
    def test_scalar_gives_float(self, c, eta):
        got = aed_curve(0.5, c, eta)
        assert type(got) is float
        assert got == aed_curve(np.array([0.5]), c, eta)[0]

    @pytest.mark.parametrize("c, eta", [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 0.5), (2.0, 0.5),
                                        (3.0, 2.0), (1e-6, 20.0), (1e6, 0.05)])
    def test_real_axis_only(self, c, eta, monkeypatch):
        # the complex solver is cauchy_transform's alone; the real axis never reaches it
        def refuse(*args):
            raise AssertionError("aed_curve called _solve_cubics")

        monkeypatch.setattr(law, "_solve_cubics", refuse)
        lo, hi = find_support_numeric(c, eta)[0][0], find_support_numeric(c, eta)[-1][1]
        xs = np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 2 * law._DENSITY_BLOCK + 3)
        assert np.all(np.isfinite(aed_curve(np.append(xs, 0.0), c, eta)))
        assert aed_grid(c, eta, count=101).trapezoid_mass() > 0.0


class TestSupportGeometryCache:
    CASES = [(1.0, 1.0), (3.0, 0.5), (1.9375, 2.0), (0.7, 2.0), (2.0, 0.2)]

    @pytest.mark.parametrize("c, eta", CASES)
    def test_read_only(self, c, eta):
        edges = law._support_geometry(c, eta)
        assert not edges.flags.writeable
        with pytest.raises(ValueError):
            edges[0] = edges[-1]

    @pytest.mark.parametrize("c, eta", CASES)
    def test_repeat_calls_agree(self, c, eta):
        first = [a.copy() for a in law._support_geometry(c, eta)]
        aed_curve(np.linspace(-1.0, 1.0, 11), c, eta)
        for a, b in zip(first, law._support_geometry(c, eta)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("c, eta", CASES)
    def test_support_matches_uncached_roots(self, c, eta):
        disc, edges = law._discriminant(c, eta)  # not cached: fresh on every call
        mid = np.polynomial.polynomial.polyval(0.5 * (edges[:-1] + edges[1:]), disc)
        want: list[list[float]] = []
        for lo, hi, out in zip(edges[:-1], edges[1:], mid >= 0.0):
            if out:
                continue
            if want and want[-1][1] == lo:
                want[-1][1] = hi
            else:
                want.append([lo, hi])
        for _ in range(2):
            assert find_support_numeric(c, eta) == [(float(a), float(b)) for a, b in want]


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
                g = cauchy_transform(z, c, eta)
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
        meta = dict(ln[2:].split("=") for ln in lines if ln.startswith("#"))
        assert list(meta) == ["x_minus", "x_plus", "c", "eta", "atom_weight"]
        assert float(meta["x_plus"]) == res.x_plus and float(meta["atom_weight"]) == res.atom_weight
        body = [ln.split(",") for ln in lines[1:-len(meta)]]
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

    @pytest.mark.parametrize("eta", [1e-8, 1e-6, 1e-4, 0.2, 5.0, 1e4, 1e6, 1e8])
    def test_unit_mass_at_transition_across_eta(self, eta):
        # the two sides' widths part like eta; a cluster on one shared scale
        # missed the narrow side's |x|^(-1/2) spike (1.8e-2 at eta = 1e8)
        res = aed_grid(2.0, eta)
        assert abs(res.atom_weight + res.trapezoid_mass() - 1.0) <= 5e-6


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
            aed_curve(np.array([0.5]), 1.0, math.nan)

    def test_grid_nan_c(self):
        with pytest.raises(DomainError):
            aed_grid(math.nan)

    @pytest.mark.parametrize("count", [0, -5, 2.5])
    def test_grid_count_not_a_positive_integer(self, count):
        with pytest.raises(DomainError, match="count"):
            aed_grid(1.0, count=count)

    def test_support_points_inf_c(self):
        with pytest.raises(DomainError):
            support_points(math.inf)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: aed_symmetric(math.inf, 1.0),
            lambda: aed_curve(np.array([math.nan]), 1.0),
            lambda: aed_curve(np.array([0.0, math.nan]), 1.0),
            lambda: aed_curve([0.0], 1.0, -1.0),
            lambda: aed_grid(1.0, math.inf),
            lambda: atom_weight(math.inf),
            lambda: atom_weight(3.0, math.nan),
            lambda: find_support_numeric(math.nan, 0.5),
            lambda: find_support_numeric(1.0, 0.0),
            lambda: cauchy_transform(complex(math.nan, 1.0), 1.0),
            lambda: marchenko_pastur(math.nan, 1.0),
            lambda: marchenko_pastur(1.0, math.inf),
            lambda: r_transform_sum(math.nan, 1.0),
            lambda: r_transform_sum(0.1, 1.0, math.nan),
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
                want = np.roots(_cubic_coefficients(c, eta) @ (1.0, z))
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(np.sort_complex(got) - np.sort_complex(want))) < 1e-10 * scale


def _discriminant_by_class(c: float, eta: float):
    """The discriminant by ``numpy.polynomial.Polynomial`` algebra, the reference bits."""
    a3, a2, a1 = (np.polynomial.Polynomial(row) for row in _cubic_coefficients(c, eta)[:3])
    return 18.0 * a3 * a2 * a1 - 4.0 * a2**3 + a2**2 * a1**2 - 4.0 * a3 * a1**3 - 27.0 * a3**2


class TestDiscriminant:
    # eta = 1 and c = 2 drop the degree of the cubic's coefficients
    RATIONAL = [("1/2", "1"), ("2", "1"), ("2", "1/3"), ("3", "5/2"), ("7/4", "3/5"),
                ("1", "2"), ("5", "1"), ("1/8", "4")]

    @pytest.mark.parametrize("c, eta", RATIONAL)
    def test_matches_sympy(self, c, eta):
        sympy = pytest.importorskip("sympy")
        z, g = sympy.symbols("z g")
        cr, er = sympy.Rational(c), sympy.Rational(eta)
        # R(G) + 1/G = z with R(g) = 1/(1 - c g) - eta/(1 + eta c g), denominators cleared
        cubic = sympy.Poly(sympy.numer(sympy.together(1 / (1 - cr * g) - er / (1 + er * cr * g) + 1 / g - z)), g)
        a0 = cubic.all_coeffs()[-1]
        assert a0.is_number and a0 != 0  # so a0 = 1, as in _cubic_coefficients, after dividing
        want = sympy.Poly(sympy.discriminant(cubic.as_expr() / a0, g), z).all_coeffs()[::-1]
        got, _ = law._discriminant(float(cr), float(er))
        assert len(got) == len(want)
        scale = max(abs(float(w)) for w in want)
        assert np.allclose(got, [float(w) for w in want], rtol=0.0, atol=1e-13 * scale)

    def test_bits_of_the_polynomial_class(self):
        rng = np.random.default_rng(11)
        cs = np.concatenate([[1e-3, 0.5, 1.0, 2.0, 2.0 - 1e-12, 2.0 + 1e-12, 3.0, 1e4], 10 ** rng.uniform(-3, 3, 40)])
        etas = np.concatenate([[1.0, 1.0 + 2e-16, 0.5, 2.0, 1e-3], 10 ** rng.uniform(-2, 2, 10)])
        for c in cs:
            for eta in etas:
                want = _discriminant_by_class(float(c), float(eta))
                got, edges = law._discriminant(float(c), float(eta))
                assert len(got) == len(want.coef) and np.array_equal(got, want.coef)
                roots = want.roots()
                real = np.unique(roots.real[np.abs(roots.imag) <= 1e-7 * np.max(np.abs(roots))])
                assert edges.tobytes() == real.tobytes()
                mid = 0.5 * (edges[:-1] + edges[1:])
                assert np.array_equal(
                    np.polynomial.polynomial.polyval(mid, got) >= 0.0, want(mid) >= 0.0
                )


class TestLargeC:
    @pytest.mark.parametrize(
        "call",
        [
            lambda c: aed_symmetric(1.0, c),
            lambda c: aed_symmetric(np.array([1.0, 2.0]), c),
            lambda c: aed_curve(1.0, c),
            lambda c: aed_curve(np.array([1.0]), c, 0.5),
            lambda c: aed_grid(c),
            lambda c: aed_grid(c, 2.0),
        ],
        ids=["symmetric", "symmetric-array", "curve", "curve-weighted", "grid", "grid-weighted"],
    )
    def test_past_the_limit_raises(self, call):
        for c in (law._C_MAX * (1.0 + 2e-16), 1e8, 1e14, 1e300):
            with pytest.raises(DomainError, match="exceeds"):
                call(c)

    def test_at_the_limit_within_1e9(self):
        from rmtdiff.moments import continuous_mass

        c = law._C_MAX
        assert aed_symmetric(c, c) > 0.0
        for eta in (1.0, 0.9, 5.0):
            assert abs(continuous_mass(c, eta) * c / 2.0 - 1.0) < 1e-9

    def test_support_numeric(self):
        # at eta = 2 the parent returned [] at 1e17 and raised LinAlgError at 1e60
        assert len(find_support_numeric(law._C_MAX, 2.0)) == 2
        for c in (1e8, 1e17, 1e60):
            with pytest.raises(DomainError, match="exceeds"):
                find_support_numeric(c, 2.0)

    def test_quadrature_routes_raise(self):
        from rmtdiff.moments import continuous_mass, moment_via_quadrature

        for call in (lambda: continuous_mass(1e8), lambda: continuous_mass(1e8, 0.5),
                     lambda: moment_via_quadrature(1.0, 1e14)):
            with pytest.raises(DomainError, match="exceeds"):
                call()

    def test_closed_forms_unaffected(self):
        from rmtdiff.moments import distance_to_mixed_asymptotic, operator_norm_asymptotic

        assert support_points(1e14)[1] > 1e14
        assert atom_weight(1e14) == 1.0 - 2e-14
        assert operator_norm_asymptotic(1e8, 1) == pytest.approx(1e8, rel=1e-3)
        assert distance_to_mixed_asymptotic(1e300) == 1.0


def _small_c_routes():
    from rmtdiff.moments import continuous_mass, moment_via_quadrature

    return [
        lambda c: aed_symmetric(1e-6, c),
        lambda c: aed_symmetric(np.array([0.0, 1e-6]), c),
        lambda c: aed_curve(1e-6, c),
        lambda c: aed_curve(np.array([1e-6]), c, 0.5),
        lambda c: aed_grid(c),
        lambda c: aed_grid(c, 2.0),
        lambda c: find_support_numeric(c, 2.0),
        lambda c: continuous_mass(c),
        lambda c: continuous_mass(c, 0.2),
        lambda c: moment_via_quadrature(1.3, c),
        lambda c: moment_via_quadrature(1.3, c, 5.0),
    ]


class TestSmallC:
    # unchecked, aed_grid(1e-19) had mass 0, weighted grids raised IndexError at
    # c <= 1e-17 and the mass at eta = 0.2, c = 1e-55 was off by 7e14
    @pytest.mark.parametrize(
        "call",
        _small_c_routes(),
        ids=["symmetric", "symmetric-array", "curve", "curve-weighted", "grid", "grid-weighted",
             "support-numeric", "mass", "mass-weighted", "moment", "moment-weighted"],
    )
    def test_below_the_limit_raises(self, call):
        for c in (law._C_MIN * (1.0 - 2e-16), 1e-11, 1e-19, 1e-55, 5e-324):
            with pytest.raises(DomainError, match="below"):
                call(c)

    def test_at_the_limit_within_1e9(self):
        from rmtdiff.moments import continuous_mass

        c = law._C_MIN
        assert aed_symmetric(0.0, c) == pytest.approx(1.0 / (math.pi * math.sqrt(c * (2.0 - c))))
        for eta in (1.0, 0.05, 0.2, 5.0, 20.0):
            assert abs(continuous_mass(c, eta) - 1.0) < 1e-9
            res = aed_grid(c, eta)
            assert res.atom_weight + res.trapezoid_mass() == pytest.approx(1.0, abs=5e-6)
        assert len(find_support_numeric(c, 2.0)) == 1

    def test_closed_forms_unaffected(self):
        from rmtdiff.moments import distance_to_mixed_asymptotic, trace_distance_asymptotic

        assert atom_weight(1e-20) == 0.0
        assert trace_distance_asymptotic(1e-300) > 0.0
        assert distance_to_mixed_asymptotic(1e-300) > 0.0


def _eta_routes():
    from rmtdiff.moments import continuous_mass

    return [
        lambda eta: aed_curve(np.array([0.5, 2.0]), 5.0, eta),
        lambda eta: aed_grid(5.0, eta),
        lambda eta: find_support_numeric(1.0, eta),
        lambda eta: continuous_mass(1.0, eta),
    ]


class TestEtaRange:
    # unchecked, aed_grid(5, 1e40) lost the rho1 band (1, 9) and read a mass of 0.8
    @pytest.mark.parametrize("call", _eta_routes(), ids=["curve", "grid", "support-numeric", "mass"])
    def test_outside_the_range_raises(self, call):
        for eta in (10.0 * law._ETA_MAX, 0.1 / law._ETA_MAX, 1e40, 1e-90):
            with pytest.raises(DomainError, match="eta"):
                call(eta)

    def test_at_the_ends_within_1e9(self):
        from rmtdiff.moments import continuous_mass

        for eta in (law._ETA_MAX, 1.0 / law._ETA_MAX):
            for c in (1.0, 5.0):
                assert abs(atom_weight(c, eta) + continuous_mass(c, eta) - 1.0) < 1e-9
