import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from rmtdiff.errors import (
    BoundaryPoint,
    DimensionOrder,
    DomainError,
    SizeLimit,
    Unsupported,
)
from rmtdiff.finite_law import (
    _law_tables,
    build_psi_poly,
    derivative_principle_selftest,
    joint_eigen_density,
    n2_exact_density,
    region_gamma,
    single_eigenvalue_marginal,
    w_poly,
)


def _psi_b_form(t: Fraction, m: int) -> Fraction:
    """Independent oracle: K (1-t)^(4M-3) W(t/(1-t)^2) in exact arithmetic."""
    K = Fraction(math.factorial(2 * m - 1) ** 2, math.factorial(m - 1) ** 4)
    alpha = t / (1 - t) ** 2
    w = sum(wk * alpha**k for k, wk in enumerate(w_poly(m)))
    return K * (1 - t) ** (4 * m - 3) * w


class TestWPoly:
    def test_m1(self):
        assert w_poly(1) == [Fraction(1)]

    def test_m2(self):
        assert w_poly(2) == [Fraction(1, 30), Fraction(1, 6)]

    def test_degree(self):
        for m in (1, 3, 7, 25):
            assert len(w_poly(m)) == m

    def test_integral_definition(self):
        # W(a) = int_0^1 (x(1-x))^(M-1) (x(1-x)+a)^(M-1) dx, checked by quadrature
        from scipy.integrate import quad

        m, a = 4, 0.37
        poly_val = float(sum(wk * Fraction(a) ** k for k, wk in enumerate(w_poly(m))))
        quad_val, _ = quad(
            lambda x: (x * (1 - x)) ** (m - 1) * (x * (1 - x) + a) ** (m - 1), 0, 1
        )
        assert poly_val == pytest.approx(quad_val, rel=1e-10)

    def test_hypergeometric_form(self):
        # W(a) = ((2M-2)!)^2/(4M-3)! 2F1(3/2-2M, 1-M; 2(1-M); -4a): terminating
        # b-series stops before the c-pole; the constant is pinned by W(0)
        from rmtdiff.specfun import _hyp2f1

        m, a = 5, 0.8
        poly_val = float(sum(wk * Fraction(a) ** k for k, wk in enumerate(w_poly(m))))
        pref = math.factorial(2 * m - 2) ** 2 / math.factorial(4 * m - 3)
        hyp_val = pref * _hyp2f1(1.5 - 2 * m, 1 - m, 2 * (1 - m), -4.0 * a).real
        assert poly_val == pytest.approx(hyp_val, rel=1e-12)
        # quadratic transformation of the same terminating series
        alt = (
            pref
            * (1 + 4 * a) ** (m - 1)
            * _hyp2f1(0.5, 1 - m, 2 * (1 - m), 4 * a / (1 + 4 * a)).real
        )
        assert poly_val == pytest.approx(alt, rel=1e-12)


class TestBuildPsi:
    def test_n2_m2_hand_expansion(self):
        # on (t, -t): 36 [g^5/30 + g^4 t/6 + g^3 t^2/6], g = 1 - t; the
        # middle coefficient combines the (1,0) and (0,1) terms of g^4 t/12 each
        psi = build_psi_poly(2, 2)
        for t in (Fraction(3, 10), Fraction(1, 2), Fraction(1, 8)):
            g = 1 - t
            want = 36 * (g**5 / 30 + g**4 * t / 6 + g**3 * t**2 / 6)
            got = psi.evaluate((float(t), float(-t)))
            assert got == pytest.approx(float(want), rel=1e-14)

    def test_value_at_origin_limit(self):
        psi = build_psi_poly(2, 2)
        assert psi.evaluate((1e-9, -1e-9)) == pytest.approx(1.2, rel=1e-6)

    def test_reflection_symmetry(self):
        psi = build_psi_poly(3, 3)
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = rng.uniform(-0.4, 0.4, size=3)
            z[2] = -z[0] - z[1]
            if np.min(np.abs(z)) < 1e-3:
                continue
            assert psi.evaluate(z) == pytest.approx(psi.evaluate(-z), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 5, 10])
    def test_matches_integral_form_on_diagonal(self, m):
        psi = build_psi_poly(2, m)
        for t in (Fraction(1, 8), Fraction(2, 5), Fraction(7, 10)):
            got = psi.evaluate((float(t), float(-t)))
            want = float(_psi_b_form(t, m))
            assert got == pytest.approx(want, rel=1e-9)

    def test_dimension_order(self):
        with pytest.raises(DimensionOrder):
            build_psi_poly(4, 3)

    def test_size_limit(self, monkeypatch):
        from rmtdiff import finite_law

        monkeypatch.setattr(finite_law, "_MAX_PSI_TERMS", 100)
        with pytest.raises(SizeLimit):
            build_psi_poly(3, 3)

    def test_csv_dump(self, tmp_path):
        psi = build_psi_poly(2, 2)
        path = tmp_path / "psi.csv"
        psi.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "orthant,e1,e2,coefficient"
        assert lines[-3:] == ["# n=2", "# m=2", f"# terms={psi.term_count}"]
        # reload the rows above the trailer and re-evaluate one orthant exactly
        acc = Fraction(0)
        t = Fraction(1, 4)
        for ln in lines[1:-3]:
            tag, e1, e2, coef = ln.split(",")
            if tag != "+-":
                continue
            num, den = coef.split("/")
            acc += Fraction(int(num), int(den)) * t ** int(e1) * (-t) ** int(e2)
        assert acc == 36 * (
            (1 - t) ** 5 / 30 + (1 - t) ** 4 * t / 6 + (1 - t) ** 3 * t**2 / 6
        )


class TestJointDensity:
    def test_n2_m2_closed_form(self):
        # hand-derived: density(t, -t) = 6 t^2 (1-t)^2 (2+t)
        for t in (0.5, 0.25, 0.3):
            got = joint_eigen_density((t, -t), 2, 2)
            want = 6 * t**2 * (1 - t) ** 2 * (2 + t)
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("m", [2, 5, 10])
    def test_matches_n2_closed_form(self, m):
        for t in [k / 64 for k in (1, 3, 7, 15, 25, 40, 55)]:
            joint = joint_eigen_density((t, -t), 2, m)
            marg = n2_exact_density(t, m)
            assert joint == pytest.approx(marg, rel=1e-9)

    def test_permutation_symmetry(self):
        lam = (0.21, -0.34, 0.13)
        base = joint_eigen_density(lam, 3, 3)
        for p in itertools.permutations(lam):
            assert joint_eigen_density(p, 3, 3) == pytest.approx(base, rel=1e-12)

    def test_reflection_symmetry(self):
        lam = np.array([0.21, -0.34, 0.13])
        a = joint_eigen_density(lam, 3, 3)
        b = joint_eigen_density(-lam, 3, 3)
        assert a == pytest.approx(b, rel=1e-12)

    def test_vanishes_on_coincidence(self):
        # lambda_1 = lambda_2 kills the Vandermonde factor exactly
        assert joint_eigen_density((0.2, 0.2, -0.4), 3, 3) == 0.0

    def test_coincidence_quadratic_scaling(self):
        base = np.array([0.2, 0.2, -0.4])
        vals = []
        for eps in (1e-2, 1e-3):
            lam = base + np.array([eps / 2, -eps / 2, 0.0])
            vals.append(joint_eigen_density(lam, 3, 3))
        ratio = vals[0] / vals[1]
        assert ratio == pytest.approx(100.0, rel=0.1)

    def test_zero_outside_region(self):
        # gamma < 0: outside the Minkowski-difference support
        lam = (0.9, 0.4, -1.3)
        assert joint_eigen_density(lam, 3, 3) == 0.0

    def test_boundary_rejection(self):
        with pytest.raises(BoundaryPoint):
            joint_eigen_density((0.3, -0.3 + 1e-13, -1e-13), 3, 3)
        with pytest.raises(BoundaryPoint):
            # gamma = 0 vertex direction
            joint_eigen_density((1.0 - 1e-12, -1.0 + 1e-12 + 1e-13, -1e-13), 3, 3)

    def test_sum_constraint_enforced(self):
        with pytest.raises(ValueError):
            joint_eigen_density((0.2, -0.1), 2, 5)

    def test_nonnegative_on_grid(self):
        vals = []
        for l1 in np.linspace(-0.8, 0.8, 9):
            for l2 in np.linspace(-0.8, 0.8, 9):
                l3 = -l1 - l2
                lam = np.array([l1, l2, l3])
                if np.min(np.abs(lam)) < 1e-6:
                    continue
                if 1 - 0.5 * np.sum(np.abs(lam)) < 1e-6:
                    continue
                vals.append(joint_eigen_density(lam, 3, 3))
        assert len(vals) > 30
        assert min(vals) >= 0.0

    def test_float_path_consistent(self):
        lam = (0.21, -0.34, 0.13)
        a = joint_eigen_density(lam, 3, 3, exact=True)
        b = joint_eigen_density(lam, 3, 3, exact=False)
        assert b == pytest.approx(a, rel=1e-8)


class TestFloatPath:
    @pytest.mark.parametrize("n, m", [(2, 3), (3, 3)])
    def test_tables_cover_the_mixed_orthants_only(self, n, m):
        # a zero-sum point off the orthant walls has both signs
        ints, floats, _, _ = _law_tables(n, m)
        mixed = {s for s in itertools.product((1, -1), repeat=n) if len(set(s)) == 2}
        assert set(ints) == set(floats) == mixed

    @pytest.mark.parametrize("n, m", [(3, 4), (3, 5), (2, 8)])
    def test_inaccurate_shapes_evaluate_exactly(self, n, m):
        # their float rounding bounds (1.3e-7, 2.8e-5, 1.2e-9) exceed 1e-9
        assert not _law_tables(n, m)[1]
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 12:
            lam = rng.uniform(-1.0, 1.0, n - 1)
            lam = np.append(lam, -lam.sum())
            if np.min(np.abs(lam)) < 1e-3 or abs(1.0 - 0.5 * np.sum(np.abs(lam))) < 1e-3:
                continue
            exact = joint_eigen_density(lam, n, m, exact=True)
            assert joint_eigen_density(lam, n, m, exact=False) == exact
            checked += 1

    def test_float_path_near_walls_within_tolerance(self):
        # (3, 3) keeps the float path (bound 4.0e-10), which fig1 uses
        assert _law_tables(3, 3)[1]
        worst = 0.0
        for d in (1e-8, 1e-6, 1e-4, 1e-2):
            for t in np.linspace(0.02, 0.98, 25):
                wall = (t, d - t, -d)  # |lambda_3| = d from an orthant wall
                edge = (t * (1 - d), (1 - t) * (1 - d), -(1 - d))  # gamma = d
                for lam in (wall, edge, tuple(-v for v in wall), tuple(-v for v in edge)):
                    exact = joint_eigen_density(lam, 3, 3, exact=True)
                    worst = max(worst, abs(joint_eigen_density(lam, 3, 3, exact=False) - exact))
        assert worst <= 1e-9


class TestFloatPathShapes:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_n2_float_within_tolerance_of_exact(self, m):
        assert _law_tables(2, m)[1]  # N = 2 keeps the float path up to M = 7
        ts = [1e-8 * (1 + 1e-3), 2e-8, 1e-6, 1.0 - 2e-8, 1.0 - 1e-8 * (1 + 1e-3)]
        ts += list(np.linspace(0.01, 0.99, 49))
        worst = 0.0
        for t in ts:
            for lam in ((t, -t), (-t, t)):
                exact = joint_eigen_density(lam, 2, m, exact=True)
                worst = max(worst, abs(joint_eigen_density(lam, 2, m, exact=False) - exact))
        assert worst <= 1e-9

    @pytest.mark.parametrize("n, m, point", [(2, 5, (0.37, -0.37)), (3, 3, (0.21, -0.34, 0.13)),
                                             (3, 4, (-0.21, 0.34, -0.13))])
    @pytest.mark.parametrize("exact", [True, False])
    def test_container_type_does_not_matter(self, n, m, point, exact):
        want = joint_eigen_density(np.array(point), n, m, exact=exact)
        assert joint_eigen_density(list(point), n, m, exact=exact) == want
        assert joint_eigen_density(tuple(point), n, m, exact=exact) == want

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize(
        "n, m, lam, error, match",
        [
            (3, 3, (0.1, -0.1), ValueError, "expected 3 eigenvalues"),
            (3, 3, ((0.1, -0.1, 0.0),), ValueError, "expected 3 eigenvalues"),
            (3, 2, (0.1, 0.2, -0.3), DimensionOrder, "requires n <= m"),
            (3, 3, (0.2, -0.1, 0.1), ValueError, "sum to zero"),
            (3, 3, (0.3, -0.3 + 1e-13, -1e-13), BoundaryPoint, "orthant wall"),
            (2, 5, (1.0 - 1e-10, -1.0 + 1e-10), BoundaryPoint, "support-region boundary"),
        ],
    )
    def test_guards(self, n, m, lam, error, match, exact):
        with pytest.raises(error, match=match):
            joint_eigen_density(lam, n, m, exact=exact)

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("lam", [(0.1, -0.1), ((0.1, -0.1, 0.0),), (0.2, -0.1, 0.1)])
    def test_bad_point_is_domain_error(self, lam, exact):
        with pytest.raises(DomainError, match="expected 3 eigenvalues|sum to zero"):
            joint_eigen_density(lam, 3, 3, exact=exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_outside_region_is_zero(self, exact):
        assert joint_eigen_density((0.9, 0.4, -1.3), 3, 3, exact=exact) == 0.0
        assert joint_eigen_density((1.5, -1.5), 2, 5, exact=exact) == 0.0


class TestNonFinite:
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize(
        "n, m, lam",
        [
            (2, 5, (0.1, math.nan)),
            (2, 5, (math.inf, -math.inf)),
            (3, 3, (0.1, math.nan, -0.1)),
            (3, 3, (0.1, math.inf, -math.inf)),
            (3, 3, (math.nan, math.nan, math.nan)),
        ],
    )
    def test_joint_density_raises(self, n, m, lam, exact):
        with pytest.raises(DomainError, match="finite"):
            joint_eigen_density(lam, n, m, exact=exact)

    @pytest.mark.parametrize("lam", [(math.nan, 0.1), (0.1, math.inf), (-math.inf, 0.2, 0.3)])
    def test_region_gamma_raises(self, lam):
        with pytest.raises(DomainError, match="finite"):
            region_gamma(lam)

    @pytest.mark.parametrize("lam", [(0.1, math.nan), (math.inf, -math.inf)])
    def test_psi_evaluate_raises(self, lam):
        with pytest.raises(DomainError, match="finite"):
            build_psi_poly(2, 3).evaluate(lam)

    def test_region_gamma_of_finite_points(self):
        assert region_gamma((0.25, -0.5, 0.25)) == 0.5
        assert region_gamma(np.array([[0.5, -0.5]])) == 0.5
        assert region_gamma([]) == 1.0


class TestN2Density:
    def test_even(self):
        for m in (2, 10):
            assert n2_exact_density(0.3, m) == n2_exact_density(-0.3, m)

    def test_zero_at_origin(self):
        assert n2_exact_density(0.0, 7) == 0.0

    def test_m2_closed_form(self):
        for t in (0.1, 0.45, 0.9):
            assert n2_exact_density(t, 2) == pytest.approx(
                6 * t**2 * (1 - t) ** 2 * (2 + t), rel=1e-12
            )

    @pytest.mark.parametrize("m", [1, 2, 5, 10, 40])
    def test_normalization(self, m):
        from scipy.integrate import quad

        val, _ = quad(lambda x: n2_exact_density(x, m), -1, 1, points=[0.0], limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            n2_exact_density(1.0, 3)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, lam):
        with pytest.raises(DomainError):
            n2_exact_density(lam, 3)


class TestMarginal:
    def test_n2_dispatch(self):
        pts = [0.1, 0.2]
        got = single_eigenvalue_marginal(2, 10, pts)
        want = [n2_exact_density(t, 10) for t in pts]
        assert np.allclose(got, want, rtol=1e-12)

    def test_n3_mass(self):
        # marginal integrates to 1; integrate per smooth piece (kink at 0)
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(60)
        total = 0.0
        for a, b in ((-1.0, 0.0), (0.0, 1.0)):
            xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            vals = single_eigenvalue_marginal(3, 3, xs)
            total += 0.5 * (b - a) * float(np.dot(weights, vals))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_n3_even(self):
        pts = np.array([-0.35, 0.35])
        vals = single_eigenvalue_marginal(3, 3, pts)
        assert vals[0] == pytest.approx(vals[1], rel=1e-9)

    def test_unsupported(self):
        with pytest.raises(Unsupported):
            single_eigenvalue_marginal(4, 5, [0.1])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, n, bad):
        with pytest.raises(DomainError):
            single_eigenvalue_marginal(n, 3, [0.1, bad])

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_outside_support(self, n):
        vals = single_eigenvalue_marginal(n, 3, [-2.0, -1.0, 0.5, 1.0, 2.0])
        assert np.array_equal(vals[[0, 1, 3, 4]], np.zeros(4))
        assert vals[2] > 0.0


class TestDerivativePrinciple:
    def test_gue_selftest(self):
        assert derivative_principle_selftest()

    def test_ratio_between_points(self):
        # analytic ratio of the 2x2 unitary-ensemble law between two points
        import math

        def law(l1, l2):
            return (l1 - l2) ** 2 * math.exp(-0.5 * (l1**2 + l2**2)) / (4 * math.pi)

        assert law(1, -1) / law(2, -2) == pytest.approx(math.e**3 / 4.0)
