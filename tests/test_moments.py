import cmath
import math

import numpy as np
import pytest

from rmtdiff.errors import DomainError
from rmtdiff.moments import (
    absolute_moment,
    continuous_mass,
    distance_to_mixed_asymptotic,
    even_moment,
    moment_via_quadrature,
    operator_norm_asymptotic,
    trace_distance_asymptotic,
)
from rmtdiff.asym_law import atom_weight, support_points


class TestAbsoluteMoment:
    @pytest.mark.parametrize("c", [0.5, 1.0, 1.9, 2.0, 2.1, 3.0, 5.0])
    def test_second_moment_is_2c(self, c):
        assert absolute_moment(2, c) == pytest.approx(2.0 * c, rel=1e-12)

    def test_first_moment_c3(self):
        # twice the trace distance 1 - 1/(2c)
        assert absolute_moment(1, 3.0) == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_mass_recovered_at_small_order(self):
        # z -> 0+ approaches the continuous mass (1 below the atom transition)
        assert absolute_moment(1e-12, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_branch_continuity_at_two(self):
        for z in (0.5, 1.0, 2.0, 4.0):
            lo = absolute_moment(z, 2.0 - 1e-6)
            hi = absolute_moment(z, 2.0 + 1e-6)
            assert abs(lo - hi) <= 1e-4 * max(abs(lo), abs(hi))
            mid = absolute_moment(z, 2.0)
            assert min(lo, hi) - 1e-6 <= mid <= max(lo, hi) + 1e-6

    def test_complex_order_against_quadrature(self):
        from scipy.integrate import quad

        from rmtdiff.asym_law import aed_symmetric

        z = 1.3 + 0.7j
        c = 1.0
        _, xp = support_points(c)

        def part(which):
            def g(th):
                x = xp * math.sin(th) ** 2
                val = cmath.exp(z * math.log(x)) if x > 0 else 0.0
                w = aed_symmetric(x, c) * xp * 2 * math.sin(th) * math.cos(th)
                return (val * w).real if which == "re" else (val * w).imag

            v, _ = quad(g, 0, math.pi / 2, limit=300)
            return 2 * v

        want = complex(part("re"), part("im"))
        got = absolute_moment(z, c)
        assert abs(got - want) < 1e-6 * abs(want)

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("z", [1 + 0.5j, 0.5 - 1j, 2.5 + 2j])
    def test_complex_order_against_mpmath_quad(self, z, c):
        import mpmath

        from rmtdiff.asym_law import aed_symmetric

        x_minus, x_plus = support_points(c)
        with mpmath.workdps(20):
            half = mpmath.quad(
                lambda x: mpmath.power(x, z) * aed_symmetric(float(x), c), [x_minus or 0.0, x_plus]
            )
        want = 2.0 * complex(half)
        assert abs(absolute_moment(z, c) - want) <= 1e-12 * abs(want)

    def test_domain(self):
        with pytest.raises(DomainError):
            absolute_moment(0.0, 1.0)
        with pytest.raises(DomainError):
            absolute_moment(-1.0, 1.0)
        with pytest.raises(DomainError):
            absolute_moment(1.0, -0.5)

    def test_nan_c(self):
        with pytest.raises(DomainError):
            absolute_moment(1, math.nan)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: absolute_moment(math.nan, 1.0),
            lambda: even_moment(1, math.inf),
            lambda: trace_distance_asymptotic(math.nan),
            lambda: operator_norm_asymptotic(math.inf, 10),
            lambda: distance_to_mixed_asymptotic(math.nan),
            lambda: moment_via_quadrature(2.0, 1.0, math.inf),
            lambda: continuous_mass(math.nan, 0.5),
        ],
    )
    def test_non_finite_input(self, call):
        with pytest.raises(DomainError):
            call()

    def test_monotone_power_means(self):
        for c in (0.5, 2.5):
            zs = [0.5, 1.0, 2.0, 4.0]
            means = [absolute_moment(z, c) ** (1.0 / z) for z in zs]
            assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_growth_bounded_by_edge(self):
        _, xp = support_points(1.0)
        for l in range(1, 11):
            assert absolute_moment(2 * l, 1.0) ** (1 / (2 * l)) <= xp * (1 + 1e-10)


class TestEvenMoment:
    def test_l1_is_2c(self):
        assert even_moment(1, 1.0) == pytest.approx(2.0, rel=1e-12)
        assert even_moment(1, 0.3) == pytest.approx(0.6, rel=1e-12)

    def test_l2_against_quadrature(self):
        m4 = even_moment(2, 1.0)
        q4 = moment_via_quadrature(4.0, 1.0)
        assert m4 == pytest.approx(q4, rel=1e-6)

    def test_terminating_series_hand_value(self):
        # l = 1: c(2-c) * (1 - c/(c-2)) = 2c for any c
        for c in (0.5, 1.7, 3.0, 10.0):
            assert even_moment(1, c) == pytest.approx(2 * c, rel=1e-12)

    def test_c2_rejected(self):
        with pytest.raises(DomainError):
            even_moment(1, 2.0)


class TestTraceDistance:
    def test_upper_branch(self):
        assert trace_distance_asymptotic(3.0) == pytest.approx(5.0 / 6.0, rel=1e-14)

    def test_branch_agreement_at_two(self):
        lo = trace_distance_asymptotic(2.0)
        hi = 1.0 - 1.0 / 4.0
        assert lo == pytest.approx(hi, abs=1e-8)

    def test_c1_value(self):
        want = (2.0 + math.pi / 2.0) / (2.0 * math.pi)
        assert trace_distance_asymptotic(1.0) == pytest.approx(want, rel=1e-13)

    def test_small_c_law(self):
        c = 1e-8
        want = 4.0 * math.sqrt(2.0 * c) / (3.0 * math.pi)
        assert trace_distance_asymptotic(c) == pytest.approx(want, rel=1e-3)

    def test_half_first_moment(self):
        for c in (0.5, 1.0, 1.9, 2.1, 4.0):
            assert absolute_moment(1, c) == pytest.approx(
                2 * trace_distance_asymptotic(c), rel=1e-12
            )


class TestOperatorNorm:
    def test_matches_support_edge(self):
        _, xp = support_points(1.0)
        assert operator_norm_asymptotic(1.0, 200) == pytest.approx(xp / 200)

    def test_small_c_limit(self):
        c = 0.01
        got = operator_norm_asymptotic(c, 1)
        assert got == pytest.approx(2.0 * math.sqrt(2.0 * c), rel=0.03)

    def test_large_c_limit(self):
        # ratio to c decays like 2/sqrt(c)
        c = 1e6
        assert operator_norm_asymptotic(c, 1) == pytest.approx(c, rel=3e-3)

    def test_c1_closed_value(self):
        s5 = math.sqrt(5.0)
        want = 0.25 * (s5 + 3.0) ** 1.5 * (s5 - 1.0) ** 0.5
        assert operator_norm_asymptotic(1.0, 1) == pytest.approx(want, rel=1e-14)


class TestDistanceToMixed:
    def test_small_c_law(self):
        c = 0.01
        want = 4.0 * math.sqrt(c) / (3.0 * math.pi)
        assert distance_to_mixed_asymptotic(c) == pytest.approx(want, rel=0.05)

    def test_sqrt2_ratio(self):
        c = 1e-3
        ratio = trace_distance_asymptotic(c) / distance_to_mixed_asymptotic(c)
        assert ratio == pytest.approx(math.sqrt(2.0), rel=0.02)

    def test_quadrature_stability(self):
        a = distance_to_mixed_asymptotic(1.0)
        assert 0.0 < a < 1.0
        # value differs from the c->0 law but is stable and reproducible
        assert a == pytest.approx(distance_to_mixed_asymptotic(1.0), abs=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1.0, 4.0, 6.0])
    def test_against_direct_quadrature(self, c):
        from scipy.integrate import quad

        from rmtdiff.asym_law import marchenko_pastur

        lo = (1 - math.sqrt(c)) ** 2
        hi = (1 + math.sqrt(c)) ** 2
        v, _ = quad(
            lambda x: abs(x - 1.0) * marchenko_pastur(x, c)[0],
            lo,
            hi,
            limit=500,
            points=[1.0] if lo < 1.0 < hi else None,
        )
        want = 0.5 * (v + max(1 - 1 / c, 0.0))
        assert distance_to_mixed_asymptotic(c) == pytest.approx(want, rel=1e-6)


class TestQuadratureOracle:
    # the oracle-equivalence sweep at full tolerance lives in the acceptance
    # suite; spot checks here keep the unit cycle fast
    @pytest.mark.parametrize("z,c", [(0.5, 0.5), (1.0, 1.0), (2.0, 1.9), (3.7, 5.0)])
    def test_matches_closed_form(self, z, c):
        a = absolute_moment(z, c)
        q = moment_via_quadrature(z, c)
        assert abs(a - q) <= 1e-5 * abs(a)

    def test_first_moment_c1_value(self):
        want = (2.0 + math.pi / 2.0) / math.pi
        assert moment_via_quadrature(1.0, 1.0) == pytest.approx(want, abs=1e-5)

    def test_weighted_second_moment(self):
        # free cumulant additivity: variance of rho1 - eta rho2 about its
        # mean (1 - eta) is c (1 + eta^2)
        c, eta = 1.0, 0.5
        m2 = moment_via_quadrature(2.0, c, eta)
        mean = 1.0 - eta
        var_want = c * (1.0 + eta**2)
        assert m2 - mean**2 == pytest.approx(var_want, abs=2e-4)

    @pytest.mark.parametrize("c,eta", [(1.0, 0.2), (0.5, 2.0), (3.0, 0.5), (1.0, 0.3)])
    def test_weighted_moments_match_free_cumulants(self, c, eta):
        want = _free_cumulant_moments(8, c, eta)
        for k in (2, 4, 6, 8):
            assert moment_via_quadrature(k, c, eta) == pytest.approx(want[k], rel=1e-10)
        assert atom_weight(c, eta) + continuous_mass(c, eta) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            moment_via_quadrature(0.0, 1.0)


def _free_cumulant_moments(kmax: int, c: float, eta: float) -> list[float]:
    """Moments m_0..m_kmax of x = N(rho1 - eta rho2) from its free cumulants.

    Marchenko-Pastur is free Poisson with rate 1/c and jump c, so
    kappa_s = c^(s-1) (1 + (-eta)^s) (Nica & Speicher, Lectures on the
    Combinatorics of Free Probability, 2006).  The moment-cumulant recursion
    is m_n = sum_s kappa_s [z^(n-s)] M(z)^s with M(z) = sum_j m_j z^j.
    """
    kappa = [0.0] + [c ** (s - 1) * (1.0 + (-eta) ** s) for s in range(1, kmax + 1)]
    m = np.zeros(kmax + 1)
    m[0] = 1.0
    for n in range(1, kmax + 1):
        power = np.zeros(n)
        power[0] = 1.0
        for s in range(1, n + 1):
            power = np.convolve(power, m[:n])[:n]  # M^s up to degree n - 1
            m[n] += kappa[s] * power[n - s]
    return list(m)
