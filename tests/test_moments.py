import cmath
import math
import time
from fractions import Fraction
import warnings

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


def _mp_moment(z, c):
    """m_z(c) from 40-digit mpmath, by the hypergeometric form on c's side of 2."""
    import mpmath

    with mpmath.workdps(40):
        zm, cm = mpmath.mpmathify(z), mpmath.mpf(c)
        if c < 2.0:
            want = (
                mpmath.gamma(zm + 1) * (2 * cm) ** (zm / 2)
                / (mpmath.gamma(zm / 2 + 1) * mpmath.gamma(zm / 2 + 2))
                * mpmath.hyp2f1(1 - zm / 2, -zm / 2, zm / 2 + 2, cm / 2)
            )
        else:
            want = 2 * cm ** (zm - 1) * mpmath.hyp2f1(1 - zm / 2, -zm, 2, 2 / cm)
        return complex(want) if isinstance(z, complex) else float(want.real)


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

    def test_even_orders_at_two_are_exact(self):
        # at c = 2 both branches' series terminate at the boundary argument 1
        assert absolute_moment(2, 2.0) == pytest.approx(4.0, rel=1e-14, abs=0.0)
        assert absolute_moment(4, 2.0) == pytest.approx(48.0, rel=1e-14, abs=0.0)

    # `was` is the bound the retired cubic extrapolation met at each point; it
    # stays in the case ids only, and every case now holds 1e-12
    @pytest.mark.parametrize(
        "c, was",
        [(1.999, 1e-6), (1.9995, 1e-6), (1.9999, 1e-6), (2.0001, 1e-6), (2.0005, 1e-6),
         (2.001, 1e-6), (1.99, 1e-12), (2.01, 1e-12)],
    )
    @pytest.mark.parametrize("z", [0.5, 1.0, 1.5, 3.7])
    def test_seam_against_mpmath(self, z, c, was):
        assert absolute_moment(z, c) == pytest.approx(_mp_moment(z, c), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c", [2.0 + 1e-7, 2.0 + 1e-4, 2.0 + 1.9e-3])
    @pytest.mark.parametrize("z", [1, 3])
    def test_seam_sums_odd_orders_above_two(self, z, c):
        # above c = 2 the series of every positive integer order terminates,
        # so it is summed, not extrapolated: m_1 = 2 - 1/c
        assert absolute_moment(z, c) == pytest.approx(_mp_moment(z, c), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("d", [1e-9, 1e-7, 1e-4, 1.9e-3])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("z, was", [(0.1, 4.0e-5), (0.25, 1.6e-5)])
    def test_seam_small_orders(self, z, was, side, d):
        # `was` as in test_seam_against_mpmath: an id field, the bound is 1e-12
        c = 2.0 + side * d
        assert absolute_moment(z, c) == pytest.approx(_mp_moment(z, c), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [1e-12, 1e-9, 1e-7, 1e-5, 1e-4, 1e-3, 1.5e-3, 1.99e-3])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize(
        "z", [0.1, 0.25, 0.5, 1.0, 1.5, 3.7, 2 / 3, 2 / 3 + 1e-10, 4 / 3, 8 / 3, 1.5 + 1j, 0.3 + 2j]
        + [(m + e - 1) / 1.5 for m in (2, 3) for e in (1.1e-3, 2e-3, -1.1e-3, -2e-3)]
    )
    def test_seam_connection_formula(self, z, side, d):
        # within 1e-3 of argument 1 _hyp2f1 sums the connection formula in 1 - x,
        # which carries the (1 - c/2)^(1 + 3z/2) term; c' - a - b = 1 + 3z/2 is the
        # integer 2, 3 or 5 at z = 2/3, 4/3, 8/3 (1.5e-10 off 2 at 2/3 + 1e-10),
        # where DLMF 15.8.4's two halves cancel.  The last eight orders put it
        # 1.1e-3 or 2e-3 off 2 or 3, just past where 15.8.4 takes its limit form
        c = 2.0 + side * d
        want = _mp_moment(z, c)
        assert abs(absolute_moment(z, c) - want) <= 1e-12 * abs(want)

    def test_even_orders_below_two_against_mpmath(self):
        # the exact Catalan prefactor; a loggamma prefactor errs up to 8.0e-15 here.
        # The last three take (2c)^(z/2) below the float range (0.02^200 ~ 1e-340),
        # while m_z is a normal float
        cases = [(z, c) for z in (4, 10, 20, 40) for c in (0.1, 1.0, 1.9, 1.99, 1.9999)]
        for z, c in cases + [(400, 0.01), (800, 0.05), (1022, 0.11)]:
            want = _mp_moment(z, c)
            assert abs(absolute_moment(z, c) - want) <= 2e-15 * want, (z, c)

    def test_odd_orders_above_two_against_mpmath(self):
        # 2 c^(z-1) taken as a power; 2 exp((z-1) log c) errs up to 2.4e-14 here
        for z, c in [(z, c) for z in (21, 51, 101) for c in (2.0, 10.0, 100.0, 1e3)]:
            want = _mp_moment(z, c)
            assert abs(absolute_moment(z, c) - want) <= 3e-15 * want, (z, c)

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.5, 1.5 + 1j])
    def test_at_two_against_mpmath(self, z):
        # c = 2 takes the 2F1 in 2/c = 1 alone, through Gauss's sum
        import mpmath

        with mpmath.workdps(40):
            zm = mpmath.mpmathify(z)
            want = complex(2 * 2 ** (zm - 1) * mpmath.hyp2f1(1 - zm / 2, -zm, 2, 1))
        assert abs(absolute_moment(z, 2.0) - want) <= 1e-14 * abs(want)

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
            lambda: even_moment(2.5, 1.0),
            lambda: even_moment(0, 1.0),
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

    @pytest.mark.parametrize(
        "call",
        [
            lambda: absolute_moment(math.inf, 1.0),
            lambda: absolute_moment(complex(1.0, math.nan), 1.0),
            lambda: absolute_moment(complex(1.0, math.inf), 3.0),
            lambda: moment_via_quadrature(math.inf, 1.0),
            lambda: moment_via_quadrature(math.inf, 1.0, 0.5),
        ],
    )
    def test_non_finite_order_rejected_at_once(self, call):
        # the parent summed 100 000 series terms, or returned inf from quadrature
        start = time.perf_counter()
        with pytest.raises(DomainError, match="finite"):
            call()
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize("z", ["2", b"2", None, [2.0]], ids=repr)
    def test_non_numeric_order_rejected(self, z):
        # complex() parses a string, so absolute_moment("2", 1.0) returned m_2 = 2.0
        with pytest.raises(DomainError, match="numeric order"):
            absolute_moment(z, 1.0)

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
        # l = 1: m_2 = kappa_2 = 2c for any c
        for c in (0.5, 1.7, 3.0, 10.0):
            assert even_moment(1, c) == pytest.approx(2 * c, rel=1e-12)

    def test_at_c2(self):
        assert even_moment(1, 2.0) == pytest.approx(4.0, rel=1e-14, abs=0.0)
        assert even_moment(2, 2.0) == pytest.approx(48.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("c", [1e-3, 0.3, 1.0, 1.9, 1.999, 2.0, 2.001, 3.0, 50.0, 500.0])
    def test_matches_absolute_moment(self, c):
        for l in (1, 2, 3, 5, 10, 20):
            assert even_moment(l, c) == pytest.approx(absolute_moment(2 * l, c), rel=1e-13, abs=0.0)


class TestEvenMomentLagrangeSum:
    @pytest.mark.parametrize("c", [1e-3, 0.3, 1.0, 2.0, 7.5, 500.0])
    @pytest.mark.parametrize("l", [1, 2, 7, 40, 150])
    def test_matches_exact_rational_sum(self, l, c):
        # m_2l = (1/(2l+1)) sum_j C(2l+1, j) C(l-1, j-1) 2^j c^(2l-j), summed in Fractions
        cf = Fraction(c)
        exact = sum(
            math.comb(2 * l + 1, j) * math.comb(l - 1, j - 1) * 2**j * cf ** (2 * l - j)
            for j in range(1, l + 1)
        ) / (2 * l + 1)
        try:
            want = float(exact)
        except OverflowError:
            with pytest.raises(DomainError, match="float range"):
                even_moment(l, c)
            return
        assert even_moment(l, c) == pytest.approx(want, rel=2e-14, abs=0.0)

    def test_underflow_reads_zero(self):
        # m_2l(1e-3) falls like x_plus^(2l), x_plus = 0.0895: below the float range it is 0.0
        assert even_moment(100, 1e-3) > 0.0
        assert even_moment(20_000, 1e-3) == 0.0


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


def _trace_distance_mpmath(c: float):
    import mpmath

    with mpmath.workdps(30):
        cm = mpmath.mpf(c)
        return 4 * mpmath.sqrt(2 * cm) / (3 * mpmath.pi) * mpmath.hyp2f1(0.5, -0.5, 2.5, cm / 2)


def _distance_to_mixed_mpmath(c: float):
    """Half of E|x - 1| under Marchenko-Pastur, 30 digits: (x - 1) times the density on
    [1, x_+], in x - 1 = (x_+ - 1) sin^2(theta) so that no step rounds 1 + O(sqrt c).
    The integrand is divided by sqrt(c), as mpmath's error target is absolute."""
    import mpmath

    with mpmath.workdps(30):
        r = mpmath.sqrt(mpmath.mpf(c))
        span = 2 * r + r * r  # x_+ - 1
        gap = 2 * r - r * r  # 1 - x_-

        def f(th):
            d = span * mpmath.sin(th) ** 2  # x - 1
            w = mpmath.sqrt((d + gap) * span) * mpmath.cos(th)  # sqrt((x - x_-)(x_+ - x))
            return d * w / (2 * mpmath.pi * r**3 * (1 + d)) * span * mpmath.sin(2 * th)

        return r * mpmath.quad(f, [0, mpmath.pi / 2])


class TestDistancesSmallC:
    # (c+1) sqrt((2-c)c) cancels against 2 asin(sqrt(c/2)) (relative error 1.0 at c = 1e-20),
    # and a panel over [1, x_+] in x errs 1.2e-7 there and collapses below c ~ 1e-32; the
    # geometric grid has no point between 1.3e-7 and 2, where the series of _asin_excess
    # serves (s = sqrt(c/2) < 0.1), so four more c sit there
    def test_trace_distance_against_mpmath(self):
        for c in [*np.geomspace(1e-300, 2.0, 41), 1e-4, 1e-3, 0.01, 0.019]:
            want = _trace_distance_mpmath(float(c))
            assert abs(trace_distance_asymptotic(float(c)) - want) <= 1e-14 * want
        assert trace_distance_asymptotic(2.0) == 0.75

    def test_distance_to_mixed_against_mpmath(self):
        for c in np.geomspace(1e-300, 3.99, 41):
            want = _distance_to_mixed_mpmath(float(c))
            assert abs(distance_to_mixed_asymptotic(float(c)) - want) <= 1e-14 * want


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


class TestDistanceToMixedAccuracy:
    @staticmethod
    def _mpmath(c: float) -> float:
        """E(x - 1)_+ under the rescaled Marchenko-Pastur law, by 40-digit tanh-sinh quadrature."""
        import mpmath as mp

        with mp.workdps(40):
            c = mp.mpf(c)
            lo, hi = (1 - mp.sqrt(c)) ** 2, (1 + mp.sqrt(c)) ** 2
            a = max(lo, mp.mpf(1))
            return float(mp.quad(
                lambda x: (x - 1) * mp.sqrt((x - lo) * (hi - x)) / (2 * mp.pi * c * x), [a, hi]
            ))

    @pytest.mark.parametrize(
        "c, rel", [(1e-8, 1e-11), (1e-3, 1e-14), (0.5, 1e-14), (1.0, 1e-14), (3.99, 1e-14)]
    )
    def test_below_four_against_mpmath(self, c, rel):
        assert distance_to_mixed_asymptotic(c) == pytest.approx(self._mpmath(c), rel=rel)

    @pytest.mark.parametrize("c", [4.0, 5.0, 1e15])
    def test_from_four_up_is_one_minus_inverse_c(self, c):
        got = distance_to_mixed_asymptotic(c)
        assert got == 1.0 - 1.0 / c
        assert got == pytest.approx(self._mpmath(c), rel=1e-15)

    def test_huge_c(self):
        # lo and hi round together at c = 1e300; the value is 1 - 1e-300
        assert distance_to_mixed_asymptotic(1e300) == 1.0


class TestFloatRange:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: absolute_moment(6, 1e200),
            lambda: absolute_moment(800.0, 1.0),
            lambda: even_moment(3, 1e200),
            lambda: even_moment(150, 50.0),
            lambda: even_moment(300, 1.0),
            lambda: moment_via_quadrature(400, 5.0),
        ],
        ids=["abs-6-1e200", "abs-800-1", "even-3-1e200", "even-150-50", "even-300-1",
             "quad-400-5"],
    )
    def test_beyond_float_range_raises(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="float range"):
                call()

    def test_in_range_neighbours_stay_finite(self):
        assert absolute_moment(6, 1e40) == pytest.approx(2.0 * 1e200, rel=1e-6)
        assert math.isfinite(even_moment(100, 1.0))
        assert math.isfinite(absolute_moment(300.0, 1.0))


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

    @pytest.mark.parametrize("z", [1 + 1j, 2 + 0j, np.complex128(1.0)])
    def test_complex_order_rejected(self, z):
        # the oracle integrates |x|^z for real z only; `0 < z` raised TypeError
        with pytest.raises(DomainError, match="real"):
            moment_via_quadrature(z, 1.0)


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
