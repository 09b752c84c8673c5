import math
import time
from fractions import Fraction

import mpmath
import pytest

from rmtdiff.errors import DomainError, PoleError
from rmtdiff.specfun import hyp2f1, laguerre_coefficients


def laguerre_sum(m: int, t: float) -> float:
    """sum_k w_k t^k over laguerre_coefficients(m), summed exactly in integers and Fractions."""
    return float(sum(w * Fraction(t) ** k for k, w in enumerate(laguerre_coefficients(m))))


class TestGauss2F1:
    def test_b_zero_gives_one(self):
        for x in (-0.7, 0.0, 0.3, 0.99):
            assert hyp2f1(2.7, 0, 1.5, x) == pytest.approx(1.0, abs=0.0)

    def test_arcsin_identity(self):
        # arcsin(z) = z * 2F1(1/2, 1/2; 3/2; z^2)
        for z in [k / 10 for k in range(1, 10)]:
            got = z * hyp2f1(0.5, 0.5, 1.5, z * z).real
            assert got == pytest.approx(math.asin(z), abs=1e-12)

    def test_one_term_truncation(self):
        # 2F1(-1, b; c; x) = 1 - b x / c
        assert hyp2f1(-1, 2, 3, 0.3).real == pytest.approx(0.8, abs=1e-15)

    def test_terminating_beats_pole(self):
        # b = 1-M and c = 2(1-M): stops at k = M-1 before the pole at k = 2M-1
        m = 6
        a, b, c, x = Fraction(3, 2) - 2 * m, 1 - m, 2 * (1 - m), -2
        want, term = Fraction(1), Fraction(1)
        for k in range(m - 1):
            term *= (a + k) * (b + k) * x / ((c + k) * (k + 1))
            want += term
        assert hyp2f1(float(a), b, c, float(x)).real == pytest.approx(float(want), rel=1e-13)

    def test_pole_before_termination_rejected(self):
        with pytest.raises(PoleError):
            hyp2f1(0.5, -5, -3, 0.2)

    def test_nonterminating_needs_small_x(self):
        # outside |x| < 1 only x = 1 with Re(c - a - b) > 0 has a value
        for x in (1.5, -1.0, -3.0):
            with pytest.raises(DomainError):
                hyp2f1(0.5, 0.7, 1.9, x)
        for c in (1.2, 0.9):  # c - a - b = 0 and < 0: the series diverges at x = 1
            with pytest.raises(DomainError):
                hyp2f1(0.5, 0.7, c, 1.0)
        # c - a - b = 0.2 > 0 is Gauss's one condition (DLMF 15.4.20), though Re(c - b) = -0.3
        assert hyp2f1(-0.5, 2.5, 2.2, 1.0).real == pytest.approx(-0.756805256715626, rel=1e-13)

    def test_gauss_sum_at_one(self):
        want = float(mpmath.hyp2f1(0.5, 0.7, 1.9, 1.0))
        assert hyp2f1(0.5, 0.7, 1.9, 1.0).real == pytest.approx(want, rel=1e-14)

    def test_terminating_at_one_is_summed(self):
        # 2F1(-1, 2; 1; 1) = 1 - 2 = -1; Gauss's sum needs c - a - b = 0 > 0 and cannot give it
        assert hyp2f1(-1, 2, 1, 1.0) == -1

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected_at_once(self, x):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.7, 1.9, x)
        assert time.perf_counter() - start < 0.01

    @pytest.mark.parametrize(
        "a, b, c",
        [(math.inf, 1, 2), (1, -math.inf, 2), (1.5, 1, math.nan), (complex(1.0, math.nan), 1, 2)],
    )
    def test_non_finite_parameters_rejected_at_once(self, a, b, c):
        # inf summed 100 000 terms before NoConvergence; c = nan raised a bare ValueError
        start = time.perf_counter()
        with pytest.raises(DomainError, match="finite parameters"):
            hyp2f1(a, b, c, 0.5)
        assert time.perf_counter() - start < 0.01

    def test_integral_float_parameters_terminate(self):
        # exact float integers must terminate through the zero numerator
        assert hyp2f1(3.0, -2.0, 4.0, 5.0).real == pytest.approx(
            1 + 3 * (-2) * 5 / 4 + (3 * 4) * (-2 * -1) / (4 * 5) * 25 / 2, rel=1e-14
        )

    def test_log_derivative_identity(self):
        # d/dx 2F1(a,b;c;x) = (ab/c) 2F1(a+1,b+1;c+1;x), checked by central diff
        a, b, c, x = 0.7, -0.3, 2.2, 0.4
        h = 1e-6
        num = (hyp2f1(a, b, c, x + h) - hyp2f1(a, b, c, x - h)).real / (2 * h)
        ana = (a * b / c) * hyp2f1(a + 1, b + 1, c + 1, x).real
        assert num == pytest.approx(ana, rel=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_contiguity_recurrences(self, seed):
        import random

        rnd = random.Random(seed)
        a = rnd.uniform(-2.0, 2.0)
        b = rnd.uniform(-2.0, 2.0)
        c = rnd.uniform(2.5, 4.0)
        z = rnd.uniform(-0.5, 0.5)
        f = lambda aa, bb, cc: hyp2f1(aa, bb, cc, z).real
        # raise the c parameter twice
        lhs = f(a, b, c)
        rhs = ((c - 1) * (c - 2) * (1 - z)) / (z * (a - c + 1) * (b - c + 1)) * f(
            a, b, c - 2
        ) + ((c - 1) * (-z * (a + b - 2 * c + 3) - c + 2)) / (
            z * (a - c + 1) * (b - c + 1)
        ) * f(a, b, c - 1)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        # raise the b parameter twice
        rhs2 = (z * (a - b - 1) + 2 * b - c + 2) / (b - c + 1) * f(a, b + 1, c) + (
            (b + 1) * (z - 1)
        ) / (b - c + 1) * f(a, b + 2, c)
        assert lhs == pytest.approx(rhs2, rel=1e-10)


@pytest.mark.parametrize(
    "a, b, c, x",
    [
        (0.5 + 0.3j, 1.2 - 0.7j, 2.1 + 0.4j, 0.3),
        (-1.5 + 2j, 0.25 + 0.5j, 1.5 - 1j, -0.6),
        (1 - 0.5j, 1 + 0.5j, 3 + 2j, 0.85),
        (2.5j, -0.7 + 1.1j, 0.5 + 0.5j, 0.45),
    ],
)
def test_hyp2f1_complex_parameters_against_mpmath(a, b, c, x):
    want = complex(mpmath.hyp2f1(a, b, c, x))
    assert abs(hyp2f1(a, b, c, x) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("y", [1e-12, 1e-9, 1e-6, 1e-4, 9e-4])
@pytest.mark.parametrize(
    "a, b, c",
    [
        (0.5, 0.7, 1.9),  # c - a - b = 0.7
        (-1.3, 2.45, 1.6),  # 0.45, negative a
        (0.5 + 0.3j, 1.2 - 0.7j, 2.1 + 0.4j),  # 0.4 + 0.8i
        (1 - 0.5j, 0.25, 3.25 - 0.5j),  # exactly 2: DLMF 15.8.10
        (1 / 3, -2.5, 5 / 6),  # exactly 3 with a negative b
        (0.3, 0.45, 1.75 + 1e-7),  # 1e-7 off 1: 15.8.4's halves cancel
        (0.3, 0.45, 1.75 - 4e-4),  # 4e-4 below 1
        (0.6, 1.1, 1.7 + 0.002),  # 0.002 off 0, where 2F1 grows like -log(1 - x)
    ],
)
def test_hyp2f1_near_one_against_mpmath(a, b, c, y):
    # below 1 - x = 1e-3 the power series stalls (NoConvergence at small 1 - x);
    # the 1 - x connection formula returns, compared at the same float x
    x = 1.0 - y
    with mpmath.workdps(40):
        want = complex(mpmath.hyp2f1(a, b, c, mpmath.mpf(x)))
    assert abs(hyp2f1(a, b, c, x) - want) <= 1e-12 * abs(want)


def _mp_hyp2f1(a, b, c, x) -> complex:
    with mpmath.workdps(40):
        return complex(mpmath.hyp2f1(a, b, c, mpmath.mpf(x)))


@pytest.mark.parametrize("x", [-0.9, -0.99, -0.999, -0.9999])
@pytest.mark.parametrize(
    "a, b, c",
    [
        (1.2, 2.8, -2.85),  # the power series gave 115386.7 at x = -0.999, for -2.4450
        (2.8, 1.5, -2.2),  # and -115.48 there
        (-1.3 + 0.5j, 2.45, -0.6),
        (2.5, -1.7, 3.5 - 1j),
    ],
)
def test_hyp2f1_near_minus_one_against_mpmath(a, b, c, x):
    # Pfaff's transformation sums the series at x / (x - 1), in (0, 1/2)
    want = _mp_hyp2f1(a, b, c, x)
    assert abs(hyp2f1(a, b, c, x) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("y", [1e-12, 1e-9, 1e-6, 1e-4, 9e-4])
@pytest.mark.parametrize("s", [0, -0.1, 0.5j, -0.2 - 0.4j, -1 + 1e-9, -1 - 1e-9, -2.5, -3])
@pytest.mark.parametrize("a, b", [(0.5, 0.7), (-1.3 + 0.4j, 2.45)])
def test_hyp2f1_near_one_without_gauss_condition(a, b, s, y):
    # Re(c - a - b) <= 0: the power series stalled here; below -1/2 Euler's
    # transformation hands the connection formula c - a - b's mirror -s
    c = a + b + s
    want = _mp_hyp2f1(a, b, c, 1.0 - y)
    assert abs(hyp2f1(a, b, c, 1.0 - y) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize(
    "a, b, c",
    [
        (-2.5, -1.2, -0.5),  # Re(c) < 0
        (-0.5, 0.7, 0.5),  # Re(c - b) < 0
        (1.7, -1.4, 0.9),  # Re(c - a) < 0
        (0.3 + 1j, -2.2, -1.4 + 0.5j),  # complex, Re(c) and Re(c - a) < 0
    ],
)
def test_gauss_sum_needs_only_re_c_minus_a_minus_b(a, b, c):
    want = _mp_hyp2f1(a, b, c, 1.0)
    assert hyp2f1(a, b, c, 1.0).real == pytest.approx(want.real, rel=1e-13, abs=0.0)


class TestLaguerreSum:
    def test_m1(self):
        assert laguerre_sum(1, 123.4) == 1.0

    def test_m2(self):
        # 2 + t
        assert laguerre_sum(2, 1.5) == pytest.approx(3.5, abs=0.0)

    def test_m3_hand_expansion(self):
        # 12 + 12 t/... at t=2: 12 + 6*2 + 1*4 = 28
        assert laguerre_sum(3, 2.0) == pytest.approx(28.0, abs=0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 15, 20, 21, 30])
    def test_at_zero(self, m):
        want = math.factorial(2 * (m - 1)) / math.factorial(m - 1)
        assert laguerre_sum(m, 0.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m,t", [(5, 0.7), (4, 2.3), (8, 0.11)])
    def test_matches_laguerre_polynomial_relation(self, m, t):
        # equals (M-1)! (-1)^(M-1) L_{M-1}^{1-2M}(t), with the Laguerre
        # polynomial evaluated from its generalized-binomial series
        def gbinom(a, k):
            num = 1.0
            for i in range(k):
                num *= a - i
            return num / math.factorial(k)

        n, a = m - 1, 1 - 2 * m
        lag = sum(
            (-1) ** k * gbinom(n + a, n - k) * t**k / math.factorial(k)
            for k in range(n + 1)
        )
        want = math.factorial(m - 1) * (-1) ** (m - 1) * lag
        assert laguerre_sum(m, t) == pytest.approx(want, rel=1e-12)
