import math
from fractions import Fraction

import mpmath
import pytest

from rmtdiff.errors import DomainError, PoleError
from rmtdiff.specfun import (
    HypergeometricQuery,
    gauss_2f1,
    hyp2f1,
    laguerre_coefficients,
    ln_gamma_complex,
)


def ln_gamma(x: float) -> float:
    """The real axis of ln_gamma_complex, which these log-gamma tests exercise."""
    return ln_gamma_complex(complex(x)).real


def laguerre_sum(m: int, t: float) -> float:
    """sum_k w_k t^k over laguerre_coefficients(m), summed exactly in integers and Fractions."""
    return float(sum(w * Fraction(t) ** k for k, w in enumerate(laguerre_coefficients(m))))


class TestLnGamma:
    def test_at_one_is_zero(self):
        assert abs(ln_gamma(1.0)) < 1e-14

    def test_factorial_point(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half(self):
        # Gamma(1/2) = sqrt(pi)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    @pytest.mark.parametrize(
        "x", [0.5, 0.7, 1.5, 2.0, 3.25, 10.0, 123.456, 1e3, 1e4, 1e6]
    )
    def test_against_stdlib(self, x):
        ref = math.lgamma(x)
        if abs(ref) < 1e-3:
            assert ln_gamma(x) == pytest.approx(ref, abs=5e-14)
        else:
            assert ln_gamma(x) == pytest.approx(ref, rel=1e-13)

    def test_functional_equation(self):
        x = 0.5
        while x <= 100.0:
            lhs = ln_gamma(x + 1.0)
            rhs = ln_gamma(x) + math.log(x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            x += 1.37

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-3.2)

    def test_complex_matches_real_axis(self):
        for x in (0.3, 1.0, 4.5, 42.0):
            assert ln_gamma_complex(x + 0j).real == pytest.approx(
                math.lgamma(x), abs=1e-12
            )

    def test_complex_recurrence(self):
        z = 1.3 + 0.8j
        lhs = ln_gamma_complex(z + 1)
        rhs = ln_gamma_complex(z) + complex(math.log(abs(z)), math.atan2(z.imag, z.real))
        assert abs(lhs - rhs) < 1e-12


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
        q = HypergeometricQuery(1.5 - 2 * m, 1 - m, 2 * (1 - m), -2.0)
        assert q.terminates_at == m - 1
        val = gauss_2f1(q)
        assert math.isfinite(val.real)

    def test_pole_before_termination_rejected(self):
        with pytest.raises(PoleError):
            HypergeometricQuery(0.5, -5, -3, 0.2)

    def test_nonterminating_needs_small_x(self):
        with pytest.raises(DomainError):
            HypergeometricQuery(0.5, 0.7, 1.9, 1.0)

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
