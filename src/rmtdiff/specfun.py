"""Special functions: Gauss 2F1 and Laguerre-type weights.

Everything here is scalar, pure and stateless.  The hypergeometric evaluator
sums a terminating series exactly, and otherwise takes one route per range of
x: Pfaff's transformation on (-1, 0), the power series on [0, 1 - 1e-3], the
1 - x connection formula above that, and Gauss's sum at x = 1; that covers the
arguments c/2 and 2/c of the moment formulas, which reach 1 at c = 2.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, NoConvergence, PoleError
from .sampling import _check_count

__all__ = [
    "hyp2f1",
    "laguerre_coefficients",
]


def _pochhammer_zero_index(v) -> int | None:
    """Largest k with (v)_k != 0 when v is a nonpositive integer, else None.

    (v)_j vanishes for all j > k exactly when v = -k with k a nonnegative
    integer.  Complex values with nonzero imaginary part never terminate.
    """
    v = complex(v)
    if v.imag != 0.0 or v.real > 0.0 or v.real != int(v.real):
        return None
    return int(-v.real)


_EPS_REL = 1e-16
_MAX_TERMS = 100_000
_NEAR_ONE = 1e-3  # below this 1 - x the 1 - x connection formula replaces the power series
_NEAR_INTEGER = 1e-3  # within this of an integer c - a - b, that formula takes its limit form
_GL3 = ((0.5 - 0.5 * math.sqrt(0.6), 5 / 18), (0.5, 4 / 9), (0.5 + 0.5 * math.sqrt(0.6), 5 / 18))


def _gammas(num, den, log=0.0):
    """exp(log) prod Gamma(num) / prod Gamma(den); 0 if a den value is a pole of Gamma."""
    from scipy.special import loggamma  # here, not at module level: scipy costs ~0.3 s to import

    if any(_pochhammer_zero_index(v) is not None for v in den):
        return 0.0
    total = 0.0
    for v in num:
        total += loggamma(v)
    for v in den:
        total -= loggamma(v)
    return cmath.exp(total + log)


def _near_one(a, b, c, y) -> complex:
    """2F1(a, b; c; 1 - y), non-terminating, for 0 < y < 1e-3 and Re(s) >= -1/2, s = c - a - b.

    DLMF 15.8.4: Gamma(c) Gamma(s) / (Gamma(c-a) Gamma(c-b)) 2F1(a, b; 1-s; y) plus
    y^s Gamma(c) Gamma(-s) / (Gamma(a) Gamma(b)) 2F1(c-a, c-b; 1+s; y).  Within 1e-3 of
    an integer m >= 0 the halves cancel like 1/e, e = s - m, so there the first half's term
    m + n is summed with the second's term n into DLMF 15.8.10's term n carried to
    e != 0: its bracket D_n becomes (exp(e D_n) - 1) / e, each psi(w) in D_n the mean
    of psi over [w, w + e] by three-point Gauss-Legendre (``_GL3``, nodes on [0, 1]).
    Where c - a or c - b is a pole of Gamma the first half is 0, and 15.8.4 stands.
    """
    from scipy.special import psi  # here, not at module level: scipy costs ~0.3 s to import

    s = c - a - b
    m = round(s.real)
    e = s - m
    first = _gammas((c, s), (c - a, c - b))
    if abs(e) > _NEAR_INTEGER or first == 0.0:
        second = _gammas((c, -s), (a, b), s * math.log(y))
        return first * hyp2f1(a, b, 1.0 - s, y) + second * hyp2f1(c - a, c - b, 1.0 + s, y)
    total = first if m else 0.0j  # the first half's terms k < m
    for k in range(1, m):
        first *= (a + k - 1) * (b + k - 1) * y / ((k - s) * k)
        total += first
    term = -(math.pi * e / cmath.sin(math.pi * e) if e else 1.0) * (-y) ** m * _gammas(
        (c, a + m, b + m), (a, b, a + s, b + s, m + 1.0, 1.0 - e))
    def avg(w):  # mean of psi over [w, w + e]
        return sum(g * psi(w + t * e) for t, g in _GL3)
    small_streak = 0
    for n in range(_MAX_TERMS):
        d = math.log(y) + avg(a + m + n) + avg(b + m + n) - avg(m + n + 1.0) - avg(n + 1.0 - e)
        h = 0.5 * e * d  # (exp(e d) - 1) / e = d exp(h) sinh(h) / h
        step = term * d * (cmath.exp(h) * cmath.sinh(h) / h if h else 1.0)
        total += step
        small_streak = small_streak + 1 if abs(step) < _EPS_REL * abs(total) else 0
        if small_streak == 2:
            return total
        term *= (a + m + n) * (b + m + n) * y / ((m + n + 1) * (n + 1 - e))
    raise NoConvergence(f"2F1 series in 1 - x did not converge within {_MAX_TERMS} terms")


def hyp2f1(a, b, c, x) -> complex:
    """Gauss hypergeometric 2F1(a, b; c; x) at real x.

    A series that terminates (a or b a nonpositive integer) is summed exactly
    at any x.  Otherwise x alone picks the route, each under its own theorem's condition:
    * -1 < x < 0: Pfaff's (1 - x)^-a 2F1(a, c - b; c; x/(x - 1)), with x/(x - 1) in (0, 1/2).
    * 0 <= x <= 1 - 1e-3: the power series, until two terms in a row fall below 1e-16 of the sum.
    * 0 < 1 - x < 1e-3: ``_near_one``, if Re s < -1/2 after Euler's (1 - x)^s 2F1(c-a, c-b; c; x).
    * x = 1: Gauss's sum Gamma(c) Gamma(s) / (Gamma(c - a) Gamma(c - b)), if Re s > 0.
    Here s = c - a - b.  A nonpositive-integer c is only legal when the series
    terminates strictly before the denominator Pochhammer vanishes; otherwise
    PoleError.  Non-finite parameters or x, and every other x, raise DomainError.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"2F1 requires a finite argument, got x = {x}")
    if not all(cmath.isfinite(complex(v)) for v in (a, b, c)):
        raise DomainError(f"2F1 requires finite parameters, got a, b, c = {a}, {b}, {c}")
    za = _pochhammer_zero_index(a)
    zb = _pochhammer_zero_index(b)
    term_at = zb if za is None else za if zb is None else min(za, zb)
    zc = _pochhammer_zero_index(c)
    if zc is not None and (term_at is None or term_at > zc):
        raise PoleError(
            "2F1 denominator parameter c = %s hits a pole at term %d "
            "before the series terminates" % (c, zc + 1)
        )
    a, b, c = complex(a), complex(b), complex(c)
    s = c - a - b
    if term_at is None and abs(x) >= 1.0 and (x != 1.0 or s.real <= 0.0):
        raise DomainError(f"non-terminating 2F1 needs |x| < 1, or Re(c - a - b) > 0 at x = 1, got {x}")
    if term_at is None and x == 1.0:  # Gauss's sum, DLMF 15.4.20
        return _gammas((c, s), (c - a, c - b))
    if term_at is None and x < 0.0:  # Pfaff, DLMF 15.8.1: x / (x - 1) lies in (0, 1/2)
        return (1.0 - x) ** -a * hyp2f1(a, c - b, c, x / (x - 1.0))
    if term_at is None and 1.0 - x < _NEAR_ONE:  # Euler, DLMF 15.8.1, where Re(c - a - b) < -1/2
        y = 1.0 - x
        return y ** s * hyp2f1(c - a, c - b, c, x) if s.real < -0.5 else _near_one(a, b, c, y)
    total = term = 1.0 + 0.0j
    small_streak = 0
    for k in range(_MAX_TERMS):
        num = (a + k) * (b + k)
        if num == 0.0:  # terminated; (c)_k does not vanish first, as checked above
            return total
        term = term * num * x / ((c + k) * (k + 1))
        total += term
        small_streak = small_streak + 1 if abs(term) < _EPS_REL * abs(total) else 0
        if small_streak == 2:
            return total
    raise NoConvergence(f"2F1 series did not converge within {_MAX_TERMS} terms")


def laguerre_coefficients(m_large: int) -> list[int]:
    """Integer coefficients (2(M-1)-k)! / (k! (M-1-k)!) for k = 0..M-1."""
    _check_count("m_large", m_large)
    mm = m_large - 1
    return [
        math.factorial(2 * mm - k) // (math.factorial(k) * math.factorial(mm - k))
        for k in range(m_large)
    ]
