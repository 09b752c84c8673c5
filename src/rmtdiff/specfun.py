"""Special functions: Gauss 2F1 and Laguerre-type weights.

Everything here is scalar, pure and stateless.  ``_hyp2f1`` is the private
evaluator of the moment formula, kept in its domain by ``absolute_moment``.  It
sums a terminating series exactly, and otherwise takes one route per range of x:
Pfaff on (-1, 0), the power series on [0, 1 - 1e-3], the 1 - x connection
formula above that and Gauss's sum at x = 1, which c/2 and 2/c reach at c = 2.
"""

from __future__ import annotations

import cmath
import math

from ._checks import count
from .errors import NoConvergence

__all__ = ["laguerre_coefficients"]


def _nonpositive_integer(v) -> bool:
    """Whether v is 0, -1, -2, ...: a pole of Gamma, and (v)_j = 0 for all j > -v."""
    v = complex(v)
    return v.imag == 0.0 and v.real <= 0.0 and v.real == int(v.real)


_EPS_REL = 1e-16
_MAX_TERMS = 100_000
_NEAR_ONE = 1e-3  # below this 1 - x the 1 - x connection formula replaces the power series
_NEAR_INTEGER = 1e-3  # within this of an integer c - a - b, that formula takes its limit form
_GL3 = ((0.5 - 0.5 * math.sqrt(0.6), 5 / 18), (0.5, 4 / 9), (0.5 + 0.5 * math.sqrt(0.6), 5 / 18))


def _gammas(num, den, log=0.0):
    """exp(log) prod Gamma(num) / prod Gamma(den); 0 if a den value is a pole of Gamma."""
    from scipy.special import loggamma  # here, not at module level: scipy costs ~0.3 s to import

    if any(_nonpositive_integer(v) for v in den):
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
        return first * _hyp2f1(a, b, 1.0 - s, y) + second * _hyp2f1(c - a, c - b, 1.0 + s, y)
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


def _hyp2f1(a, b, c, x) -> complex:
    """Gauss hypergeometric 2F1(a, b; c; x) at real x: the moment formula's evaluator.

    A series that terminates (a or b a nonpositive integer) is summed exactly
    at any x.  Otherwise x alone picks the route, each under its own theorem's condition:
    * -1 < x < 0: Pfaff's (1 - x)^-a 2F1(a, c - b; c; x/(x - 1)), with x/(x - 1) in (0, 1/2).
    * 0 <= x <= 1 - 1e-3: the power series, until two terms in a row fall below 1e-16 of the sum.
    * 0 < 1 - x < 1e-3: ``_near_one``, if Re s < -1/2 after Euler's (1 - x)^s 2F1(c-a, c-b; c; x).
    * x = 1: Gauss's sum Gamma(c) Gamma(s) / (Gamma(c - a) Gamma(c - b)), if Re s > 0.
    Here s = c - a - b.  Nothing is checked: ``absolute_moment`` requires z finite with
    Re z > 0 and its ratio c finite and positive, so x = c/2 or 2/c lies in (0, 1],
    this c (2 or z/2 + 2) is no pole, and s = 1 + 3z/2 has Re s > 0.
    """
    terminates = _nonpositive_integer(a) or _nonpositive_integer(b)
    a, b, c = complex(a), complex(b), complex(c)
    s = c - a - b
    if not terminates and x == 1.0:  # Gauss's sum, DLMF 15.4.20
        return _gammas((c, s), (c - a, c - b))
    if not terminates and x < 0.0:  # Pfaff, DLMF 15.8.1: x / (x - 1) lies in (0, 1/2)
        return (1.0 - x) ** -a * _hyp2f1(a, c - b, c, x / (x - 1.0))
    if not terminates and 1.0 - x < _NEAR_ONE:  # Euler, DLMF 15.8.1, where Re(c - a - b) < -1/2
        y = 1.0 - x
        return y ** s * _hyp2f1(c - a, c - b, c, x) if s.real < -0.5 else _near_one(a, b, c, y)
    total = term = 1.0 + 0.0j
    small_streak = 0
    for k in range(_MAX_TERMS):
        num = (a + k) * (b + k)
        if num == 0.0:  # terminated; (c)_k does not vanish first, as the caller keeps
            return total
        term = term * num * x / ((c + k) * (k + 1))
        total += term
        small_streak = small_streak + 1 if abs(term) < _EPS_REL * abs(total) else 0
        if small_streak == 2:
            return total
    raise NoConvergence(f"2F1 series did not converge within {_MAX_TERMS} terms")


def laguerre_coefficients(m_large: int) -> list[int]:
    """Integer coefficients (2(M-1)-k)! / (k! (M-1-k)!) for k = 0..M-1."""
    mm = count("m_large", m_large) - 1
    return [
        math.factorial(2 * mm - k) // (math.factorial(k) * math.factorial(mm - k))
        for k in range(m_large)
    ]
