"""Special functions: Gauss 2F1 and Laguerre-type weights.

Everything here is scalar, pure and stateless.  The hypergeometric evaluator
only implements the convergent power series |x| < 1, Gauss's sum at x = 1,
and exact termination at nonpositive-integer numerator parameters; that
covers the arguments c/2 and 2/c of the moment formulas, which reach 1 at
c = 2.
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
    if isinstance(v, complex):
        if v.imag != 0.0:
            return None
        v = v.real
    fv = float(v)
    if fv > 0.0 or fv != int(fv):
        return None
    return int(-fv)


_EPS_REL = 1e-16
_MAX_TERMS = 100_000


def hyp2f1(a, b, c, x) -> complex:
    """Gauss hypergeometric 2F1(a, b; c; x) at real x.

    A series that terminates (a or b a nonpositive integer) is summed exactly
    at any x.  Otherwise the power series is summed for |x| < 1 until two
    consecutive terms fall below 1e-16 of the partial sum, and x = 1 takes
    Gauss's sum Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)), taken
    where Re(c - a - b), Re(c), Re(c - a) and Re(c - b) are all > 0.  A
    nonpositive-integer c is only legal when the series terminates strictly
    before the denominator Pochhammer vanishes; otherwise PoleError.
    Non-finite parameters or x, and every other x, raise DomainError.
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
    if term_at is None and abs(x) >= 1.0:
        if x != 1.0:
            raise DomainError(f"non-terminating 2F1 requires |x| < 1 or x = 1, got x = {x}")
        s = c - a - b
        if min(s.real, c.real, (c - a).real, (c - b).real) <= 0.0:
            raise DomainError("Gauss sum needs Re(c - a - b), Re(c), Re(c - a), Re(c - b) > 0")
        from scipy.special import loggamma  # here, not at module level: scipy costs ~0.3 s to import

        return cmath.exp(loggamma(c) + loggamma(s) - loggamma(c - a) - loggamma(c - b))
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    small_streak = 0
    for k in range(_MAX_TERMS):
        num = (a + k) * (b + k)
        if num == 0.0:
            return total
        den = (c + k) * (k + 1)
        if den == 0.0:
            raise PoleError(f"2F1 pole: (c)_k vanished at k = {k + 1}")
        term = term * num * x / den
        total += term
        if abs(term) < _EPS_REL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise NoConvergence(f"2F1 series did not converge within {_MAX_TERMS} terms")


def laguerre_coefficients(m_large: int) -> list[int]:
    """Integer coefficients (2(M-1)-k)! / (k! (M-1-k)!) for k = 0..M-1."""
    _check_count("m_large", m_large)
    mm = m_large - 1
    return [
        math.factorial(2 * mm - k) // (math.factorial(k) * math.factorial(mm - k))
        for k in range(m_large)
    ]
