"""Self-contained special functions: complex log-gamma, Gauss 2F1, Laguerre-type weights.

Everything here is scalar, pure and stateless.  The hypergeometric evaluator
only implements the convergent power series |x| < 1 plus exact termination at
nonpositive-integer numerator parameters; that covers every argument used by
the eigenvalue laws and moment formulas in this package (arguments c/2, 2/c,
c/(c-2) with terminating series, and 4a/(1+4a)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import DomainError, NoConvergence, PoleError

__all__ = [
    "ln_gamma_complex",
    "HypergeometricQuery",
    "gauss_2f1",
    "hyp2f1",
    "laguerre_coefficients",
]

# Lanczos approximation, g = 7, 9 coefficients.  Relative accuracy of the
# resulting log-gamma is ~1e-15 on the half-plane Re(z) > 0.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def ln_gamma_complex(z: complex) -> complex:
    """Principal branch of log Gamma(z) for Re(z) > 0.

    Uses the Lanczos series directly for Re(z) >= 0.5 and one step of the
    recurrence log Gamma(z) = log Gamma(z+1) - log z below that.  Reflection
    (Re(z) <= 0) is deliberately not implemented.
    """
    z = complex(z)
    if z.real <= 0.0:
        raise DomainError(f"ln_gamma_complex requires Re(z) > 0, got {z}")
    if z.real < 0.5:
        return ln_gamma_complex(z + 1.0) - cmath.log(z)
    w = z - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, 9):
        acc += _LANCZOS_COEF[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)


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


@dataclass(frozen=True)
class HypergeometricQuery:
    """Parameters (a, b; c_param) and real argument x for a 2F1 evaluation.

    Termination is resolved once at construction: ``terminates_at`` is the
    index of the last nonzero series term when a or b is a nonpositive
    integer, else None.  A nonpositive-integer c_param is only legal when the
    series terminates strictly before the denominator Pochhammer vanishes
    (the b-before-c ordering needed for the finite-dimension marginal law).
    """

    a: complex
    b: complex
    c_param: complex
    x: float
    terminates_at: int | None = field(init=False)

    def __post_init__(self):
        za = _pochhammer_zero_index(self.a)
        zb = _pochhammer_zero_index(self.b)
        if za is not None and zb is not None:
            term = min(za, zb)
        elif za is not None:
            term = za
        else:
            term = zb
        object.__setattr__(self, "terminates_at", term)
        zc = _pochhammer_zero_index(self.c_param)
        if zc is not None and (term is None or term > zc):
            raise PoleError(
                "2F1 denominator parameter c = %s hits a pole at term %d "
                "before the series terminates" % (self.c_param, zc + 1)
            )
        if term is None and abs(self.x) >= 1.0:
            raise DomainError(
                f"non-terminating 2F1 series requires |x| < 1, got x = {self.x}"
            )


eps_rel = 1e-16
_MAX_TERMS = 100_000


def gauss_2f1(q: HypergeometricQuery) -> complex:
    """Evaluate 2F1(a, b; c; x) by direct power-series summation.

    Terminates exactly when a numerator Pochhammer vanishes; otherwise sums
    until two consecutive terms fall below 1e-16 of the partial sum.
    """
    a, b, c, x = complex(q.a), complex(q.b), complex(q.c_param), q.x
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    small_streak = 0
    for k in range(_MAX_TERMS):
        if q.terminates_at is not None and k > q.terminates_at:
            return total
        num = (a + k) * (b + k)
        if num == 0.0:
            return total
        den = (c + k) * (k + 1)
        if den == 0.0:
            raise PoleError(f"2F1 pole: (c)_k vanished at k = {k + 1}")
        term = term * num * x / den
        total += term
        if abs(term) < eps_rel * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise NoConvergence(f"2F1 series did not converge within {_MAX_TERMS} terms")


def hyp2f1(a, b, c, x) -> complex:
    """Shorthand for gauss_2f1 on an ad-hoc query."""
    return gauss_2f1(HypergeometricQuery(a, b, c, float(x)))


def hyp2f1_at_one(a, b, c) -> complex:
    """Boundary value 2F1(a, b; c; 1) by Gauss's summation theorem.

    Equals Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)), valid for
    Re(c - a - b) > 0.  This is the classical closed form of the convergent
    value at x = 1, not an analytic continuation beyond the unit interval.
    """
    a, b, c = complex(a), complex(b), complex(c)
    s = c - a - b
    if s.real <= 0.0:
        raise DomainError("Gauss summation requires Re(c - a - b) > 0")
    lg = (
        ln_gamma_complex(c)
        + ln_gamma_complex(s)
        - ln_gamma_complex(c - a)
        - ln_gamma_complex(c - b)
    )
    return cmath.exp(lg)


def laguerre_coefficients(m_large: int) -> list[int]:
    """Integer coefficients (2(M-1)-k)! / (k! (M-1-k)!) for k = 0..M-1."""
    if m_large < 1:
        raise DomainError("m_large must be >= 1")
    mm = m_large - 1
    return [
        math.factorial(2 * mm - k) // (math.factorial(k) * math.factorial(mm - k))
        for k in range(m_large)
    ]
