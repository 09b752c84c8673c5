"""Absolute moments of the asymptotic density and distance measures.

The closed moment formula (a Gauss hypergeometric in c/2 or 2/c depending on
the branch, summed by the private ``specfun._hyp2f1``) is paired with an
independent quadrature oracle built on the density itself; the trace distance is
the first absolute moment halved, the operator norm distance is the upper support
edge over N.
"""

from __future__ import annotations

import cmath
import math
import numbers
from functools import lru_cache, wraps

import numpy as np

from .asym_law import _check_domain, _law_density, _support_intervals, support_points
from .errors import DomainError, QuadratureFailure
from .sampling import _check_count
from .specfun import _gammas, _hyp2f1

__all__ = [
    "absolute_moment",
    "even_moment",
    "trace_distance_asymptotic",
    "operator_norm_asymptotic",
    "distance_to_mixed_asymptotic",
    "moment_via_quadrature",
    "continuous_mass",
]

# Gauss-Legendre orders tried on each sin^2 panel, doubling until two agree.
_GL_ORDERS = tuple(2**k for k in range(5, 11))
_GL_AGREE = 1e-12


def _branch(z: complex, c: float):
    """(prefactor, a, b, c', x) with m_z(c) = prefactor * 2F1(a, b; c'; x) on c's side of 2.

    c >= 2: 2 c^(z-1) * 2F1(1 - z/2, -z; 2; 2/c)
    c < 2:  Gamma(z+1) (2c)^(z/2) / (Gamma(z/2+1) Gamma(z/2+2)) * 2F1(1 - z/2, -z/2; z/2 + 2; c/2)

    Below 2 an even order z = 2l takes the Catalan number C_l = C(2l, l)/(l + 1)
    for the Gamma ratio, exactly, while C_l < 4^l is a float (l <= 511).  The
    power (2c)^l is taken as m^l 2^(e l), 2c = m 2^e, and C_l m^l (>= 2^-511)
    is scaled once, so (2c)^l alone never underflows where C_l (2c)^l is normal.
    """
    if c >= 2.0:
        return 2.0 * c ** (z - 1.0), 1.0 - z / 2.0, -z, 2.0, 2.0 / c
    h = z / 2.0
    if z.imag == 0.0 and z.real % 2.0 == 0.0 and z.real <= 1022.0:
        l = int(h.real)
        m, e = math.frexp(2.0 * c)
        pre = math.ldexp(math.comb(2 * l, l) // (l + 1) * m**l, e * l)
    else:
        pre = _gammas((z + 1.0,), (h + 1.0, h + 2.0), h * math.log(2.0 * c))
    return pre, 1.0 - h, -h, h + 2.0, c / 2.0


def _float_range(fn):
    """Raise DomainError where a moment leaves the float range, by overflow or a non-finite value."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                val = fn(*args, **kwargs)
            except OverflowError:
                val = math.inf
        if not cmath.isfinite(val):
            raise DomainError(f"{fn.__name__}{args} lies beyond the float range")
        return val

    return wrapper


@_float_range
def absolute_moment(z, c: float):
    """Absolute moment m_z = integral |x|^z of the equal-weight density.

    Valid for complex order with Re(z) > 0; the origin point mass contributes
    nothing there.  c >= 2 takes the 2F1 in 2/c, which at c = 2 is Gauss's
    sum; c < 2 takes the 2F1 in c/2.  A terminating series is summed exactly
    at any c: even orders on both sides, every positive integer order above
    c = 2.  Near c = 2 ``_hyp2f1`` takes its argument to 1 through the 1 - x
    connection formula, as c' - a - b = 1 + 3z/2 has Re > 0 on both sides.
    Returns a float for real order, complex otherwise; DomainError for a
    non-numeric z and past the float range.
    """
    if not isinstance(z, numbers.Number):  # complex() would parse a string
        raise DomainError(f"absolute moment requires a numeric order z, got {z!r}")
    zc = complex(z)
    if not (zc.real > 0.0 and cmath.isfinite(zc)):
        raise DomainError(f"absolute moment requires a finite z with Re(z) > 0, got {z!r}")
    _check_domain(c)
    pre, *args = _branch(zc, c)
    val = pre * _hyp2f1(*args)
    return val.real if zc.imag == 0.0 and not isinstance(z, complex) else val


@_float_range
def even_moment(l: int, c: float) -> float:
    """Even moment m_{2l} of the equal-weight law, in closed form.

    The law is the free convolution of Marchenko-Pastur (free Poisson, rate
    1/c, jump c) with its reflection, so its free cumulants are
    kappa_k = (1 + (-1)^k) c^(k-1), and Lagrange inversion of
    f = t (1 + sum_k kappa_k f^k) gives (Nica & Speicher, Lectures on the
    Combinatorics of Free Probability, 2006)

        m_2l = (1/(2l+1)) sum_{j=1..l} C(2l+1, j) C(l-1, j-1) 2^j c^(2l-j),

    l positive terms, so nothing cancels at any c.  The terms are held as
    mantissa and power-of-two exponent (t_1 = 2 c^(2l-1), then the ratio
    (2l+1-j)(l-j) / (j(j+1)) * 2/c), so none overflows before the one
    final scaling, which raises DomainError past the float range.  O(l).
    """
    _check_count("l", l)
    _check_domain(c)
    fc, ec = math.frexp(c)  # c = fc 2^ec exactly
    log_fc = math.log2(fc)
    a, ea = 0.5, 1  # C(2l+1, j) C(l-1, j-1) / (2l+1) = a 2^ea, 1 at j = 1
    mants, exps = [], []
    for j in range(1, l + 1):
        y = (2 * l - j) * log_fc  # fc^(2l-j) = 2^y
        k = math.floor(y)
        mants.append(a * 2.0 ** (y - k))
        exps.append(ea + j + ec * (2 * l - j) + k)
        a, e = math.frexp(a * ((2 * l + 1 - j) * (l - j)) / (j * (j + 1)))
        ea += e
    top = max(exps)
    return math.ldexp(math.fsum(math.ldexp(f, e - top) for f, e in zip(mants, exps)), top)


def _asin_excess(s: float) -> float:
    """h(s) = (asin s - s sqrt(1 - s^2)) / s^3 for 0 < s <= 1.

    Below s = 0.1, where the difference cancels, the series
    2 sum_k C(2k, k) 4^-k s^(2k) / (2k + 3) of d/ds (asin s - s sqrt(1 - s^2))
    = 2 s^2 / sqrt(1 - s^2), integrated term by term; 12 terms reach the unit
    roundoff there.
    """
    if s >= 0.1:
        return (math.asin(s) - s * math.sqrt(1.0 - s * s)) / s**3
    total, term = 0.0, 2.0
    for k in range(12):
        total += term / (2 * k + 3)
        term *= (2 * k + 1) / (2 * k + 2) * s * s
    return total


def trace_distance_asymptotic(c: float) -> float:
    """Limiting trace distance between the two random states.

    (1/(2 pi c)) [(c+1) sqrt((2-c)c) + (4c-2) arcsin(sqrt(c/2))] for c <= 2,
    1 - 1/(2c) above.  Equals absolute_moment(1, c) / 2.  The bracket cancels
    to O(c^(3/2)) at small c, so with s = sqrt(c/2) it is taken as
    s (4 sqrt(1 - s^2) + 8 asin(s)/s - 2 h(s)) / (4 pi), h from ``_asin_excess``,
    which keeps full relative precision down to the smallest c.
    """
    _check_domain(c)
    if c > 2.0:
        return 1.0 - 0.5 / c
    s = math.sqrt(0.5 * c)
    bracket = 4.0 * math.sqrt(1.0 - s * s) + 8.0 * math.asin(s) / s - 2.0 * _asin_excess(s)
    return s * bracket / (4.0 * math.pi)


def operator_norm_asymptotic(c: float, n: int) -> float:
    """Limiting operator norm of the difference: x_plus(c) / n."""
    _check_count("n", n)
    _, x_plus = support_points(c)
    return x_plus / n


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_legendre  # here, not at module level: scipy costs ~0.3 s to import

    return roots_legendre(n)


def _mp_quad(f, lo: float, hi: float) -> tuple[float, float]:
    """Integral of f against sqrt-edged weight on [lo, hi] via sin^2 substitution.

    x = lo + (hi - lo) sin^2(theta) turns square-root edges into smooth
    endpoints.  f takes an array and is evaluated once per Gauss-Legendre
    order in theta; the order doubles from 32 until two orders agree to
    1e-12 (relative above 1) or reaches 1024.  Returns (value, the last
    difference as error estimate).
    """
    span = hi - lo
    if span <= 0.0:
        return 0.0, 0.0
    val = math.nan
    for n in _GL_ORDERS:
        t, w = _gauss_legendre(n)
        th = 0.25 * math.pi * (t + 1.0)
        g = f(lo + span * np.sin(th) ** 2) * span * np.sin(2.0 * th)
        prev, val = val, 0.25 * math.pi * float(np.dot(w, g))
        if abs(val - prev) <= _GL_AGREE * max(1.0, abs(val)):
            break
    return val, abs(val - prev)


def distance_to_mixed_asymptotic(c: float) -> float:
    """Limiting trace distance between one random state and the mixed state.

    Half of E|x - 1| under the rescaled single-matrix law, atom included,
    which is E(x - 1)_+ as E x = 1.  From c = 4 the continuous support lies
    at x >= 1, so it is exactly 1 - 1/c; below, ``_mp_quad`` integrates
    (x - 1) times the density over [1, x_+] in t = (x - 1)/sqrt(c), on
    [0, 2 + sqrt(c)], so the panel keeps its width as c -> 0:

        sqrt(c) int t sqrt((t + 2 - sqrt c)(2 + sqrt c - t)) / (2 pi (1 + sqrt(c) t)) dt.
    """
    _check_domain(c)
    if c >= 4.0:
        return 1.0 - 1.0 / c
    r = math.sqrt(c)

    def integrand(t):
        edges = np.maximum((t + 2.0 - r) * (2.0 + r - t), 0.0)
        return t * np.sqrt(edges) / (2.0 * math.pi * (1.0 + r * t))

    return r * _mp_quad(integrand, 0.0, 2.0 + r)[0]


def _against_density(f, c: float, eta: float) -> tuple[float, float]:
    """(integral, error estimate) of f(x) times the continuous density.

    f and the density are evaluated on all nodes of a panel at once.  Support
    intervals are split at 0, where |x|^z has its kink.  For equal weights
    only the pieces at x >= 0 are integrated and doubled, so f must be even.
    """
    pieces = []
    for lo, hi in _support_intervals(c, eta):
        pieces += [(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)]
    fold = 1.0
    if eta == 1.0:
        pieces, fold = [(lo, hi) for lo, hi in pieces if lo >= 0.0], 2.0  # the density is even
    val = err = 0.0
    for lo, hi in pieces:
        v, e = _mp_quad(lambda x: f(x) * _law_density(x, c, eta), lo, hi)
        val += fold * v
        err += fold * e
    return val, err


def continuous_mass(c: float, eta: float = 1.0) -> float:
    """Total mass of the continuous part (1, or 2/c past the atom transition)."""
    _check_domain(c, eta)
    return _against_density(np.ones_like, c, eta)[0]


@_float_range
def moment_via_quadrature(z: float, c: float, eta: float = 1.0) -> float:
    """Quadrature oracle for the absolute moment, independent of the closed form.

    Integrates |x|^z against the density with a sin^2 substitution absorbing
    the square-root edge vanishing.  Raises QuadratureFailure if the error
    estimate (the gap between the last two Gauss-Legendre orders) exceeds
    1e-7 of the result, and DomainError past the float range.
    """
    if not (isinstance(z, numbers.Real) and 0.0 < z < math.inf):
        raise DomainError(f"z must be real, finite and positive, got {z!r}")
    _check_domain(c, eta)
    val, err = _against_density(lambda x: np.abs(x) ** z, c, eta)
    if err > 1e-7 * max(1.0, abs(val)):
        raise QuadratureFailure(
            f"estimated quadrature error {err:.2e} too large for m_{z}({c})"
        )
    return val
