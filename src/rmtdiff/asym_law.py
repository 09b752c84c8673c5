"""Asymptotic eigenvalue density of the rescaled difference spectrum.

For x = N * lambda and c = N/M fixed, the limiting spectral measure of
rho1 - rho2 is the free additive convolution of a Marchenko-Pastur law with
its reflection.  Its Cauchy transform G satisfies a cubic equation
(``cauchy_transform`` returns the physical root at Im z > 0, the one of
smallest Im G), and the density is -Im G(x + i0)/pi.  The symmetric case
(equal weights) has the closed form implemented in ``aed_symmetric``: one
set of per-c constants, cached, read by a float path for scalars and a NumPy
path for arrays that give the same bits.  ``aed_curve`` (the weighted case
eta = q/p != 1, and equal weights as a check) inverts the cubic at all real
query points at once in real arithmetic: for real x its coefficients are
real, so inside the support G(x + i0) is one of a complex-conjugate pair of
roots and the density is that pair's |Im G|/pi, with no step off the real
axis.  Real Cardano gives the real root and the pair's imaginary part
without cancellation; where the real root is the largest, the pair comes
from Vieta's formulas instead.  The complex solver is ``cauchy_transform``'s
alone.  The support is one sorted array of edges, found once per (c, eta)
from the real roots of the cubic's discriminant, a quartic in z: interval k
is [e[2k], e[2k+1]] (``find_support_numeric``), and the density reads
exactly 0 outside them.  The origin atom is max(1 - 2/c, 0) for every eta
because rank Z = min(N, 2M).
Both densities lose about c u relative accuracy (u the unit roundoff) at
large c, and their quadrature mass drifts from 1 at small c, so they raise
``DomainError`` above c = 1e7 and below c = 3e-10, and the weighted density
likewise outside eta in [1e-8, 1e8]; so does every route through them
(``aed_grid``, ``find_support_numeric``, ``moments.continuous_mass``,
``moment_via_quadrature``).

Conventions: the weighted density is expressed in units of the normalized
difference rho1 - eta*rho2.  Rescaling back to p*rho1 - q*rho2 multiplies
abscissas by p and divides densities by p.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError
from .sampling import _check_count

__all__ = [
    "support_points",
    "atom_weight",
    "aed_symmetric",
    "cauchy_transform",
    "aed_curve",
    "marchenko_pastur",
    "r_transform_sum",
    "AedResult",
    "aed_grid",
    "find_support_numeric",
]

_SQRT3 = math.sqrt(3.0)

# Query points per block of ``_real_density``, whose float temporaries then stay
# at 32 kB each.  Medians of 300 interleaved calls on a 2-core Xeon VM with
# numpy 2.4, one pass -> blocks of 4096: 0.668 -> 0.556 ms at 6902 points and
# 2.98 -> 2.15 ms at 24904; blocks of 2048 gained less (0.650 and 2.64 ms).
_DENSITY_BLOCK = 4096

# The three cube roots of unity, one per root of the cubic.
_OMEGA = np.exp(2j * np.pi * np.arange(3) / 3.0)

# Largest c at which the densities are evaluated.  Both lose about c u
# relative accuracy (u the unit roundoff): against 2/c, the quadrature mass
# of the continuous part is off by at most 4.7e-10 at c = 1e7 (eta from 0.2
# to 5), 1.8e-9 at 2.2e7 (eta = 5) and 1.4e-9 at 1e8 (eta = 1).
_C_MAX = 1e7
# Smallest such c: from c = 3e-10 up the quadrature mass is within 5.2e-10 of 1
# (eta from 0.05 to 20); it is off by 1.2e-9 at 2.5e-10 and 1.9e-9 at 1e-10.
_C_MIN = 3e-10
# Largest eta, and 1/eta the smallest: over c from 3e-10 to 1e7 the atom plus the
# quadrature mass is within 3.7e-12 of 1 at eta = 1e8 and 3.6e-11 at 1e-8, but off
# by 4.1e-9 at 1e9 and 1e-9 (worst at c = 1).
_ETA_MAX = 1e8


def _check_domain(c: float, eta: float = 1.0, x=0.0) -> None:
    """Raise DomainError unless c, eta are finite and positive and x (scalar or array) is finite."""
    if not 0.0 < c < math.inf:
        raise DomainError(f"c must be finite and positive, got {c!r}")
    if not 0.0 < eta < math.inf:
        raise DomainError(f"eta must be finite and positive, got {eta!r}")
    if not (np.isfinite(x).all() if isinstance(x, np.ndarray) else math.isfinite(x)):
        raise DomainError("x must be finite")


def _check_density_c(c: float, eta: float = 1.0) -> None:
    """Raise DomainError for c outside [``_C_MIN``, ``_C_MAX``] or eta outside
    [1/``_ETA_MAX``, ``_ETA_MAX``], where the densities lose more than 1e-9."""
    if c > _C_MAX:
        raise DomainError(f"c = {c!r} exceeds {_C_MAX:g}, past which the density loses accuracy")
    if c < _C_MIN:
        raise DomainError(f"c = {c!r} is below {_C_MIN:g}, under which the density loses accuracy")
    if not 1.0 / _ETA_MAX <= eta <= _ETA_MAX:
        raise DomainError(f"eta = {eta!r} lies outside [{1.0 / _ETA_MAX:g}, {_ETA_MAX:g}], "
                          "past which the density loses accuracy")


def support_points(c: float) -> tuple[float | None, float]:
    """Support endpoints (x_minus, x_plus) of the continuous density.

    x_plus = (1/4) (s + 3)^{3/2} (s - 1)^{1/2} always, s = sqrt(4c+1);
    the inner edge x_minus = (1/4) (s - 3)^{3/2} (s + 1)^{1/2} exists only
    for c > 2 (it is 0 at c = 2 and the corresponding square is negative
    below that).  s - 1 is taken as 4c/(s + 1) and s - 3 as 4(c - 2)/(s + 3),
    which cancel nothing as c -> 0 or c -> 2.
    """
    _check_domain(c)
    s = math.sqrt(4.0 * c + 1.0)
    x_plus = 0.25 * (s + 3.0) ** 1.5 * (4.0 * c / (s + 1.0)) ** 0.5
    if c >= 2.0:
        x_minus = 0.25 * (4.0 * (c - 2.0) / (s + 3.0)) ** 1.5 * (s + 1.0) ** 0.5
        return x_minus, x_plus
    return None, x_plus


def _eta_excess(x, c: float):
    """(eta(x) - 1) / x^2 for eta(x) = (9(c+1)x^2 + u^3) / (u^2 + 3x^2)^{3/2}, u = 2 - c.

    Below the transition (u > 0) eta - 1 is
    x^2 [13.5c - 9x^2 (s + 1/2) / (u (s+1)^2)] / (u^2 + 3x^2)^{3/2} with
    s = sqrt(1 + 3x^2/u^2), which cancels nothing as x -> 0 or c -> 0.
    Powers are products, and a float x takes ``math.sqrt``, which rounds as
    ``np.sqrt`` does, so a float and an array give the same bits.
    """
    sqrt = np.sqrt if isinstance(x, np.ndarray) else math.sqrt
    u = 2.0 - c
    x2 = x * x
    q = u * u + 3.0 * x2
    r = q * sqrt(q)
    if u <= 0.0:
        return ((9.0 * (c + 1.0) * x2 + u**3) / r - 1.0) / x2
    s = sqrt(1.0 + 3.0 * x2 / (u * u))
    return (13.5 * c - 9.0 * x2 * (s + 0.5) / (u * (s + 1.0) * (s + 1.0))) / r


@functools.lru_cache(maxsize=256)
def _symmetric_constants(c: float) -> tuple[float, float, float, float, float]:
    """(lo, hi, u, origin, x_flat) of the equal-weight density at c, computed once per c.

    The density is positive for lo < |x| < hi (lo = x_minus, or 0 up to
    c = 2), u = 2 - c, origin is its value at x = 0 (finite below the
    transition, the integrable |x|^(-1/3) divergence at it, in the gap above)
    and below x_flat the relative x^2 term (c + 1/2) x^2 / (c u^3) is under
    2^-54, so the density rounds to origin there.  c outside [``_C_MIN``,
    ``_C_MAX``] raises ``DomainError``.
    """
    _check_domain(c)
    _check_density_c(c)
    x_minus, x_plus = support_points(c)
    u = 2.0 - c
    origin = 0.0 if u < 0.0 else math.inf if u == 0.0 else 1.0 / (math.pi * math.sqrt(c * u))
    x_flat = math.sqrt(2.0**-54 * c * u**3 / (c + 0.5)) if u > 0.0 else 0.0
    return x_minus or 0.0, x_plus, u, origin, x_flat


# Scalars that ``aed_symmetric`` evaluates in float arithmetic; anything else is an array.
_REAL_SCALARS = (float, int, np.floating, np.integer)


def aed_symmetric(x, c: float):
    """Continuous part of the equal-weight asymptotic density at x (scalar or array).

    Inside the support the value is
    sqrt((2-c)^2 + 3x^2) / (sqrt(3) pi c |x|) * sinh(l(x)/3) with
    l = arccosh(eta(x)); outside it is 0.  The point mass at the origin for
    c > 2 is reported separately by ``atom_weight``.  arccosh is taken as
    log1p(d + sqrt(d(d+2))) of d = eta - 1 from ``_eta_excess``, so the
    value keeps its relative precision at small c and near x = 0, where
    the exact limit 1/(pi sqrt(c(2-c))) is returned once |x| is too small to
    change it.  At c = 2 the value follows (6 sqrt(3)/|x|)^(1/3)/(4 pi) down
    to the smallest subnormal |x|, and is inf at x = 0.  An array (a 0-d
    array or a list too) keeps its shape; a scalar gives a float, bit for bit
    the array's entry.  c outside [``_C_MIN``, ``_C_MAX``] = [3e-10, 1e7]
    raises ``DomainError``.

    Both paths read the per-c constants of ``_symmetric_constants``.  A
    scalar is evaluated in float arithmetic, returning 0 or the origin value
    before any 0/0 or square root of a negative can arise; ``math.sqrt`` is
    correctly rounded, as ``np.sqrt`` is.  ``log1p``, ``sinh`` and ``log``
    stay NumPy ufuncs on the float: ``math.log1p`` differs from ``np.log1p``
    in the last bit at a few per cent of points, which would break the
    scalar's bit identity with the array.
    """
    lo, hi, u, origin, x_flat = _symmetric_constants(c)
    if isinstance(x, _REAL_SCALARS):
        ax = abs(float(x))
        if not math.isfinite(ax):
            raise DomainError("x must be finite")
        if ax <= x_flat:
            return origin
        if ax <= lo or ax >= hi:
            return 0.0
        if u == 0.0:  # hi = 3 sqrt(3) exactly, so r <= 1
            r = ax / (3.0 * _SQRT3)
            ell = np.log1p(math.sqrt((1.0 - r) * (1.0 + r))) + math.log(3.0 * _SQRT3) - np.log(ax)
            pre = 1.0 / (2.0 * math.pi)
        else:
            d = _eta_excess(ax, c)
            if not d >= 0.0:  # rounding just inside an edge
                return 0.0
            t = ax * math.sqrt(d)
            ell = np.log1p(t * (t + math.sqrt(t * t + 2.0)))
            pre = math.sqrt(u * u + 3.0 * ax * ax) / (_SQRT3 * math.pi * c * ax)
        return float(pre * np.sinh(ell / 3.0))
    ax = np.abs(np.asarray(x, dtype=float))
    _check_domain(c, 1.0, ax)
    with np.errstate(all="ignore"):
        if u == 0.0:  # eta = 3 sqrt(3)/|x|: arccosh eta = log(eta) + log1p(sqrt(1 - 1/eta^2))
            r = ax / (3.0 * _SQRT3)  # neither x^2 nor 1/|x| appears, so none over- or underflows
            ell = np.log1p(np.sqrt((1.0 - r) * (1.0 + r))) + math.log(3.0 * _SQRT3) - np.log(ax)
            pre = 1.0 / (2.0 * math.pi)
        else:
            t = ax * np.sqrt(_eta_excess(ax, c))  # sqrt(d), free of underflow in x^2
            ell = np.log1p(t * (t + np.sqrt(t * t + 2.0)))
            pre = np.sqrt(u * u + 3.0 * ax * ax) / (_SQRT3 * math.pi * c * ax)
        val = np.asarray(pre * np.sinh(ell / 3.0))  # 0-d for a 0-d x, masked in place below
    val[np.isnan(val) | (ax <= lo) | (ax >= hi)] = 0.0
    val[ax <= x_flat] = origin  # pre would overflow at subnormal |x|
    return float(val) if val.ndim == 0 else val


def atom_weight(c: float, eta: float = 1.0) -> float:
    """Weight of the point mass at the origin.

    max(1 - 2/c, 0) for every eta: p rho1 - q rho2 is a combination of two
    N x N matrices of rank at most M, so its rank is min(N, 2M) almost surely
    whatever the weights.
    """
    _check_domain(c, eta)
    return max(1.0 - 2.0 / c, 0.0)


def _cubic_coefficients(c: float, eta: float) -> np.ndarray:
    """Coefficients (a3, a2, a1, a0) of the Cauchy-transform cubic in G, as a (4, 2) table
    of rows (u, v) with a_k = u_k + v_k z.

    Obtained by clearing denominators in R(G) + 1/G = z with
    R(g) = 1/(1-cg) - eta/(1+eta c g).
    """
    return np.array([
        (0.0, eta * c * c),
        (c * eta * (2.0 - c), c * (1.0 - eta)),
        ((1.0 - eta) * (1.0 - c), -1.0),
        (1.0, 0.0),
    ])


def _depressed_cubic(z, c: float, eta: float):
    """The Cauchy cubic in h = 1/G at each z, exactly scaled and depressed: (a1, a2, a3, p3, w, inv).

    With h = 1/G the cubic is the monic h^3 + a1 h^2 + a2 h + a3, which stays
    well scaled as a3 = eta c^2 z -> 0 sends one G root to infinity.  Each
    point's cubic is taken in h/sigma, with sigma the power of two in (m, 2m],
    m = max(|a1|, |a2|^(1/2), |a3|^(1/3)), so that its coefficients are exactly
    scaled to at most 1: w^2 and p3^3 then do not underflow as z -> 0, where at
    c = 2, eta = 1 all three coefficients scale with z.  inv = 1/sigma (1 where
    all coefficients vanish).  With h/sigma = t - a1/3 the cubic is the
    depressed t^3 + 3 p3 t - 2 w.  z is real or complex, of any shape.
    """
    a3, a2, a1 = (u + v * z for u, v in _cubic_coefficients(c, eta)[:3])
    size = np.maximum(np.maximum(np.abs(a1), np.sqrt(np.abs(a2))), np.cbrt(np.abs(a3)))
    inv = np.ldexp(1.0, -np.frexp(size)[1])  # 1/sigma; 1 where size is 0
    a1, a2, a3 = a1 * inv, a2 * inv * inv, a3 * inv * inv * inv
    p3 = (a2 - a1 * a1 / 3.0) / 3.0
    w = -(a1 * (2.0 * a1 * a1 - 9.0 * a2) / 27.0 + a3) / 2.0
    return a1, a2, a3, p3, w, inv


def _solve_cubics(z: np.ndarray, c: float, eta: float) -> np.ndarray:
    """Roots (K, 3) of the Cauchy cubic at K complex query points, in closed form.

    Cardano on ``_depressed_cubic`` takes the larger of |w +- s|,
    s^2 = w^2 + p3^3, as u^3 so that the sum does not cancel;
    t = u omega^k - p3/(u omega^k).  Only h0, the root of largest |h|, is
    kept: the smaller two can cancel in t - a1/3.  They solve h^2 - s h + p
    with p = -a3/h0 and s = (a2 - p)/h0 (Vieta), as q = s/2 +- sqrt(s^2/4 - p)
    with the sign of larger |q| and p/q, so no step subtracts O(1) terms
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 1.8).
    """
    z = np.asarray(z, dtype=complex).ravel()[:, None]
    a1, a2, a3, p3, w, inv = _depressed_cubic(z, c, eta)
    s = np.sqrt(w * w + p3 * p3 * p3)
    s = np.where((w.conj() * s).real >= 0.0, s, -s)
    u = (w + s) ** (1.0 / 3.0) * _OMEGA
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(u == 0.0, 0.0, u - p3 / u) - a1 / 3.0  # u = 0: triple root
    h0 = np.take_along_axis(h, np.argmax(np.abs(h), axis=1)[:, None], axis=1)
    p = -a3 / h0
    half = (a2 - p) / (2.0 * h0)
    r = np.sqrt(half * half - p)
    q = half + np.where((half.conj() * r).real >= 0.0, r, -r)
    return inv / np.hstack((h0, q, np.where(q == 0.0, 0.0, p / q)))


def _real_density(x: np.ndarray, c: float, eta: float) -> np.ndarray:
    """|Im G|/pi of the Cauchy cubic's complex pair at real x (1-D), in real arithmetic.

    For real x the depressed cubic of ``_depressed_cubic`` is real.  With
    s = sqrt(max(w^2 + p3^3, 0)), A = cbrt(w + s sign(w)) and B = -p3/A (no
    cancellation in A), the real root is h_r = A + B - a1/3 and the pair is
    -(A + B)/2 - a1/3 +- i sqrt(3) s / (A^2 + AB + B^2), from
    A^3 - B^3 = (A - B)(A^2 + AB + B^2); that denominator is at least
    (A^2 + B^2)/2, so nothing cancels near a support edge.  Where the real
    root is the largest, the pair's real part may cancel, so the pair comes
    from Vieta instead: |h|^2 = P = -a3/h_r, Re h = (a2 - P)/(2 h_r) and
    Im h = sqrt(P - Re h^2) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 1.8).  Then |Im G| = |Im h|/|h|^2.  A pair at
    h = 0 (G infinite, at x = 0 when c = 2) reads 0.  The value is not masked:
    outside the support it is rounding, which the caller sets to 0.
    """
    if x.size > _DENSITY_BLOCK:
        blocks = range(0, x.size, _DENSITY_BLOCK)
        return np.concatenate([_real_density(x[i : i + _DENSITY_BLOCK], c, eta) for i in blocks])
    a1, a2, a3, p3, w, inv = _depressed_cubic(x, c, eta)
    s = np.sqrt(np.maximum(w * w + p3 * p3 * p3, 0.0))
    big = np.cbrt(w + np.copysign(s, w))
    small = np.divide(-p3, big, out=np.zeros_like(big), where=big != 0.0)  # big = 0: triple root
    den = big * big + big * small + small * small
    im = np.divide(_SQRT3 * s, den, out=np.zeros_like(den), where=den > 0.0)
    both = big + small
    re = -0.5 * both - a1 / 3.0
    h_r = both - a1 / 3.0
    mod2 = re * re + im * im
    vieta = h_r * h_r > mod2
    h_r = h_r[vieta]
    prod = -a3[vieta] / h_r
    half = (a2[vieta] - prod) / (2.0 * h_r)
    im[vieta] = np.sqrt(np.maximum(prod - half * half, 0.0))
    mod2[vieta] = prod
    return np.divide(inv * im, math.pi * mod2, out=np.zeros_like(im), where=mod2 > 0.0)


def cauchy_transform(z: complex, c: float, eta: float = 1.0) -> complex:
    """Cauchy transform G(z) of the asymptotic law at one point with Im z > 0.

    G is the root of the cubic with the smallest imaginary part: the physical
    branch has Im G < 0 in the upper half-plane and tends to 1/z at infinity.
    """
    z = complex(z)
    _check_domain(c, eta, abs(z))
    if z.imag <= 0.0:
        raise DomainError("query point must lie in the upper half-plane")
    roots = _solve_cubics(np.array([z]), c, eta)[0]
    return complex(roots[np.argmin(roots.imag)])


@functools.lru_cache(maxsize=256)
def _support_geometry(c: float, eta: float) -> np.ndarray:
    """The sorted edges where the density switches on or off: interval k is [e[2k], e[2k+1]].

    The candidates are the real roots of the discriminant.  A gap between
    two of them is outside where the discriminant is >= 0 at its midpoint
    (three real roots, G real), and so are the two unbounded ends; a root is
    an edge where its two gaps differ, so double roots inside the support or
    inside a gap drop out.  ``support_points`` is not used, so that the
    closed form and the inversion stay independent.  Computed once per
    (c, eta); the array is read-only, as every caller shares it.
    """
    disc, roots = _discriminant(c, eta)
    mid = np.polynomial.polynomial.polyval(0.5 * (roots[:-1] + roots[1:]), disc)
    outside = np.concatenate(([True], mid >= 0.0, [True]))
    edges = roots[outside[:-1] != outside[1:]]
    edges.setflags(write=False)
    return edges


def aed_curve(xs, c: float, eta: float = 1.0):
    """Continuous density at xs (scalar or any shape) by Stieltjes inversion on the real axis.

    For real x the cubic is real, so inside the support G(x + i0) is one of a
    complex-conjugate pair and the density is that pair's |Im G|/pi, found
    in real arithmetic (``_real_density``): Cardano gives the real root and
    the pair's imaginary part without cancellation, and where the real root
    is the largest the pair comes from Vieta.  The edges of
    ``_support_geometry`` alone decide where the value is exactly 0 (where
    ``searchsorted`` gives an even index); the origin atom is excluded, as in
    ``aed_symmetric``.  At c = 2 the origin itself, where the density is
    unbounded, reads 0.  Equal weights are solved at |x|.  An array keeps its
    shape; a scalar gives a float.  c outside [``_C_MIN``, ``_C_MAX``] =
    [3e-10, 1e7], or eta outside [1e-8, 1e8], raises ``DomainError``.
    """
    xs = np.asarray(xs, dtype=float)
    _check_domain(c, eta, xs)
    _check_density_c(c, eta)
    flat = np.abs(xs.ravel()) if eta == 1.0 else xs.ravel()
    outside = np.searchsorted(_support_geometry(float(c), float(eta)), flat) % 2 == 0
    out = np.where(outside, 0.0, _real_density(flat, c, eta)).reshape(xs.shape)
    return float(out) if out.ndim == 0 else out


def marchenko_pastur(x: float, c: float) -> tuple[float, float]:
    """(continuous density, origin atom weight) of the rescaled single-matrix law.

    Support [(1-sqrt(c))^2, (1+sqrt(c))^2]; the atom max(1 - 1/c, 0) carries
    the rank deficiency when c > 1.
    """
    _check_domain(c, x=x)
    atom = max(1.0 - 1.0 / c, 0.0)
    lo = (1.0 - math.sqrt(c)) ** 2
    hi = (1.0 + math.sqrt(c)) ** 2
    if x <= lo or x >= hi:
        return 0.0, atom
    return math.sqrt((x - lo) * (hi - x)) / (2.0 * math.pi * c * x), atom


def r_transform_sum(g: complex, c: float, eta: float = 1.0) -> complex:
    """Sum of the two component R-transforms: 1/(1-cg) - eta/(1+eta c g)."""
    g = complex(g)
    _check_domain(c, eta)
    if not cmath.isfinite(g):
        raise DomainError(f"g must be finite, got {g}")
    if 1.0 - c * g == 0.0 or 1.0 + eta * c * g == 0.0:
        raise PoleError("R-transform pole at cg = 1 or eta c g = -1")
    return 1.0 / (1.0 - c * g) - eta / (1.0 + eta * c * g)


def _discriminant(c: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients, lowest first, of the Cauchy cubic's discriminant as a quartic in z,
    and its sorted real roots.

    18 a3 a2 a1 - 4 a2^3 + a2^2 a1^2 - 4 a3 a1^3 - 27 a3^2 is built from the
    linear rows of ``_cubic_coefficients`` with ``numpy.polynomial.Polynomial``.
    """
    a3, a2, a1 = (np.polynomial.Polynomial(row) for row in _cubic_coefficients(c, eta)[:3])
    disc = (18.0 * a3 * a2 * a1 - 4.0 * a2**3 + a2**2 * a1**2 - 4.0 * a3 * a1**3 - 27.0 * a3**2).coef
    roots = np.polynomial.polynomial.polyroots(disc)
    return disc, np.unique(roots.real[np.abs(roots.imag) <= 1e-7 * np.max(np.abs(roots))])


def find_support_numeric(c: float, eta: float) -> list[tuple[float, float]]:
    """Intervals where the weighted continuous density is positive.

    Edges are where two roots of the Cauchy cubic meet: the real roots of
    its discriminant, a quartic in z (Rao & Edelman's polynomial method,
    Found. Comput. Math. 2008).  A gap between consecutive roots is support
    if at its midpoint the discriminant is negative (a complex pair), and
    the intervals are consecutive pairs of ``_support_geometry``'s edges,
    the ones ``aed_curve`` masks with.  c outside [``_C_MIN``, ``_C_MAX``] =
    [3e-10, 1e7], or eta outside [1e-8, 1e8], raises ``DomainError``.
    """
    _check_domain(c, eta)
    _check_density_c(c, eta)
    edges = _support_geometry(float(c), float(eta)).tolist()
    return list(zip(edges[::2], edges[1::2]))


@dataclass(frozen=True)
class AedResult:
    """Continuous density sampled on a grid plus the origin point mass."""

    grid: np.ndarray
    density: np.ndarray
    atom_weight: float
    x_minus: float | None
    x_plus: float
    c: float
    eta: float = 1.0

    def trapezoid_mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid))

    def to_csv(self, path) -> None:
        """Write `x,density` rows plus `# key=value` lines, `atom_weight` last."""
        from .harness import write_xy_csv  # here: harness imports this module

        xm = math.nan if self.x_minus is None else self.x_minus
        meta = dict(x_minus=xm, x_plus=self.x_plus, c=self.c, eta=self.eta,
                    atom_weight=self.atom_weight)
        write_xy_csv(path, "x,density", [self.grid, self.density],
                     {k: "%.17g" % v for k, v in meta.items()})


def _interval_grid(a: float, b: float, k: int) -> np.ndarray:
    """sin^2-in-theta node placement: clusters at both interval endpoints.

    The density vanishes like a square root at support edges, where uniform
    trapezoid spacing converges hopelessly slowly; this map restores O(k^-2).
    """
    th = np.linspace(0.0, 0.5 * math.pi, k)
    return a + (b - a) * np.sin(th) ** 2


def _support_grid(intervals, lo, hi, count, origin_scales):
    """Interval nodes plus a geometric cluster, mirrored about the origin, on each origin scale."""
    k = max(501, count // max(len(intervals), 1))
    extra = np.outer(origin_scales, np.geomspace(1e-13, 0.3, 400)).ravel()
    pts = [np.linspace(lo, hi, 101), extra, -extra]
    for a, b in intervals:
        pts.append(_interval_grid(a, b, k))
    return np.unique(np.concatenate(pts))


def _support_intervals(c: float, eta: float) -> list[tuple[float, float]]:
    """Ascending support intervals: the mirror pair of ``support_points`` (meeting at
    the origin below c = 2) for equal weights, else ``find_support_numeric``.  c or eta
    outside the range of ``_check_density_c`` raises ``DomainError``."""
    _check_density_c(c, eta)
    if eta == 1.0:
        x_minus, x_plus = support_points(c)
        return [(-x_plus, -(x_minus or 0.0)), (x_minus or 0.0, x_plus)]
    return find_support_numeric(c, eta)


def _law_density(x, c: float, eta: float):
    """Continuous density at x: the closed form for equal weights, the cubic otherwise."""
    return aed_symmetric(x, c) if eta == 1.0 else aed_curve(x, c, eta)


def aed_grid(c: float, eta: float = 1.0, *, count: int = 6001) -> AedResult:
    """Tabulate the asymptotic density on an edge-aware grid.

    Equal weights use the closed form; eta != 1 inverts the cubic on the
    real axis at every node (``aed_curve``), over the discriminant support.
    Nodes are sin^2-clustered at every support edge and geometrically
    clustered at the origin, so that atom_weight plus the trapezoid integral
    of the stored continuous part reproduces unit mass to within 5e-6
    (measured over c in [1e-3, 50] and eta in [0.2, 5]; within 5e-7 where
    |c - 2| >= 0.2).  The critical ratio c = 2 carries an integrable
    divergence at the origin (|x|^(-1/3) for equal weights, one-sided
    |x|^(-1/2) otherwise) and gets a grid four times denser, without the
    origin node itself; its origin cluster takes the scale of each side,
    -lo and hi, which part like eta, so the narrow side's spike is resolved.
    At the ends of the eta range, 1e-8 and 1e8, the same c grid gives 4.8e-6
    (at c = 1); at c = 2 it stays within 5e-6 from eta = 1e-8 to 1e8.
    """
    _check_domain(c, eta)
    _check_count("count", count)
    intervals = _support_intervals(c, eta)
    lo, hi = intervals[0][0], intervals[-1][1]
    scales = [max(-lo, hi)]
    if c == 2.0:
        count *= 4
        scales = [-lo, hi]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * 1.1  # 10 % padding around the support
    grid = _support_grid(intervals, mid - half, mid + half, count, scales)
    if c == 2.0:
        grid = grid[grid != 0.0]  # density unbounded exactly at the origin
    x_minus = support_points(c)[0] if eta == 1.0 else None
    return AedResult(
        grid=grid, density=_law_density(grid, c, eta), atom_weight=atom_weight(c, eta),
        x_minus=x_minus, x_plus=float(max(-lo, hi)), c=c, eta=eta,
    )
