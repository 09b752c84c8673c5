"""Asymptotic eigenvalue density of the rescaled difference spectrum.

For x = N * lambda and c = N/M fixed, the limiting spectral measure of
rho1 - rho2 is the free additive convolution of a Marchenko-Pastur law with
its reflection.  Its Cauchy transform satisfies a cubic equation; Stieltjes
inversion of the physical root gives the density.  The symmetric case
(equal weights) has the closed form implemented in ``aed_symmetric``; the
weighted case eta = q/p != 1 inverts the cubic at all query points in one
batched solve (``aed_curve``).  Its support edges are the real roots of the
cubic's discriminant, a quartic in z (``find_support_numeric``), and the
origin atom is max(1 - 2/c, 0) for every eta because rank Z = min(N, 2M).

Conventions: the weighted density is expressed in units of the normalized
difference rho1 - eta*rho2.  Rescaling back to p*rho1 - q*rho2 multiplies
abscissas by p and divides densities by p.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BranchAmbiguity, DomainError, PoleError

__all__ = [
    "support_points",
    "atom_weight",
    "aed_symmetric",
    "CauchyEval",
    "cauchy_roots",
    "cauchy_roots_trigonometric",
    "aed_numeric",
    "aed_curve",
    "marchenko_pastur",
    "r_transform_sum",
    "AedResult",
    "aed_grid",
    "find_support_numeric",
]

_SQRT3 = math.sqrt(3.0)

# A root whose imaginary part scales like -w/epsilon is the point mass at the
# origin showing through; it is excluded when computing the continuous part.
_ATOM_IM_EPS = 1e-3

# Query points per batched eigensolve: amortizes the call, caps temporaries near 0.5 MB.
_SOLVE_BLOCK = 1024


def _check_domain(c: float, eta: float = 1.0, x=0.0) -> None:
    """Raise DomainError unless c, eta are finite and positive and x (scalar or array) is finite."""
    if not 0.0 < c < math.inf:
        raise DomainError(f"c must be finite and positive, got {c!r}")
    if not 0.0 < eta < math.inf:
        raise DomainError(f"eta must be finite and positive, got {eta!r}")
    if not (np.isfinite(x).all() if isinstance(x, np.ndarray) else math.isfinite(x)):
        raise DomainError("x must be finite")


def support_points(c: float) -> tuple[float | None, float]:
    """Support endpoints (x_minus, x_plus) of the continuous density.

    x_plus = (1/4) (sqrt(4c+1) + 3)^{3/2} (sqrt(4c+1) - 1)^{1/2} always;
    the inner edge x_minus exists only for c > 2 (it is 0 at c = 2 and the
    corresponding square is negative below that).
    """
    _check_domain(c)
    s = math.sqrt(4.0 * c + 1.0)
    x_plus = 0.25 * (s + 3.0) ** 1.5 * (s - 1.0) ** 0.5
    if c >= 2.0:
        x_minus = 0.25 * (s - 3.0) ** 1.5 * (s + 1.0) ** 0.5
        return x_minus, x_plus
    return None, x_plus


def _eta_excess(x: float, c: float) -> float:
    """(eta(x) - 1) / x^2 for eta(x) = (9(c+1)x^2 + u^3) / (u^2 + 3x^2)^{3/2}, u = 2 - c.

    Below the transition (u > 0) eta - 1 is
    x^2 [13.5c - 9x^2 (s + 1/2) / (u (s+1)^2)] / (u^2 + 3x^2)^{3/2} with
    s = sqrt(1 + 3x^2/u^2), which cancels nothing as x -> 0 or c -> 0.
    """
    u = 2.0 - c
    x2 = x * x
    r = (u * u + 3.0 * x2) ** 1.5
    if u <= 0.0:
        return ((9.0 * (c + 1.0) * x2 + u**3) / r - 1.0) / x2
    s = math.sqrt(1.0 + 3.0 * x2 / (u * u))
    return (13.5 * c - 9.0 * x2 * (s + 0.5) / (u * (s + 1.0) ** 2)) / r


def aed_symmetric(x: float, c: float) -> float:
    """Continuous part of the equal-weight asymptotic density at x.

    Inside the support the value is
    sqrt((2-c)^2 + 3x^2) / (sqrt(3) pi c |x|) * sinh(l(x)/3) with
    l = arccosh(eta(x)); outside it is 0.  The point mass at the origin for
    c > 2 is reported separately by ``atom_weight``.  arccosh is taken as
    log1p(d + sqrt(d(d+2))) of d = eta - 1 from ``_eta_excess``, so the
    value keeps its relative precision at small c and near x = 0, where
    only the exact limit 1/(pi sqrt(c(2-c))) is special-cased.
    """
    _check_domain(c, 1.0, x)
    x_minus, x_plus = support_points(c)
    ax = abs(x)
    u = 2.0 - c
    if ax >= x_plus:
        return 0.0
    if ax == 0.0 and u >= 0.0:
        # finite below the transition, integrable |x|^(-1/3) divergence at it
        return 1.0 / (math.pi * math.sqrt(c * u)) if u > 0.0 else math.inf
    if x_minus is not None and ax <= x_minus:
        return 0.0
    q = _eta_excess(ax, c)
    if q <= 0.0:
        return 0.0
    t = ax * math.sqrt(q)  # sqrt(d), free of underflow in x^2
    ell = math.log1p(t * (t + math.sqrt(t * t + 2.0)))
    pref = math.sqrt(u * u + 3.0 * x * x) / (_SQRT3 * math.pi * c * ax)
    return pref * math.sinh(ell / 3.0)


def atom_weight(c: float, eta: float = 1.0) -> float:
    """Weight of the point mass at the origin.

    max(1 - 2/c, 0) for every eta: p rho1 - q rho2 is a combination of two
    N x N matrices of rank at most M, so its rank is min(N, 2M) almost surely
    whatever the weights.
    """
    _check_domain(c, eta)
    return max(1.0 - 2.0 / c, 0.0)


def _cubic_coefficients(z: complex, c: float, eta: float) -> tuple[complex, ...]:
    """Coefficients (a3, a2, a1, a0) of the Cauchy-transform cubic in G.

    Obtained by clearing denominators in R(G) + 1/G = z with
    R(g) = 1/(1-cg) - eta/(1+eta c g).
    """
    return (
        eta * c * c * z,
        c * eta * (2.0 - c) + c * (1.0 - eta) * z,
        (1.0 - eta) * (1.0 - c) - z,
        1.0 + 0.0j,
    )


def _solve_cubics(z: np.ndarray, c: float, eta: float) -> np.ndarray:
    """Roots (K, 3) of the Cauchy cubic at K query points.

    The companion matrices ``np.roots`` would build go through one
    ``eigvals`` call per ``_SOLVE_BLOCK`` points; two Newton steps polish.
    """
    z = np.asarray(z, dtype=complex).ravel()
    roots = np.empty((z.size, 3), dtype=complex)
    for start in range(0, z.size, _SOLVE_BLOCK):
        a3, a2, a1, _ = _cubic_coefficients(z[start : start + _SOLVE_BLOCK, None], c, eta)
        comp = np.zeros((len(a3), 3, 3), dtype=complex)
        comp[:, 0, :] = np.concatenate((a2, a1, np.ones_like(a3)), axis=1) / -a3
        comp[:, 1, 0] = comp[:, 2, 1] = 1.0
        g = np.linalg.eigvals(comp)
        for _ in range(2):
            f = ((a3 * g + a2) * g + a1) * g + 1.0
            df = (3.0 * a3 * g + 2.0 * a2) * g + a1
            g = g - f / np.where(df == 0.0, np.inf, df)  # a zero slope leaves the root as is
        roots[start : start + _SOLVE_BLOCK] = g
    return roots


@dataclass(frozen=True)
class CauchyEval:
    """Three cubic roots at one query point plus the selected physical branch."""

    z: complex
    roots: np.ndarray
    selected: int

    @property
    def value(self) -> complex:
        return complex(self.roots[self.selected])


def cauchy_roots(
    z: complex, c: float, eta: float = 1.0, *, hint: complex | None = None
) -> CauchyEval:
    """Solve the Cauchy-transform cubic and select the physical branch.

    The physical branch has negative imaginary part for Im z > 0 and tends
    to 1/z at infinity.  When the two most negative imaginary parts agree
    within 1e-13 the tie is broken by proximity to ``hint`` (a neighboring
    evaluation); without a hint that situation raises BranchAmbiguity.
    """
    z = complex(z)
    _check_domain(c, eta, abs(z))
    if z.imag <= 0.0:
        raise DomainError("query point must lie in the upper half-plane")
    roots = _solve_cubics(np.array([z]), c, eta)[0]
    neg = [i for i in range(3) if roots[i].imag < 0.0]
    if not neg:
        # fall back to least-positive imaginary part (roundoff at tiny density)
        sel = int(np.argmin(roots.imag))
        return CauchyEval(z=z, roots=roots, selected=sel)
    neg.sort(key=lambda i: roots[i].imag)
    if len(neg) >= 2 and abs(roots[neg[0]].imag - roots[neg[1]].imag) < 1e-13:
        if hint is None:
            raise BranchAmbiguity(
                f"two branches with Im G within 1e-13 at z = {z}; no neighbor available"
            )
        sel = min(neg, key=lambda i: abs(roots[i] - hint))
    else:
        sel = neg[0]
    return CauchyEval(z=z, roots=roots, selected=sel)


def cauchy_roots_trigonometric(z: complex, c: float) -> list[complex]:
    """Equal-weight roots in closed trigonometric form (independent solver).

    G_k = 2 sqrt((2-c)^2+3z^2)/(3cz) sin(Arcsin(eta(z))/3 + 2 pi k/3)
          + (c-2)/(3cz),  k = 0, 1, 2.
    """
    z = complex(z)
    u = 2.0 - c
    disc = cmath.sqrt(u * u + 3.0 * z * z)
    e = (9.0 * (c + 1.0) * z * z + u**3) / disc**3
    theta0 = cmath.asin(e) / 3.0
    out = []
    for k in range(3):
        th = theta0 + 2.0 * math.pi * k / 3.0
        out.append(2.0 * disc / (3.0 * c * z) * cmath.sin(th) + (c - 2.0) / (3.0 * c * z))
    return out


def _select_branch(roots: np.ndarray, ep: float, hint: np.ndarray):
    """Continuous-part branch of each row of ``roots`` (-1 if none), and the tie mask.

    Candidates have Im G < 0 but are not the atom's root (|Im G| ep >= _ATOM_IM_EPS).
    The most negative Im G wins, then the smaller real part; where the two most
    negative are within 1e-13, the candidate nearest a non-NaN ``hint`` wins.
    """
    im = roots.imag
    cand = (im < 0.0) & (-im * ep < _ATOM_IM_EPS)
    key = np.where(cand, im, np.inf)
    order = np.lexsort((roots.real, key), axis=-1)
    rows = np.arange(len(roots))
    sel = np.where(cand.any(axis=1), order[:, 0], -1)
    gap = np.subtract(
        key[rows, order[:, 1]], key[rows, order[:, 0]],
        out=np.full(len(roots), np.inf), where=cand.sum(axis=1) >= 2,
    )
    tie = gap < 1e-13
    fix = tie & ~np.isnan(hint)
    if fix.any():
        dist = np.where(cand[fix], np.abs(roots[fix] - hint[fix, None]), np.inf)
        sel[fix] = np.argmin(dist, axis=1)
    return sel, tie


def _continuous_density(xs: np.ndarray, c: float, eta: float, epsilon: float) -> np.ndarray:
    """-Im G(x + i0)/pi at the 1-D points xs, continuous part only.

    -Im G/pi at eps and eps/2 comes from one batched solve and is
    Richardson-extrapolated.  At eps/2 a tie is broken by the same point's
    eps root; at eps by the eps/2 root of the nearest point to the left
    that has one, so only tied points are revisited one at a time.
    """
    _check_domain(c, eta, xs)
    if not 0.0 < epsilon <= 1e-4:
        raise DomainError("epsilon must lie in (0, 1e-4]")
    k = xs.size
    roots = _solve_cubics(np.concatenate((xs + 1j * epsilon, xs + 0.5j * epsilon)), c, eta)
    r1, r2 = roots[:k], roots[k:]
    rows = np.arange(k)
    sel1, tie1 = _select_branch(r1, epsilon, np.full(k, np.nan))
    g1 = np.where(sel1 >= 0, r1[rows, sel1], np.nan)
    sel2, _ = _select_branch(r2, 0.5 * epsilon, g1)
    left = np.maximum.accumulate(np.where(sel2 >= 0, rows, -1))
    for i in np.flatnonzero(tie1[1:]) + 1:
        j = left[i - 1]
        if j < 0:
            continue
        sel1[i] = _select_branch(r1[i : i + 1], epsilon, r2[j, sel2[j]][None])[0][0]
        g1[i] = r1[i, sel1[i]]
        sel2[i] = _select_branch(r2[i : i + 1], 0.5 * epsilon, g1[i : i + 1])[0][0]
    im1 = np.where(sel1 >= 0, r1[rows, sel1].imag, 0.0)
    im2 = np.where(sel2 >= 0, r2[rows, sel2].imag, 0.0)
    val = (2.0 * (-im2) - (-im1)) / math.pi
    return np.where(val > 0.0, val, 0.0)


def aed_numeric(
    x: float, c: float, eta: float = 1.0, epsilon: float = 1e-9
) -> float:
    """Continuous density at x by Stieltjes inversion of the cubic.

    Evaluates -Im G(x + i eps)/pi at eps and eps/2 and Richardson-
    extrapolates the linear-in-eps error away.  Roots whose imaginary part
    diverges like 1/eps (the origin point mass) are excluded, so this is the
    continuous part only, matching ``aed_symmetric`` for eta = 1.  A batch
    of one of ``aed_curve``.
    """
    return float(_continuous_density(np.array([x], dtype=float), c, eta, epsilon)[0])


def aed_curve(
    xs: np.ndarray, c: float, eta: float = 1.0, epsilon: float = 1e-9
) -> np.ndarray:
    """aed_numeric at every point of xs, from one batched cubic solve.

    Where two branches tie, the selected root is carried along xs in the
    given order for continuity.
    """
    xs = np.asarray(xs, dtype=float)
    return _continuous_density(xs.ravel(), c, eta, epsilon).reshape(xs.shape)


def marchenko_pastur(x: float, c: float) -> tuple[float, float]:
    """(continuous density, origin atom weight) of the rescaled single-matrix law.

    Support [(1-sqrt(c))^2, (1+sqrt(c))^2]; the atom max(1 - 1/c, 0) carries
    the rank deficiency when c > 1.
    """
    if c <= 0.0:
        raise DomainError("c must be positive")
    atom = max(1.0 - 1.0 / c, 0.0)
    lo = (1.0 - math.sqrt(c)) ** 2
    hi = (1.0 + math.sqrt(c)) ** 2
    if x <= lo or x >= hi:
        return 0.0, atom
    return math.sqrt((x - lo) * (hi - x)) / (2.0 * math.pi * c * x), atom


def r_transform_sum(g: complex, c: float, eta: float = 1.0) -> complex:
    """Sum of the two component R-transforms: 1/(1-cg) - eta/(1+eta c g)."""
    g = complex(g)
    if 1.0 - c * g == 0.0 or 1.0 + eta * c * g == 0.0:
        raise PoleError("R-transform pole at cg = 1 or eta c g = -1")
    return 1.0 / (1.0 - c * g) - eta / (1.0 + eta * c * g)


def find_support_numeric(c: float, eta: float) -> list[tuple[float, float]]:
    """Intervals where the weighted continuous density is positive.

    Edges are where two roots of the Cauchy cubic meet: the real roots of
    its discriminant, a quartic in z (Rao & Edelman's polynomial method,
    Found. Comput. Math. 2008).  A gap between consecutive roots is support
    if at its midpoint the discriminant is negative (a complex pair; in a
    true gap the density reads ~1e-21 of roundoff, not 0) and the density
    is positive (the pair is physical).  Kept gaps meeting at a double root
    are merged.
    """
    _check_domain(c, eta)
    a3, a2, a1, _ = _cubic_coefficients(np.polynomial.Polynomial([0.0, 1.0]), c, eta)
    disc = 18.0 * a3 * a2 * a1 - 4.0 * a2**3 + a2**2 * a1**2 - 4.0 * a3 * a1**3 - 27.0 * a3**2
    roots = disc.roots()
    edges = np.unique(roots.real[np.abs(roots.imag) <= 1e-7 * np.max(np.abs(roots))])
    mids = 0.5 * (edges[:-1] + edges[1:])
    keep = (disc(mids) < 0.0) & (_continuous_density(mids, c, eta, 1e-9) > 0.0)
    intervals: list[tuple[float, float]] = []
    for lo, hi in zip(edges[:-1][keep], edges[1:][keep]):
        if intervals and intervals[-1][1] == lo:
            lo = intervals.pop()[0]
        intervals.append((float(lo), float(hi)))
    return intervals


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
    epsilon: float = field(default=1e-9, compare=False)

    def trapezoid_mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid))

    def to_csv(self, path) -> None:
        """Write `x,density` rows plus one trailing metadata comment line."""
        xm = float("nan") if self.x_minus is None else self.x_minus
        with open(path, "w") as fh:
            fh.write("x,density\n")
            for x, d in zip(self.grid, self.density):
                fh.write("%.17g,%.17g\n" % (x, d))
            fh.write(
                "# atom_weight=%.17g x_minus=%.17g x_plus=%.17g c=%.17g eta=%.17g\n"
                % (self.atom_weight, xm, self.x_plus, self.c, self.eta)
            )


def _interval_grid(a: float, b: float, k: int) -> np.ndarray:
    """sin^2-in-theta node placement: clusters at both interval endpoints.

    The density vanishes like a square root at support edges, where uniform
    trapezoid spacing converges hopelessly slowly; this map restores O(k^-2).
    """
    th = np.linspace(0.0, 0.5 * math.pi, k)
    return a + (b - a) * np.sin(th) ** 2


def _support_grid(intervals, lo, hi, count, origin_cluster: float | None):
    k = max(501, count // max(len(intervals), 1))
    pts = [np.linspace(lo, hi, 101)]
    for a, b in intervals:
        pts.append(_interval_grid(a, b, k))
    if origin_cluster is not None:
        extra = origin_cluster * np.geomspace(1e-13, 0.3, 400)
        pts += [extra, -extra]
    return np.unique(np.concatenate(pts))


def aed_grid(
    c: float,
    eta: float = 1.0,
    *,
    count: int = 6001,
    pad: float = 1.1,
    epsilon: float = 1e-9,
) -> AedResult:
    """Tabulate the asymptotic density on an edge-aware grid.

    Equal weights use the closed form; eta != 1 inverts the cubic at every
    node in one batched solve, over the discriminant support.  Nodes are
    sin^2-clustered at every support edge so that atom_weight plus the
    trapezoid integral of the stored continuous part reproduces unit mass
    to better than 1e-6.  The critical ratio c = 2 carries an integrable
    |x|^(-1/3) divergence at the origin and gets a denser grid plus a
    geometric origin cluster.
    """
    _check_domain(c, eta)
    x_minus = origin_cluster = None
    if eta == 1.0:
        x_minus, x_plus = support_points(c)
        split = x_minus or 0.0
        intervals = [(-x_plus, -split), (split, x_plus)]
        if c == 2.0:
            count *= 4
            origin_cluster = x_plus
    else:
        intervals = find_support_numeric(c, eta)
    lo, hi = intervals[0][0], intervals[-1][1]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * pad
    grid = _support_grid(intervals, mid - half, mid + half, count, origin_cluster)
    if eta != 1.0:
        dens = aed_curve(grid, c, eta, epsilon)
    else:
        if origin_cluster is not None:
            grid = grid[grid != 0.0]  # density unbounded exactly at the origin
        dens = np.array([aed_symmetric(float(x), c) for x in grid])
    return AedResult(
        grid=grid, density=dens, atom_weight=atom_weight(c, eta), x_minus=x_minus,
        x_plus=float(max(-lo, hi)), c=c, eta=eta, epsilon=epsilon,
    )
