"""Asymptotic eigenvalue density of the rescaled difference spectrum.

For x = N * lambda and c = N/M fixed, the limiting spectral measure of
rho1 - rho2 is the free additive convolution of a Marchenko-Pastur law with
its reflection.  Its Cauchy transform satisfies a cubic equation; Stieltjes
inversion of the physical root gives the density.  The symmetric case
(equal weights) has the closed form implemented in ``aed_symmetric``, one
NumPy expression for scalars and arrays; the weighted case eta = q/p != 1
inverts the cubic at all query points at once (``aed_curve``), with the
roots from a vectorised closed-form (Cardano) solve.  The support edges
are the real roots of the cubic's discriminant, a quartic in z
(``find_support_numeric``); the inversion reads exactly 0 outside them.  The
origin atom is max(1 - 2/c, 0) for every eta because rank Z = min(N, 2M).

Conventions: the weighted density is expressed in units of the normalized
difference rho1 - eta*rho2.  Rescaling back to p*rho1 - q*rho2 multiplies
abscissas by p and divides densities by p.
"""

from __future__ import annotations

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

# Query points per block of the closed-form cubic solve: caps its (block, 3)
# complex temporaries near 50 kB each.
_SOLVE_BLOCK = 1024

# The three cube roots of unity, one per root of the cubic.
_OMEGA = np.exp(2j * np.pi * np.arange(3) / 3.0)


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


def _eta_excess(x, c: float):
    """(eta(x) - 1) / x^2 for eta(x) = (9(c+1)x^2 + u^3) / (u^2 + 3x^2)^{3/2}, u = 2 - c.

    Below the transition (u > 0) eta - 1 is
    x^2 [13.5c - 9x^2 (s + 1/2) / (u (s+1)^2)] / (u^2 + 3x^2)^{3/2} with
    s = sqrt(1 + 3x^2/u^2), which cancels nothing as x -> 0 or c -> 0.
    Powers are products, so a scalar and an array give the same bits.
    """
    u = 2.0 - c
    x2 = x * x
    q = u * u + 3.0 * x2
    r = q * np.sqrt(q)
    if u <= 0.0:
        return ((9.0 * (c + 1.0) * x2 + u**3) / r - 1.0) / x2
    s = np.sqrt(1.0 + 3.0 * x2 / (u * u))
    return (13.5 * c - 9.0 * x2 * (s + 0.5) / (u * (s + 1.0) * (s + 1.0))) / r


def aed_symmetric(x, c: float):
    """Continuous part of the equal-weight asymptotic density at x (scalar or array).

    Inside the support the value is
    sqrt((2-c)^2 + 3x^2) / (sqrt(3) pi c |x|) * sinh(l(x)/3) with
    l = arccosh(eta(x)); outside it is 0.  The point mass at the origin for
    c > 2 is reported separately by ``atom_weight``.  arccosh is taken as
    log1p(d + sqrt(d(d+2))) of d = eta - 1 from ``_eta_excess``, so the
    value keeps its relative precision at small c and near x = 0, where
    only the exact limit 1/(pi sqrt(c(2-c))) is special-cased.  An array
    keeps its shape; a scalar gives a float, bit for bit the array's entry.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    _check_domain(c, 1.0, ax)
    x_minus, x_plus = support_points(c)
    u = 2.0 - c
    with np.errstate(all="ignore"):
        if u == 0.0:  # eta = 3 sqrt(3)/|x| exactly, so no x^2 can underflow
            t = np.sqrt(3.0 * _SQRT3 / ax - 1.0)
            pre = 1.0 / (2.0 * math.pi)
        else:
            t = ax * np.sqrt(_eta_excess(ax, c))  # sqrt(d), free of underflow in x^2
            pre = np.sqrt(u * u + 3.0 * ax * ax) / (_SQRT3 * math.pi * c * ax)
        ell = np.log1p(t * (t + np.sqrt(t * t + 2.0)))
        val = pre * np.sinh(ell / 3.0)
    # finite below the transition, integrable |x|^(-1/3) divergence at it, in the gap above
    origin = 0.0 if u < 0.0 else math.inf if u == 0.0 else 1.0 / (math.pi * math.sqrt(c * u))
    inner = np.isnan(val) | (ax <= (x_minus or 0.0))
    val = np.where(ax >= x_plus, 0.0, np.where(ax == 0.0, origin, np.where(inner, 0.0, val)))
    return float(val) if val.ndim == 0 else val


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
    """Roots (K, 3) of the Cauchy cubic at K query points, in closed form.

    With h = 1/G the cubic is the monic h^3 + a1 h^2 + a2 h + a3, which stays
    well scaled as a3 = eta c^2 z -> 0 sends one G root to infinity.  Cardano
    on the depressed cubic t^3 + 3 p3 t - 2 w (h = t - a1/3) takes the larger
    of |w +- s|, s^2 = w^2 + p3^3, as u^3 so that the sum does not cancel;
    t = u omega^k - p3/(u omega^k).  The smallest h, which cancels
    in t - a1/3, comes from h0 h1 h2 = -a3 instead.  G = 1/h is polished by
    two Newton steps on the cubic in G.
    """
    z = np.asarray(z, dtype=complex).ravel()
    roots = np.empty((z.size, 3), dtype=complex)
    for start in range(0, z.size, _SOLVE_BLOCK):
        a3, a2, a1, _ = _cubic_coefficients(z[start : start + _SOLVE_BLOCK, None], c, eta)
        p3 = (a2 - a1 * a1 / 3.0) / 3.0
        w = -(a1 * (2.0 * a1 * a1 - 9.0 * a2) / 27.0 + a3) / 2.0
        s = np.sqrt(w * w + p3 * p3 * p3)
        s = np.where((w.conj() * s).real >= 0.0, s, -s)
        u = (w + s) ** (1.0 / 3.0) * _OMEGA
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(u == 0.0, 0.0, u - p3 / u) - a1 / 3.0  # u = 0: triple root
        # the smallest root cancels in t - a1/3; Vieta (h0 h1 h2 = -a3) gives it from the others
        small = np.argmin(np.abs(h), axis=1)
        rows = np.arange(len(h))
        h[rows, small] = -a3[:, 0] / (h[rows, (small + 1) % 3] * h[rows, (small + 2) % 3])
        g = 1.0 / h
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


def _select_branch(roots: np.ndarray, ep: np.ndarray, hint: np.ndarray):
    """Continuous-part branch of each row of ``roots`` (-1 if none), and the tie mask.

    Candidates have Im G < 0 but are not the atom's root (|Im G| ep >= _ATOM_IM_EPS,
    with ep the row's imaginary offset).
    The most negative Im G wins, then the smaller real part; where the two most
    negative are within 1e-13, the candidate nearest a non-NaN ``hint`` wins.
    """
    im = roots.imag
    cand = (im < 0.0) & (-im * ep[:, None] < _ATOM_IM_EPS)
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


def _support_geometry(xs: np.ndarray, c: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the points of xs outside the support, and each one's distance to an edge.

    The edges, computed once per call, are the real roots of the
    discriminant; a gap between two of them is outside where the
    discriminant is positive (three real roots, G real).  ``support_points``
    is not used, so that the closed form and the inversion stay independent.
    """
    disc, edges = _discriminant(c, eta)
    gap = np.concatenate(([True], disc(0.5 * (edges[:-1] + edges[1:])) >= 0.0, [True]))
    return gap[np.searchsorted(edges, xs)], np.min(np.abs(xs[:, None] - edges), axis=1)


def _continuous_density(xs: np.ndarray, c: float, eta: float, epsilon: float) -> np.ndarray:
    """-Im G(x + i0)/pi at the 1-D points xs, continuous part only.

    -Im G/pi at eps and eps/2 comes from one batched solve and is
    Richardson-extrapolated.  eps is ``epsilon``, or 1e-3 of the distance to
    the nearest support edge where that is smaller (but at least 1e-6
    epsilon), which keeps the remainder small next to an edge where the
    density diverges.  At eps/2 a tie is broken by the same point's eps
    root; at eps by the eps/2 root of the nearest point to the left that
    has one, so only tied points are revisited one at a time.  Points
    outside the support read exactly 0.  Equal weights are solved at |x|,
    because Z and -Z have one law there.
    """
    _check_domain(c, eta, xs)
    if not 0.0 < epsilon <= 1e-4:
        raise DomainError("epsilon must lie in (0, 1e-4]")
    if eta == 1.0:
        xs = np.abs(xs)
    outside, dist = _support_geometry(xs, c, eta)
    ep = np.clip(1e-3 * dist, 1e-6 * epsilon, epsilon)
    k = xs.size
    roots = _solve_cubics(np.concatenate((xs + 1j * ep, xs + 0.5j * ep)), c, eta)
    r1, r2 = roots[:k], roots[k:]
    rows = np.arange(k)
    sel1, tie1 = _select_branch(r1, ep, np.full(k, np.nan))
    g1 = np.where(sel1 >= 0, r1[rows, sel1], np.nan)
    sel2, _ = _select_branch(r2, 0.5 * ep, g1)
    left = np.maximum.accumulate(np.where(sel2 >= 0, rows, -1))
    for i in np.flatnonzero(tie1[1:]) + 1:
        j = left[i - 1]
        if j < 0:
            continue
        sel1[i] = _select_branch(r1[i : i + 1], ep[i : i + 1], r2[j, sel2[j]][None])[0][0]
        g1[i] = r1[i, sel1[i]]
        sel2[i] = _select_branch(r2[i : i + 1], 0.5 * ep[i : i + 1], g1[i : i + 1])[0][0]
    im1 = np.where(sel1 >= 0, r1[rows, sel1].imag, 0.0)
    im2 = np.where(sel2 >= 0, r2[rows, sel2].imag, 0.0)
    val = (2.0 * (-im2) - (-im1)) / math.pi
    return np.where((val > 0.0) & ~outside, val, 0.0)


def aed_numeric(
    x: float, c: float, eta: float = 1.0, epsilon: float = 1e-9
) -> float:
    """Continuous density at x by Stieltjes inversion of the cubic.

    Evaluates -Im G(x + i eps)/pi at eps and eps/2 and Richardson-
    extrapolates the linear-in-eps error away; eps is ``epsilon`` except
    within 1e3 epsilon of a support edge, where it is 1e-3 of the distance.  Roots whose imaginary part
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


def _discriminant(c: float, eta: float):
    """The discriminant of the Cauchy cubic as a quartic in z, and its sorted real roots."""
    a3, a2, a1, _ = _cubic_coefficients(np.polynomial.Polynomial([0.0, 1.0]), c, eta)
    disc = 18.0 * a3 * a2 * a1 - 4.0 * a2**3 + a2**2 * a1**2 - 4.0 * a3 * a1**3 - 27.0 * a3**2
    roots = disc.roots()
    return disc, np.unique(roots.real[np.abs(roots.imag) <= 1e-7 * np.max(np.abs(roots))])


def find_support_numeric(c: float, eta: float) -> list[tuple[float, float]]:
    """Intervals where the weighted continuous density is positive.

    Edges are where two roots of the Cauchy cubic meet: the real roots of
    its discriminant, a quartic in z (Rao & Edelman's polynomial method,
    Found. Comput. Math. 2008).  A gap between consecutive roots is support
    if at its midpoint the discriminant is negative (a complex pair) and
    the density is positive (the pair is physical).  Kept gaps meeting at a
    double root are merged.
    """
    _check_domain(c, eta)
    _, edges = _discriminant(c, eta)
    mids = 0.5 * (edges[:-1] + edges[1:])
    keep = _continuous_density(mids, c, eta, 1e-9) > 0.0
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
    divergence at the origin (|x|^(-1/3) for equal weights, one-sided
    |x|^(-1/2) otherwise) and gets a denser grid plus a geometric origin
    cluster.
    """
    _check_domain(c, eta)
    x_minus = None
    if eta == 1.0:
        x_minus, x_plus = support_points(c)
        split = x_minus or 0.0
        intervals = [(-x_plus, -split), (split, x_plus)]
    else:
        intervals = find_support_numeric(c, eta)
    lo, hi = intervals[0][0], intervals[-1][1]
    origin_cluster = None
    if c == 2.0:
        count *= 4
        origin_cluster = max(-lo, hi)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * pad
    grid = _support_grid(intervals, mid - half, mid + half, count, origin_cluster)
    if origin_cluster is not None:
        grid = grid[grid != 0.0]  # density unbounded exactly at the origin
    dens = aed_symmetric(grid, c) if eta == 1.0 else aed_curve(grid, c, eta, epsilon)
    return AedResult(
        grid=grid, density=dens, atom_weight=atom_weight(c, eta), x_minus=x_minus,
        x_plus=float(max(-lo, hi)), c=c, eta=eta, epsilon=epsilon,
    )
