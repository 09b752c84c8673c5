"""Exact finite-dimension eigenvalue laws for the difference matrix.

On the zero-sum hyperplane the joint density of the diagonal elements of
Z = rho1 - rho2 is, inside each sign orthant, an explicit polynomial with
rational coefficients.  The sum over Laguerre-type weights w_k and the
powers of gamma = 1 - (1/2) sum |z_i| factorise per monomial: |z|^a has
coefficient P (-1/2)^|a| / (D - |a|)! prod_i u(a_i) with
u(t) = sum_k w_k (-2)^k / (t - k)! (see ``build_psi_poly``).  Applying the
Vandermonde differential operator prod_{i<j}(d_i - d_j) and multiplying by
the Vandermonde determinant yields the joint eigenvalue density.

Measure convention: the hyperplane delta is consumed by eliminating the last
coordinate, i.e. every returned density is with respect to
(lambda_1, ..., lambda_{N-1}) with lambda_N = -sum of the others.  Under
this convention all densities integrate to one, which is what the tests pin.

Evaluation is exact by default: integer arithmetic over a common
denominator, rounded once to the nearest float (the differential operator
amplifies cancellation catastrophically in floating point for the
binomially large coefficients involved); the N = 3 marginal is integrated
in those integers too.  A float path serves bulk grids such as fig1; its
error against the exact path grows fast with M through cancellation:
at most 1.3e-10 at M = 3, 9.0e-9 at M = 4 and 2.0e-6 at M = 5 over 400
random interior N = 3 points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product

import numpy as np

from .errors import (
    BoundaryPoint,
    DimensionOrder,
    DomainError,
    NegativeDensityWarning,
    SizeLimit,
    Unsupported,
)
from .specfun import laguerre_coefficients

__all__ = [
    "OrthantPiecewisePoly",
    "build_psi_poly",
    "joint_eigen_density",
    "n2_exact_density",
    "w_poly",
    "derivative_principle_selftest",
    "single_eigenvalue_marginal",
    "region_gamma",
]

BOUNDARY_TOL = 1e-9

Poly = dict


def region_gamma(lambdas) -> float:
    """gamma = 1 - (1/2) sum |z_i|; positive exactly on the interior of the support region."""
    return 1.0 - 0.5 * float(np.sum(np.abs(np.asarray(lambdas, dtype=float))))


def _sign_factor(signs, exponents) -> int:
    return -1 if sum(e for s, e in zip(signs, exponents) if s < 0) % 2 else 1


def _int_table(poly: Poly):
    """Nest an integer table by exponent, first variable outermost; with its top exponent."""
    trie: dict = {}
    for e, c in poly.items():
        node = trie
        for k in e[:-1]:
            node = node.setdefault(k, {})
        node[e[-1]] = c
    return trie, max((max(e) for e in poly), default=0)


def _nested_sum(node: dict, rows) -> int:
    if len(rows) == 1:
        return sum(c * rows[0][k] for k, c in node.items())
    return sum(rows[0][k] * _nested_sum(child, rows[1:]) for k, child in node.items())


def _exact_eval(table, den: int, point, *, vandermonde: bool = False) -> float:
    """sum_e c_e prod_i point_i^e_i / den for an ``_int_table``, times
    prod_{i<j}(point_j - point_i) if asked, as the float nearest the exact
    rational: every float is N / 2^s exactly, so the sum is formed in Python
    ints over one power-of-two denominator and rounded once."""
    trie, top = table
    ratios = [float(v).as_integer_ratio() for v in point]
    s = max(q.bit_length() for _, q in ratios) - 1
    xs = [p << (s - q.bit_length() + 1) for p, q in ratios]
    # x^k 2^(s (top - k)): every term shares the denominator 2^(s top n)
    pows = [[x**k << s * (top - k) for k in range(top + 1)] for x in xs]
    acc = _nested_sum(trie, pows)
    den <<= s * top * len(xs)
    if vandermonde:
        for i, j in combinations(range(len(xs)), 2):
            acc *= xs[j] - xs[i]
            den <<= s
    return acc / den


def _float_table(poly: Poly, den=1):
    E = np.array(list(poly.keys()), dtype=np.int64).reshape(len(poly), -1)
    C = np.array([c / den for c in poly.values()], dtype=float)
    return E, C


def _float_eval(E: np.ndarray, C: np.ndarray, point) -> float:
    """sum_e C_e prod_i point_i^e_i from a cumprod power table and gathers."""
    pt = np.asarray(point, dtype=float)
    top = int(E.max(initial=0))
    pw = np.ones((len(pt), top + 1))
    pw[:, 1:] = np.cumprod(np.repeat(pt[:, None], top, axis=1), axis=1)
    mono = np.take(pw[0], E[:, 0])
    for i in range(1, E.shape[1]):
        mono *= np.take(pw[i], E[:, i])
    mono *= C
    return float(mono.sum())


@dataclass(frozen=True)
class OrthantPiecewisePoly:
    """Piecewise polynomial indexed by sign orthant.

    Within orthant s the substitution |z_i| -> s_i z_i makes every piece a
    polynomial in z; the pieces share one base coefficient table because the
    sign dependence factors as prod_i s_i^{e_i} per monomial (the |z_i|
    powers and the gamma expansion contribute s_i with the same parity as
    the total exponent).  Every piece at z therefore equals the base at |z|.
    """

    n_vars: int
    m_large: int
    base: Poly  # exponent tuple -> Fraction, all-positive orthant

    def piece(self, signs: tuple[int, ...]) -> Poly:
        return {e: c * _sign_factor(signs, e) for e, c in self.base.items()}

    @cached_property
    def _exact(self):
        """Base numerators over the lcm L of its denominators, nested as well, and L."""
        den = math.lcm(*(c.denominator for c in self.base.values()))
        nums = {e: c.numerator * (den // c.denominator) for e, c in self.base.items()}
        return nums, _int_table(nums), den

    def evaluate(self, point, *, exact: bool = True) -> float:
        """Evaluate the smooth prefactor psi at a hyperplane point."""
        pt = np.abs(np.asarray(point, dtype=float))
        if exact:
            return _exact_eval(*self._exact[1:], pt)
        return _float_eval(*_float_table(self.base), pt)

    @property
    def term_count(self) -> int:
        return len(self.base)

    def to_csv(self, path) -> None:
        """Per-orthant rows `orthant,e_1,...,e_N,coefficient` with exact rationals."""
        with open(path, "w") as fh:
            cols = ",".join(f"e{i+1}" for i in range(self.n_vars))
            fh.write(f"orthant,{cols},coefficient\n")
            for signs in product((1, -1), repeat=self.n_vars):
                tag = "".join("+" if s > 0 else "-" for s in signs)
                piece = self.piece(signs)
                for e, c in sorted(piece.items()):
                    fh.write(f"{tag},{','.join(map(str, e))},{c.numerator}/{c.denominator}\n")


def _bounded_tuples(support, n: int, budget: int):
    """Tuples of n entries from the ascending ``support`` whose sum is <= budget."""
    if n == 0:
        return [()]
    return (
        (t,) + rest for t in support if t <= budget
        for rest in _bounded_tuples(support, n - 1, budget - t)
    )


def build_psi_poly(n: int, m: int, *, max_terms: int = 10_000_000) -> OrthantPiecewisePoly:
    """Expand the diagonal-element density prefactor into monomials.

    psi(z) = Gamma(MN)^2/Gamma(M)^N * sum over k in {0..M-1}^N of
    gamma^(D - sum k) / (D - sum k)! * prod_i w_{k_i} |z_i|^{k_i} with
    D = N(2M-1) - 1 and w_k the Laguerre-type integer weights
    (``specfun.laguerre_coefficients``).  Expanding gamma^e binomially and
    using C(e, j) j!/e! = 1/(e - j)! with e - j = D - |a| factorises the
    coefficient of |z|^a, for every a with |a| <= D, as

        P (-1/2)^|a| / (D - |a|)! prod_i u(a_i),
        u(t) = sum_{k=0}^{min(t, M-1)} w_k (-2)^k / (t - k)!,

    with P = (NM-1)!^2 / (M-1)!^N; zero coefficients are dropped.  Raises
    SizeLimit, before any work, when the monomial count comb(D + N, N)
    exceeds ``max_terms``.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > m:
        raise DimensionOrder(f"requires n <= m, got n={n} > m={m}")
    D = n * (2 * m - 1) - 1
    if math.comb(D + n, n) > max_terms:
        raise SizeLimit(f"psi expansion for (n={n}, m={m}) has comb({D + n}, {n})"
                        f" monomials, more than max_terms={max_terms}")
    w = laguerre_coefficients(m)
    fact = [math.factorial(t) for t in range(D + 1)]
    # t! u(t), an integer
    tu = [sum(w[k] * (-2) ** k * (fact[t] // fact[t - k]) for k in range(min(t, m - 1) + 1))
          for t in range(D + 1)]
    p_num, p_den = math.factorial(n * m - 1) ** 2, math.factorial(m - 1) ** n
    base: Poly = {}
    for a in _bounded_tuples([t for t in range(D + 1) if tu[t]], n, D):
        deg = sum(a)
        num, den = (-1) ** deg * p_num, p_den * fact[D - deg] << deg
        for t in a:
            num *= tu[t]
            den *= fact[t]
        base[a] = Fraction(num, den)
    return OrthantPiecewisePoly(n_vars=n, m_large=m, base=base)


def _apply_difference_operator(poly: Poly, n: int) -> Poly:
    """Apply prod_{i<j} (d/dz_i - d/dz_j) to a monomial table (integer or rational)."""
    cur = poly
    for i, j in combinations(range(n), 2):
        nxt: Poly = {}
        for e, c in cur.items():
            for v, sign in ((i, 1), (j, -1)):
                if e[v] > 0:
                    key = e[:v] + (e[v] - 1,) + e[v + 1 :]
                    nxt[key] = nxt.get(key, 0) + sign * c * e[v]
        cur = {e: c for e, c in nxt.items() if c != 0}
    return cur


@lru_cache(maxsize=16)
def _law_tables(n: int, m: int):
    """Per orthant, the Vandermonde-differentiated psi piece as integer numerators
    over psi's common denominator L, and its float table; plus L and prod_p p!."""
    nums, _, den = build_psi_poly(n, m)._exact
    ints, floats = {}, {}
    for signs in product((1, -1), repeat=n):
        piece = {e: c * _sign_factor(signs, e) for e, c in nums.items()}
        q = _apply_difference_operator(piece, n)
        ints[signs] = _int_table(q)
        floats[signs] = _float_table(q, den)
    return ints, floats, den, math.prod(math.factorial(p) for p in range(1, n + 1))


def joint_eigen_density(lambdas, n: int, m: int, *, exact: bool = True) -> float:
    """Joint eigenvalue density at an interior point of the support region.

    Implements the derivative principle for unitarily invariant ensembles:
    density = (prod_p p!)^{-1} * Vandermonde(lambda) * [product of pairwise
    derivative differences applied to psi](lambda); the hyperplane delta
    commutes through the operator and is consumed per the module convention.

    Points within 1e-9 of an orthant wall (some lambda_i = 0) or of the
    support-region boundary (gamma = 0) are rejected: distributional
    boundary contributions are out of scope.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (n,):
        raise ValueError(f"expected {n} eigenvalues, got shape {lam.shape}")
    if n > m:
        raise DimensionOrder(f"requires n <= m, got n={n} > m={m}")
    if abs(float(lam.sum())) > 1e-12:
        raise ValueError("eigenvalues must sum to zero (within 1e-12)")
    if float(np.min(np.abs(lam))) <= BOUNDARY_TOL:
        raise BoundaryPoint("a coordinate is within 1e-9 of an orthant wall")
    gam = region_gamma(lam)
    if gam <= BOUNDARY_TOL:
        if gam <= -BOUNDARY_TOL:
            return 0.0  # outside the support region entirely
        raise BoundaryPoint("point is within 1e-9 of the support-region boundary")
    ints, floats, den, norm = _law_tables(n, m)
    signs = tuple(1 if v > 0 else -1 for v in lam)
    if exact:
        val = _exact_eval(ints[signs], den * norm, lam, vandermonde=True)
    else:
        vand = math.prod(lam[j] - lam[i] for i, j in combinations(range(n), 2))
        val = vand * _float_eval(*floats[signs], lam) / norm
    if val < -1e-9:
        msg = f"joint density evaluated to {val:.3e} < 0 at {lam}"
        warnings.warn(msg, NegativeDensityWarning, stacklevel=2)
    return val


def w_poly(m: int) -> list[Fraction]:
    """Exact coefficients of W(a) = sum_k C(M-1,k) ((2(M-1)-k)!)^2 / (4(M-1)-2k+1)! a^k.

    W is the degree-(M-1) polynomial through which the two-dimensional
    marginal density is expressed; Python big integers keep it exact for
    any M.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    mm = m - 1
    return [
        Fraction(
            math.comb(mm, k) * math.factorial(2 * mm - k) ** 2,
            math.factorial(4 * mm - 2 * k + 1),
        )
        for k in range(m)
    ]


@lru_cache(maxsize=64)
def _w_poly_logs(m: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    ws = w_poly(m)
    logs = tuple(math.log(w.numerator) - math.log(w.denominator) for w in ws)
    dlogs = tuple(math.log(k) + logs[k] for k in range(1, m))
    return logs, dlogs


def _logsumexp(values) -> float:
    peak = max(values)
    return peak + math.log(sum(math.exp(v - peak) for v in values))


def n2_exact_density(lam: float, m: int) -> float:
    """Closed-form marginal eigenvalue density for the two-dimensional case.

    rho(lambda) = -lambda d/dlambda [ K (1-|lambda|)^{4M-3} W(|lambda|/(1-|lambda|)^2) ]
    with K = Gamma(2M)^2 / Gamma(M)^4, differentiated analytically and
    evaluated in log space (stable for any M; the factorial ratios never
    overflow).  Even in lambda; vanishes at 0 by eigenvalue repulsion.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    t = abs(float(lam))
    if t >= 1.0:
        raise DomainError("|lambda| must be < 1")
    if t == 0.0:
        return 0.0
    logs, dlogs = _w_poly_logs(m)
    ln_alpha = math.log(t) - 2.0 * math.log1p(-t)
    lnW = _logsumexp([logs[k] + k * ln_alpha for k in range(m)])
    if m > 1:
        lnW1 = _logsumexp([dlogs[k - 1] + (k - 1) * ln_alpha for k in range(1, m)])
        ratio = math.exp(lnW1 - lnW)
    else:
        ratio = 0.0
    lnK = 2.0 * math.lgamma(2 * m) - 4.0 * math.lgamma(m)
    ln_f = lnK + (4 * m - 3) * math.log1p(-t) + lnW
    dln_f = -(4 * m - 3) / (1.0 - t) + ratio * (1.0 + t) / (1.0 - t) ** 3
    return -t * math.exp(ln_f) * dln_f


@lru_cache(maxsize=16)
def _marginal_3_table(m: int):
    """The N = 3 marginal at lambda_1 = t in (0, 1) as an ``_int_table`` in t
    over one denominator, integrated exactly from the ``_law_tables`` pieces.

    For t > 0 the lambda_2 panels [-1, -t], [-t, 0] and [0, 1 - t] lie in
    the orthants (+,-,+), (+,-,-) and (+,+,-).  In each, lambda_3 = -t - lambda_2
    is substituted binomially, the Vandermonde multiplied in, every power of
    lambda_2 integrated and the limits c0 + c1 t expanded; the panels add up
    to one polynomial of degree 6M - 3.  The law is even, so it serves
    t = |lambda_1|.
    """
    ints, _, den, norm = _law_tables(3, m)
    scale = math.lcm(*range(1, 6 * m - 2))  # clears every 1/(j + 1) of int y^j dy
    coef = [0] * (6 * m - 2)
    for signs, lo, hi in (((1, -1, 1), (-1, 0), (0, -1)), ((1, -1, -1), (0, -1), (0, 0)),
                          ((1, 1, -1), (0, 0), (1, -1))):
        sub: Poly = {}  # the piece at (x, y, -x - y), keyed (i, j) for x^i y^j
        for a, rest in ints[signs][0].items():
            for b, last in rest.items():
                for c, v in last.items():
                    for j in range(c + 1):
                        key = (a + c - j, b + j)
                        sub[key] = sub.get(key, 0) + (-1) ** c * math.comb(c, j) * v
        for (i, j), v in sub.items():
            # (y - x)(z - x)(z - y) at z = -x - y is -2x^3 - 3x^2 y + 3x y^2 + 2y^3
            for (p, r), w in (((3, 0), -2), ((2, 1), -3), ((1, 2), 3), ((0, 3), 2)):
                e = j + r + 1
                u = w * v * (scale // e)
                for (c0, c1), s in ((hi, u), (lo, -u)):  # s (c0 + c1 t)^e
                    for k in range(e + 1):
                        coef[i + p + k] += s * math.comb(e, k) * c0 ** (e - k) * c1**k
    g = math.gcd(den * norm * scale, *coef)
    return _int_table({(k,): c // g for k, c in enumerate(coef) if c}), den * norm * scale // g


def single_eigenvalue_marginal(n: int, m: int, points) -> np.ndarray:
    """Average (single-eigenvalue) density at the given raw-lambda points.

    n = 2 uses the closed form ``n2_exact_density``; n = 3 evaluates the
    exact polynomial of ``_marginal_3_table``, each value the float nearest
    the exact rational.  The n = 3 value at lambda = 0 exactly is 0.0, as the
    whole lambda_2 line there lies on an orthant wall; its continuous limit
    at 0 is the polynomial's constant term.  Both give 0.0 for |lambda| >= 1
    and raise DomainError for a non-finite point.  Larger n is out of scope.
    """
    if n not in (2, 3):
        raise Unsupported("marginal density implemented for n in {2, 3} only")
    ts = np.abs(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(ts)):
        raise DomainError("points must be finite")
    out = np.zeros(ts.shape)
    inside = (ts > 0.0) & (ts < 1.0)
    if n == 2:
        out[inside] = [n2_exact_density(t, m) for t in ts[inside]]
    else:
        table, den = _marginal_3_table(m)
        out[inside] = [_exact_eval(table, den, (t,)) for t in ts[inside]]
    return out


def derivative_principle_selftest(*, tol: float = 1e-10, verbose: bool = False) -> bool:
    """Check the derivative principle on an analytically solvable ensemble.

    For a product-Gaussian diagonal law (the 2x2 GUE case) the principle
    must reproduce (1/(4 pi)) (l1-l2)^2 exp(-(l1^2+l2^2)/2) exactly.  The
    pairwise derivative difference is applied by central differences at h
    and h/2, extrapolated as (4 D(h/2) - D(h))/3, so the check shares no
    code with the polynomial path.  Returns False (with diagnostics) on
    mismatch.
    """

    def psi(a: float, b: float) -> float:
        return math.exp(-0.5 * (a * a + b * b)) / (2.0 * math.pi)

    def directional(a: float, b: float, h: float) -> float:
        # derivative of s -> psi(a + s, b - s) at 0
        return (psi(a + h, b - h) - psi(a - h, b + h)) / (2.0 * h)

    h = 1e-5
    ok = True
    for l1 in (-1.5, -0.5, 0.3, 1.1, 2.0):
        for l2 in (-1.5, -0.5, 0.3, 1.1, 2.0):
            if l1 == l2:
                continue
            d = (4.0 * directional(l1, l2, h / 2.0) - directional(l1, l2, h)) / 3.0
            got = 0.5 * (l2 - l1) * d
            want = (l1 - l2) ** 2 * math.exp(-0.5 * (l1 * l1 + l2 * l2)) / (4.0 * math.pi)
            if abs(got - want) > tol:
                ok = False
                if verbose:
                    print(f"selftest mismatch at ({l1}, {l2}): got {got!r}, want {want!r}")
    return ok
