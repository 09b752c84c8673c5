"""Exact finite-dimension eigenvalue laws for the difference matrix.

On the zero-sum hyperplane the joint density of the diagonal elements of
Z = rho1 - rho2 is, inside each sign orthant, an explicit polynomial with
rational coefficients.  The sum over Laguerre-type weights w_k and the
powers of gamma = 1 - (1/2) sum |z_i| factorise per monomial: |z|^a has
coefficient P (-1/2)^|a| / (D - |a|)! prod_i u(a_i) with
u(t) = sum_k w_k (-2)^k / (t - k)! (see ``build_psi_poly``).  Applying the
Vandermonde differential operator prod_{i<j}(d_i - d_j) and multiplying by
the Vandermonde determinant yields the joint eigenvalue density.  The
operator is applied once per sign class of orthants; the other orthants'
pieces follow by permuting exponents and by reflection.

Measure convention: the hyperplane delta is consumed by eliminating the last
coordinate, i.e. every returned density is with respect to
(lambda_1, ..., lambda_{N-1}) with lambda_N = -sum of the others.  Under
this convention all densities integrate to one, which is what the tests pin.

Evaluation is exact by default: integer arithmetic over a common
denominator, rounded once to the nearest float (the differential operator
amplifies cancellation catastrophically in floating point for the
binomially large coefficients involved).  Each coordinate is x / 2^s
exactly, so the sum is one nested Horner pass in the 53-bit integers x, each
coefficient shifted to the common power-of-two denominator; the N = 3
marginal is integrated in those integers too.  The N = 2 marginal is a sum
of positive terms, evaluated by Horner in floats to 3e-13 relative
(``n2_exact_density``).  A float path serves bulk grids such as fig1, only
where its rounding bound is at most ``_FLOAT_TOL``: N = 2 up to M = 7 and
N = 3 at M = 3 (cancellation would make it err 9.0e-9 at M = 4 and 2.0e-6
at M = 5).  There each orthant's piece is one dense array of correctly
rounded coefficients, and a point costs a power table and one
matrix-vector product per variable; against the exact path it errs at most
5.2e-11 over 400 random N = 3, M = 3 points and 6.9e-11 at N = 2, M = 7.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from operator import itemgetter

import numpy as np

from ._checks import count, instance, points as _points, real  # an argument is named points
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
    "derivative_principle_selftest",
    "single_eigenvalue_marginal",
    "region_gamma",
]

BOUNDARY_TOL = 1e-9

# Largest monomial count comb(D + N, N) that ``build_psi_poly`` expands.
_MAX_PSI_TERMS = 10_000_000

_FLOAT_TOL = 1e-9  # largest rounding bound at which the float path is kept

Poly = dict


def _gamma(xs: list[float]) -> float:
    """``region_gamma`` of finite Python floats."""
    return 1.0 - 0.5 * sum(map(abs, xs))


def region_gamma(lambdas) -> float:
    """gamma = 1 - (1/2) sum |z_i|; positive exactly on the interior of the support region.

    Raises DomainError for a NaN or infinite entry."""
    return _gamma(_points("eigenvalues", lambdas, flat=True))


def _sign_factor(signs, exponents) -> int:
    return -1 if sum(e for s, e in zip(signs, exponents) if s < 0) % 2 else 1


def _int_table(poly: Poly):
    """Nest an integer table by exponent, first variable outermost, every level's
    exponents in descending order (as Horner takes them); with its top total degree."""
    trie: dict = {}
    for e, c in sorted(poly.items(), reverse=True):
        node = trie
        for k in e[:-1]:
            node = node.setdefault(k, {})
        node[e[-1]] = c
    return trie, max(map(sum, poly))


def _horner(node: dict, nums, shifts, budget: int) -> int:
    """Nested Horner over a trie in the numerators x_i, first variable outermost:
    each coefficient c_e enters shifted left by budget - sum_i shifts_i e_i, and
    the rest is multiplying by x_i (by x_i^g across a gap of g exponents)."""
    x, shift = nums[0], shifts[0]
    acc, prev = 0, next(iter(node))
    if len(nums) == 1:
        for k, c in node.items():  # descending exponents
            if prev - k == 1:  # the usual gap: spare the pow call
                acc = acc * x + (c << budget - shift * k)
            else:
                acc = acc * x ** (prev - k) + (c << budget - shift * k)
            prev = k
    else:
        nums, shifts = nums[1:], shifts[1:]
        for k, child in node.items():
            v = _horner(child, nums, shifts, budget - shift * k)
            acc = (acc * x if prev - k == 1 else acc * x ** (prev - k)) + v
            prev = k
    return acc * x**prev


def _exact_eval(table, den: int, point, *, vandermonde: bool = False) -> float:
    """sum_e c_e prod_i point_i^e_i / den for an ``_int_table``, times
    prod_{i<j}(point_j - point_i) if asked, as the float nearest the exact
    rational.  Every float is x / 2^s exactly, so with S the largest s and D
    the top total degree every term is an integer over 2^(S D): the sum is
    formed by nested Horner in the 53-bit numerators x, each coefficient
    shifted by S D - sum_i s_i e_i, and rounded once."""
    trie, degree = table
    ratios = [float(v).as_integer_ratio() for v in point]
    nums = [p for p, _ in ratios]
    shifts = [q.bit_length() - 1 for _, q in ratios]
    s = max(shifts)
    acc = _horner(trie, nums, shifts, s * degree)
    den <<= s * degree
    if vandermonde:
        xs = [p << (s - e) for p, e in zip(nums, shifts)]
        for i, j in combinations(range(len(xs)), 2):
            acc *= xs[j] - xs[i]
            den <<= s
    return acc / den


def _dense_table(poly: Poly, den: int) -> np.ndarray:
    """The polynomial as a dense array of shape (top + 1,) * n, entry e = c_e / den."""
    top = max(max(e) for e in poly)
    table = np.zeros((top + 1,) * len(next(iter(poly))))
    for e, c in poly.items():
        table[e] = c / den
    return table


def _float_eval(table: np.ndarray, point: np.ndarray) -> float:
    """sum_e table[e] prod_i point_i^e_i: one matrix-vector product per variable,
    last first, each on a 2-d view (one BLAS call, not one per leading index)."""
    k = table.shape[0]
    acc = table
    for row in point[::-1, None] ** np.arange(k, dtype=float):
        acc = acc.reshape(-1, k) @ row
    return float(acc[0])


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

    def evaluate(self, point) -> float:
        """Evaluate the smooth prefactor psi at a hyperplane point, exactly rounded.

        Raises DomainError for a NaN or infinite coordinate, or unless there are n_vars."""
        xs = _points("eigenvalues", point, flat=True)
        if len(xs) != self.n_vars:
            raise DomainError(f"expected {self.n_vars} coordinates, got {len(xs)}")
        return _exact_eval(*self._exact[1:], list(map(abs, xs)))

    @property
    def term_count(self) -> int:
        return len(self.base)

    def to_csv(self, path) -> None:
        """Exact rows `orthant,e_1,...,e_N,coefficient`, then trailer lines `n`, `m`, `terms`."""
        with open(path, "w") as fh:
            cols = ",".join(f"e{i+1}" for i in range(self.n_vars))
            fh.write(f"orthant,{cols},coefficient\n")
            for signs in product((1, -1), repeat=self.n_vars):
                tag = "".join("+" if s > 0 else "-" for s in signs)
                piece = self.piece(signs)
                for e, c in sorted(piece.items()):
                    fh.write(f"{tag},{','.join(map(str, e))},{c.numerator}/{c.denominator}\n")
            fh.write(f"# n={self.n_vars}\n# m={self.m_large}\n# terms={self.term_count}\n")


def _bounded_tuples(support, n: int, budget: int):
    """Tuples of n entries from the ascending ``support`` whose sum is <= budget."""
    if n == 0:
        return [()]
    return (
        (t,) + rest for t in support if t <= budget
        for rest in _bounded_tuples(support, n - 1, budget - t)
    )


def build_psi_poly(n: int, m: int) -> OrthantPiecewisePoly:
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
    exceeds ``_MAX_PSI_TERMS``.
    """
    n, m = count("n", n), count("m", m)
    if n > m:
        raise DimensionOrder(f"requires n <= m, got n={n} > m={m}")
    D = n * (2 * m - 1) - 1
    if math.comb(D + n, n) > _MAX_PSI_TERMS:
        raise SizeLimit(f"psi expansion for (n={n}, m={m}) has comb({D + n}, {n})"
                        f" monomials, more than {_MAX_PSI_TERMS}")
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


def _orthant_pieces(nums: Poly, n: int) -> dict:
    """The Vandermonde-differentiated psi piece of each orthant with both signs,
    differentiated once per sign class (one class per count j <= N/2 of minus
    signs).  psi is symmetric, so where s'_i = s_pi(i) the piece of s' is that of
    s with exponents permuted alike, times sgn(pi); and the piece of -s is that of
    s with each coefficient times (-1)^(|e| + N(N-1)/2)."""
    half = n * (n - 1) // 2
    mixed = [s for s in product((1, -1), repeat=n) if len(set(s)) == 2]
    pieces: dict = {}
    for signs in sorted(mixed, key=lambda s: s.count(-1)):  # the class's representative first
        j = signs.count(-1)
        if 2 * j > n:  # the mirror of an orthant with fewer minus signs
            pieces[signs] = {e: -c if (sum(e) + half) % 2 else c
                             for e, c in pieces[tuple(-v for v in signs)].items()}
            continue
        rep = (1,) * (n - j) + (-1,) * j
        if signs == rep:
            pieces[rep] = _apply_difference_operator(
                {e: c * _sign_factor(rep, e) for e, c in nums.items()}, n)
            continue
        plus, minus = iter(range(n - j)), iter(range(n - j, n))
        perm = [next(plus) if v > 0 else next(minus) for v in signs]
        sgn = (-1) ** sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
        take = itemgetter(*perm)
        pieces[signs] = {take(e): sgn * c for e, c in pieces[rep].items()}
    return pieces


@lru_cache(maxsize=16)
def _law_tables(n: int, m: int):
    """Per orthant, the Vandermonde-differentiated psi piece as integer numerators
    over psi's common denominator L, and its ``_dense_table`` (none where the
    rounding bound u sum_e |C_e| / prod_p p! exceeds ``_FLOAT_TOL``); plus L and
    prod_p p!.  Only the 2^N - 2 orthants with both signs: no other meets the
    zero-sum hyperplane off the walls."""
    nums, _, den = build_psi_poly(n, m)._exact
    norm = math.prod(math.factorial(p) for p in range(1, n + 1))
    pieces = _orthant_pieces(nums, n)
    ints = {signs: _int_table(q) for signs, q in pieces.items()}
    bound = max(sum(map(abs, q.values())) for q in pieces.values()) / den * 2.0**-53 / norm
    floats = {}
    if bound <= _FLOAT_TOL:
        floats = {signs: _dense_table(q, den) for signs, q in pieces.items()}
    return ints, floats, den, norm


def joint_eigen_density(lambdas, n: int, m: int, *, exact: bool = True) -> float:
    """Joint eigenvalue density at an interior point of the support region.

    Implements the derivative principle for unitarily invariant ensembles:
    density = (prod_p p!)^{-1} * Vandermonde(lambda) * [product of pairwise
    derivative differences applied to psi](lambda); the hyperplane delta
    commutes through the operator and is consumed per the module convention.

    Points within 1e-9 of an orthant wall (some lambda_i = 0) or of the
    support-region boundary (gamma = 0) are rejected: distributional
    boundary contributions are out of scope.  A NaN or infinite entry raises
    DomainError.  ``exact=False`` is exact too except at N = 2, M <= 7 and
    N = 3, M = 3 (float error bound <= 1e-9).
    """
    n, m, exact = count("n", n), count("m", m), instance("exact", exact, bool)
    xs = _points("eigenvalues", lambdas, flat=True)
    if np.shape(lambdas) != (n,):
        raise DomainError(f"expected {n} eigenvalues, got shape {np.shape(lambdas)}")
    if n > m:
        raise DimensionOrder(f"requires n <= m, got n={n} > m={m}")
    if abs(sum(xs)) > 1e-12:
        raise DomainError("eigenvalues must sum to zero (within 1e-12)")
    if min(map(abs, xs)) <= BOUNDARY_TOL:
        raise BoundaryPoint("a coordinate is within 1e-9 of an orthant wall")
    gam = _gamma(xs)
    if gam <= BOUNDARY_TOL:
        if gam <= -BOUNDARY_TOL:
            return 0.0  # outside the support region entirely
        raise BoundaryPoint("point is within 1e-9 of the support-region boundary")
    ints, floats, den, norm = _law_tables(n, m)
    signs = tuple(1 if v > 0 else -1 for v in xs)
    if exact or not floats:
        val = _exact_eval(ints[signs], den * norm, xs, vandermonde=True)
    else:
        vand = math.prod(xs[j] - xs[i] for i, j in combinations(range(n), 2))
        val = vand * _float_eval(floats[signs], np.array(xs)) / norm
    if val < -1e-9:
        msg = f"joint density evaluated to {val:.3e} < 0 at {xs}"
        warnings.warn(msg, NegativeDensityWarning, stacklevel=2)
    return val


def w_poly(m: int) -> list[Fraction]:
    """Exact coefficients of W(a) = sum_k C(M-1,k) ((2(M-1)-k)!)^2 / (4(M-1)-2k+1)! a^k.

    W is the degree-(M-1) polynomial through which the two-dimensional
    marginal density is expressed; Python big integers keep it exact for
    any M.
    """
    mm = count("m", m) - 1
    return [
        Fraction(
            math.comb(mm, k) * math.factorial(2 * mm - k) ** 2,
            math.factorial(4 * mm - 2 * k + 1),
        )
        for k in range(m)
    ]


def _ln(q: Fraction) -> float:
    """ln q for a positive rational of any size, to a few ulps of |ln q|."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    return math.log(float(q / Fraction(2) ** e)) + e * math.log(2.0)


@lru_cache(maxsize=64)
def _n2_terms(m: int):
    """The positive terms of ``n2_exact_density``, k = 1..M-1, with a_k = c_k (2M-1-k)
    and b_k = c_k (2M-2-k): ln(K a_max), the pairs (a_k, b_k) / a_max and True for
    Horner; or, where a scaled b_k leaves the normal float range, ln K, the pairs
    (ln b_k, a_k / b_k) and False."""
    w = w_poly(m)
    ks = range(1, m)
    b = [k * w[k] for k in ks]  # c_k (2M - 2 - k) = k w_k
    a = [bk * (2 * m - 1 - k) / (2 * m - 2 - k) for k, bk in zip(ks, b)]
    K = Fraction(math.factorial(2 * m - 1) ** 2, math.factorial(m - 1) ** 4)
    top = max(a)
    if min(b) / top >= sys.float_info.min:
        return _ln(K * top), tuple((float(ak / top), float(bk / top)) for ak, bk in zip(a, b)), True
    return _ln(K), tuple((_ln(bk), float(ak / bk)) for ak, bk in zip(a, b)), False


def n2_exact_density(lam: float, m: int) -> float:
    """Closed-form marginal eigenvalue density for the two-dimensional case.

    rho(t) = -t d/dt [K (1-t)^(4M-3) W(alpha)] with t = |lambda|,
    alpha = t/(1-t)^2, K = Gamma(2M)^2/Gamma(M)^4 and W = ``w_poly``.
    Differentiating term by term and using the coefficient identity
    (k+1) w_{k+1} = 2(M-1-k)(4M-3-2k) w_k/(2M-2-k) gives a sum of positive terms,

        rho(t) = K t^2 (1-t)^(4M-6) sum_{k=1}^{M-1} c_k alpha^(k-1) [(2M-1-k) + (2M-2-k) t],

    c_k = k w_k/(2M-2-k), with no cancellation as t -> 0 or t -> 1 (M = 1 is
    rho = t).  The sum is one Horner pass in alpha (in 1/alpha where alpha > 1)
    over per-M coefficients scaled by their largest, the magnitude carried in
    logs, so the value is relatively accurate wherever it is a normal float
    (within 3e-13 of the exact rational up to M = 700).  For M whose scaled
    coefficients leave the normal float range (M >= 445) the same terms are
    summed as exponentials of their logs.  Even in lambda; vanishes at 0 by
    eigenvalue repulsion.
    """
    m, t = count("m", m), abs(real("lam", lam))
    if not t < 1.0:
        raise DomainError(f"|lambda| must be < 1, got {lam!r}")
    if t == 0.0 or m == 1:
        return t
    ln_mag, coef, horner = _n2_terms(m)
    ln_t, ln_s = math.log(t), math.log1p(-t)
    ln_alpha = ln_t - 2.0 * ln_s
    if not horner:
        terms = [lb + math.log(r + t) + k * ln_alpha for k, (lb, r) in enumerate(coef)]
        peak = max(terms)
        ln_mag += peak + math.log(math.fsum(math.exp(v - peak) for v in terms))
        return math.exp(ln_mag + 2.0 * ln_t + (4 * m - 6) * ln_s)
    acc = 0.0
    if ln_alpha <= 0.0:
        x = math.exp(ln_alpha)
        for ak, bk in reversed(coef):
            acc = acc * x + (ak + bk * t)
        return math.exp(ln_mag + 2.0 * ln_t + (4 * m - 6) * ln_s) * acc
    x = math.exp(-ln_alpha)  # alpha^(M-2) taken out: t^M (1-t)^(2M-2) in front
    for ak, bk in coef:
        acc = acc * x + (ak + bk * t)
    return math.exp(ln_mag + m * ln_t + (2 * m - 2) * ln_s) * acc


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
    n, m = count("n", n), count("m", m)
    if n not in (2, 3):
        raise Unsupported("marginal density implemented for n in {2, 3} only")
    ts = np.abs(_points("points", points))
    out = np.zeros(ts.shape)
    inside = (ts > 0.0) & (ts < 1.0)
    if n == 2:
        out[inside] = [n2_exact_density(t, m) for t in ts[inside]]
    else:
        table, den = _marginal_3_table(m)
        out[inside] = [_exact_eval(table, den, (t,)) for t in ts[inside]]
    return out


def derivative_principle_selftest() -> bool:
    """Check the derivative principle on an analytically solvable ensemble.

    For a product-Gaussian diagonal law (the 2x2 GUE case) the principle
    must reproduce (1/(4 pi)) (l1-l2)^2 exp(-(l1^2+l2^2)/2) exactly.  The
    pairwise derivative difference is applied by central differences at h
    and h/2, extrapolated as (4 D(h/2) - D(h))/3, so the check shares no
    code with the polynomial path.  Returns False if any of the 20 points
    misses by more than 1e-10.
    """

    def psi(a: float, b: float) -> float:
        return math.exp(-0.5 * (a * a + b * b)) / (2.0 * math.pi)

    def directional(a: float, b: float, h: float) -> float:
        # derivative of s -> psi(a + s, b - s) at 0
        return (psi(a + h, b - h) - psi(a - h, b + h)) / (2.0 * h)

    h = 1e-5
    for l1 in (-1.5, -0.5, 0.3, 1.1, 2.0):
        for l2 in (-1.5, -0.5, 0.3, 1.1, 2.0):
            if l1 == l2:
                continue
            d = (4.0 * directional(l1, l2, h / 2.0) - directional(l1, l2, h)) / 3.0
            got = 0.5 * (l2 - l1) * d
            want = (l1 - l2) ** 2 * math.exp(-0.5 * (l1 * l1 + l2 * l2)) / (4.0 * math.pi)
            if abs(got - want) > 1e-10:
                return False
    return True
