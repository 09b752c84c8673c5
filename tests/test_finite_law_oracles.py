"""Independent oracles for the exact finite-N law.

* sympy expands the defining sum of psi and must give the same exact
  coefficient table as ``build_psi_poly``;
* a plain ``Fraction`` evaluator must give bit-identical floats to the
  integer path of ``psi.evaluate`` and ``joint_eigen_density``;
* scipy ``quad`` over the joint density, float and exact, must reproduce
  the closed-form N = 3 marginal.
"""

import itertools
import math
import time
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from rmtdiff.errors import BoundaryPoint, NegativeDensityWarning, SizeLimit
from rmtdiff.finite_law import (
    _apply_difference_operator,
    _marginal_3_table,
    build_psi_poly,
    joint_eigen_density,
    region_gamma,
    single_eigenvalue_marginal,
)


def _sympy_psi(n: int, m: int) -> dict:
    """psi in the all-positive orthant from its defining sum, as an exact sympy Poly."""
    z = sp.symbols(f"z1:{n + 1}")
    d = n * (2 * m - 1) - 1
    gamma = sp.Poly(1 - sum(z) / 2, *z, domain=sp.QQ)
    powers = [sp.Poly(1, *z, domain=sp.QQ)]
    for _ in range(d):
        powers.append(powers[-1] * gamma)
    f = sp.factorial
    w = [f(2 * (m - 1) - k) / (f(k) * f(m - 1 - k)) for k in range(m)]
    total = sp.Poly(0, *z, domain=sp.QQ)
    for ks in itertools.product(range(m), repeat=n):
        e = d - sum(ks)
        mono = sp.Poly(sp.Mul(*(w[k] * zi**k for zi, k in zip(z, ks))), *z, domain=sp.QQ)
        total += powers[e] * mono * sp.Rational(1, math.factorial(e))
    total *= f(n * m - 1) ** 2 / f(m - 1) ** n
    return {e: Fraction(int(c.p), int(c.q)) for e, c in total.terms() if c != 0}


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (2, 4), (3, 3)])
def test_psi_matches_sympy_expansion(n, m):
    assert build_psi_poly(n, m).base == _sympy_psi(n, m)


def _fraction_eval(poly: dict, point) -> Fraction:
    """sum_e c_e prod_i point_i^e_i in exact rationals, term by term."""
    fr = [Fraction(float(v)) for v in point]
    acc = Fraction(0)
    for e, c in poly.items():
        term = c
        for fv, k in zip(fr, e):
            term *= fv**k
        acc += term
    return acc


@lru_cache(maxsize=None)
def _fraction_pieces(n: int, m: int):
    psi = build_psi_poly(n, m)
    pieces = {s: psi.piece(s) for s in itertools.product((1, -1), repeat=n)}
    return psi, pieces, {s: _apply_difference_operator(p, n) for s, p in pieces.items()}


def _interior(n: int):
    """Zero-sum points clear of the orthant walls and of the region boundary."""
    head = st.lists(st.floats(-0.7, 0.7), min_size=n - 1, max_size=n - 1)

    def close(xs):
        return np.array(xs + [-math.fsum(xs)])

    return head.map(close).filter(
        lambda lam: np.min(np.abs(lam)) > 1e-6 and region_gamma(lam) > 1e-6
    )


@pytest.mark.parametrize("n,m", [(2, 5), (3, 3), (3, 4)])
def test_integer_path_is_bit_identical(n, m):
    psi, pieces, diffs = _fraction_pieces(n, m)
    norm = math.prod(math.factorial(p) for p in range(1, n + 1))

    @settings(max_examples=40)
    @given(_interior(n))
    def check(lam):
        signs = tuple(1 if v > 0 else -1 for v in lam)
        assert psi.evaluate(lam) == float(_fraction_eval(pieces[signs], lam))
        fr = [Fraction(float(v)) for v in lam]
        vand = math.prod(fr[j] - fr[i] for i, j in itertools.combinations(range(n), 2))
        want = float(vand * _fraction_eval(diffs[signs], lam) / norm)
        assert joint_eigen_density(lam, n, m, exact=True) == want

    check()


def _quad_marginal(l1: float, m: int, exact: bool = False) -> float:
    """Per-point reference: quad over lambda_2 of the joint density, split at the walls."""
    if abs(l1) >= 1.0:
        return 0.0

    def dens(l2: float) -> float:
        try:
            return joint_eigen_density((l1, l2, -l1 - l2), 3, m, exact=exact)
        except BoundaryPoint:
            return 0.0

    lo, hi = (-1.0, 1.0 - l1) if l1 >= 0.0 else (-1.0 - l1, 1.0)
    cuts = sorted({lo, hi, 0.0, -l1})
    with warnings.catch_warnings():
        # at m = 3 the float path carries up to 4e-10 of roundoff (it can read a little
        # below 0 next to the region boundary), so quad cannot certify 1e-13 and says so;
        # m = 4 has no float path (its bound 1.3e-7 exceeds 1e-9): the density is exact
        warnings.simplefilter("ignore", NegativeDensityWarning)
        warnings.simplefilter("ignore", IntegrationWarning)
        return sum(
            quad(dens, a, b, epsabs=1e-13, epsrel=0.0, limit=50)[0]
            for a, b in zip(cuts[:-1], cuts[1:])
            if b > a
        )


@pytest.mark.parametrize("m", [3, 4])
def test_batched_marginal_matches_quad(m):
    edges = [0.0, 1.0, -1.0, 1.2, -1.2, 1 - 1e-15]
    xs = np.array(edges + [-0.999, -0.6, -0.35, -0.05, 1e-3, 0.2, 0.35, 0.8])
    got = single_eigenvalue_marginal(3, m, xs)
    want = np.array([_quad_marginal(float(x), m) for x in xs])
    assert got.shape == xs.shape
    assert np.max(np.abs(got - want)) <= 1e-9
    assert np.all(got[[0, 1, 2, 3, 4]] == 0.0)


@pytest.mark.parametrize("m", [3, 4])
def test_batched_marginal_independent_of_batch(m):
    xs = np.linspace(-0.97, 0.97, 41)
    batch = single_eigenvalue_marginal(3, m, xs)
    alone = [single_eigenvalue_marginal(3, m, [x])[0] for x in xs]
    assert np.array_equal(batch, alone)
    assert np.array_equal(single_eigenvalue_marginal(3, m, xs[5:30]), batch[5:30])


def test_batched_marginal_empty_input():
    out = single_eigenvalue_marginal(3, 3, [])
    assert out.shape == (0,)


@pytest.mark.parametrize("m", range(3, 9))
def test_marginal_mass_is_exactly_one(m):
    (coef, _), den = _marginal_3_table(m)
    assert 2 * sum(Fraction(c, den) / (k + 1) for k, c in coef.items()) == 1


@pytest.mark.parametrize("m", range(3, 9))
def test_marginal_nonnegative(m):
    xs = np.linspace(-(1 - 1e-6), 1 - 1e-6, 401)
    assert np.all(single_eigenvalue_marginal(3, m, xs) >= 0.0)


def test_marginal_matches_quad_of_exact_joint_density():
    # the exact joint density keeps full precision at m = 5 (no float path there:
    # its rounding bound, 2.8e-5, exceeds 1e-9)
    xs = [-0.6, 0.05, 0.35]
    want = [_quad_marginal(x, 5, exact=True) for x in xs]
    assert np.max(np.abs(single_eigenvalue_marginal(3, 5, xs) - want)) <= 1e-12


def test_size_limit_raises_before_any_work():
    # comb(399, 5) ~ 8.2e10 monomials, far above the expansion limit of build_psi_poly
    start = time.perf_counter()
    with pytest.raises(SizeLimit):
        build_psi_poly(5, 40)
    assert time.perf_counter() - start < 0.1
