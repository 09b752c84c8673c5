import math
import warnings

import numpy as np
import pytest

from conftest import sample_difference
from rmtdiff.errors import DimensionOrder, DomainError, NonHermitian, ZeroMatrix
from rmtdiff.sampling import (
    EnsembleParams,
    hermitian_eigenvalues,
    is_density_matrix,
    make_rng,
    page_entropy_mean,
    reduced_density_from_ginibre,
    sample_ginibre,
    sample_pure_state_reduced,
    von_neumann_entropy,
    worker_seed,
)


class TestEnsembleParams:
    def test_derived_ratios(self):
        p = EnsembleParams(n_small=80, m_large=50, weight_p=2.0, weight_q=0.5)
        assert p.dim_ratio == pytest.approx(1.6)
        assert p.weight_ratio == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleParams(n_small=0, m_large=3)
        with pytest.raises(ValueError):
            EnsembleParams(n_small=2, m_large=3, weight_p=0.0)

    @pytest.mark.parametrize(
        "n, m", [(4.5, 4), (4, 4.0), ("4", 4), (4, None), (0, 3), (np.int64(-1), 3)]
    )
    def test_non_integer_or_non_positive_dimensions(self, n, m):
        with pytest.raises(DomainError, match="n_small|m_large"):
            EnsembleParams(n_small=n, m_large=m)

    def test_numpy_integers_accepted(self):
        p = EnsembleParams(n_small=np.int64(4), m_large=np.int32(6))
        assert p.dim_ratio == pytest.approx(4 / 6)

    # np.int64 overflowed and np.uint64 warned in the 64-bit seed mixing at the first draw
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "seed", [np.int64(5), np.uint64(3), np.int32(-7), np.uint64(2**64 - 1)], ids=repr
    )
    def test_numpy_integer_seed_is_the_equal_int(self, seed):
        p = EnsembleParams(n_small=3, m_large=4, seed=seed)
        assert type(p.seed) is int and p.seed == int(seed)
        want = EnsembleParams(n_small=3, m_large=4, seed=int(seed)).rng(1).bytes(64)
        assert p.rng(1).bytes(64) == want
        assert make_rng(seed, np.int64(1)).bytes(64) == want

    # 1.5 and None passed construction and raised a bare TypeError at the first draw
    @pytest.mark.parametrize("seed", [1.5, 2.0, None, "3", np.float64(4.0)], ids=repr)
    def test_non_integer_seed_rejected_at_construction(self, seed):
        with pytest.raises(DomainError, match="seed"):
            EnsembleParams(n_small=3, m_large=4, seed=seed)

    @pytest.mark.parametrize("kw", [{"weight_p": 0.0}, {"weight_q": math.nan}, {"weight_p": 1e-320}])
    def test_bad_weights_are_domain_errors(self, kw):
        with pytest.raises(DomainError):
            EnsembleParams(n_small=2, m_large=3, **kw)

    # inf / inf is NaN and so passed the ratio check
    @pytest.mark.parametrize("p, q", [(math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf)])
    def test_infinite_weights_rejected(self, p, q):
        with pytest.raises(DomainError, match="weights must be finite"):
            EnsembleParams(n_small=2, m_large=3, weight_p=p, weight_q=q)


def _counted_calls():
    from rmtdiff.finite_law import (
        build_psi_poly, joint_eigen_density, n2_exact_density, single_eigenvalue_marginal, w_poly,
    )
    from rmtdiff.moments import operator_norm_asymptotic
    from rmtdiff.specfun import laguerre_coefficients

    return {
        "operator_norm_asymptotic": lambda v: operator_norm_asymptotic(1.0, v),
        "page_entropy_mean-n": lambda v: page_entropy_mean(v, 4),
        "page_entropy_mean-m": lambda v: page_entropy_mean(1, v),
        "sample_ginibre-rows": lambda v: sample_ginibre(v, 2, make_rng(0)),
        "sample_ginibre-cols": lambda v: sample_ginibre(2, v, make_rng(0)),
        "laguerre_coefficients": laguerre_coefficients,
        "w_poly": w_poly,
        "n2_exact_density": lambda v: n2_exact_density(0.1, v),
        "build_psi_poly-n": lambda v: build_psi_poly(v, 3),
        "build_psi_poly-m": lambda v: build_psi_poly(1, v),
        "joint_eigen_density-n": lambda v: joint_eigen_density((0.1, -0.1), v, 3),
        "joint_eigen_density-m": lambda v: joint_eigen_density((0.1, -0.1), 2, v),
        "single_eigenvalue_marginal-n": lambda v: single_eigenvalue_marginal(v, 3, [0.1]),
        "single_eigenvalue_marginal-m": lambda v: single_eigenvalue_marginal(2, v, [0.1]),
    }


# a float or non-finite dimension must neither pass (operator_norm_asymptotic(1.0, nan)
# read nan) nor reach range or math.comb, which raise a bare TypeError
@pytest.mark.parametrize("value", [0, 2.5, math.nan, math.inf])
@pytest.mark.parametrize("call", list(_counted_calls().values()), ids=list(_counted_calls()))
def test_dimension_not_a_positive_integer(call, value):
    with pytest.raises(DomainError, match="must be an integer >= 1"):
        call(value)


class TestGinibre:
    def test_shape(self):
        g = sample_ginibre(2, 3, make_rng(7))
        assert g.shape == (2, 3)
        assert g.dtype == np.complex128

    def test_determinism(self):
        a = sample_ginibre(4, 5, make_rng(99))
        b = sample_ginibre(4, 5, make_rng(99))
        assert np.array_equal(a, b)

    def test_worker_streams_differ(self):
        a = sample_ginibre(4, 5, make_rng(99, worker=0))
        b = sample_ginibre(4, 5, make_rng(99, worker=1))
        assert not np.allclose(a, b)
        assert worker_seed(99, 0) != worker_seed(99, 1)

    def test_second_moment(self):
        # E|g|^2 = 2 (unit variance per real component); LLN within 3 sigma
        n = 100_000
        g = sample_ginibre(1, n, make_rng(123)).ravel()
        m2 = np.mean(np.abs(g) ** 2)
        # Var(|g|^2) = 4 for a complex standard normal with E|g|^2 = 2
        sigma = math.sqrt(4.0 / n)
        assert abs(m2 - 2.0) < 3 * sigma


class TestReducedDensity:
    def test_scalar_normalizes_to_one(self):
        rho = reduced_density_from_ginibre(np.array([[3.0 - 4.0j]]))
        assert rho.shape == (1, 1)
        assert rho[0, 0] == pytest.approx(1.0)

    def test_identity_input(self):
        rho = reduced_density_from_ginibre(np.eye(2, dtype=complex))
        assert np.allclose(rho, 0.5 * np.eye(2))

    def test_zero_matrix_raises(self):
        with pytest.raises(ZeroMatrix):
            reduced_density_from_ginibre(np.zeros((2, 2), dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_input_rejected(self, bad):
        g = np.eye(2, dtype=complex)
        g[0, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="finite"):
            reduced_density_from_ginibre(g)

    @pytest.mark.parametrize("path", ["ginibre", "pure"])
    def test_density_matrix_invariants(self, path):
        params = EnsembleParams(n_small=4, m_large=9, seed=5)
        rng = params.rng()
        for _ in range(50):
            if path == "ginibre":
                rho = reduced_density_from_ginibre(sample_ginibre(4, 9, rng))
            else:
                rho = sample_pure_state_reduced(params, rng)
            assert is_density_matrix(rho)

    def test_pure_state_n1(self):
        params = EnsembleParams(n_small=1, m_large=7, seed=3)
        rho = sample_pure_state_reduced(params, params.rng())
        assert rho.shape == (1, 1)
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_two_paths_agree_on_purity(self):
        # mean Tr(rho^2) must match between the sampling paths within 3 sigma
        n_samp = 20_000
        pa = EnsembleParams(n_small=3, m_large=6, seed=11)
        pb = EnsembleParams(n_small=3, m_large=6, seed=12)
        rng_a, rng_b = pa.rng(), pb.rng()
        ginibre = (reduced_density_from_ginibre(sample_ginibre(3, 6, rng_a)) for _ in range(n_samp))
        pure = (sample_pure_state_reduced(pb, rng_b) for _ in range(n_samp))
        m_g = sum(np.vdot(rho, rho).real for rho in ginibre) / n_samp
        m_p = sum(np.vdot(rho, rho).real for rho in pure) / n_samp
        # purity fluctuations are O(1/(NM)); 3 sigma with a generous constant
        assert abs(m_g - m_p) < 3 * 0.2 / math.sqrt(n_samp)


class TestDifference:
    def test_trace_is_p_minus_q(self):
        params = EnsembleParams(n_small=5, m_large=8, weight_p=1.3, weight_q=0.4, seed=2)
        z = sample_difference(params, params.rng())
        assert np.trace(z).real == pytest.approx(0.9, abs=1e-10)
        assert np.max(np.abs(z - z.conj().T)) < 1e-14

    def test_equal_weights_traceless(self):
        params = EnsembleParams(n_small=6, m_large=6, seed=4)
        z = sample_difference(params, params.rng())
        assert abs(np.trace(z).real) < 1e-10

    def test_n1_exact(self):
        params = EnsembleParams(n_small=1, m_large=5, weight_p=0.7, weight_q=0.2, seed=0)
        z = sample_difference(params, params.rng())
        assert z[0, 0].real == pytest.approx(0.5, abs=1e-14)

    def test_rank_bound(self):
        # rank(Z) <= 2M: at least N - 2M exact zeros per draw
        params = EnsembleParams(n_small=100, m_large=20, seed=8)
        rng = params.rng()
        z = sample_difference(params, rng)
        lam = hermitian_eigenvalues(z).eigenvalues
        assert np.sum(np.abs(lam) <= 1e-10) >= 60
        assert np.sum(np.abs(lam) > 1e-9) <= 40

    def test_eigenvalue_range(self):
        params = EnsembleParams(n_small=10, m_large=10, seed=21)
        rng = params.rng()
        for _ in range(20):
            lam = hermitian_eigenvalues(sample_difference(params, rng)).eigenvalues
            assert lam[0] >= -1.0 - 1e-12 and lam[-1] <= 1.0 + 1e-12

    def test_pooled_mean_symmetric(self):
        from rmtdiff.montecarlo import difference_spectra

        params = EnsembleParams(n_small=8, m_large=8, seed=31)
        pool = difference_spectra(params, 1500, rescaled=False).ravel()
        # pooled mean is 0 within 3 standard errors
        se = pool.std() / math.sqrt(pool.size)
        assert abs(pool.mean()) < 3 * se


class TestEigenvalues:
    def test_identity(self):
        s = hermitian_eigenvalues(np.eye(3))
        assert np.allclose(s.eigenvalues, 1.0)

    def test_diagonal_sorted(self):
        s = hermitian_eigenvalues(np.diag([-0.3, 0.1, 0.2]))
        assert np.allclose(s.eigenvalues, [-0.3, 0.1, 0.2])

    def test_trace_invariance(self):
        rng = make_rng(17)
        a = sample_ginibre(50, 50, rng)
        h = a + a.conj().T
        s = hermitian_eigenvalues(h)
        assert np.sum(s.eigenvalues) == pytest.approx(np.trace(h).real, abs=1e-9)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitian):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "h", [np.ones(3), np.zeros((2, 3)), np.stack([np.eye(2), np.eye(2)]), np.float64(1.0)],
        ids=["1-d", "2x3", "stack", "scalar"],
    )
    def test_not_one_square_matrix_rejected(self, h):
        # without the shape check these raised NoConvergence, a broadcasting
        # ValueError, NonHermitian and NoConvergence
        with pytest.raises(DomainError, match="square matrix"):
            hermitian_eigenvalues(h)

    @pytest.mark.parametrize(
        "entries",
        [{(0, 0): math.nan}, {(1, 1): math.inf}, {(0, 1): -math.inf},
         {(0, 1): math.inf, (1, 0): math.inf}, {(1, 0): complex(0.5, math.nan)}],
    )
    def test_non_finite_rejected(self, entries):
        # [[nan, 0], [0, 1]] gave [0., -0.]
        h = np.eye(2, dtype=complex)
        for at, value in entries.items():
            h[at] = value
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="finite"):
            hermitian_eigenvalues(h)


# inf input must print no numpy RuntimeWarning from the deviation or the Gram product,
# and [[nan, 0], [0, 1]] is no density matrix
@pytest.mark.parametrize(
    "entries",
    [{(0, 0): math.nan}, {(0, 0): math.inf}, {(1, 1): -math.inf}, {(0, 1): math.inf},
     {(0, 1): math.inf, (1, 0): math.inf}],
)
def test_non_finite_matrix_quiet(entries):
    m = np.diag([0.0, 1.0]).astype(complex)
    for at, value in entries.items():
        m[at] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_density_matrix(m) is False
        with pytest.raises(DomainError, match="finite"):
            hermitian_eigenvalues(m)
        with pytest.raises(DomainError, match="finite"):
            reduced_density_from_ginibre(m)


class TestPageFormula:
    def test_n1(self):
        assert page_entropy_mean(1, 9) == 0.0

    def test_two_by_two(self):
        assert page_entropy_mean(2, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_large_m_approaches_log_n(self):
        n, m = 50, 5000
        assert abs(page_entropy_mean(n, m) - math.log(n)) < 0.01

    def test_requires_order(self):
        with pytest.raises(DimensionOrder):
            page_entropy_mean(5, 3)

    def test_entropy_helper(self):
        lam = np.array([0.5, 0.5, 0.0])
        assert von_neumann_entropy(lam) == pytest.approx(math.log(2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_entropy_non_finite_rejected(self, bad):
        # the > 1e-300 mask would drop a NaN and read 0.3466 for [nan, 0.5]
        with pytest.raises(DomainError):
            von_neumann_entropy([bad, 0.5])
