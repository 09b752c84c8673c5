
import ctypes
import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import sample_difference
from rmtdiff import harness, montecarlo
from rmtdiff.errors import DomainError
from rmtdiff.harness import run_hist, theory_overlay, write_histogram_csv, default_meta
from rmtdiff.montecarlo import (
    build_histogram,
    difference_spectra,
    l1_distance,
    mean_entropy_mc,
    operator_norm_mc,
    trace_distance_mc,
)
from rmtdiff.sampling import (
    EnsembleParams,
    _reduced_density_batch,
    hermitian_eigenvalues,
    make_rng,
    von_neumann_entropy,
)


class TestSpectra:
    def test_shape_and_order(self):
        params = EnsembleParams(n_small=5, m_large=7, seed=1)
        s = difference_spectra(params, 11)
        assert s.shape == (11, 5)
        assert np.all(np.diff(s, axis=1) >= 0)

    def test_rescaling(self):
        params = EnsembleParams(n_small=4, m_large=6, seed=2)
        raw = difference_spectra(params, 3, rescaled=False)
        scaled = difference_spectra(params, 3, rescaled=True)
        assert np.allclose(scaled, 4 * raw)

    def test_deterministic(self):
        params = EnsembleParams(n_small=4, m_large=6, seed=3)
        a = difference_spectra(params, 8)
        b = difference_spectra(params, 8)
        assert np.array_equal(a, b)

    def test_row_sums_vanish(self):
        params = EnsembleParams(n_small=6, m_large=9, seed=4)
        s = difference_spectra(params, 5, rescaled=False)
        assert np.max(np.abs(s.sum(axis=1))) < 1e-10


def _reference_draw(params: EnsembleParams, rng: np.random.Generator) -> np.ndarray:
    """One draw of the kernel's construction as a full N x N matrix.

    Entry by entry, in the kernel's stream order: rho1 = B B^T/||B||^2 with
    B the bidiagonal Laguerre factor, rho2 = Y Y^H/||Y||^2 with Y the
    Bartlett block on top of the upper trapezoid, both zero-padded to N x N.
    """
    n, m = params.n_small, params.m_large
    k, big = min(n, m), max(n, m)
    r = min(n - k, k)
    cnormal = lambda: complex(rng.standard_normal(), rng.standard_normal())  # noqa: E731
    b = np.zeros((k, k))
    for i in range(k):
        b[i, i] = np.sqrt(rng.chisquare(2 * (big - i)))
    for i in range(k - 1):
        b[i + 1, i] = np.sqrt(rng.chisquare(2 * (k - 1 - i)))
    y = np.zeros((n, k), dtype=complex)
    for i in range(k):
        y[i, i] = np.sqrt(rng.chisquare(2 * (m - i)))
    for i in range(k):
        for j in range(i):
            y[i, j] = cnormal()
    for j in range(r):
        y[k + j, j] = np.sqrt(rng.chisquare(2 * (n - m - j)))
    for j in range(r):
        for col in range(j + 1, k):
            y[k + j, col] = cnormal()
    rho1 = np.zeros((n, n))
    rho1[:k, :k] = b @ b.T / np.sum(b * b)
    rho2 = y @ y.conj().T / np.sum(np.abs(y) ** 2)
    return params.weight_p * rho1 - params.weight_q * rho2


class TestReducedKernel:
    # (N, M, the exact-zero atom 1 - 2M/N is at least a fifth of the spectrum)
    SHAPES = [(100, 20, True), (80, 30, True), (61, 30, False), (3, 1, True), (7, 3, False)]

    @pytest.mark.parametrize("n,m,mostly_atom", SHAPES)
    @pytest.mark.parametrize("q", [0.3, 1.0, 2.0])
    def test_matches_scalar_path(self, n, m, mostly_atom, q):
        assert (5 * (n - 2 * m) >= n) is mostly_atom
        params = EnsembleParams(n_small=n, m_large=m, weight_q=q, seed=0)
        for s in range(3):
            batched = montecarlo._spectra(params, [(make_rng(s, 0), 1)])[0]
            scalar = hermitian_eigenvalues(_reference_draw(params, make_rng(s, 0))).eigenvalues
            assert np.max(np.abs(batched - scalar)) < 1e-12
            assert np.all(np.diff(batched) >= 0)
            assert abs(batched.sum() - (1.0 - q)) < 1e-12
            assert int(np.count_nonzero(batched == 0.0)) == max(n - 2 * m, 0)

    @pytest.mark.parametrize(
        "n,m,q", [(3, 5, 1.0), (7, 3, 1.0), (12, 4, 2.0), (8, 10, 0.5), (3, 1, 1.0)]
    )
    def test_law_matches_ginibre_route(self, n, m, q):
        # the kernel's spectrum law against full Ginibre draws of the conftest oracle
        params = EnsembleParams(n_small=n, m_large=m, weight_q=q, seed=31)
        draws = 3000
        kernel = difference_spectra(params, draws, rescaled=False)
        rng = make_rng(97, 0)
        ginibre = np.array(
            [hermitian_eigenvalues(sample_difference(params, rng)).eigenvalues
             for _ in range(draws)]
        )
        for col in (0, -1):  # lambda_min, lambda_max
            assert ks_2samp(kernel[:, col], ginibre[:, col]).pvalue > 1e-3
        # exact zeros in the kernel, rounding-size ones (~1e-16) in the Ginibre route
        zeros = max(n - 2 * m, 0)
        assert np.all(np.count_nonzero(kernel == 0.0, axis=1) == zeros)
        assert np.all(np.count_nonzero(np.abs(ginibre) < 1e-12, axis=1) == zeros)

    @pytest.mark.parametrize("n,m,q", [(12, 4, 2.0), (8, 10, 0.5)])
    def test_second_moment(self, n, m, q):
        # E Tr Z^2 = (p^2 + q^2) E Tr rho^2 - 2pq Tr(E rho1 E rho2)
        #          = (p^2 + q^2)(N + M)/(NM + 1) - 2pq/N,  here with p = 1
        params = EnsembleParams(n_small=n, m_large=m, weight_q=q, seed=2024)
        tr_z2 = np.sum(difference_spectra(params, 4000, rescaled=False) ** 2, axis=1)
        expected = (1.0 + q * q) * (n + m) / (n * m + 1) - 2.0 * q / n
        stderr = tr_z2.std(ddof=1) / np.sqrt(tr_z2.size)
        assert abs(tr_z2.mean() - expected) < 5.0 * stderr

    # N < M, M < N < 2M and N > 2M; p != 1 in one of them
    @pytest.mark.parametrize("n,m,p,q", [(8, 10, 1.0, 0.5), (5, 3, 0.7, 0.5), (12, 4, 1.0, 2.0)])
    def test_third_moment(self, n, m, p, q):
        # E Tr rho^3 = (N^2 + M^2 + 3NM + 1)/((NM + 1)(NM + 2)); the cross terms
        # factor as Tr(E rho1^2 E rho2) = E Tr rho^2 / N by unitary invariance:
        # E Tr Z^3 = (p^3 - q^3) E Tr rho^3 - 3pq(p - q)(N + M)/(N(NM + 1))
        params = EnsembleParams(n_small=n, m_large=m, weight_p=p, weight_q=q, seed=2025)
        tr_z3 = np.sum(difference_spectra(params, 20_000, rescaled=False) ** 3, axis=1)
        nm = n * m
        expected = (p**3 - q**3) * (n * n + m * m + 3 * nm + 1) / ((nm + 1) * (nm + 2)) - (
            3 * p * q * (p - q) * (n + m) / (n * (nm + 1))
        )
        stderr = tr_z3.std(ddof=1) / np.sqrt(tr_z3.size)
        assert abs(tr_z3.mean() - expected) < 5.0 * stderr


class TestPooling:
    def test_deterministic_given_workers(self):
        params = EnsembleParams(n_small=4, m_large=5, seed=9)
        a = difference_spectra(params, 40, workers=3).ravel()
        b = difference_spectra(params, 40, workers=3).ravel()
        assert np.array_equal(a, b)

    def test_worker_invariance_of_statistics(self):
        params = EnsembleParams(n_small=20, m_large=20, seed=10)
        a = difference_spectra(params, 1000, workers=1).ravel()
        b = difference_spectra(params, 1000, workers=8).ravel()
        ha = build_histogram(a, 40, value_range=(-6, 6))
        hb = build_histogram(b, 40, value_range=(-6, 6))
        l1 = float(
            np.sum(np.abs(ha.normalized_density - hb.normalized_density) * ha.widths)
        )
        assert l1 < 0.2  # sub-streams differ, the distribution does not

    def test_size(self):
        params = EnsembleParams(n_small=3, m_large=3, seed=11)
        assert difference_spectra(params, 17, workers=4).ravel().size == 17 * 3

    @pytest.mark.parametrize("n,m", [(5, 6), (12, 4)])  # full rank, exact zeros
    def test_stream_partition(self, n, m):
        # stream w = (seed, w) draws 17 // 4 samples, one more for w < 17 % 4,
        # the streams are joined in stream order, and the statistics reduce
        # the joined (17, N) array
        params = EnsembleParams(n_small=n, m_large=m, weight_q=0.7, seed=21)
        joined = np.concatenate([
            montecarlo._spectra(params, [(make_rng(params.seed, w), count)])
            for w, count in enumerate((5, 4, 4, 4))
        ])
        pooled = difference_spectra(params, 17, workers=4, rescaled=False).ravel()
        assert np.array_equal(pooled, joined.ravel())
        trace = float(np.sum(np.abs(joined)) * 0.5) / 17
        assert trace_distance_mc(params, 17, workers=4) == trace
        norm = float(np.sum(np.max(np.abs(joined), axis=1))) / 17
        assert operator_norm_mc(params, 17, workers=4) == norm

    @pytest.mark.parametrize("workers", [1, 3, 4, 20])
    def test_front_end_takes_workers(self, workers):
        # difference_spectra's rows are the joined sub-streams, scaled by N;
        # the pooled spectrum is its ravel, with streams past n_samples skipped
        params = EnsembleParams(n_small=12, m_large=4, weight_q=0.7, seed=23)
        base, extra = divmod(17, workers)
        joined = np.concatenate([
            montecarlo._spectra(params, [(make_rng(params.seed, w), base + (w < extra))])
            for w in range(min(workers, 17))
        ])
        got = difference_spectra(params, 17, workers=workers)
        assert got.shape == (17, 12)
        assert np.array_equal(got, joined * 12)
        assert np.array_equal(difference_spectra(params, 17, workers=workers, rescaled=False), joined)
        assert np.array_equal(difference_spectra(params, 17, workers=workers).ravel(), got.ravel())

    @pytest.mark.parametrize("n, m, q", [(13, 7, 0.3), (40, 50, 1.0)])
    def test_one_pass_over_all_streams(self, monkeypatch, n, m, q):
        # 10 draws a slice: each of the streams of 34, 33 and 33 draws spans 4 slices
        monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", 10 * max(n * m, n * n))
        params = EnsembleParams(n_small=n, m_large=m, weight_q=q, seed=22)
        on_cores, calls = montecarlo._on_cores, []

        def counting(*args):
            calls.append(args[1])
            return on_cores(*args)

        monkeypatch.setattr(montecarlo, "_on_cores", counting)
        pooled = difference_spectra(params, 100, workers=3, rescaled=False).ravel()
        assert len(calls) == 1
        streams = [
            montecarlo._spectra(params, [(make_rng(params.seed, w), count)])
            for w, count in enumerate((34, 33, 33))
        ]
        assert all(len(montecarlo._batches(n, m, s.shape[0])) == 4 for s in streams)
        assert np.array_equal(pooled, np.concatenate([s.ravel() for s in streams]))

    @pytest.mark.parametrize(
        "fn", [difference_spectra, trace_distance_mc, operator_norm_mc, mean_entropy_mc]
    )
    def test_zero_samples_raise(self, fn):
        with pytest.raises(ValueError, match="n_samples"):
            fn(EnsembleParams(n_small=3, m_large=3, seed=11), 0)

    @pytest.mark.parametrize(
        "fn", [difference_spectra, trace_distance_mc, operator_norm_mc, mean_entropy_mc]
    )
    @pytest.mark.parametrize("count", [2.5, 3.0, "3", None])
    def test_non_integer_samples_raise(self, fn, count):
        with pytest.raises(DomainError, match="n_samples"):
            fn(EnsembleParams(n_small=3, m_large=3, seed=11), count)

    @pytest.mark.parametrize(
        "fn", [difference_spectra, trace_distance_mc, operator_norm_mc]
    )
    @pytest.mark.parametrize("workers", [2.5, 0, -1])
    def test_bad_workers_raise(self, fn, workers):
        with pytest.raises(DomainError, match="workers"):
            fn(EnsembleParams(n_small=3, m_large=3, seed=11), 10, workers=workers)

    def test_numpy_integer_counts(self):
        params = EnsembleParams(n_small=np.int64(3), m_large=np.int32(4), seed=11)
        got = difference_spectra(params, np.int64(10), workers=np.int64(2)).ravel()
        want = difference_spectra(EnsembleParams(3, 4, seed=11), 10, workers=2).ravel()
        assert np.array_equal(got, want)


class TestHistogram:
    def test_mass_equals_fraction_in_range(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=5000)
        h = build_histogram(vals, 30, value_range=(-1.0, 1.0))
        mass = float(np.sum(h.normalized_density * h.widths))
        frac = np.mean((vals >= -1.0) & (vals <= 1.0))
        assert mass == pytest.approx(frac, abs=1e-12)
        assert 0.0 <= mass <= 1.0

    def test_atom_split(self):
        vals = np.concatenate([np.zeros(600), np.full(400, 2.0)])
        h = build_histogram(vals, 4, value_range=(1.0, 3.0), atom_threshold=0.5)
        assert h.atom_fraction == pytest.approx(0.6)
        assert h.total_samples == 1000
        mass = float(np.sum(h.normalized_density * h.widths))
        assert mass == pytest.approx(0.4)

    @pytest.mark.parametrize("value_range", [(0.0, 1.0), None])
    @pytest.mark.parametrize("atom_threshold", [None, 0.15])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value_range, atom_threshold, bad):
        # unchecked, a range counts them in the denominator only (the masses of
        # [.1, .2, nan, .3, inf] sum to 0.6), and without one numpy raises a
        # bare ValueError
        vals = [0.1, 0.2, bad, 0.3, 0.4]
        with pytest.raises(DomainError, match="finite"):
            build_histogram(vals, 4, value_range=value_range, atom_threshold=atom_threshold)
        with pytest.raises(ValueError, match="bins"):
            build_histogram(vals, 1)

    @pytest.mark.parametrize(
        "vals, value_range, atom_threshold, match",
        [
            ([], (0.0, 1.0), None, "at least one"),  # used to give NaN densities
            ([], None, None, "at least one"),  # and numpy's bare ValueError below
            ([], (0.0, 1.0), 0.5, "at least one"),
            ([0.5, 0.1], None, 1.0, "atom"),
        ],
    )
    def test_empty_rejected(self, vals, value_range, atom_threshold, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=match):
                build_histogram(vals, 4, value_range=value_range, atom_threshold=atom_threshold)

    @pytest.mark.parametrize(
        "value_range",
        [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (2.0, 1.0), (1.0, 1.0)],
    )
    def test_bad_range_rejected_before_any_draw(self, value_range, monkeypatch):
        # unchecked, numpy raised a bare ValueError, and (1, 1) was widened to (0.5, 1.5)
        with pytest.raises(DomainError, match="value_range"):
            build_histogram([0.1, 0.5, 0.7], 4, value_range=value_range)

        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before the range was checked")

        monkeypatch.setattr(harness, "difference_spectra", no_draws)
        with pytest.raises(DomainError, match="value_range"):
            run_hist(EnsembleParams(n_small=4, m_large=4, seed=1), 50, 4, value_range=value_range)

    @pytest.mark.parametrize("bins", [60.0, 2.5, "5", None, 1], ids=repr)
    def test_non_integer_bins_rejected_before_any_draw(self, bins, monkeypatch):
        # a float count passed `bins < 2` and failed in numpy, after every draw
        with pytest.raises(ValueError, match="bins"):
            build_histogram([0.1, 0.5, 0.7], bins)

        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before the bin count was checked")

        monkeypatch.setattr(harness, "difference_spectra", no_draws)
        with pytest.raises(ValueError, match="bins"):
            run_hist(EnsembleParams(n_small=20, m_large=15, seed=1), 50, bins=bins)

    def test_numpy_integer_bins_accepted(self):
        assert build_histogram([0.1, 0.5, 0.7], np.int64(4)).counts.size == 4

    def test_l1_distance_self(self):
        params = EnsembleParams(n_small=30, m_large=30, seed=12)
        hist, overlay, _ = run_hist(params, 400)
        d = l1_distance(hist, overlay.density)
        assert 0.0 <= d < 0.5


class TestTheoryOverlay:
    def test_exact_for_n2(self):
        params = EnsembleParams(n_small=2, m_large=10, seed=0)
        overlay = theory_overlay(params)
        assert overlay.label == "exact n=2"
        from rmtdiff.finite_law import n2_exact_density

        # rescaled by N=2: density(x) = rho(x/2)/2
        assert overlay.density(0.5) == pytest.approx(n2_exact_density(0.25, 10) / 2)

    def test_aed_for_large_n(self):
        params = EnsembleParams(n_small=40, m_large=20, seed=0)
        overlay = theory_overlay(params)
        assert overlay.label == "aed"
        assert overlay.atom_threshold is None  # c = 2 exactly: no atom

    def test_atom_threshold_above_transition(self):
        params = EnsembleParams(n_small=100, m_large=20, seed=0)
        overlay = theory_overlay(params)
        from rmtdiff.asym_law import support_points

        xm, _ = support_points(5.0)
        assert overlay.atom_threshold == pytest.approx(0.5 * xm)
        assert overlay.atom_weight == pytest.approx(0.6)

    def test_weight_scaling(self):
        # doubling both weights scales abscissas by p and density by 1/p
        base = theory_overlay(EnsembleParams(20, 10, seed=0))
        scaled = theory_overlay(EnsembleParams(20, 10, weight_p=2.0, weight_q=2.0, seed=0))
        assert scaled.density(2.0) == pytest.approx(base.density(1.0) / 2.0)

    @pytest.mark.parametrize(
        "params",
        [
            EnsembleParams(2, 10, seed=0),
            EnsembleParams(3, 4, seed=0),
            EnsembleParams(40, 20, seed=0),
            EnsembleParams(60, 20, weight_q=0.5, seed=0),
        ],
    )
    def test_array_call_matches_scalar_calls(self, params):
        overlay = theory_overlay(params)
        xs = np.linspace(-4.0, 4.0, 6).reshape(2, 3)
        got = overlay.density(xs)
        assert got.shape == xs.shape
        want = [[overlay.density(float(x)) for x in row] for row in xs]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        assert isinstance(overlay.density(0.5), float)

    def test_equal_weights_overlay_the_closed_form(self):
        from rmtdiff.asym_law import aed_symmetric, support_points

        params = EnsembleParams(100, 20, weight_p=0.7, weight_q=0.7, seed=0)
        p, c = params.weight_p, params.dim_ratio
        overlay = theory_overlay(params)
        xs = np.linspace(-4.0, 4.0, 60).reshape(12, 5)
        assert overlay.label == "aed"
        assert np.array_equal(overlay.density(xs), aed_symmetric(xs / p, c) / p)
        assert overlay.atom_threshold == 0.5 * p * support_points(c)[0]

    def test_weighted_overlay_the_cubic(self):
        from rmtdiff.asym_law import aed_curve, find_support_numeric

        params = EnsembleParams(60, 20, weight_p=0.8, weight_q=0.4, seed=0)
        p, c, eta = params.weight_p, params.dim_ratio, params.weight_ratio
        overlay = theory_overlay(params)
        xs = np.linspace(-2.0, 3.0, 60).reshape(12, 5)
        assert overlay.label == "aed-weighted"
        assert np.array_equal(overlay.density(xs), aed_curve(xs / p, c, eta) / p)
        edge = min(abs(v) for ab in find_support_numeric(c, eta) for v in ab)
        assert overlay.atom_threshold == 0.5 * p * edge


class TestReductions:
    def test_trace_distance_parallel_consistency(self):
        params = EnsembleParams(n_small=10, m_large=10, seed=13)
        a = trace_distance_mc(params, 60, workers=1)
        b = trace_distance_mc(params, 60, workers=3)
        # same sub-stream layout regardless of executor concurrency
        params3 = EnsembleParams(n_small=10, m_large=10, seed=13)
        c = trace_distance_mc(params3, 60, workers=3)
        assert b == pytest.approx(c, abs=0.0)
        assert a == pytest.approx(b, abs=0.2)

    def test_operator_norm_positive(self):
        params = EnsembleParams(n_small=8, m_large=8, seed=14)
        assert operator_norm_mc(params, 30) > 0.0

    def test_entropy_small_dims(self):
        params = EnsembleParams(n_small=1, m_large=4, seed=15)
        assert mean_entropy_mc(params, 100) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n, m", [(2, 2), (6, 9), (12, 7)])
    def test_entropy_one_solve_per_slice(self, monkeypatch, n, m):
        # mean_entropy_mc is this loop: one eigvalsh call per _batches slice, on
        # the calling thread, and the same bytes
        draws = 60
        monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", 17 * max(n * m, n * n))
        slices = montecarlo._batches(n, m, draws)
        assert len(slices) >= 3
        params = EnsembleParams(n_small=n, m_large=m, seed=5)
        eigvalsh, rng, want = np.linalg.eigvalsh, params.rng(), 0.0
        for sl in slices:
            rho = _reduced_density_batch(n, m, sl.stop - sl.start, rng)
            with montecarlo._one_blas_thread():
                want += von_neumann_entropy(eigvalsh(rho))
        calls = []

        def recording(a):
            calls.append((threading.get_ident(), len(a)))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        got = mean_entropy_mc(params, draws)
        assert got.hex() == (want / draws).hex()
        assert calls == [(threading.get_ident(), sl.stop - sl.start) for sl in slices]


_HASH_PARAMS = EnsembleParams(n_small=200, m_large=200, seed=5)
_HASH_CHILD = (
    "import hashlib\n"
    "from rmtdiff.montecarlo import difference_spectra\n"
    "from rmtdiff.sampling import EnsembleParams\n"
    f"s = difference_spectra({_HASH_PARAMS!r}, 40)\n"
    "print(hashlib.sha256(s.tobytes()).hexdigest())\n"
)


@pytest.fixture(scope="module")
def spectra_hash():
    return hashlib.sha256(difference_spectra(_HASH_PARAMS, 40).tobytes()).hexdigest()


@pytest.fixture
def blas_threads():
    """(get, set) of the bundled OpenBLAS's thread count; its count is restored after the test."""
    blas = montecarlo._openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    before = blas[0]()
    yield blas
    blas[1](before)


class TestCores:
    # at (200, 200) the parent's bytes differed between one and two OpenBLAS threads
    @pytest.mark.parametrize("blas, cores", [("1", None), ("2", None), (None, 1), (None, 2)])
    def test_bytes_independent_of_blas_threads_and_cores(self, src_env, spectra_hash, blas, cores):
        env = {k: v for k, v in src_env.items() if k != "OPENBLAS_NUM_THREADS"}
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        preexec = None
        if cores is not None:
            allowed = sorted(os.sched_getaffinity(0))
            if len(allowed) < cores:
                pytest.skip(f"affinity offers {len(allowed)} core(s)")
            preexec = lambda: os.sched_setaffinity(0, allowed[:cores])  # noqa: E731
        child = subprocess.run(
            [sys.executable, "-c", _HASH_CHILD],
            env=env, preexec_fn=preexec, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == spectra_hash

    @pytest.mark.parametrize(
        "call",
        [
            lambda: difference_spectra(EnsembleParams(n_small=30, m_large=20, seed=1), 50),
            lambda: mean_entropy_mc(EnsembleParams(n_small=6, m_large=9, seed=1), 50),
        ],
        ids=["difference_spectra", "mean_entropy_mc"],
    )
    def test_blas_threads_restored(self, blas_threads, monkeypatch, call):
        get, put = blas_threads
        put(2)
        call()
        assert get() == 2
        seen = []

        def failing(a):
            seen.append(get())
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(np.linalg.LinAlgError):
            call()
        assert seen and set(seen) == {1}
        assert get() == 2

    @pytest.mark.parametrize("n, m", [(80, 50), (100, 20)])
    def test_serial_fallback_same_bytes(self, monkeypatch, n, m):
        params = EnsembleParams(n_small=n, m_large=m, seed=7)
        pinned = difference_spectra(params, 300)
        monkeypatch.setattr(montecarlo, "_openblas_threads", lambda: None)
        assert np.array_equal(difference_spectra(params, 300), pinned)

    def test_concurrent_callers(self, blas_threads):
        # more calling threads than cores, switching often: each result equals
        # the serial one, and the last restore leaves the count as it was
        get, put = blas_threads
        put(2)
        params = [EnsembleParams(n_small=12, m_large=7 + t, seed=t) for t in range(6)]
        want = [difference_spectra(p, 64) for p in params]
        got = [None] * len(params)

        def run(t):
            for _ in range(5):
                got[t] = difference_spectra(params[t], 64)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(len(params))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert get() == 2


class TestBlocks:
    # N <= M, M < N < 2M, N >= 2M (padded zeros), N = 2, M = 1, q != 1; (100, 20)
    # at 500 draws spans two _batches slices, the second one shorter
    SHAPES = [(40, 50, 1.0, 300), (5, 6, 1.0, 300), (13, 7, 0.3, 300), (61, 30, 1.0, 100),
              (12, 4, 2.0, 300), (100, 20, 1.0, 500), (2, 10, 1.0, 500), (2, 1, 1.0, 300),
              (3, 1, 0.5, 300), (25, 25, 1.0, 1)]

    @pytest.mark.parametrize("n, m, q, draws", SHAPES)
    def test_bytes_independent_of_block_and_split(self, monkeypatch, n, m, q, draws):
        params = EnsembleParams(n_small=n, m_large=m, weight_q=q, seed=n * m)
        want = (difference_spectra(params, draws),
                difference_spectra(params, draws, workers=2).ravel())
        # one draw per block, split at every d; one block per core's range, never split
        for entries, split_min_d in [(1, 1), (10**12, 1), (1, 10**6), (10**12, 10**6)]:
            monkeypatch.setattr(montecarlo, "_BLOCK_ENTRIES", entries)
            monkeypatch.setattr(montecarlo, "_SPLIT_MIN_D", split_min_d)
            assert np.array_equal(difference_spectra(params, draws), want[0])
            assert np.array_equal(difference_spectra(params, draws, workers=2).ravel(), want[1])

    def test_peak_memory_is_draws_plus_one_block_set_per_core(self):
        n, m, draws = 40, 50, 1000
        d = k = n  # N <= M
        params = EnsembleParams(n_small=n, m_large=m, seed=3)
        cores = montecarlo._cores(draws, d)
        blk = min(montecarlo._BLOCK_ENTRIES // (d * d), -(-draws // cores))
        block_sets = cores * blk * (2 * d * k + d * d) * 16  # Y, its conjugate and Z
        drawn = draws * (k * k + 8 * k) * 8  # Y's nonzero half and the per-draw rows, as floats
        output = draws * n * 8
        difference_spectra(params, 10)
        tracemalloc.start()
        try:
            difference_spectra(params, draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the slice-wide Y, Y^H and Z alone would take draws * (2 d k + d d) * 16 = 76.8 MB
        assert peak < 1.25 * (block_sets + drawn + output)

    def test_peak_memory_is_a_window_of_blocks(self):
        n, m = 40, 50
        d = k = n  # N <= M: the last stream is the k (k - 1) / 2 normals below the diagonal
        params = EnsembleParams(n_small=n, m_large=m, seed=3)
        cores = montecarlo._cores(1000, d)
        blk = min(montecarlo._BLOCK_ENTRIES // (d * d), -(-1000 // cores))
        block_sets = cores * blk * (2 * d * k + d * d) * 16  # Y, its conjugate and Z
        normals = 2 * cores * blk * k * (k - 1) // 2 * 16
        assert len(montecarlo._batches(n, m, 6000)) == 3
        difference_spectra(params, 10)
        peaks = {}
        for draws in (1000, 6000):
            tracemalloc.start()
            try:
                difference_spectra(params, draws)
                peaks[draws] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        rows = 1000 * 3 * k * 8  # the chi-square rows a^2, s^2 and top^2 of each draw
        output = 1000 * n * 8
        assert peaks[1000] < 1.25 * (block_sets + normals + rows + output)
        # a slice's draws go as its blocks are solved: three slices cost about one
        assert peaks[6000] < 1.25 * peaks[1000]

    def test_peak_memory_is_one_slice_when_n_exceeds_m(self, monkeypatch):
        # N > M (r = 30): each slice draws its normals below the diagonal up
        # front, and they go as its blocks are solved, so three slices cost about one
        n, m, draws = 80, 50, 300
        monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", draws * max(n * m, n * n))
        assert len(montecarlo._batches(n, m, 3 * draws)) == 3
        params = EnsembleParams(n_small=n, m_large=m, seed=3)
        difference_spectra(params, 10)
        peaks = {}
        for count in (draws, 3 * draws):
            tracemalloc.start()
            try:
                difference_spectra(params, count)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # one slice's normals below the diagonal alone take draws * 1225 * 16 = 5.9 MB
        assert peaks[3 * draws] < 1.25 * peaks[draws]

    @pytest.mark.parametrize("n, m", [(2, 10), (12, 7), (40, 50)])
    def test_split_only_from_threshold(self, monkeypatch, n, m):
        if montecarlo._openblas_threads() is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        splits = cores > 1 and min(n, 2 * m) >= montecarlo._SPLIT_MIN_D
        eigvalsh, threads, elsewhere = np.linalg.eigvalsh, set(), threading.Event()

        def recording(a):
            threads.add(threading.get_ident())
            if threading.get_ident() != threading.main_thread().ident:
                elsewhere.set()
            elif splits:
                # the caller solves only from a full window, so a block is left
                # for a worker however late the machine's load lets it wake
                elsewhere.wait(timeout=30)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        difference_spectra(EnsembleParams(n_small=n, m_large=m, seed=1), 200)
        assert (len(threads) > 1) == splits
        threads.clear()
        mean_entropy_mc(EnsembleParams(n_small=n, m_large=m, seed=1), 50)
        assert threads == {threading.get_ident()}


class TestCsvRoundTrip:
    def test_full_precision(self, tmp_path):
        params = EnsembleParams(n_small=6, m_large=8, seed=16)
        hist, overlay, theory = run_hist(params, 100, 20)
        path = tmp_path / "h.csv"
        write_histogram_csv(path, hist, theory, default_meta(params, 100, 20, 1))
        rows = [
            ln.split(",")
            for ln in path.read_text().splitlines()
            if ln and not ln.startswith(("bin_lo", "#"))
        ]
        lo = np.array([float(r[0]) for r in rows])
        hi = np.array([float(r[1]) for r in rows])
        emp = np.array([float(r[2]) for r in rows])
        th = np.array([float(r[3]) for r in rows])
        assert np.array_equal(lo, hist.bin_edges[:-1])
        assert np.array_equal(hi, hist.bin_edges[1:])
        assert np.array_equal(emp, hist.normalized_density)
        assert np.array_equal(th, theory)

    def test_bytes(self, tmp_path):
        # weighted, rank-deficient: the overlay has an atom, so the metadata has its lines
        params = EnsembleParams(n_small=60, m_large=20, weight_q=0.5, seed=16)
        hist, overlay, theory = run_hist(params, 20, 20)
        meta = default_meta(params, 20, 20, 1)
        meta["atom_threshold"] = "%.17g" % overlay.atom_threshold
        path = tmp_path / "h.csv"
        write_histogram_csv(path, hist, theory, meta)
        rows = zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.normalized_density, theory)
        want = (
            "bin_lo,bin_hi,empirical,theory\n"
            + "".join("%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)
            + "".join(f"# {k}={v}\n" for k, v in meta.items())
        )
        assert path.read_bytes() == want.encode()


def _blas_config():
    """The configuration string of numpy's bundled scipy-openblas, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_config64_", None)
        if get is not None:
            get.restype = ctypes.c_char_p
            return get().decode()
    return None


# sha256 of difference_spectra before its last stream was drawn block by block;
# LAPACK's bits depend on the build and the CPU kernel, hence the recorded set-up
_PINNED_SETUP = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64")
_PINNED = {
    (200, 200, 1.0, 40): "73ca40a43fa487ecb46c4f7f74100d45bac3fd71ca23ecf19056e2a7958d2a25",
    (40, 50, 1.0, 300): "9aa7ba7fe46558764909b66605d26b131e276426c90c381bee0af1127406cc3a",
    (5, 6, 1.0, 300): "bd1046fa993a7033f51d04f58e1738afc3aa90ca02358694712ae411fe14b3f9",
    (13, 7, 0.3, 300): "9e87925b1b7397094816bb043a0ac984ec0a58f198b2924bcd502e816afecbb5",
    (61, 30, 1.0, 100): "f41d8fe545d5dc299ae642633f0a1bdf129069cd559edfee0702cc1a7ad8ce48",
    (12, 4, 2.0, 300): "7da1727a2a504195a4e5c2e917e49e417fa737461d2c4cbcbf44c6958dd4b080",
    (100, 20, 1.0, 500): "fad1342f9e9dbf5616997350f9f4d6229b853b15bab4189a5347b6baba6d355d",
    (2, 10, 1.0, 500): "2aa13fba7155007a16ab6b2c74bd00dd7c82a138ce9c7e5eeb64b529db06ff72",
    (2, 1, 1.0, 300): "f063543e145821e40b951546abbcc8a58ff0343b87f507b1a09a58caf24bc44c",
    (3, 1, 0.5, 300): "87141cc605b46763d154ddae81e977e85d8520b2410de12ee00df3c7e23fef8a",
    (25, 25, 1.0, 1): "e68ad57897421d42742eaee0e89617afb6a573a4550c2929aa5998cfa6f2c4b0",
}

# sha256 of difference_spectra(seed = N M).ravel() before one pass took every stream's
# blocks, as it is and with _BATCH_ENTRIES giving each stream 4 or 5 slices
_POOLED_PINNED = {
    (100, 20, 500, 3, None): "e150e14b6de192f3cb256884763eac69ff97c3a5ade6186fe86f8883d4c2866f",
    (100, 20, 500, 3, 400_000): "fccbb04826292a1d625cd43436ad0849ea642954b6866e5c13093192048330c3",
    (40, 50, 300, 2, None): "620b4d6bb34d48417c51533e2704ed8356beb2bac0a7bd6c0a735144f2592c7e",
    (40, 50, 300, 2, 80_000): "be91be1df9c620c7ba4f7ad8562325ceda9c6e94956ecedacba56d9c10f5e14e",
}

# Runs one failing montecarlo._spectra call: argv[1] is "draw" (the second block's
# draw raises) or "solve" (eigvalsh raises in a thread other than the caller).
_FAILURE_CHILD = """
import sys, threading, time
import numpy as np
from rmtdiff import montecarlo
from rmtdiff.sampling import EnsembleParams

case = sys.argv[1]
params = EnsembleParams(n_small=40, m_large=50, seed=9)  # N <= M: the last stream is `lower`
get, put = montecarlo._openblas_threads()
put(2)
raised = []


class FailingRng:
    def __init__(self, rng):
        self.rng, self.normal_calls = rng, 0

    def chisquare(self, *args, **kwargs):
        return self.rng.chisquare(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        if self.normal_calls == 2:
            time.sleep(0.5)  # the other threads have solved block 0 and wait for block 1
            raised.append(RuntimeError("second block's draw failed"))
            raise raised[-1]
        return self.rng.standard_normal(*args, **kwargs)


eigvalsh = np.linalg.eigvalsh


def failing_eigvalsh(a):
    if threading.current_thread() is not threading.main_thread():
        raised.append(np.linalg.LinAlgError("eigvalsh failed in a worker"))
        raise raised[-1]
    return eigvalsh(a)


if case == "solve":
    np.linalg.eigvalsh = failing_eigvalsh
threads_before = threading.active_count()
try:
    montecarlo._spectra(params, [(FailingRng(params.rng()) if case == "draw" else params.rng(), 300)])
except Exception as exc:
    print("original", len(raised) == 1 and exc is raised[0])
else:
    print("original", False)
print("threads", threading.active_count() - threads_before)
print("blas", get())
print("cores", montecarlo._cores(300, 40))
"""


class TestOverlap:
    def test_split_draws_equal_one_call(self):
        # the premise of the block-wise last stream: chunked draws into one
        # array are the stream a single call gives, bit for bit
        want = make_rng(5, 3).standard_normal((97, 2 * 13))
        got = np.empty((97, 13), dtype=complex)
        rng = make_rng(5, 3)
        for lo, hi in [(0, 1), (1, 1), (1, 30), (30, 31), (31, 80), (80, 97)]:
            rng.standard_normal(out=got[lo:hi].view(float))
        assert got.view(float).tobytes() == want.tobytes()
        assert rng.standard_normal() == make_rng(5, 3).standard_normal(97 * 26 + 1)[-1]

    @pytest.mark.parametrize("n, m, q, draws", list(_PINNED))
    def test_bytes_pinned(self, n, m, q, draws):
        if (np.__version__, _blas_config()) != _PINNED_SETUP:
            pytest.skip("hashes recorded with numpy 2.4.6 and its bundled OpenBLAS on SkylakeX")
        seed = 5 if (n, m) == (200, 200) else n * m
        params = EnsembleParams(n_small=n, m_large=m, weight_q=q, seed=seed)
        assert hashlib.sha256(difference_spectra(params, draws).tobytes()).hexdigest() == _PINNED[n, m, q, draws]

    @pytest.mark.parametrize("n, m, draws, workers, entries", list(_POOLED_PINNED))
    def test_pooled_bytes_pinned(self, monkeypatch, n, m, draws, workers, entries):
        if (np.__version__, _blas_config()) != _PINNED_SETUP:
            pytest.skip("hashes recorded with numpy 2.4.6 and its bundled OpenBLAS on SkylakeX")
        if entries is not None:
            monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", entries)
        params = EnsembleParams(n_small=n, m_large=m, seed=n * m)
        got = difference_spectra(params, draws, workers=workers).ravel()
        assert hashlib.sha256(got.tobytes()).hexdigest() == _POOLED_PINNED[n, m, draws, workers, entries]

    @pytest.mark.parametrize("case", ["draw", "solve"])
    def test_failure_propagates_and_cleans_up(self, src_env, case):
        if montecarlo._openblas_threads() is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        # a child interpreter, so that a deadlock fails the test instead of hanging the suite
        child = subprocess.run(
            [sys.executable, "-c", _FAILURE_CHILD, case],
            env=src_env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        lines = dict(ln.split(" ", 1) for ln in child.stdout.splitlines())
        if case == "solve" and lines["cores"] == "1":
            pytest.skip("one core: no worker thread to fail")
        assert lines["original"] == "True"
        assert lines["threads"] == "0"
        assert lines["blas"] == "2"

    def test_every_block_once_after_its_draw(self):
        # more threads than cores, switching often: each block is drawn once, in
        # order, and solved once after its draw, never by two threads on one
        # core's buffers at a time
        blocks, cores = 40, 5
        drawn, solved, busy, bad, unsolved = [], [], [False] * cores, [], []

        def draw():
            for block in range(blocks):
                unsolved.append(block - len(solved))
                drawn.append(block)
                yield block

        def solve(block, core):
            if busy[core] or block not in drawn:
                bad.append((block, core))
            busy[core] = True
            time.sleep(1e-4)  # the other threads stay busy while the caller could draw on
            solved.append(block)
            busy[core] = False

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=montecarlo._on_cores, args=(solve, draw(), cores))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert drawn == list(range(blocks))
            assert sorted(solved) == list(range(blocks))
            assert not bad
            # no draw starts while `cores` drawn blocks are untaken: at most
            # cores - 1 untaken and one in each other thread's hands are unsolved
            assert max(unsolved) <= 2 * cores - 2
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cores", [1, 3])
    def test_solved_items_die(self, cores):
        # nothing in the pass holds an item after its solve: it is dead by the
        # time a later item is drawn, also while its solving thread waits on the queue
        class Item:
            pass

        refs, solved = [], []

        def make(k):
            item = Item()
            refs.append(weakref.ref(item))
            return item

        def draw():
            for k in range(30):
                # each item is drawn once all before it are solved, so that
                # every other thread waits on the empty queue
                deadline = time.monotonic() + 2.0  # a thread may still be leaving its solve
                while len(solved) < k or any(r() is not None for r in refs):
                    alive = [j for j, r in enumerate(refs) if r() is not None]
                    assert time.monotonic() < deadline, f"items {alive} of {solved} solved are alive"
                    time.sleep(1e-4)
                yield make(k)

        def solve(item, core):
            solved.append(refs.index(weakref.ref(item)))

        montecarlo._on_cores(solve, draw(), cores)
        assert sorted(solved) == list(range(30))

    @pytest.mark.parametrize("n, m", [(3, 5), (5, 3)])
    def test_solved_blocks_die(self, monkeypatch, n, m):
        # the block generator of _spectra keeps no solved block's draws either:
        # by each later draw from the stream, every solved block's arrays are dead
        monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", 150)  # 6 or 10 draws a slice
        monkeypatch.setattr(montecarlo, "_BLOCK_ENTRIES", 50)  # 2 or 5 draws a block
        on_cores, solved = montecarlo._on_cores, []

        def noting_on_cores(solve, blocks, cores):
            assert cores == 1  # d < _SPLIT_MIN_D: the calling thread solves each block

            def noting_solve(block, core):
                solved.append([weakref.ref(a) for a in block[1:]])  # [0] views the output
                solve(block, core)

            on_cores(noting_solve, blocks, cores)

        class CheckingRng:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                def call(*args, **kwargs):
                    assert all(r() is None for refs in solved for r in refs)
                    return getattr(self.rng, name)(*args, **kwargs)

                return call

        monkeypatch.setattr(montecarlo, "_on_cores", noting_on_cores)
        params = EnsembleParams(n_small=n, m_large=m, seed=4)
        got = montecarlo._spectra(params, [(CheckingRng(params.rng()), 20)])
        assert len(solved) > len(montecarlo._batches(n, m, 20)) >= 2
        monkeypatch.setattr(montecarlo, "_on_cores", on_cores)
        assert got.tobytes() == difference_spectra(params, 20, rescaled=False).tobytes()

    @pytest.mark.parametrize("where", ["solve", "draw"])
    def test_error_ends_the_pass(self, where):
        # the helper threads take items 0-4 as they come; every solve from item
        # 3 on holds its thread until the raise, which comes once both other
        # threads hold: in the helper's solve of item 3 (the caller holds item 5,
        # 6 and 7 are queued) or in the draw of item 7 (the helpers hold 3 and
        # 4, 5 and 6 are queued).  That exception comes out, nothing more is
        # drawn, no solve starts after it, and every helper thread is joined
        items, cores = 40, 3
        drawn, started, raised, caught, holding = [], [], [], [], []
        released = threading.Event()

        def until(ready):
            deadline = time.monotonic() + 10.0
            while not ready():
                assert time.monotonic() < deadline, "the threads never reached their places"
                time.sleep(1e-4)

        def fail():
            until(lambda: len(holding) == cores - 1)
            raised.append((RuntimeError(f"{where} failed"), len(drawn), len(started)))
            released.set()
            raise raised[0][0]

        def draw():
            for item in range(items):
                if 0 < item <= 5:  # once the one before is taken: the caller solves none of 0-4
                    until(lambda: item - 1 in started)
                if where == "draw" and item == 7:
                    fail()
                drawn.append(item)
                yield item

        def solve(item, core):
            started.append(item)
            if item < 3:
                return
            if where == "solve" and item == 3:
                fail()
            holding.append(item)
            released.wait(timeout=10.0)
            time.sleep(0.1)  # the raising thread records its error meanwhile

        def call():
            try:
                montecarlo._on_cores(solve, draw(), cores)
            except RuntimeError as exc:
                caught.append(exc)

        before = threading.active_count()
        thread = threading.Thread(target=call)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert threading.active_count() == before
        exc, drawn_then, started_then = raised[0]
        assert len(caught) == 1 and caught[0] is exc
        assert sorted(holding) == ([4, 5] if where == "solve" else [3, 4])
        assert len(drawn) == drawn_then == (8 if where == "solve" else 7)
        assert len(started) == started_then
