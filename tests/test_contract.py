"""The input contract of every public name: a right answer or an ``RmtDiffError``.

``TABLE`` holds one valid call for every name in ``rmtdiff.__all__`` and the
kind of each argument that is swept.  Each of ``BAD`` goes into one swept
argument at a time, the others keeping their valid values.  Every outcome
must be a finite result of the documented type or an ``RmtDiffError``, under
the suite's warning filters (a ``RuntimeWarning`` is an error); a value of
the wrong kind for its argument (a bool, complex, str, ``None``, list or 2-D
array where one real number is wanted) must raise.  A public name missing
from the table fails.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmtdiff
from rmtdiff import asym_law, finite_law, moments, montecarlo, sampling
from rmtdiff.errors import DomainError, RmtDiffError
from rmtdiff.sampling import make_rng

BAD = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "-1": -1,
    "0": 0,
    "1e300": 1e300,
    "f32nan": np.float32("nan"),
    "True": True,
    "complex": 1 + 1j,
    "str": "2",
    "None": None,
    "list": [1.0, 2.0],
    "2-d": np.ones((2, 2)),
}

_NON_FINITE = {"nan", "inf", "-inf", "f32nan"}
_NOT_A_NUMBER = {"True", "str", "None", "list", "2-d"}
# the values each kind of argument must reject; any other outcome is checked by the rule alone
MUST_RAISE = {
    "real": _NON_FINITE | _NOT_A_NUMBER | {"complex"},
    "positive": _NON_FINITE | _NOT_A_NUMBER | {"complex", "-1", "0"},
    "count": _NON_FINITE | _NOT_A_NUMBER | {"complex", "-1", "0", "1e300"},
    "integer": _NON_FINITE | _NOT_A_NUMBER | {"complex", "1e300"},
    "number": _NON_FINITE | _NOT_A_NUMBER,
    "points": _NON_FINITE | {"True", "complex", "str", "None"},
    "object": set(BAD),
    "other": set(),
}


@dataclass(frozen=True)
class Case:
    call: Callable
    args: dict
    kinds: dict  # swept argument -> key of MUST_RAISE
    returns: tuple


def _params():
    return sampling.EnsembleParams(n_small=3, m_large=4, weight_q=0.5, seed=7)


def _density(x):
    return np.exp(-np.asarray(x) ** 2)


_HIST = montecarlo.build_histogram([0.1, 0.5, 0.7], 4)
_PSI = finite_law.build_psi_poly(2, 2)
_ARRAY = (float, np.ndarray)

TABLE = {
    # sampling
    "EnsembleParams": Case(
        sampling.EnsembleParams,
        dict(n_small=3, m_large=4, weight_p=1.0, weight_q=0.5, seed=7),
        dict(n_small="count", m_large="count", weight_p="positive", weight_q="positive",
             seed="integer"),
        (sampling.EnsembleParams,)),
    "sample_ginibre": Case(
        sampling.sample_ginibre, dict(n_rows=2, n_cols=3, rng=make_rng(0)),
        dict(n_rows="count", n_cols="count", rng="object"), (np.ndarray,)),
    "reduced_density_from_ginibre": Case(
        sampling.reduced_density_from_ginibre, dict(g=np.eye(2)), dict(g="other"), (np.ndarray,)),
    "sample_pure_state_reduced": Case(
        sampling.sample_pure_state_reduced, dict(params=_params(), rng=make_rng(0)),
        dict(params="object", rng="object"), (np.ndarray,)),
    "hermitian_eigenvalues": Case(
        sampling.hermitian_eigenvalues, dict(h=np.eye(2)), dict(h="other"),
        (sampling.SpectrumSample,)),
    "page_entropy_mean": Case(
        sampling.page_entropy_mean, dict(n=2, m=3), dict(n="count", m="count"), (float,)),
    "von_neumann_entropy": Case(
        sampling.von_neumann_entropy, dict(eigenvalues=[0.5, 0.5]), dict(eigenvalues="points"),
        (float,)),
    "is_density_matrix": Case(
        sampling.is_density_matrix, dict(rho=np.eye(2) / 2), dict(rho="other"), (bool,)),
    # finite_law; OrthantPiecewisePoly takes input through its method evaluate
    "OrthantPiecewisePoly": Case(
        lambda point: _PSI.evaluate(point), dict(point=(0.1, -0.1)), dict(point="points"),
        (float,)),
    "build_psi_poly": Case(
        finite_law.build_psi_poly, dict(n=2, m=2), dict(n="count", m="count"),
        (finite_law.OrthantPiecewisePoly,)),
    "joint_eigen_density": Case(
        finite_law.joint_eigen_density, dict(lambdas=(0.1, -0.1), n=2, m=3, exact=False),
        dict(lambdas="points", n="count", m="count", exact="other"), (float,)),
    "n2_exact_density": Case(
        finite_law.n2_exact_density, dict(lam=0.25, m=3), dict(lam="real", m="count"), (float,)),
    "derivative_principle_selftest": Case(
        finite_law.derivative_principle_selftest, {}, {}, (bool,)),
    "single_eigenvalue_marginal": Case(
        finite_law.single_eigenvalue_marginal, dict(n=3, m=3, points=[0.1, -0.5]),
        dict(n="count", m="count", points="points"), (np.ndarray,)),
    "region_gamma": Case(
        finite_law.region_gamma, dict(lambdas=(0.1, -0.1)), dict(lambdas="points"), (float,)),
    # asym_law
    "support_points": Case(
        asym_law.support_points, dict(c=2.5), dict(c="positive"), (tuple,)),
    "atom_weight": Case(
        asym_law.atom_weight, dict(c=2.5, eta=0.5), dict(c="positive", eta="positive"), (float,)),
    "aed_symmetric": Case(
        asym_law.aed_symmetric, dict(x=0.37, c=0.5), dict(x="points", c="positive"), _ARRAY),
    "cauchy_transform": Case(
        asym_law.cauchy_transform, dict(z=0.3 + 0.1j, c=1.0, eta=0.5),
        dict(z="number", c="positive", eta="positive"), (complex,)),
    "aed_curve": Case(
        asym_law.aed_curve, dict(xs=0.37, c=1.0, eta=0.5),
        dict(xs="points", c="positive", eta="positive"), _ARRAY),
    "marchenko_pastur": Case(
        asym_law.marchenko_pastur, dict(x=0.5, c=0.5), dict(x="real", c="positive"), (tuple,)),
    "r_transform_sum": Case(
        asym_law.r_transform_sum, dict(g=0.3 + 0.1j, c=1.0, eta=0.5),
        dict(g="number", c="positive", eta="positive"), (complex,)),
    "aed_grid": Case(
        asym_law.aed_grid, dict(c=1.0, eta=0.5, count=101),
        dict(c="positive", eta="positive", count="count"), (asym_law.AedResult,)),
    "find_support_numeric": Case(
        asym_law.find_support_numeric, dict(c=1.0, eta=0.5), dict(c="positive", eta="positive"),
        (list,)),
    # moments
    "absolute_moment": Case(
        moments.absolute_moment, dict(z=1.5, c=0.5), dict(z="number", c="positive"),
        (float, complex)),
    "even_moment": Case(
        moments.even_moment, dict(l=2, c=0.5), dict(l="count", c="positive"), (float,)),
    "trace_distance_asymptotic": Case(
        moments.trace_distance_asymptotic, dict(c=0.5), dict(c="positive"), (float,)),
    "operator_norm_asymptotic": Case(
        moments.operator_norm_asymptotic, dict(c=0.5, n=10), dict(c="positive", n="count"),
        (float,)),
    "distance_to_mixed_asymptotic": Case(
        moments.distance_to_mixed_asymptotic, dict(c=0.5), dict(c="positive"), (float,)),
    "moment_via_quadrature": Case(
        moments.moment_via_quadrature, dict(z=1.5, c=0.5, eta=1.0),
        dict(z="positive", c="positive", eta="positive"), (float,)),
    "continuous_mass": Case(
        moments.continuous_mass, dict(c=0.5, eta=1.0), dict(c="positive", eta="positive"),
        (float,)),
    # montecarlo
    "difference_spectra": Case(
        montecarlo.difference_spectra,
        dict(params=_params(), n_samples=3, workers=1, rescaled=True),
        dict(params="object", n_samples="count", workers="count", rescaled="other"),
        (np.ndarray,)),
    "build_histogram": Case(
        montecarlo.build_histogram,
        dict(values=[0.1, 0.5, 0.7], bins=4, value_range=None, atom_threshold=None),
        dict(values="points", bins="count", value_range="other", atom_threshold="other"),
        (montecarlo.HistogramResult,)),
    "bin_theory_mass": Case(
        montecarlo.bin_theory_mass, dict(theory_density=_density, edges=[0.0, 0.5, 1.0]),
        dict(theory_density="object", edges="other"), (np.ndarray,)),
    "l1_distance": Case(
        montecarlo.l1_distance, dict(hist=_HIST, theory_density=_density),
        dict(hist="object", theory_density="object"), (float,)),
    "trace_distance_mc": Case(
        montecarlo.trace_distance_mc, dict(params=_params(), n_samples=3, workers=1),
        dict(params="object", n_samples="count", workers="count"), (float,)),
    "operator_norm_mc": Case(
        montecarlo.operator_norm_mc, dict(params=_params(), n_samples=3, workers=1),
        dict(params="object", n_samples="count", workers="count"), (float,)),
    "mean_entropy_mc": Case(
        montecarlo.mean_entropy_mc, dict(params=_params(), n_samples=3),
        dict(params="object", n_samples="count"), (float,)),
}

# Result records the entry points return: containers with no input of their own to check.
RECORDS = {
    "SpectrumSample": lambda: sampling.SpectrumSample(np.zeros(2)),
    "AedResult": lambda: asym_law.aed_grid(1.0, count=101),
    "HistogramResult": lambda: _HIST,
}

# the per-c caches, cleared for a cold run; True and 1 + 0j hash as 1.0
_CACHES = (asym_law._symmetric_constants, asym_law._support_geometry)


def _finite(v) -> bool:
    """Whether every number in v (a number, array, sequence, dict or record) is finite."""
    if v is None:
        return True
    if isinstance(v, numbers.Number):
        return cmath.isfinite(complex(v))
    if isinstance(v, np.ndarray):
        return v.dtype.kind in "biufc" and bool(np.isfinite(v).all())
    if isinstance(v, (tuple, list)):
        return all(map(_finite, v))
    if isinstance(v, dict):
        return all(map(_finite, v.values()))
    if dataclasses.is_dataclass(v):
        return all(_finite(getattr(v, f.name)) for f in dataclasses.fields(v))
    return False


def _outcome(case: Case, **changed) -> str | None:
    """None if the call returns a finite result of the documented type or raises an
    RmtDiffError; otherwise what it did.  'raised' marks an RmtDiffError."""
    try:
        out = case.call(**{**case.args, **changed})
    except RmtDiffError:
        return "raised"
    except Exception as exc:  # noqa: BLE001 -- reported, not swallowed
        return f"{type(exc).__name__}: {exc}"
    if not isinstance(out, case.returns):
        return f"returned a {type(out).__name__}"
    return None if _finite(out) else f"returned a non-finite {out!r}"[:200]


def test_every_public_name_is_in_the_table():
    assert set(TABLE) | set(RECORDS) == set(rmtdiff.__all__)
    assert not set(TABLE) & set(RECORDS)


def test_package_all_is_the_modules_all():
    modules = (sampling, finite_law, asym_law, moments, montecarlo)
    names = [name for mod in modules for name in mod.__all__]
    assert sorted(rmtdiff.__all__) == sorted(names)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(rmtdiff, name) is getattr(mod, name)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_builds(name):
    assert type(RECORDS[name]()).__name__ == name


@pytest.mark.parametrize("name", sorted(TABLE))
def test_valid_call(name):
    case = TABLE[name]
    assert _outcome(case) is None


@pytest.mark.parametrize("name", sorted(n for n in TABLE if TABLE[n].kinds))
def test_bad_values(name):
    """Each bad value in each swept argument: an RmtDiffError or a finite result; a
    c or eta twice, on cold caches and after a valid call at 1."""
    case = TABLE[name]
    failures = []
    for arg, kind in case.kinds.items():
        for label, value in BAD.items():
            runs = 1
            if arg in ("c", "eta"):
                runs = 2
                for cache in _CACHES:
                    cache.cache_clear()
            for run in range(runs):
                if run == 1:
                    assert _outcome(case, **{arg: 1.0}) in (None, "raised")
                got = _outcome(case, **{arg: value})
                if label in MUST_RAISE[kind] and got is None:
                    got = "returned a result"
                if got not in (None, "raised"):
                    failures.append(f"{arg}={label} ({'warm' if run else 'cold'}): {got}")
    assert not failures, "\n".join(failures)


def test_true_is_not_c_one():
    # True == 1.0 and hashes alike, so a per-c cache keyed on c would answer c = 1
    asym_law.aed_symmetric(0.37, 1.0)
    for bad in (True, 1 + 0j, np.True_):
        with pytest.raises(DomainError, match="c must be a real number"):
            asym_law.aed_symmetric(0.37, bad)
        with pytest.raises(DomainError, match="c must be a real number"):
            asym_law.aed_curve(0.37, bad, 0.5)
        with pytest.raises(DomainError, match="eta must be a real number"):
            asym_law.aed_curve(0.37, 1.0, bad)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_REAL_ARGS = sorted(
    (name, arg) for name, case in TABLE.items()
    for arg, kind in case.kinds.items() if kind in ("real", "positive")
)


@pytest.mark.parametrize("name, arg", _REAL_ARGS, ids=[f"{n}-{a}" for n, a in _REAL_ARGS])
def test_any_float(name, arg):
    case = TABLE[name]

    @settings(max_examples=40)
    @given(_FLOATS)
    def check(v):
        got = _outcome(case, **{arg: v})
        assert got in (None, "raised"), f"{name}({arg}={v!r}): {got}"

    check()


# Finite input of extreme magnitude, past what the sweep's single values reach: each
# must raise DomainError, not a RuntimeWarning or OverflowError.
EXTREME = {
    "EnsembleParams(10**400, 3)": lambda: sampling.EnsembleParams(10**400, 3),
    "von_neumann_entropy([1e308, 1e308])": lambda: sampling.von_neumann_entropy([1e308, 1e308]),
    "build_histogram([1e308, -1e308], 4)": lambda: montecarlo.build_histogram([1e308, -1e308], 4),
    "bin_theory_mass(f, [-1e308, 1e308])": lambda: montecarlo.bin_theory_mass(
        _density, [-1e308, 1e308]),
}


@pytest.mark.parametrize("call", sorted(EXTREME))
def test_extreme_magnitude_raises(call):
    with pytest.raises(DomainError):
        EXTREME[call]()
