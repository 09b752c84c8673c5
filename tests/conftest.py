"""Shared pytest set-up: a deterministic hypothesis profile, a child-process
environment and the Ginibre-route sampling oracle.

``derandomize=True`` draws every example from a fixed seed, so a property
test passes or fails the same way on every run; ``deadline=None`` keeps
slow shared machines from failing examples on time alone.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from rmtdiff.sampling import EnsembleParams, reduced_density_from_ginibre, sample_ginibre

settings.register_profile("rmtdiff", derandomize=True, deadline=None)
settings.load_profile("rmtdiff")

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def src_env():
    """os.environ with this checkout's src/ first on PYTHONPATH, for child interpreters.

    pytest's own ``pythonpath`` setting reaches only the test process, so a
    child started from an uninstalled checkout would not find rmtdiff.
    """
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def sample_difference(params: EnsembleParams, rng: np.random.Generator) -> np.ndarray:
    """One draw of weight_p * rho1 - weight_q * rho2 from two full Ginibre rectangles.

    The textbook route, independent of the batched kernel in ``montecarlo``,
    whose spectrum law the tests check against it.
    """
    n, m = params.n_small, params.m_large
    r1 = reduced_density_from_ginibre(sample_ginibre(n, m, rng))
    r2 = reduced_density_from_ginibre(sample_ginibre(n, m, rng))
    return params.weight_p * r1 - params.weight_q * r2
