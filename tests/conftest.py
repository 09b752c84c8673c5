"""Shared pytest set-up: a deterministic hypothesis profile and a child-process environment.

``derandomize=True`` draws every example from a fixed seed, so a property
test passes or fails the same way on every run; ``deadline=None`` keeps
slow shared machines from failing examples on time alone.
"""

import os
from pathlib import Path

import pytest
from hypothesis import settings

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
