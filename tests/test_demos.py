"""Each script under demos/ runs to completion from an empty working directory."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=src_env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
