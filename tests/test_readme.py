"""README checks: the library quick start runs, and each "Public:" list is its module's ``__all__``."""

import importlib
import re
import subprocess
import sys

import pytest

from conftest import ROOT

README = (ROOT / "README.md").read_text()


def _section(title: str) -> str:
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _public_lists() -> dict[str, set[str]]:
    """Module -> names from every "Public:" sentence; an unqualified name belongs to the bullet's module."""
    listed: dict[str, set[str]] = {}
    for bullet in README.split("\n* ")[1:]:
        if "Public:" not in bullet:
            continue
        module = re.search(r"`rmtdiff\.(\w+)`", bullet).group(1)
        public = bullet.split("Public:", 1)[1].split("\n\n", 1)[0]
        for name in re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", public):
            owner, _, name = name.rpartition(".")
            listed.setdefault(owner or module, set()).add(name)
    return listed


def test_quick_start_runs(src_env):
    code = re.search(r"```python\n(.*?)```", _section("Library quick start"), re.S).group(1)
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=src_env
    )
    assert child.returncode == 0, child.stderr


@pytest.mark.parametrize(
    "module", ["asym_law", "moments", "specfun", "montecarlo", "sampling", "finite_law"]
)
def test_public_list_is_all(module):
    assert _public_lists().get(module) == set(importlib.import_module(f"rmtdiff.{module}").__all__)
