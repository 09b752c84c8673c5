"""Full-tolerance verification suite, one test per criterion.

Each test prints its machine-readable report line (visible with -s or on
failure) and asserts the documented tolerance.  Monte Carlo criteria use
pinned seeds, so the whole module is deterministic.
"""

import re

import pytest

from rmtdiff import acceptance
from rmtdiff.acceptance import CRITERIA, format_report_line, run_criterion, run_verify
from rmtdiff.errors import Unsupported

_LEVEL = "full"


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_criterion(cid):
    result = run_criterion(cid, _LEVEL)
    print(format_report_line(result))
    assert abs(result.measured - result.expected) <= result.tolerance, (
        f"{cid}: measured {result.measured!r}, expected {result.expected!r} "
        f"+- {result.tolerance!r} ({result.detail})"
    )
    assert result.passed, f"{cid}: subsidiary checks failed ({result.detail})"


def test_unknown_criterion_names_the_valid_ids():
    with pytest.raises(Unsupported, match="'AC-99'.*AC-01, AC-02, .*AC-13$"):
        run_criterion("AC-99")
    with pytest.raises(Unsupported, match="'fast' or 'full', got 'quick'"):
        run_criterion("AC-01", "quick")


def test_verify_report_lines_and_timing(tmp_path, capsys, monkeypatch):
    # stdout and the --out file keep the AC-xx,measured,expected,tol,STATUS
    # lines; each criterion's elapsed seconds go to stderr only
    fast = ("AC-01", "AC-08", "AC-12")
    monkeypatch.setattr(acceptance, "CRITERIA", {cid: CRITERIA[cid] for cid in fast})
    out = tmp_path / "report.csv"
    assert run_verify("fast", str(out)) == 0
    captured = capsys.readouterr()
    want = [format_report_line(run_criterion(cid, "fast")) for cid in fast]
    assert captured.out.splitlines() == want
    for line in want:
        assert re.fullmatch(r"AC-\d\d(,[-+.e0-9]+){3},(PASS|FAIL)", line)
    header = "criterion,measured,expected,tolerance,status\n"
    assert out.read_text() == header + "\n".join(want) + "\n"
    timings = captured.err.splitlines()
    assert [t.split()[0] for t in timings] == list(fast)
    for t in timings:
        assert re.fullmatch(r"AC-\d\d \d+\.\d\d s", t)
