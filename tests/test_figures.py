import numpy as np
import pytest

from rmtdiff.acceptance import format_report_line, run_criterion
from rmtdiff.errors import Unsupported
from rmtdiff.figures import run_fig


def _read_csv(path, cols):
    rows = [
        ln.split(",")
        for ln in open(path).read().splitlines()[1:]
        if ln and not ln.startswith("#")
    ]
    return [np.array([float(r[i]) for r in rows]) for i in range(cols)]


class TestFigures:
    def test_unknown_id(self, tmp_path):
        with pytest.raises(Unsupported):
            run_fig("fig3", str(tmp_path))

    def test_fig1_heatmap_data(self, tmp_path):
        files = run_fig("fig1", str(tmp_path), fast=True, svg=True)
        assert any(f.endswith("fig1.csv") for f in files)
        l1, l2, dens = _read_csv(tmp_path / "fig1.csv", 3)
        assert np.all(dens >= 0.0)
        # vanishes on the coincidence line lambda1 = lambda2
        mask = np.isclose(l1, l2)
        assert np.all(dens[mask] < 1e-10)
        # reflection symmetry of the tabulated field
        order = np.lexsort((l1, l2))
        ro = np.lexsort((-l1, -l2))
        assert np.allclose(dens[order], dens[ro], atol=1e-9)

    def test_fig4d_atom_metadata(self, tmp_path):
        run_fig("fig4d", str(tmp_path), fast=True, svg=False)
        text = (tmp_path / "fig4d.csv").read_text()
        assert "# atom_threshold=" in text
        assert "# atom_fraction=" in text
        frac = float(
            [ln for ln in text.splitlines() if ln.startswith("# atom_fraction=")][0]
            .split("=")[1]
        )
        assert frac == pytest.approx(0.6, abs=0.05)

    def test_fig5_dots_near_curve(self, tmp_path):
        run_fig("fig5", str(tmp_path), fast=False, svg=False)
        from rmtdiff.moments import trace_distance_asymptotic

        cs, vals = _read_csv(tmp_path / "fig5_mc.csv", 2)
        for c, v in zip(cs, vals):
            assert v == pytest.approx(trace_distance_asymptotic(float(c)), abs=0.01)

    def test_fig5_svg_has_one_dot_per_c(self, tmp_path):
        import xml.etree.ElementTree as ET

        from rmtdiff.figures import _FIG5_DOT_CS

        run_fig("fig5", str(tmp_path), fast=True, svg=True)
        root = ET.parse(tmp_path / "fig5.svg").getroot()
        assert len(root.findall(".//{http://www.w3.org/2000/svg}circle")) == len(_FIG5_DOT_CS) == 6

    def test_fig6_files(self, tmp_path):
        files = run_fig("fig6", str(tmp_path), fast=True, svg=False)
        assert {f.split("/")[-1] for f in files} == {"fig6l.csv", "fig6r.csv"}


class TestVerificationSensitivity:
    def test_perturbed_support_fails_support_criteria(self, monkeypatch):
        # shrinking the closed form's support gate by 1% must break the
        # closed-vs-inversion comparison: the cubic-root route keeps telling
        # the truth on the outer band that the closed form now zeroes out
        import rmtdiff.acceptance as acc
        import rmtdiff.asym_law as law

        true_support = law.support_points

        def skewed(c):
            xm, xp = true_support(c)
            return xm, 0.99 * xp

        monkeypatch.setattr(law, "support_points", skewed)
        result = acc.run_criterion("AC-02", "fast")
        print(format_report_line(result))
        assert not result.passed

    def test_report_line_format(self):
        r = run_criterion("AC-01", "fast")
        line = format_report_line(r)
        fields = line.split(",")
        assert fields[0] == "AC-01"
        assert len(fields) == 5
        assert fields[4] in ("PASS", "FAIL")
