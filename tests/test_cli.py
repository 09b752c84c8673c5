import subprocess
import sys

import pytest

from rmtdiff.cli import main
from rmtdiff.harness import write_hist
from rmtdiff.sampling import EnsembleParams


def run_cli(args, **kwargs):
    return main(list(args))


class TestHistCommand:
    def test_writes_csv_and_svg(self, tmp_path):
        out = tmp_path / "h.csv"
        code = run_cli(
            ["hist", "--n", "6", "--m", "6", "--samples", "50", "--seed", "3",
             "--out", str(out), "--format", "svg"]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "h.svg").exists()
        header = out.read_text().splitlines()[0]
        assert header == "bin_lo,bin_hi,empirical,theory"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["hist", "--n", "8", "--m", "8", "--samples", "60", "--seed", "42",
                "--workers", "2"]
        assert run_cli(argv + ["--out", str(a)]) == 0
        assert run_cli(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        argv = ["hist", "--n", "5", "--m", "5", "--samples", "40", "--seed", "1"]
        run_cli(argv + ["--out", str(a)])
        monkeypatch.setenv("RMTDIFF_SEED", "99")
        run_cli(argv + ["--out", str(b)])
        monkeypatch.delenv("RMTDIFF_SEED")
        run_cli(argv + ["--seed", "99", "--out", str(c)])
        assert a.read_bytes() != b.read_bytes()
        assert b.read_bytes() == c.read_bytes()

    def test_grid_range(self, tmp_path):
        out = tmp_path / "h.csv"
        run_cli(["hist", "--n", "4", "--m", "4", "--samples", "30", "--seed", "2",
                 "--grid=-3:3:10", "--bins", "10", "--out", str(out)])
        first = out.read_text().splitlines()[1].split(",")
        assert float(first[0]) == pytest.approx(-3.0)

    def test_grid_count_sets_bins(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run_cli(["hist", "--n", "4", "--m", "4", "--samples", "30", "--seed", "2",
                        "--grid=-3:3:10", "--out", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines()[1:] if not ln.startswith("#")]
        assert len(rows) == 10
        assert float(rows[-1].split(",")[1]) == pytest.approx(3.0)

    def test_atom_metadata_matches_fig(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run_cli(["hist", "--n", "12", "--m", "4", "--samples", "20", "--seed", "3",
                        "--out", str(out)]) == 0
        meta = dict(ln[2:].split("=", 1) for ln in out.read_text().splitlines()
                    if ln.startswith("# "))
        assert float(meta["atom_weight_theory"]) == pytest.approx(1.0 - 2.0 / 3.0)
        assert {"atom_threshold", "atom_fraction"} <= meta.keys()

    @pytest.mark.parametrize(
        "shape, note",
        [(["--n", "2", "--m", "10", "--q", "0.5"], True), (["--n", "3", "--m", "6", "--q", "2"], True),
         (["--n", "3", "--m", "2"], True), (["--n", "2", "--m", "10"], False),
         (["--n", "3", "--m", "3"], False), (["--n", "4", "--m", "4", "--q", "0.5"], False)],
        ids=["2x10-q0.5", "3x6-q2", "3x2", "2x10", "3x3", "4x4-q0.5"],
    )
    def test_small_n_asymptotic_overlay_noted(self, tmp_path, capsys, monkeypatch, shape, note):
        # at n <= 3 an overlay that is not the exact law says so in one stderr
        # line; the exit code and the file are those of write_hist
        monkeypatch.delenv("RMTDIFF_SEED", raising=False)
        out, want = tmp_path / "h.csv", tmp_path / "want.csv"
        assert run_cli(["hist", *shape, "--samples", "30", "--seed", "1", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert ("asymptotic" in err) == note
        assert len(err.splitlines()) == int(note)
        args = dict(zip(shape[::2], shape[1::2]))
        params = EnsembleParams(int(args["--n"]), int(args["--m"]),
                                weight_q=float(args.get("--q", 1.0)), seed=1)
        write_hist(params, 30, 60, str(want))
        assert out.read_bytes() == want.read_bytes()


class TestOtherCommands:
    def test_aed(self, tmp_path):
        out = tmp_path / "aed.csv"
        assert run_cli(["aed", "--c", "1.0", "--count", "401", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,density"
        assert lines[-1].startswith("# atom_weight=")

    def test_aed_svg(self, tmp_path, monkeypatch):
        import xml.etree.ElementTree as ET

        monkeypatch.chdir(tmp_path)
        assert run_cli(["aed", "--c", "2.5", "--count", "301", "--format", "svg"]) == 0
        root = ET.parse(tmp_path / "aed.svg").getroot()
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 1

    def test_aed_from_dims(self, tmp_path):
        out = tmp_path / "aed.csv"
        assert run_cli(["aed", "--n", "10", "--m", "20", "--count", "301",
                        "--out", str(out)]) == 0

    def test_moments(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert run_cli(["moments", "--c", "1.0", "--z", "1", "2", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "m_1(1)" in text
        assert out.exists()

    def test_distance(self, capsys):
        assert run_cli(["distance", "--c", "0.5", "3"]) == 0
        text = capsys.readouterr().out
        assert "trace=0.83333" in text

    def test_sample(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["sample", "--n", "3", "--m", "3", "--samples", "4",
                        "--out", str(out)]) == 0
        body = [ln for ln in out.read_text().splitlines()[1:] if not ln.startswith("#")]
        assert len(body) == 12

    def test_sample_csv_bytes(self, tmp_path):
        # written by the earlier hand-rolled writer; %.17g prints the integral
        # draw and k columns as %d did
        out = tmp_path / "s.csv"
        assert run_cli(["sample", "--n", "3", "--m", "4", "--samples", "2", "--seed", "7",
                        "--out", str(out)]) == 0
        assert out.read_text() == (
            "draw,k,x\n"
            "0,0,-1.9017157585460798\n"
            "0,1,0.28452881740621799\n"
            "0,2,1.6171869411398612\n"
            "1,0,-1.0824399308411701\n"
            "1,1,0.21439310058496916\n"
            "1,2,0.86804683025620166\n"
            "# version=0.1.0\n# n=3\n# m=4\n# p=1\n# q=1\n# seed=7\n# samples=2\n"
            "# workers=1\n"
        )

    def test_fig_fast(self, tmp_path):
        assert run_cli(["fig", "--id", "fig4b", "--fast", "--out", str(tmp_path),
                        "--workers", "2"]) == 0
        assert (tmp_path / "fig4b.csv").exists()
        assert (tmp_path / "fig4b.svg").exists()

    @pytest.mark.parametrize(
        "argv, files",
        [
            (["sample", "--n", "3", "--m", "4", "--samples", "2"], ["out.csv"]),
            (["hist", "--n", "12", "--m", "4", "--samples", "20"], ["out.csv"]),
            (["aed", "--c", "2.5", "--count", "101"], ["out.csv"]),
            (["moments", "--c", "1.0", "--z", "0.5", "2"], ["out.csv"]),
            (["distance", "--c", "0.5", "3", "--n", "10"], ["out.csv"]),
            (["fig", "--id", "fig1", "--fast", "--format", "csv"], ["fig1.csv"]),
            (["fig", "--id", "fig5", "--fast", "--format", "csv"], ["fig5_curve.csv", "fig5_mc.csv"]),
        ],
        ids=["sample", "hist", "aed", "moments", "distance", "fig1", "fig5"],
    )
    def test_csv_trailer_is_key_value_lines(self, tmp_path, monkeypatch, argv, files):
        # at least one comment line follows the rows, each exactly one `key=value` pair
        monkeypatch.chdir(tmp_path)
        out = "." if argv[0] == "fig" else "out.csv"
        assert run_cli([*argv, "--out", out]) == 0
        for name in files:
            lines = (tmp_path / name).read_text().splitlines()
            body = [ln for ln in lines if not ln.startswith("#")]
            assert lines[: len(body)] == body  # the comments all trail the rows
            assert len(lines) > len(body), name
            for ln in lines[len(body):]:
                key, value = ln[2:].split("=")
                assert ln == f"# {key}={value}" and key.isidentifier() and " " not in value, ln

    def test_fig_unknown_id_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["fig", "--id", "fig99"])
        assert exc.value.code == 2


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["hist", "--n", "4"])  # missing --m
        assert exc.value.code == 2

    def test_numerical_error_is_3(self, capsys):
        # well-formed arguments that the library's closed form cannot serve:
        # absolute moments are implemented for Re(z) > 0 only
        code = run_cli(["moments", "--c", "1.0", "--z", "-0.5"])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_moment_beyond_float_range_is_3(self, capsys):
        assert run_cli(["moments", "--c", "1e200", "--z", "6"]) == 3
        assert "float range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["aed", "--c", "-1"],
            ["aed", "--c", "0"],
            ["aed", "--c", "1.0", "--eta", "-0.5"],
            ["moments", "--c", "-2"],
            ["distance", "--c", "0.5", "-1"],
            ["hist", "--n", "4", "--m", "4", "--p", "0"],
            ["sample", "--n", "4", "--m", "4", "--q", "-1"],
        ],
    )
    def test_non_positive_float_is_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fig_bad_workers_leaves_no_directory(self, tmp_path):
        out = tmp_path / "d"
        code = run_cli(["fig", "--id", "fig4d", "--fast", "--workers", "0", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["aed", "--c", "nan"],
            ["aed", "--c", "1.0", "--eta", "inf"],
            ["moments", "--c", "inf"],
            ["moments", "--c", "1.0", "--z", "1", "--z=-inf"],
            ["distance", "--c", "0.5", "nan"],
            ["hist", "--n", "4", "--m", "4", "--q", "nan"],
            ["hist", "--n", "4", "--m", "4", "--grid=0:inf:10"],
            ["hist", "--n", "4", "--m", "4", "--grid=-inf:1:10"],
        ],
    )
    def test_non_finite_float_is_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["aed", "--c", "5", "--eta", "1e40"], ["aed", "--c", "5", "--eta", "1e90"],
         ["hist", "--n", "50", "--m", "10", "--q", "1e40"]],
    )
    def test_weight_ratio_out_of_range_is_3_before_sampling(self, argv, tmp_path, monkeypatch, capsys):
        # unchecked, aed lost the rho1 band and hist counted every rho1 eigenvalue as atom
        from rmtdiff import harness

        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before the weight ratio was checked")

        monkeypatch.setattr(harness, "difference_spectra", no_draws)
        out = tmp_path / "o.csv"
        assert run_cli(argv + ["--out", str(out)]) == 3
        assert "eta" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_is_3(self, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = run_cli(["aed", "--c", "1.0", "--count", "301", "--out", str(target)])
        assert code == 3

    def test_invalid_samples_is_usage_error(self, tmp_path):
        code = run_cli(["hist", "--n", "4", "--m", "4", "--samples", "0",
                        "--out", str(tmp_path / "h.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [["--samples", "0"], ["--workers", "0"], ["--bins", "1"],
         ["--grid=-3:3:10", "--bins", "20"], ["--n", "0"], ["--m", "-2"]],
    )
    def test_bad_hist_value_exits_2_before_sampling(self, extra, tmp_path, monkeypatch):
        from rmtdiff import harness

        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before the arguments were checked")

        monkeypatch.setattr(harness, "difference_spectra", no_draws)
        out = tmp_path / "h.csv"
        code = run_cli(["hist", "--n", "4", "--m", "4", "--out", str(out)] + extra)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["aed", "--n", "3", "--m", "0"], ["aed", "--n", "0"], ["aed", "--n", "0", "--m", "3"],
         ["aed", "--c", "1", "--m", "-1"], ["distance", "--c", "1", "--n", "0"]],
    )
    def test_bad_count_exits_2_before_work(self, argv, tmp_path, monkeypatch, capsys):
        from rmtdiff import cli

        def no_work(*args, **kwargs):
            raise AssertionError("computed before the arguments were checked")

        for name in ("aed_grid", "trace_distance_asymptotic"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "o.csv"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_aed_count_below_one_exits_2_before_work(self, count, tmp_path, monkeypatch, capsys):
        # --count 0 used to write a 1902-node grid and exit 0
        from rmtdiff import cli

        def no_work(*args, **kwargs):
            raise AssertionError("computed before the arguments were checked")

        monkeypatch.setattr(cli, "aed_grid", no_work)
        out = tmp_path / "o.csv"
        assert run_cli(["aed", "--c", "1", "--count", count, "--out", str(out)]) == 2
        assert "--count must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_hist_n1_exits_2_before_sampling(self, tmp_path, monkeypatch, capsys):
        from rmtdiff import harness

        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before the arguments were checked")

        monkeypatch.setattr(harness, "difference_spectra", no_draws)
        out = tmp_path / "h.csv"
        code = run_cli(["hist", "--n", "1", "--m", "1", "--samples", "5", "--out", str(out)])
        assert code == 2
        assert "N >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra", [["--workers", "2"], ["--bins", "5"], ["--grid=-1:1:5"], ["--format", "svg"]]
    )
    def test_sample_rejects_hist_options(self, extra, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["sample", "--n", "3", "--m", "3", "--out", str(tmp_path / "s.csv")] + extra)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "module, then",
        [
            ("rmtdiff", ""),
            ("rmtdiff.cli", ""),
            ("rmtdiff.moments", "rmtdiff.moments.even_moment(3, 1.0); "),
            ("rmtdiff.moments", "rmtdiff.moments.absolute_moment(1, 2.0001); "
                                "rmtdiff.moments.absolute_moment(3, 5.0); "),
            ("rmtdiff.moments", "rmtdiff.moments.absolute_moment(0.5, 5.0); "),
        ],
        ids=["rmtdiff", "rmtdiff.cli", "even_moment", "absolute_moment_above_two",
             "absolute_moment_series"],
    )
    def test_import_leaves_scipy_unloaded(self, src_env, module, then):
        # scipy takes ~0.3 s to import; only the calls that use it pay for it
        code = f"import sys, {module}; {then}print('scipy' in sys.modules)"
        child = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120, env=src_env,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "False"

    def test_verify_fast_subprocess_smoke(self, src_env):
        # exercised through the console entry point for the exit-code contract
        proc = subprocess.run(
            [sys.executable, "-m", "rmtdiff.cli", "verify", "--level", "fast"],
            capture_output=True, text=True, timeout=1200, env=src_env,
        )
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("AC-")]
        assert len(lines) == 13
        for ln in lines:
            fields = ln.split(",")
            assert len(fields) == 5
            assert fields[4] in ("PASS", "FAIL")
        assert proc.returncode in (0, 1)
