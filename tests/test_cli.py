"""End-to-end CLI behaviour through in-process main() calls."""

import json

import numpy as np
import pytest

from incoframes import make_simplex_etf, read_frame, write_frame
from incoframes.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def small_frame_file(tmp_path):
    from incoframes import DesignConfig, run

    frame, _ = run(DesignConfig(m=4, n_vectors=8, sweeps=5, seed=2))
    path = tmp_path / "small.frame"
    write_frame(path, frame, seed=2)
    return path


class TestDesign:
    def test_writes_frames_and_manifests(self, tmp_path, capsys):
        code = run_cli(
            "design", "--m", "5", "--N", "10", "--K", "3",
            "--seeds", "1,2", "--out", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seed 1:" in out and "seed 2:" in out
        assert "min_mu" in out and "welch" in out
        for seed in (1, 2):
            frame_path = tmp_path / f"frame_m5_n10_seed{seed}.frame"
            manifest_path = tmp_path / f"manifest_m5_n10_seed{seed}.json"
            assert frame_path.exists() and manifest_path.exists()
            frame, header = read_frame(frame_path)
            assert header["seed"] == seed
            doc = json.loads(manifest_path.read_text())
            assert doc["config"]["sweeps"] == 3
            assert len(doc["trace"]) == 3

    def test_seed_range_syntax(self, tmp_path):
        code = run_cli(
            "design", "--m", "4", "--N", "8", "--K", "1",
            "--seeds", "3..5", "--out", str(tmp_path),
        )
        assert code == 0
        assert len(list(tmp_path.glob("frame_*.frame"))) == 3

    def test_deterministic_frame_bytes(self, tmp_path):
        for sub in ("r1", "r2"):
            code = run_cli(
                "design", "--m", "5", "--N", "12", "--K", "2",
                "--seeds", "7", "--out", str(tmp_path / sub),
            )
            assert code == 0
        b1 = (tmp_path / "r1" / "frame_m5_n12_seed7.frame").read_bytes()
        b2 = (tmp_path / "r2" / "frame_m5_n12_seed7.frame").read_bytes()
        assert b1 == b2

    def test_orthonormal_note_for_square(self, tmp_path, capsys):
        code = run_cli(
            "design", "--m", "4", "--N", "4", "--K", "2",
            "--seeds", "0", "--out", str(tmp_path),
        )
        assert code == 0
        assert "orthonormal" in capsys.readouterr().out

    def test_nonneg_tag(self, tmp_path):
        code = run_cli(
            "design", "--m", "4", "--N", "8", "--K", "2",
            "--seeds", "0", "--nonneg", "--out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "frame_m4_n8_seed0_nonneg.frame"
        assert path.exists()
        frame, header = read_frame(path)
        assert header["nonneg"] is True
        assert frame.vectors.min() >= 0.0

    def test_missing_required_option(self, tmp_path, capsys):
        code = run_cli("design", "--N", "10", "--out", str(tmp_path))
        assert code == 2
        assert "--m" in capsys.readouterr().err

    def test_bad_seed_list(self, tmp_path, capsys):
        out = tmp_path / "out"
        for seeds in ("x,y", "9..3", ",", "-1", "-2..-1", "1,1,2"):
            code = run_cli("design", "--m", "4", "--N", "8", f"--seeds={seeds}", "--out", str(out))
            assert code == 2, seeds
            assert not out.exists(), seeds

    def test_invalid_dimensions(self, tmp_path):
        code = run_cli("design", "--m", "9", "--N", "4", "--out", str(tmp_path))
        assert code == 2


class TestAnalyze:
    def test_metrics_and_profile(self, small_frame_file, tmp_path, capsys):
        csv_path = tmp_path / "corr.csv"
        code = run_cli("analyze", str(small_frame_file), "--csv", str(csv_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "coherence" in out and "welch_bound" in out
        assert "fraction of |correlations| >= 0.99*mu" in out
        assert csv_path.exists()

    def test_default_csv_path(self, small_frame_file, capsys):
        code = run_cli("analyze", str(small_frame_file))
        assert code == 0
        sibling = small_frame_file.with_name("small_correlations.csv")
        assert sibling.exists()

    def test_etf_certificate_lines(self, tmp_path, capsys):
        path = tmp_path / "etf.frame"
        write_frame(path, make_simplex_etf(5))
        code = run_cli("analyze", str(path))
        assert code == 0
        out = capsys.readouterr().out
        assert "equiangular      = True, tight = True" in out
        assert "eigen_residual" in out

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = run_cli("analyze", str(tmp_path / "none.frame"))
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_corrupt_file_is_io_error(self, tmp_path):
        path = tmp_path / "bad.frame"
        path.write_text("not a frame\n")
        assert run_cli("analyze", str(path)) == 3


class TestCsBench:
    def test_random_source_outputs(self, tmp_path, capsys):
        code = run_cli(
            "cs-bench", "--N", "20", "--M", "30", "--sparsity", "2",
            "--m-list", "8,10", "--trials", "5", "--seed", "1",
            "--sources", "random-gaussian", "--out", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("source=random-gaussian") == 2
        assert (tmp_path / "cs_bench.csv").exists()
        assert (tmp_path / "cs_bench.svg").exists()

    def test_designed_source_writes_sensing_frame(self, tmp_path):
        code = run_cli(
            "cs-bench", "--N", "16", "--M", "24", "--sparsity", "2",
            "--m-list", "6", "--trials", "4", "--design-sweeps", "3",
            "--sources", "designed-fresh", "--out", str(tmp_path),
        )
        assert code == 0
        frame, _ = read_frame(tmp_path / "sensing_m6_n16.frame")
        assert frame.m == 6 and frame.n_vectors == 16

    def test_csv_identical_across_reruns(self, tmp_path):
        args = (
            "cs-bench", "--N", "18", "--M", "26", "--sparsity", "2",
            "--m-list", "7,9", "--trials", "6", "--seed", "3",
            "--sources", "random-gaussian",
        )
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "cs_bench.csv").read_bytes() == (
            tmp_path / "b" / "cs_bench.csv"
        ).read_bytes()

    def test_frame_file_source(self, small_frame_file, tmp_path):
        code = run_cli(
            "cs-bench", "--N", "8", "--M", "16", "--sparsity", "2",
            "--m-list", "4", "--trials", "4",
            "--sources", "frame-file", "--frame-file", str(small_frame_file),
            "--out", str(tmp_path),
        )
        assert code == 0

    def test_frame_file_dimension_mismatch(self, small_frame_file, tmp_path):
        code = run_cli(
            "cs-bench", "--N", "20", "--M", "30", "--sparsity", "2",
            "--m-list", "5", "--trials", "4",
            "--sources", "frame-file", "--frame-file", str(small_frame_file),
            "--out", str(tmp_path),
        )
        assert code == 2

    def test_frame_file_source_needs_path(self, tmp_path):
        code = run_cli(
            "cs-bench", "--N", "20", "--M", "30", "--sparsity", "2",
            "--m-list", "5", "--trials", "4", "--sources", "frame-file",
            "--out", str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "bad",
        [
            ["--m-list", ","],
            ["--sources", ","],
            ["--trials", "0"],
            ["--sparsity", "99"],
            ["--sources", "designed-fresh,frame-file"],
            ["--seed", "-1"],
            ["--m-list", "6,8,6"],
            ["--sources", "random-gaussian, random-gaussian"],
            ["--m-list", "6,13"],
            ["--m-list", "6,1"],
        ],
        ids=[
            "empty-m-list", "empty-sources", "zero-trials", "sparsity", "no-frame-file",
            "negative-seed", "repeated-m-list", "repeated-sources", "m-above-N", "m-below-2",
        ],
    )
    def test_bad_input_rejected_before_any_work(self, tmp_path, bad):
        code = run_cli(
            "cs-bench", "--N", "12", "--M", "16", "--m-list", "6", "--trials", "2",
            "--design-sweeps", "2", *bad, "--out", str(tmp_path),
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_unknown_source(self, tmp_path):
        code = run_cli(
            "cs-bench", "--sources", "mystery", "--trials", "2", "--out", str(tmp_path)
        )
        assert code == 2


class TestAdapt:
    def test_synthetic_run(self, small_frame_file, tmp_path, capsys):
        code = run_cli(
            "adapt", "--frame", str(small_frame_file), "--synthetic",
            "--sparsity", "2", "--iterations", "3", "--samples", "30",
            "--noise", "0.0", "--seed", "5", "--out", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coherence:" in out and "drift" in out
        adapted = tmp_path / "small_adapted.frame"
        trace = tmp_path / "small_adapt_trace.csv"
        assert adapted.exists() and trace.exists()
        assert "source=synthetic" in trace.read_text().splitlines()[0]

    def test_image_run(self, small_frame_file, tmp_path):
        # m=4 frame takes 2x2 patches.
        rng = np.random.default_rng(4)
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        vals = (rng.uniform(size=(6, 6)) * 255).astype(int)
        rows = "\n".join(" ".join(str(v) for v in row) for row in vals)
        (img_dir / "x.pgm").write_text(f"P2\n6 6\n255\n{rows}\n")
        code = run_cli(
            "adapt", "--frame", str(small_frame_file), "--images", str(img_dir),
            "--sparsity", "2", "--iterations", "2", "--out", str(tmp_path),
        )
        assert code == 0

    def test_needs_a_data_source(self, small_frame_file, tmp_path):
        code = run_cli(
            "adapt", "--frame", str(small_frame_file), "--out", str(tmp_path)
        )
        assert code == 2

    def test_images_need_square_dimension(self, tmp_path):
        from incoframes import DesignConfig, run as design_run

        frame, _ = design_run(DesignConfig(m=5, n_vectors=10, sweeps=2, seed=1))
        path = tmp_path / "m5.frame"
        write_frame(path, frame)
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        (img_dir / "x.pgm").write_text("P2\n4 4\n255\n" + " ".join(["7"] * 16) + "\n")
        code = run_cli(
            "adapt", "--frame", str(path), "--images", str(img_dir),
            "--out", str(tmp_path),
        )
        assert code == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "design.cfg"
        cfg.write_text("m = 5\nN = 10\nK = 2\nseeds = 4\n# comment\n")
        code = run_cli("design", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "frame_m5_n10_seed4.frame").exists()

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        cfg.write_text("m = 5\nN = 10\nK = 5\n")
        code = run_cli(
            "design", "--config", str(cfg), "--K", "1", "--out", str(tmp_path)
        )
        assert code == 0
        doc = json.loads((tmp_path / "manifest_m5_n10_seed0.json").read_text())
        assert doc["config"]["sweeps"] == 1

    def test_boolean_key(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        cfg.write_text("m = 4\nN = 8\nK = 1\nnonneg = true\n")
        code = run_cli("design", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "frame_m4_n8_seed0_nonneg.frame").exists()

    # radius_slack and solver_tol are fixed design constants, not config keys.
    @pytest.mark.parametrize("line", ["what = 1", "radius_slack = 1e-4", "solver-tol = 1e-8"])
    def test_unknown_key(self, tmp_path, line):
        cfg = tmp_path / "design.cfg"
        cfg.write_text(f"m = 4\nN = 8\n{line}\n")
        assert run_cli("design", "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        cfg.write_text("m = four\nN = 8\n")
        assert run_cli("design", "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_missing_config_file(self, tmp_path):
        assert run_cli(
            "design", "--m", "4", "--N", "8",
            "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path),
        ) == 3

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        cfg.write_text("m 4\n")
        assert run_cli("design", "--config", str(cfg), "--out", str(tmp_path)) == 2


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("--version")
        assert info.value.code == 0
        assert "incoframes" in capsys.readouterr().out

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "incoframes", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "incoframes" in proc.stdout
