"""End-to-end CLI behaviour through in-process main() calls."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import incoframes.cli
import incoframes.design
from incoframes import (
    DesignConfig,
    RankDeficient,
    SolverStall,
    make_simplex_etf,
    read_frame,
    run,
    write_frame,
)
from incoframes.cli import _fork_map, main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def small_frame_file(tmp_path):
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
        for seeds in ("x,y", "9..3", "1..x", ",", "-1", "-2..-1", "1,1,2"):
            code = run_cli("design", "--m", "4", "--N", "8", f"--seeds={seeds}", "--out", str(out))
            assert code == 2, seeds
            assert not out.exists(), seeds

    def test_invalid_dimensions(self, tmp_path):
        code = run_cli("design", "--m", "9", "--N", "4", "--out", str(tmp_path))
        assert code == 2

    def test_rank_deficient_start_is_numeric_failure(self, tmp_path, monkeypatch, capsys):
        def refuse(a):
            raise RankDeficient("refused")

        monkeypatch.setattr(incoframes.design, "unit_polar", refuse)
        code = run_cli("design", "--m", "4", "--N", "8", "--K", "1", "--out", str(tmp_path))
        assert code == 4
        assert "numeric failure:" in capsys.readouterr().err


def outputs(out, printed):
    """Every file under ``out`` by name, manifests without their run-dependent
    fields, and the printed text with design wall times masked."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            del doc["wall_seconds"], doc["environment"]
            found[path.name] = doc
        else:
            found[path.name] = path.read_bytes()
    return found, re.sub(r", \d+\.\ds\)$", ", -s)", printed, flags=re.M)


class TestParallelRuns:
    """Commands that spread independent runs over the usable cores write and
    print what one run after another writes and prints."""

    DESIGN = ("design", "--m", "5", "--N", "10", "--K", "6", "--eps-stop", "1e-3")
    CS_BENCH = (
        "cs-bench", "--N", "16", "--M", "24", "--sparsity", "2", "--trials", "5",
        "--seed", "1", "--design-sweeps", "3", "--sources", "designed-fresh,random-gaussian",
    )

    def test_seed_list_matches_single_seed_calls(self, tmp_path, capsys):
        assert run_cli(*self.DESIGN, "--seeds", "1..3", "--out", str(tmp_path / "all")) == 0
        files, printed = outputs(tmp_path / "all", capsys.readouterr().out)
        single_files, single_lines = {}, []
        for seed in (1, 2, 3):
            out = tmp_path / f"seed{seed}"
            assert run_cli(*self.DESIGN, "--seeds", str(seed), "--out", str(out)) == 0
            found, text = outputs(out, capsys.readouterr().out)
            single_files.update(found)
            single_lines.append(text.splitlines()[0])
        assert files == single_files
        assert printed.splitlines()[:3] == single_lines

    @staticmethod
    def on_cpus(count, monkeypatch, capsys, out, *argv):
        """Exit code, stderr and ``outputs`` of one command on ``count`` CPUs."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        code = run_cli(*argv, "--out", str(out))
        captured = capsys.readouterr()
        return code, captured.err, outputs(out, captured.out)

    def test_failed_seed_writes_exactly_the_seeds_before_it(self, tmp_path, monkeypatch, capsys):
        real_run = incoframes.cli.run

        def refuse_seed_2(cfg):
            if cfg.seed == 2:
                raise RankDeficient("refused")
            return real_run(cfg)

        # Patched before the fork, so the worker that runs seed 2 refuses it too.
        monkeypatch.setattr(incoframes.cli, "run", refuse_seed_2)
        argv = (*self.DESIGN, "--seeds", "1..3")
        forked = self.on_cpus(2, monkeypatch, capsys, tmp_path / "forked", *argv)
        code, err, (files, printed) = forked
        assert code == 4 and "numeric failure: refused" in err
        assert sorted(files) == ["frame_m5_n10_seed1.frame", "manifest_m5_n10_seed1.json"]
        assert printed.startswith("seed 1:") and printed.count("\n") == 1
        assert forked == self.on_cpus(1, monkeypatch, capsys, tmp_path / "serial", *argv)

    def test_failed_m_writes_exactly_the_ms_before_it(self, tmp_path, monkeypatch, capsys):
        real_run = incoframes.cli.run

        def refuse_m_8(cfg):
            if cfg.m == 8:
                raise RankDeficient("refused")
            return real_run(cfg)

        monkeypatch.setattr(incoframes.cli, "run", refuse_m_8)
        argv = (*self.CS_BENCH, "--m-list", "6,8")
        forked = self.on_cpus(2, monkeypatch, capsys, tmp_path / "forked", *argv)
        code, err, (files, printed) = forked
        assert code == 4 and "numeric failure: refused" in err
        assert sorted(files) == ["sensing_m6_n16.frame"]
        assert printed.startswith("m=  6") and printed.count("\n") == 2
        assert forked == self.on_cpus(1, monkeypatch, capsys, tmp_path / "serial", *argv)

    @pytest.mark.parametrize("count, failing_call", [(2, 1), (3, 2)],
                             ids=["first-fork", "second-fork"])
    def test_failed_fork_runs_the_seeds_here(self, tmp_path, monkeypatch, capsys, count,
                                            failing_call):
        real_fork = os.fork
        calls = 0

        def refuse_one():
            nonlocal calls
            calls += 1
            if calls == failing_call:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_fork()

        argv = (*self.DESIGN, "--seeds", "1..3")
        serial = self.on_cpus(1, monkeypatch, capsys, tmp_path / "serial", *argv)
        assert serial[0] == 0
        monkeypatch.setattr(os, "fork", refuse_one)
        descriptors = len(os.listdir("/dev/fd"))
        assert self.on_cpus(count, monkeypatch, capsys, tmp_path / "forked", *argv) == serial
        assert calls == failing_call
        assert len(os.listdir("/dev/fd")) == descriptors

    def test_cs_bench_m_list_matches_single_m_calls(self, tmp_path, capsys):
        args = self.CS_BENCH
        assert run_cli(*args, "--m-list", "6,8", "--out", str(tmp_path / "both")) == 0
        both = (tmp_path / "both" / "cs_bench.csv").read_text().splitlines()
        lines = capsys.readouterr().out.splitlines()
        rows, single_lines = both[:1], []
        for m in ("6", "8"):
            out = tmp_path / m
            assert run_cli(*args, "--m-list", m, "--out", str(out)) == 0
            rows += (out / "cs_bench.csv").read_text().splitlines()[1:]
            single_lines += capsys.readouterr().out.splitlines()[:2]
            frame = f"sensing_m{m}_n16.frame"
            assert (out / frame).read_bytes() == (tmp_path / "both" / frame).read_bytes()
        assert both == rows
        assert lines[:4] == single_lines


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

    def test_frame_file_mismatch_rejected_before_any_work(self, small_frame_file, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "cs-bench", "--N", "8", "--M", "16", "--sparsity", "2",
            "--m-list", "4,5", "--trials", "4", "--design-sweeps", "2",
            "--sources", "designed-fresh,frame-file", "--frame-file", str(small_frame_file),
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

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

    def test_sparsity_above_an_m_rejected_before_any_design(self, tmp_path, monkeypatch):
        # A negative sweep count fails every m's DesignConfig, built before --out.
        calls = []
        monkeypatch.setattr(incoframes.cli, "run", lambda *args: calls.append(args))
        for k, bad in enumerate([["--sparsity", "4"], ["--sparsity", "2", "--design-sweeps", "-1"]]):
            out = tmp_path / f"out{k}"
            code = run_cli(
                "cs-bench", "--N", "16", "--M", "24", "--m-list", "3,8", "--trials", "5",
                *bad, "--out", str(out),
            )
            assert code == 2, bad
            assert not out.exists(), bad
        assert calls == []

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

    def test_one_data_source_only(self, small_frame_file, tmp_path):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        (img_dir / "x.pgm").write_text("P2\n4 4\n255\n" + " ".join(map(str, range(16))) + "\n")
        out = tmp_path / "out"
        code = run_cli(
            "adapt", "--frame", str(small_frame_file), "--images", str(img_dir),
            "--synthetic", "--sparsity", "2", "--iterations", "2", "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad",
        [
            ["--synthetic"],
            ["--frame", "{frame}", "--synthetic", "--iterations", "-1"],
            ["--frame", "{frame}", "--images", "{images}", "--sparsity", "5"],
            ["--frame", "{frame}", "--synthetic", "--noise", "-0.5"],
        ],
        ids=["no-frame", "negative-iterations", "sparsity-above-m", "negative-noise"],
    )
    def test_bad_input_rejected_before_any_work(self, small_frame_file, tmp_path, bad):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        (img_dir / "x.pgm").write_text("P2\n4 4\n255\n" + " ".join(map(str, range(16))) + "\n")
        out = tmp_path / "out"
        argv = [arg.format(frame=small_frame_file, images=img_dir) for arg in bad]
        assert run_cli("adapt", *argv, "--out", str(out)) == 2
        assert not out.exists()

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

    @pytest.mark.parametrize("spelling", ["0", "False", "NO", "off"])
    def test_false_spellings(self, tmp_path, spelling):
        cfg = tmp_path / "design.cfg"
        cfg.write_text(f"m = 4\nN = 8\nK = 1\nnonneg = {spelling}\n")
        code = run_cli("design", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "frame_m4_n8_seed0.frame").exists()

    def test_bad_boolean(self, tmp_path):
        cfg = tmp_path / "design.cfg"
        cfg.write_text("m = 4\nN = 8\nK = 1\nnonneg = maybe\n")
        out = tmp_path / "out"
        assert run_cli("design", "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists()

    def test_repeated_config_last_wins(self, tmp_path):
        first, last = tmp_path / "first.cfg", tmp_path / "last.cfg"
        first.write_text("m = 4\nN = 8\nK = 1\n")
        last.write_text("m = 5\nN = 10\nK = 1\n")
        code = run_cli(
            "design", "--config", str(first), "--config", str(last), "--out", str(tmp_path)
        )
        assert code == 0
        assert [p.name for p in tmp_path.glob("frame_*")] == ["frame_m5_n10_seed0.frame"]

    # radius_slack and solver_tol are fixed design constants, not config keys;
    # help and config name the parser's own options, not settings.
    @pytest.mark.parametrize(
        "line",
        ["what = 1", "radius_slack = 1e-4", "solver-tol = 1e-8", "help = 1", "config = other.cfg"],
    )
    def test_unknown_key(self, tmp_path, line):
        cfg = tmp_path / "design.cfg"
        cfg.write_text(f"m = 4\nN = 8\n{line}\n")
        assert run_cli("design", "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_positional_is_not_a_key(self, small_frame_file, tmp_path):
        cfg = tmp_path / "analyze.cfg"
        cfg.write_text(f"frame = {tmp_path / 'other.frame'}\n")
        assert run_cli("analyze", str(small_frame_file), "--config", str(cfg)) == 2
        assert not small_frame_file.with_name("small_correlations.csv").exists()

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


def run_in(m, n, seed, sweeps=2):
    cfg = DesignConfig(m=m, n_vectors=n, sweeps=sweeps, seed=seed)
    frame, _ = run(cfg)
    return frame


def cpus(monkeypatch, count):
    """Give ``_fork_map`` an affinity mask of ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestForkMap:
    """``_fork_map`` hands over the serial loop's results and raises its first
    exception for any number of forked workers, and leaves no child behind."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        # A hung pipe read or wait fails the test instead of the session.
        def expired(signum, frame):
            raise TimeoutError("_fork_map did not return within 60 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_same_ordered_results_for_any_job_count(self, monkeypatch):
        seeds = range(1, 8)
        want = [run_in(4, 8, seed).vectors.tobytes() for seed in seeds]

        def pid_and_frame(seed):
            return os.getpid(), run_in(4, 8, seed).vectors.tobytes()

        for jobs in (1, 2, 3):
            cpus(monkeypatch, jobs)
            got = []
            for result in _fork_map(pid_and_frame, seeds):
                # Every child has been waited for before the first result.
                with pytest.raises(ChildProcessError):
                    os.waitpid(-1, os.WNOHANG)
                got.append(result)
            assert [frame for _, frame in got] == want
            pids = [pid for pid, _ in got]
            assert pids[0::jobs] == [os.getpid()] * len(pids[0::jobs])
            assert len(set(pids)) == jobs

    @pytest.mark.parametrize("jobs, bad", [(1, 4), (2, 4), (2, 3), (3, 4)],
                             ids=["serial", "caller-share", "worker-share", "three-shares"])
    def test_first_exception_in_item_order(self, monkeypatch, jobs, bad):
        def fn(x):
            if x == bad:
                raise SolverStall(f"stalled at {x}", solution=x)
            if x > bad:
                raise ValueError(x)  # later in item order, so never raised
            return x

        cpus(monkeypatch, jobs)
        got = []
        with pytest.raises(SolverStall) as info:
            for x in _fork_map(fn, range(9)):
                got.append(x)
        assert got == list(range(bad))
        assert str(info.value) == f"stalled at {bad}"
        assert info.value.solution == bad

    @pytest.mark.parametrize("failing_call", [1, 2], ids=["first-fork", "second-fork"])
    @pytest.mark.parametrize("failing", ["pipe", "fork"])
    def test_workers_that_cannot_start_run_here(self, monkeypatch, failing, failing_call):
        real = getattr(os, failing)
        calls = 0

        def refuse_one(*args):
            nonlocal calls
            calls += 1
            if calls == failing_call:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real(*args)

        cpus(monkeypatch, 3)
        monkeypatch.setattr(os, failing, refuse_one)
        descriptors = len(os.listdir("/dev/fd"))
        got = list(_fork_map(lambda x: (x, os.getpid()), range(7)))
        assert len(os.listdir("/dev/fd")) == descriptors
        assert [x for x, _ in got] == list(range(7))
        # Worker 1 runs items 1 and 4 when the second call fails; every share
        # that could not start is computed in this process.
        here = [x for x, pid in got if pid == os.getpid()]
        assert here == ([0, 2, 3, 5, 6] if failing_call == 2 else list(range(7)))

    def test_worker_that_dies_raises(self, monkeypatch):
        def fn(x):
            if x == 1:
                os._exit(3)
            return x

        cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="^worker 1 exited with status 3"):
            list(_fork_map(fn, range(4)))

    def test_interrupt_in_caller_kills_workers(self, monkeypatch):
        def fn(x):
            if x == 0:
                raise KeyboardInterrupt
            time.sleep(30)
            return x

        cpus(monkeypatch, 2)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            list(_fork_map(fn, range(2)))
        assert time.perf_counter() - started < 10

    def test_no_fork_while_other_threads_run(self, monkeypatch):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        cpus(monkeypatch, 2)
        try:
            pids = list(_fork_map(lambda x: os.getpid(), range(4)))
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()
        assert pids == [os.getpid()] * 4


class TestPinnedOutputs:
    """Every file a small CLI battery writes, pinned to the byte.

    The battery covers signed design over two seeds with escape steps,
    nonneg design, design from a config file, analyze with ``--csv``,
    cs-bench with a designed and a random source, and adapt on synthetic
    data and on image patches. Each digest is sha256 of the file bytes. A
    manifest must be exactly its own ``json.dumps(..., indent=2,
    sort_keys=True)`` text, and its digest is taken of that text with
    ``wall_seconds`` and ``environment`` removed, the two fields that vary
    between runs. ``stdout`` hashes everything the battery prints, with the
    output root and design wall times masked. A refactor of the I/O layer
    must reproduce every digest.
    """

    PINS = {
        "adapt-images/frame_m4_n8_seed0_nonneg_adapt_trace.csv":
            "c124290566df9bba78f66b2b19c3cf528403c7dda7dc177943da1b4da79f2edb",
        "adapt-images/frame_m4_n8_seed0_nonneg_adapted.frame":
            "25ae57ba7a4263df163c9849dadc49f35083a10ec412550983bbf5b3793daef0",
        "adapt/frame_m5_n10_seed1_adapt_trace.csv":
            "ab52308e60ef89ee56d1ec6ff14c3b30faa089e7c3080e8d08e9c8ff2c653ae3",
        "adapt/frame_m5_n10_seed1_adapted.frame":
            "c69d926d48aadd9e9939f07c93b447cb783466ce51d5969f702bc594c23d3b47",
        "config/frame_m4_n8_seed3.frame":
            "4f0db93768eed762dd7c1bf555211045f8c2db3aaffb55cf972c88af5840dd56",
        "config/frame_m4_n8_seed4.frame":
            "3c94267a90168f6268c6f0eabda6e29d3e94881c8246291242e0fe37a834ac03",
        "config/manifest_m4_n8_seed3.json":
            "d9adee0ea39bb5b002bbc99e1168fcb81d725371d9fb01b84aa093280a46226d",
        "config/manifest_m4_n8_seed4.json":
            "674e24d11b01f35c887da11f7eb6d33989760d650bd23e862cee6aeedaaaeaf4",
        "cs/cs_bench.csv":
            "7151a3271efdb3606cb4fb33103c6e5297baa5647fd506063562a32ee78b324f",
        "cs/cs_bench.svg":
            "2cb54b2dabd552814054f45b5e1650c1a08ba823546e0281741d067caa34ea26",
        "cs/sensing_m6_n16.frame":
            "358a9ae974a388fd6fe13096121786bb186aa070e90664e326147b89e1938edb",
        "cs/sensing_m8_n16.frame":
            "daaa4c029691118afb8ba9eeab3a08bc79ba4ba097c05b1b4fa7f15cd3140329",
        "design/frame_m5_n10_seed1.frame":
            "4fc3b84db8d3faf05e49ccceeb5ff5f25809953742f3945f690d5c34e65ca3d3",
        "design/frame_m5_n10_seed2.frame":
            "481867d29e26a5a74c9cb675e9f0935d54aae39e9a6d5297e590add10f89cf30",
        "design/manifest_m5_n10_seed1.json":
            "3d5c471d0d149aee83ffab791ee487de1acba9052b1c8d2d7fdd36f7e8ab1ddb",
        "design/manifest_m5_n10_seed2.json":
            "6c49f438220c0447090657bad7f2e0c05652d9f2e64222e6cb1135dfc3ae2a28",
        "nonneg/frame_m4_n8_seed0_nonneg.frame":
            "4697e342e2d69f647608993ef8bb59b1331c17e975a069ef5229bbc297b2b695",
        "nonneg/manifest_m4_n8_seed0_nonneg.json":
            "f69ca60199958866316b053775c5f24c9efb3f74b8d86119563d97fc86935f3f",
        "profile.csv":
            "44288787bc922785887cfaf5360ad41d4c7c2ee97efc5d7808dcf3a761cc949c",
        "stdout":
            "ac68304af645e97c55e331b386018dd888f2be3db9378dcdd140fa699fb46398",
    }

    @staticmethod
    def battery(root):
        imgs = root / "imgs"
        imgs.mkdir()
        pixels = (np.random.default_rng(4).uniform(size=(6, 6)) * 255).astype(int)
        rows = "\n".join(" ".join(str(v) for v in row) for row in pixels)
        (imgs / "x.pgm").write_text(f"P2\n6 6\n255\n{rows}\n")
        (root / "design.cfg").write_text(
            "m = 4\nN = 8\nK = 2\nseeds = 3..4\neps-stop = 1e-3\nnonneg = no\n"
        )
        out = root / "out"
        signed = str(out / "design" / "frame_m5_n10_seed1.frame")
        nonneg = str(out / "nonneg" / "frame_m4_n8_seed0_nonneg.frame")
        return [
            ["design", "--m", "5", "--N", "10", "--K", "20", "--seeds", "1,2",
             "--eps-stop", "1e-3", "--out", str(out / "design")],
            ["design", "--m", "4", "--N", "8", "--K", "3", "--nonneg",
             "--out", str(out / "nonneg")],
            ["design", "--config", str(root / "design.cfg"), "--out", str(out / "config")],
            ["analyze", signed, "--csv", str(out / "profile.csv")],
            ["cs-bench", "--N", "16", "--M", "24", "--sparsity", "2", "--m-list", "6,8",
             "--trials", "5", "--seed", "1", "--design-sweeps", "3",
             "--sources", "designed-fresh,random-gaussian", "--out", str(out / "cs")],
            ["adapt", "--frame", signed, "--synthetic", "--sparsity", "2",
             "--iterations", "3", "--samples", "30", "--seed", "5",
             "--out", str(out / "adapt")],
            ["adapt", "--frame", nonneg, "--images", str(imgs), "--sparsity", "2",
             "--iterations", "2", "--out", str(out / "adapt-images")],
        ]

    @pytest.fixture(scope="class")
    def digests(self, tmp_path_factory):
        import contextlib
        import hashlib
        import io
        import re

        root = tmp_path_factory.mktemp("pinned")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            for argv in self.battery(root):
                assert main(argv) == 0, argv
        out = root / "out"
        found = {}
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.suffix == ".json":
                doc = json.loads(data)
                assert data.decode() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
                del doc["wall_seconds"], doc["environment"]
                data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
            found[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
        text = re.sub(r", \d+\.\ds\)$", ", -s)", printed.getvalue(), flags=re.M)
        text = text.replace(str(root), "<root>")
        found["stdout"] = hashlib.sha256(text.encode()).hexdigest()
        return found

    def test_same_files(self, digests):
        assert sorted(digests) == sorted(self.PINS)

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_bytes(self, digests, name):
        assert digests[name] == self.PINS[name]
