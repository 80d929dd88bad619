"""End-to-end CLI behaviour through in-process main() calls."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import incoframes.cli
import incoframes.design
from incoframes import RankDeficient, make_simplex_etf, read_frame, write_frame
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

    def test_design_loads_lapack_before_any_run(self, tmp_path):
        # A fresh interpreter: the first solve must not import LAPACK inside
        # a timed run, nor in every forked worker. cs-bench's designed-fresh
        # source designs frames in its forked workers too.
        for argv in (("design", "--m", "3", "--N", "4", "--K", "1"),
                     (*self.CS_BENCH, "--m-list", "6,8")):
            code = (
                "import sys, incoframes.cli as cli\n"
                "fork_map = cli._fork_map\n"
                "def spy(fn, items):\n"
                "    print('scipy.linalg.lapack' in sys.modules)\n"
                "    return fork_map(fn, items)\n"
                "cli._fork_map = spy\n"
                f"cli.main([*{argv!r}, '--out', {str(tmp_path / argv[0])!r}])\n"
            )
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  check=True, timeout=60)
            assert proc.stdout.split()[0] == "True", argv[0]

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
        ],
        ids=["no-frame", "negative-iterations", "sparsity-above-m"],
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
            "47486027fbeb69ff9309a1b492da9973ff2a4806a9fbfce80ce8aeca6e8ec290",
        "adapt-images/frame_m4_n8_seed0_nonneg_adapted.frame":
            "7ccd3ff9e2cb141cedfac910fecf1d740d3dd2712616a9b8f89450d2f525e426",
        "adapt/frame_m5_n10_seed1_adapt_trace.csv":
            "492ecbd73c6079b68cf84cc6d29fd4019cbf34de80aaa1693c77afab4fbea370",
        "adapt/frame_m5_n10_seed1_adapted.frame":
            "11a32366423ea12d54cf27790bafb0052884a17491d8fb79c57f6f3543df9911",
        "config/frame_m4_n8_seed3.frame":
            "23ae58b09da8282e66366089d13545b16c14175be18b7d5f0c13f42d836b8c8c",
        "config/frame_m4_n8_seed4.frame":
            "3e3d0da7938d26092cd3e211219083ba86e8e47b8768624dac829bbf53130046",
        "config/manifest_m4_n8_seed3.json":
            "572f8a38c297e9c47400d9b43317dc29cd89eaa72f7aa9a2239a291ec63e64fa",
        "config/manifest_m4_n8_seed4.json":
            "bcdbe1ce3edb9f96e16a44376555a4dc9e0794618e83c78e0a41f73f5fbcda87",
        "cs/cs_bench.csv":
            "36fe740b27115251ac3c385dd04a90d43015643e1878a668fd77beba77b256e8",
        "cs/cs_bench.svg":
            "d339018447d99844b91b694227c350876d554b99a86f837f8b2b128629375f19",
        "cs/sensing_m6_n16.frame":
            "23a1a63d5554d4267d116f67e6f598ac5989f1c47e58a91db13ccbc40fd1fb8b",
        "cs/sensing_m8_n16.frame":
            "2a57aeb3b3bc954f3daa2567b81bf63643e870b5637375b5a2788102b27974fe",
        "design/frame_m5_n10_seed1.frame":
            "455798f66ccf85c3c035d75dcc419209c8e3ebe5447bf13daeb217cef78f00a2",
        "design/frame_m5_n10_seed2.frame":
            "d325bf70462120b50b9e0e9caed7e7bafb438dc065a148a3681ab18c648d8bc0",
        "design/manifest_m5_n10_seed1.json":
            "9013e0119ec4eaad69df6db563db71b1130970042de2a6207b1b1f48992fa0a7",
        "design/manifest_m5_n10_seed2.json":
            "a71d86405e9f0b8b38ea9d22881efbe385cc819c7cb255dcd4f0830cae07ccf7",
        "nonneg/frame_m4_n8_seed0_nonneg.frame":
            "e596073d0dde34ef0fb4675bb11e5ea435573b1fb8a62c8902748c61be7509d0",
        "nonneg/manifest_m4_n8_seed0_nonneg.json":
            "81413009dedc37e4220d40309393526beff1ba1083e466ca8f0363d962a258c8",
        "profile.csv":
            "097f620d3d26cc807863d045e6dd262ba516e1ce26e5ed7f526c86453828c039",
        "stdout":
            "7ccc56566fe79c5d96da56fc7dea788e589fa2a732ff8b57a8d9e6e476e7a591",
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
