"""End-to-end CLI behaviour through in-process main() calls."""

import json

import numpy as np
import pytest

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
            "f09ff0b929baf19fec805b3d0a541c574c6473c8b06e63a1e74ffd8a714f8d9e",
        "adapt-images/frame_m4_n8_seed0_nonneg_adapted.frame":
            "8ae7db42c64b581ff4233ebbee4b7cc0586b30700a96581b790b2b859b0c9fc8",
        "adapt/frame_m5_n10_seed1_adapt_trace.csv":
            "92fdcf52a467413a16e3b32e946902dc4177d1b023afd28036fafc685170ee37",
        "adapt/frame_m5_n10_seed1_adapted.frame":
            "7337ba26a0dab88566ba32cfab46b30564ff4ed027e404cbf5af9ca15875c102",
        "config/frame_m4_n8_seed3.frame":
            "0f1db7c06d86dfa98cf7c8f37f8d4f83e04ba9878afe03abd425f6ee748ead9b",
        "config/frame_m4_n8_seed4.frame":
            "122bf6a157890e8732f303fe3c73f252c97e280701133fbadbc0d52a9e30620b",
        "config/manifest_m4_n8_seed3.json":
            "117c7c11ee1b0d0e24c38989878c34d0a72a401de2cba6bbc49177868222f2cb",
        "config/manifest_m4_n8_seed4.json":
            "49f2a0c833c6f1326f2f8bea0e46f883d9b8998f72ac5f8a567b19ba7c2e32a8",
        "cs/cs_bench.csv":
            "a53d336b776b0a06204382fca509f0a0460f91a24c8bf0ce4f1220a45ef570df",
        "cs/cs_bench.svg":
            "d4e89e1225279cfd445b19d1c5df4ecbf965fb069de8959124993cba2a6d1c14",
        "cs/sensing_m6_n16.frame":
            "5d2dd89ac3c45309a7bdeeb01616cf7ccea9843ebad399c213f0a14236571d61",
        "cs/sensing_m8_n16.frame":
            "1c8c9aed1c856796e6901a461e152a0f8954d6c9c23447da346fe51299c4ea56",
        "design/frame_m5_n10_seed1.frame":
            "44383b3fd8a7426cd1fe492c605abb547e9fc907da6ce464d0c3cf04c74e57de",
        "design/frame_m5_n10_seed2.frame":
            "95c4b104cce891442c3d07a952ed4153fda336417a2c6737d2ed639c1986b55a",
        "design/manifest_m5_n10_seed1.json":
            "5e86437c3ab03a1258a6bf04d507a940cfb7ee1f1c9be8e11538e6d051983ecb",
        "design/manifest_m5_n10_seed2.json":
            "3530a23a83765c0db5785d221c832fef91056851828190638b29da8bef9fd8b4",
        "nonneg/frame_m4_n8_seed0_nonneg.frame":
            "bf3174e2b214481cefca83db8fcb5a9b40ecf2d1eb1e09472978242a2fd3940d",
        "nonneg/manifest_m4_n8_seed0_nonneg.json":
            "cfecbbfb95138cf7d33612c8b2a91372a4819407180f106b3c9f840e7124b643",
        "profile.csv":
            "c5b44afeaf2f815380fe3e0e14607042c872902936a6e215c247303554507b60",
        "stdout":
            "6a76da35c454659a8592f4814937b9aeffc7aa7ed1f9529cfac49aa601c7e1bc",
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
