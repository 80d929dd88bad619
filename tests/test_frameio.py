"""Frame files, manifests, CSV/SVG reports, PGM images, and patch extraction."""

import csv
import json
import xml.dom.minidom

import numpy as np
import pytest

from incoframes import (
    DesignConfig,
    Frame,
    FrameFormatError,
    InvalidInput,
    extract_patches,
    load_patch_matrix,
    make_simplex_etf,
    mutual_coherence,
    read_frame,
    run,
    run_cs_experiment,
    CsExperiment,
    random_sensing_frame,
    write_correlation_profile,
    write_cs_table,
    write_error_trace,
    write_frame,
    write_line_chart,
    write_manifest,
)
from incoframes.frameio import read_pgm
from incoframes.frames import random_unit_frame


@pytest.fixture()
def frame_7x15():
    return random_unit_frame(7, 15, seed=42)


def with_header(lines, **fields):
    """A frame file's ``lines`` with the given header fields replaced."""
    return [json.dumps({**json.loads(lines[0]), **fields})] + lines[1:]


class TestFrameFile:
    def test_round_trip_exact(self, tmp_path, frame_7x15):
        path = tmp_path / "f.frame"
        write_frame(path, frame_7x15, seed=42)
        loaded, header = read_frame(path)
        assert np.array_equal(loaded.vectors, frame_7x15.vectors)
        assert header["m"] == 7 and header["n_vectors"] == 15
        assert header["seed"] == 42
        assert header["nonneg"] is False

    def test_rewrite_is_byte_identical(self, tmp_path, frame_7x15):
        p1, p2 = tmp_path / "a.frame", tmp_path / "b.frame"
        write_frame(p1, frame_7x15, seed=42)
        loaded, _ = read_frame(p1)
        write_frame(p2, loaded, seed=42)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "fields",
        [dict(seed=1.5), dict(seed=True), dict(seed="x"), dict(nonneg="no"), dict(nonneg=1)],
        ids=["seed-float", "seed-bool", "seed-str", "nonneg-str", "nonneg-int"],
    )
    def test_header_types_checked(self, tmp_path, frame_7x15, fields):
        # Each of these was written as a different, valid-looking header.
        path = tmp_path / "f.frame"
        with pytest.raises(InvalidInput, match="must be"):
            write_frame(path, frame_7x15, **fields)
        assert not path.exists()

    def test_extra_header_fields(self, tmp_path, frame_7x15):
        # Header keys the reader does not know, say added by hand, load and
        # come back with the header.
        path = tmp_path / "f.frame"
        write_frame(path, frame_7x15)
        lines = path.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "note": "abc"})
        path.write_text("\n".join(lines) + "\n")
        loaded, header = read_frame(path)
        assert header["note"] == "abc"
        assert np.array_equal(loaded.vectors, frame_7x15.vectors)

    def test_mildly_denormalized_file_is_tolerated(self, tmp_path, frame_7x15):
        # Hand-made files may carry rounding at the last digits; anything
        # within 1e-8 of unit norm is renormalized on load.
        path = tmp_path / "f.frame"
        write_frame(path, frame_7x15)
        lines = path.read_text().splitlines()
        v = frame_7x15.vectors * (1.0 + 5e-9)
        body = [",".join(repr(float(x)) for x in row) for row in v]
        path.write_text("\n".join([lines[0]] + body) + "\n")
        loaded, _ = read_frame(path)
        assert np.abs(np.linalg.norm(loaded.vectors, axis=0) - 1.0).max() < 1e-10

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda lines: [],
            lambda lines: ["not json"] + lines[1:],
            lambda lines: [lines[0].replace("incoframes-frame", "other")] + lines[1:],
            lambda lines: [lines[0].replace('"version": 1', '"version": 9')] + lines[1:],
            lambda lines: lines[:-1],
            lambda lines: [lines[0]] + [row + ",0.5" for row in lines[1:]],
            lambda lines: [lines[0]] + ["oops" + row[4:] for row in lines[1:]],
            lambda lines: [lines[0]] + [row.replace(row.split(",")[0], "2.0", 1) for row in lines[1:]],
            lambda lines: [lines[0]] + [row.replace(row.split(",")[0], "nan", 1) for row in lines[1:]],
            # Seven rows of three unit columns: fewer vectors than dimensions.
            lambda lines: with_header(lines, n_vectors=3)[:1] + [
                ",".join(row.split(",")[:3]) for row in lines[1:]
            ],
            lambda lines: with_header(lines, m=7.9),
            lambda lines: with_header(lines, n_vectors=15.2),
            lambda lines: with_header(lines, m="7"),
            lambda lines: with_header(lines, n_vectors="15"),
            lambda lines: with_header(lines, m=True),
            lambda lines: with_header(lines, coherence=str(json.loads(lines[0])["coherence"])),
            lambda lines: with_header(lines, coherence=None),
            lambda lines: with_header(lines, coherence=10**400),
        ],
        ids=[
            "empty",
            "bad-json",
            "wrong-format",
            "wrong-version",
            "missing-row",
            "extra-column",
            "bad-float",
            "non-unit",
            "non-finite",
            "more-rows-than-columns",
            "fractional-m",
            "fractional-n",
            "string-m",
            "string-n",
            "bool-m",
            "string-coherence",
            "no-coherence",
            "huge-coherence",
        ],
    )
    def test_corrupt_files_rejected(self, tmp_path, frame_7x15, mangle):
        path = tmp_path / "f.frame"
        write_frame(path, frame_7x15, seed=1)
        lines = path.read_text().splitlines()
        path.write_text("".join(line + "\n" for line in mangle(lines)))
        with pytest.raises(FrameFormatError):
            read_frame(path)

    @pytest.mark.parametrize(
        "tamper", [lambda mu: mu + 1e-3, lambda mu: float("nan")], ids=["shifted", "nan"]
    )
    def test_coherence_mismatch_rejected(self, tmp_path, frame_7x15, tamper):
        path = tmp_path / "f.frame"
        write_frame(path, frame_7x15)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["coherence"] = tamper(header["coherence"])
        path.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n")
        with pytest.raises(FrameFormatError, match="coherence"):
            read_frame(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FrameFormatError):
            read_frame(tmp_path / "absent.frame")


class TestManifest:
    def test_structure_and_values(self, tmp_path):
        cfg = DesignConfig(m=6, n_vectors=12, sweeps=5, seed=3)
        frame, report = run(cfg)
        path = tmp_path / "manifest.json"
        write_manifest(path, cfg, report, wall_seconds=1.25)
        doc = json.loads(path.read_text())
        assert doc["config"]["m"] == 6
        assert doc["config"]["seed"] == 3
        # The fixed design constants are recorded too, so manifest readers keep their keys.
        assert doc["config"]["radius_slack"] == 1e-4
        assert doc["config"]["solver_tol"] == 1e-8
        assert doc["config"]["escape_enabled"] is True
        assert doc["raw_coherence"] == report.raw_coherence
        assert doc["initial_coherence"] == report.initial_coherence
        assert doc["trace"] == report.trace
        assert doc["best_sweep"] == report.best_sweep
        # Skip reasons per sweep; "stalled" keeps the sum of ties and solver stalls.
        for key in ("updated", "tie_skips", "solver_stalls", "stalled", "degenerate"):
            assert doc[key] == getattr(report, key), key
            assert len(doc[key]) == len(report.trace), key
        assert doc["wall_seconds"] == 1.25
        assert abs(doc["final_metrics"]["mu"] - mutual_coherence(frame)) < 1e-15
        assert "numpy" in doc["environment"]


class TestCorrelationProfile:
    def test_profile_matches_gram(self, tmp_path):
        frame = random_unit_frame(6, 14, seed=9)
        path = tmp_path / "profile.csv"
        frac99, frac95 = write_correlation_profile(path, frame)
        g = frame.vectors.T @ frame.vectors
        vals = np.sort(np.abs(g[np.triu_indices(14, k=1)]))[::-1]
        assert frac99 == float((vals >= 0.99 * vals[0]).mean())
        assert 0.0 < frac99 <= frac95 <= 1.0
        lines = path.read_text().splitlines()
        data = [row for row in lines if not row.startswith("#")]
        reader = list(csv.reader(data))
        assert reader[0] == ["rank", "abs_correlation"]
        got = np.array([float(r[1]) for r in reader[1:]])
        assert got.size == 14 * 13 // 2
        assert np.array_equal(got, vals)
        assert (np.diff(got) <= 0).all()

    def test_etf_profile_all_at_mu(self, tmp_path):
        frame = make_simplex_etf(5)
        frac99, frac95 = write_correlation_profile(tmp_path / "p.csv", frame)
        assert frac99 == 1.0 and frac95 == 1.0


class TestCsTableAndTrace:
    def test_cs_table_round_trip(self, tmp_path):
        exp = CsExperiment(n_signal=20, n_atoms=30, sparsity=2, trials=8, seed=4)
        res = run_cs_experiment(exp, random_sensing_frame(8, 20, seed=0))
        path = tmp_path / "bench.csv"
        write_cs_table(path, [(8, "random-gaussian", res)])
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0][:4] == ["m", "source", "sensing_coherence", "mean_error"]
        assert rows[1][0] == "8"
        assert rows[1][1] == "random-gaussian"
        assert float(rows[1][3]) == res.mean_error
        assert int(rows[1][8]) == 8  # trials echo

    def test_error_trace_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_error_trace(path, [0.5, 0.25, 0.125], context={"s": 3, "m": 8})
        text = path.read_text()
        assert text.startswith("# m=8,s=3\n")
        rows = list(csv.reader(text.splitlines()[1:]))
        assert rows[0] == ["iteration", "relative_error"]
        assert [float(r[1]) for r in rows[1:]] == [0.5, 0.25, 0.125]


class TestLineChart:
    def test_deterministic_bytes_with_polyline(self, tmp_path):
        series = [("a", [0, 1, 2], [0.5, 0.25, 0.2]), ("b", [0, 1, 2], [0.4, 0.3, 0.1])]
        p1, p2 = tmp_path / "c1.svg", tmp_path / "c2.svg"
        write_line_chart(p1, series, "x", "y", "chart")
        write_line_chart(p2, series, "x", "y", "chart")
        b = p1.read_bytes()
        assert b == p2.read_bytes()
        text = b.decode()
        assert text.count("<polyline") == 2
        assert "<svg" in text and "</svg>" in text

    def test_log_scale_only_for_positive_data(self, tmp_path):
        pos = tmp_path / "pos.svg"
        write_line_chart(pos, [("a", [0, 1], [1e-3, 1e-1])], "x", "y", "t")
        assert "1e-" in pos.read_text()
        mixed = tmp_path / "mixed.svg"
        write_line_chart(mixed, [("a", [0, 1], [-1.0, 1.0])], "x", "y", "t")
        assert "1e-" not in mixed.read_text()

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            write_line_chart(tmp_path / "e.svg", [("a", [], [])], "x", "y", "t")

    def test_markup_in_text_is_escaped(self, tmp_path):
        path = tmp_path / "c.svg"
        write_line_chart(path, [("a<b & c>d", [0, 1], [1.0, 2.0])], "x<1", "y & z", "<t>")
        texts = [
            node.firstChild.data
            for node in xml.dom.minidom.parse(str(path)).getElementsByTagName("text")
        ]
        assert {"a<b & c>d", "x<1", "y & z", "<t>"} <= set(texts)


class TestPgm:
    def test_ascii_with_comments(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n# a comment\n3 2\n255\n0 128 255\n64 32 16\n")
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img[0, 1] == 128 / 255
        assert img.max() == 1.0

    def test_binary_8bit(self, tmp_path):
        path = tmp_path / "img.pgm"
        payload = bytes([0, 100, 200, 255, 50, 25])
        path.write_bytes(b"P5 3 2 255\n" + payload)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img[0, 2] == 200 / 255

    def test_binary_16bit_big_endian(self, tmp_path):
        path = tmp_path / "img.pgm"
        data = np.array([[0, 30000], [65535, 12345]], dtype=">u2")
        path.write_bytes(b"P5\n2 2\n65535\n" + data.tobytes())
        img = read_pgm(path)
        assert img.shape == (2, 2)
        assert img[1, 0] == 1.0
        assert abs(img[0, 1] - 30000 / 65535) < 1e-12

    @pytest.mark.parametrize(
        "blob",
        [
            b"P6 2 2 255\n" + bytes(12),
            b"P2\n2 2\n255\n1 2 3\n",
            b"P5 2 2 70000\n" + bytes(8),
            b"P5 2 2 255\n" + bytes(2),
            b"P2\n2 2\n10\n1 2 3 20\n",
            b"P5 2 2 10\n" + bytes([1, 2, 3, 20]),
            b"P2\n2 2\n255\n1 2 -3 4\n",
            b"P2\n2 two\n255\n1 2 3 4\n",
            b"P2\n2 2\n255\n1 2 x 4\n",
            None,
        ],
        ids=[
            "wrong-magic", "short-data", "maxval-range", "truncated",
            "p2-above-maxval", "p5-above-maxval", "p2-negative",
            "bad-header", "bad-sample", "missing",
        ],
    )
    def test_bad_pgm_rejected(self, tmp_path, blob):
        path = tmp_path / "img.pgm"
        if blob is not None:
            path.write_bytes(blob)
        with pytest.raises(FrameFormatError):
            read_pgm(path)


class TestPatches:
    def test_patches_are_centered_unit_and_skip_constant(self):
        rng = np.random.default_rng(6)
        image = rng.uniform(size=(17, 25))  # ragged edges get truncated
        image[0:8, 0:8] = 0.5  # constant block must be dropped
        patches = extract_patches(image, patch=8)
        assert patches.shape == (64, 2 * 3 - 1)
        assert np.abs(patches.mean(axis=0)).max() < 1e-12
        assert np.abs(np.linalg.norm(patches, axis=0) - 1.0).max() < 1e-12

    def test_too_small_or_all_constant(self):
        with pytest.raises(InvalidInput):
            extract_patches(np.ones((4, 20)), patch=8)
        with pytest.raises(InvalidInput):
            extract_patches(np.ones((16, 16)), patch=8)

    @pytest.mark.parametrize("patch", [0, -2])
    def test_patch_size_below_one(self, patch, tmp_path):
        with pytest.raises(InvalidInput, match="patch size"):
            extract_patches(np.ones((16, 16)), patch=patch)
        (tmp_path / "a.pgm").write_text("P2\n2 2\n255\n0 1\n2 3\n")
        with pytest.raises(InvalidInput, match="patch size"):
            load_patch_matrix(tmp_path, patch=patch)

    def test_load_patch_matrix_sorted_concat(self, tmp_path):
        rng = np.random.default_rng(7)
        for name in ("b.pgm", "a.pgm"):
            vals = (rng.uniform(size=(8, 8)) * 255).astype(int)
            rows = "\n".join(" ".join(str(v) for v in row) for row in vals)
            (tmp_path / name).write_text(f"P2\n8 8\n255\n{rows}\n")
        mat = load_patch_matrix(tmp_path, patch=8)
        assert mat.shape == (64, 2)
        first = extract_patches(read_pgm(tmp_path / "a.pgm"), patch=8)
        assert np.array_equal(mat[:, :1], first)

    def test_load_patch_matrix_reads_only_pgm(self, tmp_path):
        rng = np.random.default_rng(8)
        vals = (rng.uniform(size=(16, 8)) * 255).astype(int)
        rows = "\n".join(" ".join(str(v) for v in row) for row in vals)
        (tmp_path / "a.pgm").write_text(f"P2\n8 16\n255\n{rows}\n")
        (tmp_path / "notes.png").write_bytes(b"not an image")
        mat = load_patch_matrix(tmp_path, patch=8)
        assert np.array_equal(mat, extract_patches(read_pgm(tmp_path / "a.pgm"), patch=8))

    def test_load_patch_matrix_empty_dir(self, tmp_path):
        with pytest.raises(FrameFormatError):
            load_patch_matrix(tmp_path)
