"""File formats: frame files, run manifests, CSV/SVG reports, image patches.

A frame file is a single JSON header line followed by m CSV rows of N
full-precision floats (one row per dimension). The header records the
coherence at save time; loading recomputes it and refuses files that do not
match, so silent corruption cannot pass. Saving a loaded frame reproduces
the file byte for byte.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from ._version import __version__ as _version
from .errors import FrameFormatError, InvalidInput
from .design import _RADIUS_SLACK
from .frames import _UNIT_TOL, Frame, correlations, mutual_coherence, welch_bound
from .minimax import _TOL

_FORMAT_NAME = "incoframes-frame"
_FORMAT_VERSION = 1
_LOAD_UNIT_TOL = 1e-8
_LOAD_MU_TOL = 1e-8


def environment_fingerprint():
    """Versions and platform of the producing run, for manifests."""
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def write_frame(path, frame, seed=None, nonneg=False):
    """Write a frame file: one JSON header line, then m rows of repr floats."""
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "m": frame.m,
        "n_vectors": frame.n_vectors,
        "coherence": mutual_coherence(frame),
        "nonneg": bool(nonneg),
        "creator": f"incoframes {_version}",
    }
    if seed is not None:
        header["seed"] = int(seed)
    lines = [json.dumps(header, sort_keys=True)]
    for row in frame.vectors:
        lines.append(",".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_frame(path):
    """Load a frame file, verifying unit norms and the recorded coherence.

    Returns ``(frame, header)``. Raises FrameFormatError on parse errors,
    shape mismatches, non-unit columns (beyond 1e-8), or a header coherence
    that disagrees with the matrix by more than 1e-8.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FrameFormatError(f"cannot read frame file {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise FrameFormatError(f"{path}: empty file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FrameFormatError(f"{path}: bad JSON header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _FORMAT_NAME:
        raise FrameFormatError(f"{path}: not a frame file")
    if header.get("version") != _FORMAT_VERSION:
        raise FrameFormatError(f"{path}: unsupported version {header.get('version')!r}")
    try:
        m, n = int(header["m"]), int(header["n_vectors"])
        recorded_mu = float(header["coherence"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameFormatError(f"{path}: incomplete header: {exc}") from exc
    if not np.isfinite(recorded_mu):
        raise FrameFormatError(f"{path}: recorded coherence {recorded_mu!r} is not finite")

    rows = [line for line in lines[1:] if line.strip()]
    if len(rows) != m:
        raise FrameFormatError(f"{path}: expected {m} rows, found {len(rows)}")
    try:
        mat = np.array([[float(x) for x in row.split(",")] for row in rows])
    except ValueError as exc:
        raise FrameFormatError(f"{path}: bad payload row: {exc}") from exc
    if mat.shape != (m, n):
        raise FrameFormatError(f"{path}: payload shape {mat.shape} != ({m}, {n})")
    if not np.isfinite(mat).all():
        raise FrameFormatError(f"{path}: non-finite entries")
    norms = np.linalg.norm(mat, axis=0)
    worst = float(np.abs(norms - 1.0).max())
    if worst > _LOAD_UNIT_TOL:
        raise FrameFormatError(f"{path}: columns not unit norm (deviation {worst:.3e})")
    if worst > _UNIT_TOL:
        mat = mat / norms  # tolerate hand-made files, our own are exact
    try:
        frame = Frame(mat)
    except InvalidInput as exc:
        raise FrameFormatError(f"{path}: {exc}") from exc
    actual_mu = mutual_coherence(frame)
    if abs(actual_mu - recorded_mu) > _LOAD_MU_TOL:
        raise FrameFormatError(
            f"{path}: recorded coherence {recorded_mu!r} != recomputed {actual_mu!r}"
        )
    return frame, header


def write_manifest(path, cfg, report, wall_seconds):
    """JSON record of a design run: every ``SweepReport`` field, a config echo
    that adds the fixed design constants, the wall time and the environment."""
    doc = dataclasses.asdict(report)
    doc["config"] = dataclasses.asdict(cfg) | {
        "radius_slack": _RADIUS_SLACK,
        "solver_tol": _TOL,
        "escape_enabled": not cfg.nonneg,
    }
    doc["creator"] = f"incoframes {_version}"
    doc["wall_seconds"] = wall_seconds
    doc["environment"] = environment_fingerprint()
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path, comments, header, rows):
    """Write one ``# `` line per comment, then the header and rows as CSV."""
    buf = io.StringIO()
    for comment in comments:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def write_correlation_profile(path, frame):
    """CSV of all pairwise |correlations| sorted descending, with summary comments.

    Returns ``(fraction_above_099mu, fraction_above_095mu)``.
    """
    _, off = correlations(frame.vectors)
    vals = np.sort(off)[::-1]
    mu = float(vals[0])
    frac99 = float((vals >= 0.99 * mu).mean()) if mu > 0.0 else 0.0
    frac95 = float((vals >= 0.95 * mu).mean()) if mu > 0.0 else 0.0
    mu_avg = float(off.mean())
    welch = welch_bound(frame.m, frame.n_vectors)
    comments = [
        f"m={frame.m},n_vectors={frame.n_vectors}",
        f"mu={mu!r},mu_avg={mu_avg!r},welch={welch!r}",
        f"frac_above_099mu={frac99!r},frac_above_095mu={frac95!r}",
    ]
    rows = ((rank, repr(float(v))) for rank, v in enumerate(vals, start=1))
    _write_csv(path, comments, ["rank", "abs_correlation"], rows)
    return frac99, frac95


def write_cs_table(path, results):
    """CSV of the recovery benchmark: one row per (m, source) with config echo."""
    header = [
        "m", "source", "sensing_coherence", "mean_error", "q25", "q50", "q75",
        "support_rate", "trials", "n_signal", "n_atoms", "sparsity", "seed",
    ]
    rows = []
    for m, source, res in results:
        q, e = res.quantiles, res.experiment
        stats = (res.sensing_coherence, res.mean_error, q["q25"], q["q50"], q["q75"])
        rows.append(
            [m, source, *map(repr, stats), repr(res.support_rate)]
            + [e.trials, e.n_signal, e.n_atoms, e.sparsity, e.seed]
        )
    _write_csv(path, [], header, rows)


def write_error_trace(path, trace, context=None):
    """CSV of a per-iteration relative-error trace."""
    comments = [",".join(f"{k}={v}" for k, v in sorted(context.items()))] if context else []
    rows = ((it, repr(float(err))) for it, err in enumerate(trace))
    _write_csv(path, comments, ["iteration", "relative_error"], rows)


def write_line_chart(path, series, xlabel, ylabel, title):
    """Minimal deterministic SVG line chart.

    ``series`` is a list of (label, xs, ys) triples sharing the x axis. The y
    axis switches to log10 when every value is positive.
    """
    from xml.sax.saxutils import escape  # pulls in urllib.request: only charts pay for it

    width, height = 640, 420
    lpad, rpad, tpad, bpad = 70, 20, 40, 50
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all or not ys_all:
        raise InvalidInput("cannot plot empty series")
    logy = all(y > 0.0 for y in ys_all)

    def ty(v):
        return math.log10(v) if logy else v

    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ty(y) for y in ys_all), max(ty(y) for y in ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = width - lpad - rpad
    plot_h = height - tpad - bpad

    def px(x):
        return lpad + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return tpad + plot_h * (1.0 - (ty(y) - y_lo) / (y_hi - y_lo))

    def text(x, y, size, body, anchor=' text-anchor="middle"', transform=""):
        font = f'font-family="sans-serif" font-size="{size}"'
        return f'<text x="{x}" y="{y}"{anchor} {font}{transform}>{escape(body)}</text>'

    def line(x1, y1, x2, y2, stroke='stroke="black"'):
        return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {stroke}/>'

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    mid_y = f"{(tpad + height - bpad) / 2:.1f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        text(f"{width / 2:.1f}", 24, 15, title),
        line(lpad, tpad, lpad, height - bpad),
        line(lpad, height - bpad, width - rpad, height - bpad),
        text(f"{(lpad + width - rpad) / 2:.1f}", height - 12, 12, xlabel),
        text(18, mid_y, 12, ylabel, transform=f' transform="rotate(-90 18 {mid_y})"'),
    ]
    for x in sorted(set(xs_all)):
        parts.append(text(f"{px(x):.1f}", height - bpad + 18, 11, format(x, "g")))
        parts.append(line(f"{px(x):.1f}", height - bpad, f"{px(x):.1f}", height - bpad + 4))
    n_ticks = 5
    for t in range(n_ticks + 1):
        yv = y_lo + (y_hi - y_lo) * t / n_ticks
        ypix = tpad + plot_h * (1.0 - t / n_ticks)
        label = f"1e{yv:.1f}" if logy else f"{yv:.3g}"
        parts.append(text(lpad - 8, f"{ypix + 4:.1f}", 11, label, anchor=' text-anchor="end"'))
        parts.append(line(lpad - 4, f"{ypix:.1f}", lpad, f"{ypix:.1f}"))
    for idx, (label, xs, ys) in enumerate(series):
        color = colors[idx % len(colors)]
        stroke = f'stroke="{color}" stroke-width="2"'
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" {stroke}/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')
        ly = tpad + 16 + 18 * idx
        parts.append(line(width - rpad - 130, ly - 4, width - rpad - 105, ly - 4, stroke))
        parts.append(text(width - rpad - 100, ly, 12, label, anchor=""))
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def read_pgm(path):
    """Read a PGM image (P2 ascii or P5 binary) into floats in [0, 1].

    A sample outside [0, maxval] raises FrameFormatError.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FrameFormatError(f"cannot read image {path}: {exc}") from exc

    # Header tokens may be interleaved with '#' comments.
    tokens = []
    pos = 0
    while len(tokens) < 4 and pos < len(raw):
        if raw[pos : pos + 1] == b"#":
            eol = raw.find(b"\n", pos)
            pos = len(raw) if eol < 0 else eol + 1
            continue
        if raw[pos : pos + 1].isspace():
            pos += 1
            continue
        end = pos
        while end < len(raw) and not raw[end : end + 1].isspace() and raw[end : end + 1] != b"#":
            end += 1
        tokens.append(raw[pos:end])
        pos = end
    if len(tokens) < 4 or tokens[0] not in (b"P2", b"P5"):
        raise FrameFormatError(f"{path}: not a PGM file")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise FrameFormatError(f"{path}: bad PGM header: {exc}") from exc
    if width < 1 or height < 1 or not (0 < maxval < 65536):
        raise FrameFormatError(f"{path}: bad PGM dimensions")

    if tokens[0] == b"P2":
        try:
            vals = np.array([int(v) for v in raw[pos:].split()], dtype=float)
        except ValueError as exc:
            raise FrameFormatError(f"{path}: bad PGM data: {exc}") from exc
    else:
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
        data = raw[pos : pos + width * height * dtype.itemsize]
        vals = np.frombuffer(data, dtype=dtype).astype(float)
    if vals.size != width * height:
        raise FrameFormatError(
            f"{path}: expected {width * height} pixels, found {vals.size}"
        )
    if not 0.0 <= vals.min() <= vals.max() <= maxval:
        raise FrameFormatError(f"{path}: samples outside [0, {maxval}]")
    return vals.reshape(height, width) / maxval


def extract_patches(image, patch=8):
    """Non-overlapping patch columns: mean-removed, unit-normalized.

    Tiles the image into patch x patch blocks (truncating ragged edges),
    flattens each block row-major, subtracts its mean, drops blocks with
    norm below 1e-6, and normalizes the rest. Returns (patch*patch, count).
    """
    if patch < 1:
        raise InvalidInput(f"patch size must be >= 1, got {patch}")
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or min(image.shape) < patch:
        raise InvalidInput(f"image too small for {patch}x{patch} patches: {image.shape}")
    rows = image.shape[0] // patch
    cols = image.shape[1] // patch
    blocks = []
    for r in range(rows):
        for c in range(cols):
            b = image[r * patch : (r + 1) * patch, c * patch : (c + 1) * patch].ravel()
            b = b - b.mean()
            norm = float(np.linalg.norm(b))
            if norm < 1e-6:
                continue
            blocks.append(b / norm)
    if not blocks:
        raise InvalidInput("no usable patches (all constant)")
    return np.column_stack(blocks)


def load_patch_matrix(directory, patch=8):
    """Patch columns from every PGM image in a directory, name-sorted."""
    paths = sorted(
        p for p in Path(directory).iterdir() if p.suffix.lower() == ".pgm"
    )
    if not paths:
        raise FrameFormatError(f"no PGM images in {directory}")
    mats = [extract_patches(read_pgm(p), patch=patch) for p in paths]
    return np.concatenate(mats, axis=1)
