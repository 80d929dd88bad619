"""Command-line interface: design, analyze, cs-bench, adapt.

Exit codes: 0 success, 2 usage error, 3 I/O or file-format error, 4 numeric
failure. Every subcommand accepts ``--config FILE`` with ``key = value``
lines whose keys match the long option names; explicit flags win.
"""
from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np

from ._version import __version__
from .design import DesignConfig, run
from .errors import FrameFormatError, InvalidInput, NumericsFailure
from .frames import certify_etf, frame_metrics, mutual_coherence, welch_bound
from .frameio import (
    load_patch_matrix,
    read_frame,
    write_correlation_profile,
    write_cs_table,
    write_error_trace,
    write_frame,
    write_line_chart,
    write_manifest,
)
from .sparse import (
    CsExperiment,
    adapt_dictionary,
    make_planted_dataset,
    random_sensing_frame,
    run_cs_experiment,
)

_SOURCES = ("designed-fresh", "random-gaussian", "frame-file")


def _parse_seeds(text):
    """Seed list syntax: '7', '1..10', or '1,4,9'."""
    if ".." not in text:
        return _parse_list(text, int)
    try:
        lo, hi = (int(part) for part in text.split("..", 1))
    except ValueError as exc:
        raise InvalidInput(f"bad seed list {text!r}: {exc}") from exc
    if hi < lo:
        raise InvalidInput(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def _parse_list(text, item=str.strip):
    """Comma-separated list, each non-empty part converted by ``item``."""
    try:
        values = [item(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise InvalidInput(f"bad list {text!r}: {exc}") from exc
    if not values:
        raise InvalidInput(f"empty list {text!r}")
    if len(set(values)) != len(values):
        # A repeated seed, size or source would rerun it, overwrite its files
        # and count it twice in the summary.
        raise InvalidInput(f"repeated value in list {text!r}")
    return values


def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise InvalidInput(f"missing required option --{name}")


def _share(fn, items):
    """``(ok, value)`` for each of ``items`` in order, up to and including
    the first exception ``fn`` raises."""
    pairs = []
    for x in items:
        try:
            pairs.append((True, fn(x)))
        except Exception as exc:
            pairs.append((False, exc))
            break
    return pairs


def _fork_map(fn, items):
    """Yield ``fn(x)`` for each of ``items`` in order, computed across every usable core.

    There is one share per CPU in this process's affinity mask, at most one
    per item. Forked worker w (1 <= w < jobs) computes ``items[w::jobs]``
    and the calling process ``items[0::jobs]``, as well as the share of
    every worker that could not be started because ``os.pipe`` or
    ``os.fork`` raised ``OSError`` (a process or descriptor limit). A
    worker pickles its ``_share`` into a pipe and leaves through
    ``os._exit``, so no exit hook runs and no inherited output buffer is
    flushed twice. Nothing is pickled on the way out, so ``fn`` may be a
    closure. Only one share runs, in this process, when ``os.fork`` is
    missing or other threads run: a forked copy of a threaded process can
    deadlock. Results are yielded in item order once every child has been
    waited for, and the first failed item raises its exception in place of
    its result, as the serial loop would. If this process fails first, the
    children still running are killed.
    """
    items = list(items)
    jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if not hasattr(os, "fork") or threading.active_count() > 1:
        jobs = 1
    jobs = max(1, min(jobs, len(items)))
    shares = [None] * jobs
    children = {}  # pid -> (worker number, read end of its pipe), until waited for
    try:
        for w in range(1, jobs):
            try:
                read_fd, write_fd = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                status = 1
                try:
                    data = pickle.dumps(_share(fn, items[w::jobs]))
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = (w, read_fd)
            os.close(write_fd)
        # Workers start in order and stop at the first that cannot, so the
        # ones not started are the last: their shares run here, after ours.
        for w in [0, *range(len(children) + 1, jobs)]:
            shares[w] = _share(fn, items[w::jobs])
        for pid, (w, read_fd) in list(children.items()):
            children[pid] = (w, None)  # the file object owns the descriptor now
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise RuntimeError(
                    f"worker {w} exited with status {code} before sending its results"
                )
            shares[w] = pickle.loads(data)
    finally:
        for pid, (_, read_fd) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            if read_fd is not None:
                os.close(read_fd)
    for i in range(len(items)):
        # A share stops at its first exception, which comes before any item it skipped.
        ok, value = shares[i % jobs][i // jobs]
        if not ok:
            raise value
        yield value


def _timed_run(cfg):
    """``run(cfg)`` and its wall seconds. ``run`` is looked up in this module,
    so a wrapper put on ``incoframes.cli.run`` sees every design run here."""
    started = time.perf_counter()
    frame, report = run(cfg)
    return frame, report, time.perf_counter() - started


def _cmd_design(args):
    _require(args, ["m", "N"])
    # Reject every bad setting before the output directory is created.
    configs = [
        DesignConfig(
            m=args.m,
            n_vectors=args.N,
            sweeps=args.K,
            seed=seed,
            eps_stop=args.eps_stop,
            nonneg=args.nonneg,
        )
        for seed in _parse_seeds(args.seeds)
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    initial_mus, final_mus, final_avgs = [], [], []
    tag = "_nonneg" if args.nonneg else ""
    for cfg, (frame, report, wall) in zip(configs, _fork_map(_timed_run, configs)):
        fm = report.final_metrics
        initial_mus.append(report.raw_coherence)
        final_mus.append(fm.mu)
        final_avgs.append(fm.mu_avg)
        stem = f"m{args.m}_n{args.N}_seed{cfg.seed}{tag}"
        write_frame(out / f"frame_{stem}.frame", frame, seed=cfg.seed, nonneg=args.nonneg)
        write_manifest(out / f"manifest_{stem}.json", cfg, report, wall)
        print(
            f"seed {cfg.seed}: mu {report.raw_coherence:.4f} -> {fm.mu:.4f} "
            f"(best at sweep {report.best_sweep}, {len(report.escape_sweeps)} escapes, "
            f"{wall:.1f}s)"
        )
    header = f"{'m':>5} {'N':>5} {'avg_mu0':>9} {'min_mu':>9} {'avg_mu':>9} {'welch':>9} {'avg_mu_bar':>11}"
    row = (
        f"{args.m:5d} {args.N:5d} {np.mean(initial_mus):9.4f} {np.min(final_mus):9.4f} "
        f"{np.mean(final_mus):9.4f} {welch_bound(args.m, args.N):9.4f} {np.mean(final_avgs):11.4f}"
    )
    print(header)
    print(row)
    if min(final_mus) <= 1e-12:
        print("columns are exactly orthonormal (coherence 0)")
    return 0


def _cmd_analyze(args):
    frame, _ = read_frame(args.frame)
    fm = frame_metrics(frame)
    cert = certify_etf(frame)
    csv_path = (
        Path(args.csv)
        if args.csv
        else Path(args.frame).with_name(Path(args.frame).stem + "_correlations.csv")
    )
    frac99, frac95 = write_correlation_profile(csv_path, frame)
    print(f"frame: {args.frame} (m={frame.m}, N={frame.n_vectors})")
    print(f"coherence        = {fm.mu:.6f}")
    print(f"average |corr|   = {fm.mu_avg:.6f}")
    print(f"welch_bound      = {fm.welch:.6f}")
    print(
        f"frame_potential  = {fm.frame_potential:.6f} "
        f"(minimum N^2/m = {frame.n_vectors**2 / frame.m:.6f})"
    )
    cap = "unbounded" if fm.sparsity_cap is None else fm.sparsity_cap
    print(f"sparsity_cap     = {cap}")
    print(f"equiangular      = {cert.is_equiangular}, tight = {cert.is_tight}")
    if cert.eigen_residual is not None:
        print(
            f"etf checks: eigen_residual = {cert.eigen_residual:.3e}, "
            f"sign balance {'consistent' if cert.balance_ok else 'INCONSISTENT'} "
            f"(expected {cert.balance_value:g})"
        )
    print(f"fraction of |correlations| >= 0.99*mu: {frac99:.4f}")
    print(f"fraction of |correlations| >= 0.95*mu: {frac95:.4f}")
    print(f"correlation profile written to {csv_path}")
    return 0


def _sensing_for(source, cfg, file_frame):
    if source == "random-gaussian":
        return random_sensing_frame(cfg.m, cfg.n_vectors, [cfg.seed, cfg.m])
    if source == "designed-fresh":
        frame, _ = run(cfg)
        return frame
    # "frame-file": _cmd_cs_bench admits no other source.
    return file_frame


def _cmd_cs_bench(args):
    m_list = _parse_list(args.m_list, int)
    sources = _parse_list(args.sources)
    for s in sources:
        if s not in _SOURCES:
            raise InvalidInput(f"unknown sensing source {s!r} (choose from {_SOURCES})")
    if "frame-file" in sources and not args.frame_file:
        raise InvalidInput("source frame-file needs --frame-file PATH")
    # Reject bad experiment settings before any design runs or file is written.
    experiment = CsExperiment(
        n_signal=args.N,
        n_atoms=args.M,
        sparsity=args.sparsity,
        trials=args.trials,
        seed=args.seed,
    )
    configs = [
        DesignConfig(m=m, n_vectors=args.N, sweeps=args.design_sweeps, seed=args.seed)
        for m in m_list
    ]
    for m in m_list:
        if args.sparsity > m:
            raise InvalidInput(f"sparsity {args.sparsity} exceeds m={m}: omp picks at most m atoms")
    file_frame = None
    if "frame-file" in sources:
        file_frame, _ = read_frame(args.frame_file)
        for m in m_list:
            if file_frame.m != m or file_frame.n_vectors != args.N:
                raise InvalidInput(
                    f"{args.frame_file} is {file_frame.m}x{file_frame.n_vectors}, "
                    f"benchmark wants {m}x{args.N}"
                )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def measure(cfg):
        rows = []
        for source in sources:
            sensing = _sensing_for(source, cfg, file_frame)
            rows.append((source, sensing, run_cs_experiment(experiment, sensing)))
        return rows

    results = []
    for m, rows in zip(m_list, _fork_map(measure, configs)):
        for source, sensing, res in rows:
            if source == "designed-fresh":
                write_frame(out / f"sensing_m{m}_n{args.N}.frame", sensing, seed=args.seed)
            results.append((m, source, res))
            print(
                f"m={m:3d} source={source:15s} sensing_mu={res.sensing_coherence:.4f} "
                f"mean_err={res.mean_error:.5f} support_rate={res.support_rate:.3f}"
            )
    csv_path = out / "cs_bench.csv"
    write_cs_table(csv_path, results)
    series = []
    for source in sources:
        ys = [res.mean_error for m, s, res in results if s == source]
        series.append((source, [float(m) for m in m_list], ys))
    svg_path = out / "cs_bench.svg"
    write_line_chart(
        svg_path,
        series,
        xlabel="measurements m",
        ylabel="mean relative recovery error",
        title=f"sparse recovery, N={args.N}, M={args.M}, s={args.sparsity}",
    )
    print(f"table written to {csv_path}")
    print(f"chart written to {svg_path}")
    return 0


def _cmd_adapt(args):
    _require(args, ["frame"])
    frame, _ = read_frame(args.frame)
    if (args.images is not None) == args.synthetic:
        raise InvalidInput("adapt needs exactly one of --images DIR and --synthetic")
    if args.images is not None:
        patch = int(round(frame.m**0.5))
        if patch * patch != frame.m:
            raise InvalidInput(
                f"image patches need a square frame dimension, got m={frame.m}"
            )
        data = load_patch_matrix(args.images, patch=patch)
    else:
        data, _, _ = make_planted_dataset(
            frame, args.sparsity, args.samples, args.noise, args.seed
        )
    # Reject bad settings before the output directory is created.
    result = adapt_dictionary(data, frame, args.sparsity, args.iterations)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mu_before = mutual_coherence(frame)
    mu_after = mutual_coherence(result.adapted)
    stem = Path(args.frame).stem
    frame_path = out / f"{stem}_adapted.frame"
    trace_path = out / f"{stem}_adapt_trace.csv"
    write_frame(frame_path, result.adapted)
    write_error_trace(
        trace_path,
        result.error_trace,
        context={
            "sparsity": args.sparsity,
            "iterations": args.iterations,
            "samples": data.shape[1],
            "source": "synthetic" if args.synthetic else "images",
        },
    )
    print(f"samples: {data.shape[1]}, sparsity: {args.sparsity}, rotations: {args.iterations}")
    print(f"relative error: {result.error_trace[0]:.6f} -> {result.error_trace[-1]:.6f}")
    print(f"coherence: {mu_before:.12f} -> {mu_after:.12f} (drift {abs(mu_after - mu_before):.2e})")
    if result.rank_deficient_steps:
        print(f"rank-deficient alignment at steps {result.rank_deficient_steps}")
    print(f"adapted frame written to {frame_path}")
    print(f"error trace written to {trace_path}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="incoframes",
        description="Design and use highly incoherent unit-norm frames.",
    )
    parser.add_argument("--version", action="version", version=f"incoframes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="optimize an incoherent frame")
    p.add_argument("--m", type=int, help="rows (signal dimension)")
    p.add_argument("--N", type=int, help="columns (number of frame vectors)")
    p.add_argument("--K", type=int, default=DesignConfig.sweeps, help="sweep budget")
    p.add_argument("--seeds", type=str, default="0", help="seed list: 7, 1..10, or 1,4,9")
    p.add_argument(
        "--eps-stop", type=float, default=DesignConfig.eps_stop, help="escape trigger threshold"
    )
    p.add_argument("--nonneg", action="store_true", help="entrywise nonnegative vectors")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("analyze", help="metrics and correlation profile of a frame file")
    p.add_argument("frame", type=str, help="frame file to analyze")
    p.add_argument("--csv", type=str, help="correlation profile output path")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("cs-bench", help="compressed-sensing recovery benchmark")
    p.add_argument("--N", type=int, default=80, help="signal dimension")
    p.add_argument("--M", type=int, default=120, help="dictionary atoms")
    p.add_argument("--sparsity", type=int, default=4, help="nonzeros per signal")
    p.add_argument("--m-list", type=str, default="25,30,35", help="measurement counts")
    p.add_argument("--trials", type=int, default=1000, help="trials per configuration")
    p.add_argument("--seed", type=int, default=0, help="experiment seed")
    p.add_argument(
        "--sources",
        type=str,
        default="designed-fresh,random-gaussian",
        help=f"comma list from {', '.join(_SOURCES)}",
    )
    p.add_argument("--frame-file", type=str, help="sensing frame for source frame-file")
    p.add_argument("--design-sweeps", type=int, default=150, help="sweeps for fresh designs")
    p.set_defaults(handler=_cmd_cs_bench)

    p = sub.add_parser("adapt", help="rotate a frame to fit data, preserving coherence")
    p.add_argument("--frame", type=str, help="frame file to adapt")
    p.add_argument("--images", type=str, help="directory of PGM images")
    p.add_argument("--synthetic", action="store_true", help="planted-rotation data")
    p.add_argument("--sparsity", type=int, default=4, help="nonzeros per sample")
    p.add_argument("--iterations", type=int, default=50, help="rotation rounds")
    p.add_argument("--samples", type=int, default=512, help="synthetic sample count")
    p.add_argument("--noise", type=float, default=0.01, help="synthetic noise scale")
    p.add_argument("--seed", type=int, default=0, help="synthetic data seed")
    p.set_defaults(handler=_cmd_adapt)

    for name, p in sub.choices.items():
        if name != "analyze":
            p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument("--config", type=str, help="key = value defaults file")
    return parser, sub.choices


def _apply_config_defaults(subparser, path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FrameFormatError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    for action in subparser._actions:
        # Positionals, --help and --config itself are not settings: their keys stay unknown.
        if action.option_strings and action.dest in values and action.dest not in ("help", "config"):
            raw = values.pop(action.dest)
            try:
                if action.const is True and action.nargs == 0:  # store_true flag
                    parsed = {"1": True, "true": True, "yes": True, "on": True,
                              "0": False, "false": False, "no": False, "off": False}[raw.lower()]
                else:
                    parsed = (action.type or str)(raw)
            except (KeyError, ValueError) as exc:
                raise InvalidInput(f"{path}: bad value for {action.dest}: {raw!r}") from exc
            subparser.set_defaults(**{action.dest: parsed})
    if values:
        raise InvalidInput(f"{path}: unknown config keys {sorted(values)}")


def main(argv=None):
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # File values become the subcommand's defaults; explicit flags still win.
            _apply_config_defaults(subparsers[args.command], args.config)
            args = parser.parse_args(argv)
        return args.handler(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (FrameFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
