"""Span tracing from outside the package.

The traced run replaces public functions in the module namespace their
callers look them up in (``incoframes.design.solve_subproblem`` and so on),
so the package source stays untouched. Each call becomes one span
``(name, layer, start, end, parent, op)``; spans stay in memory and are
dumped once when the run ends. A span's layer is the part of its name
before the first dot.
"""
from __future__ import annotations

import contextlib
import importlib
import statistics
import time

# (module, attribute, span name). The benchmark's own calls into the package
# get spans too: "bench.op" around one operation, and "cli.main",
# "design.run", "sparse.run_cs_experiment" or "sparse.adapt_dictionary"
# around the entry point that operation calls.
WRAPPED = (
    ("incoframes.design", "solve_subproblem", "minimax.solve_subproblem"),
    ("incoframes.design", "TrustSubproblem", "minimax.TrustSubproblem"),
    ("incoframes.design", "unit_polar", "linalg.unit_polar"),
    ("incoframes.design", "frame_metrics", "frames.frame_metrics"),
    ("incoframes.cli", "run", "design.run"),
    ("incoframes.cli", "write_frame", "frameio.write_frame"),
    ("incoframes.cli", "write_manifest", "frameio.write_manifest"),
    ("incoframes.sparse", "omp", "sparse.omp"),
    ("incoframes.sparse", "least_squares", "linalg.least_squares"),
    ("incoframes.sparse", "svd", "linalg.svd"),
)


class Tracer:
    """In-memory span recorder plus the per-call facts the metrics need."""

    def __init__(self, stall_type):
        self.spans = []
        self.stack = []
        self.op = None
        self._stall_type = stall_type
        # One entry per solve_subproblem call:
        # (m, k, nonneg, ipm iterations, worst KKT residual or None on a stall, tol)
        self.solves = []
        # (DesignConfig, SweepReport) of every design run.
        self.runs = []

    def wrap(self, fn, name):
        """Return ``fn`` recording one span per call under ``name``."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        layer = name.split(".", 1)[0]
        note = {
            "minimax.solve_subproblem": self._note_solve,
            "design.run": self._note_run,
        }.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[idx] = (name, layer, start, clock(), parent, tracer.op)
                stack.pop()
                if note is not None:
                    note(args, kwargs, None, exc)
                raise
            spans[idx] = (name, layer, start, clock(), parent, tracer.op)
            stack.pop()
            if note is not None:
                note(args, kwargs, result, None)
            return result

        return traced

    def _note_solve(self, args, kwargs, sol, exc):
        problem = args[0] if args else kwargs["problem"]
        tol = kwargs.get("tol", args[1] if len(args) > 1 else 1e-8)
        if exc is not None:
            if not isinstance(exc, self._stall_type) or exc.solution is None:
                return
            iterations, worst = exc.solution.iterations, None
        else:
            iterations, worst = sol.iterations, sol.residuals.worst()
        self.solves.append((problem.m, problem.k, problem.nonneg, iterations, worst, tol))

    def _note_run(self, args, kwargs, result, exc):
        if exc is None:
            self.runs.append((args[0] if args else kwargs["cfg"], result[1]))

    @contextlib.contextmanager
    def installed(self):
        """Swap every WRAPPED attribute for its traced version, then restore."""
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def names(self):
        return {span[0] for span in self.spans}

    def dump(self):
        return [list(span) for span in self.spans]


def _durations(spans):
    """Per-span duration and self time (duration minus time covered by children)."""
    dur = [end - start for _, _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[4] is not None:
            covered[span[4]] += dur[i]
    return dur, [d - c for d, c in zip(dur, covered)]


def _pct(values, q):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def self_time_errors(tracer, walls):
    """Per traced operation, |sum of its spans' self times - its wall time|
    divided by its wall time; ``walls`` maps op id to wall seconds."""
    _, self_t = _durations(tracer.spans)
    sums = {}
    for i, span in enumerate(tracer.spans):
        sums[span[5]] = sums.get(span[5], 0.0) + self_t[i]
    return {op: abs(sums.get(op, 0.0) - wall) / wall for op, wall in walls.items()}


def kkt_violations(solves):
    """Certified solves whose worst KKT residual exceeds 10 x solver_tol."""
    return sum(1 for s in solves if s[4] is not None and s[4] > 10.0 * s[5])


def ipm_flops(m, k, nonneg, iterations):
    """Computed flops of one solve: per IPM iteration the normal matrix
    (p n^2), its Cholesky factorization (n^3 / 3) and the predictor and
    corrector triangular solve pairs (2 x 2 n^2), with n = m + 1 and
    p = k (+ m bound rows) + 1. Counted from sizes, not measured."""
    n = m + 1
    p = k + (m if nonneg else 0) + 1
    return iterations * (p * n * n + n ** 3 / 3.0 + 4 * n * n)


def layer_metrics(tracer, n_ops):
    """Per-layer metrics of the traced operations, per operation where a
    count or a time is summed."""
    spans = tracer.spans
    dur, self_t = _durations(spans)
    samples, layer_self = {}, {}
    for i, span in enumerate(spans):
        samples.setdefault(span[0], []).append(dur[i])
        layer_self[span[1]] = layer_self.get(span[1], 0.0) + self_t[i]

    def per_op(x):
        return x / n_ops

    def calls(name):
        return len(samples.get(name, ()))

    def total(name):
        return sum(samples.get(name, ()))

    solves = tracer.solves
    iters = [s[3] for s in solves]
    stalls = sum(1 for s in solves if s[4] is None)
    kkt = [s[4] for s in solves if s[4] is not None]
    flops = sum(ipm_flops(s[0], s[1], s[2], s[3]) for s in solves)
    solve_s = total("minimax.solve_subproblem")
    run_s = total("design.run")

    sweeps = visited = skipped = escapes = 0
    for cfg, report in tracer.runs:
        per_sweep = cfg.n_vectors - (0 if cfg.nonneg else 1)
        sweeps += len(report.trace)
        visited += len(report.trace) * per_sweep
        skipped += sum(report.stalled) + sum(report.degenerate)
        escapes += len(report.escape_sweeps)

    us = 1e6
    return {
        "minimax.solve_calls": (per_op(calls("minimax.solve_subproblem")), "count"),
        "minimax.solve_us_p50": (_pct(samples.get("minimax.solve_subproblem", []), 50) * us, "us"),
        "minimax.solve_us_p99": (_pct(samples.get("minimax.solve_subproblem", []), 99) * us, "us"),
        "minimax.self_s": (per_op(layer_self.get("minimax", 0.0)), "s"),
        "minimax.share": (solve_s / run_s if run_s else 0.0, "ratio"),
        "minimax.problem_us_p50": (_pct(samples.get("minimax.TrustSubproblem", []), 50) * us, "us"),
        "minimax.ipm_iters_mean": (statistics.fmean(iters) if iters else 0.0, "count"),
        "minimax.ipm_iters_max": (max(iters) if iters else 0, "count"),
        "minimax.stall_ratio": (stalls / len(solves) if solves else 0.0, "ratio"),
        "minimax.kkt_worst": (max(kkt) if kkt else 0.0, "max-norm"),
        "minimax.neighbors_mean": (statistics.fmean(s[1] for s in solves) if solves else 0.0, "count"),
        "minimax.flops_computed": (per_op(flops), "flop"),
        "minimax.gflops_computed": (flops / solve_s / 1e9 if solve_s else 0.0, "GFLOP/s"),
        "design.run_s": (per_op(run_s), "s"),
        "design.self_s": (per_op(layer_self.get("design", 0.0)), "s"),
        "design.sweeps": (per_op(sweeps), "count"),
        "design.vectors_visited": (per_op(visited), "count"),
        "design.skip_ratio": (skipped / visited if visited else 0.0, "ratio"),
        "design.escapes": (per_op(escapes), "count"),
        "linalg.polar_calls": (per_op(calls("linalg.unit_polar")), "count"),
        "linalg.polar_s": (per_op(total("linalg.unit_polar")), "s"),
        "linalg.lstsq_calls": (per_op(calls("linalg.least_squares")), "count"),
        "linalg.lstsq_us_p50": (_pct(samples.get("linalg.least_squares", []), 50) * us, "us"),
        "linalg.svd_s": (per_op(total("linalg.svd")), "s"),
        "sparse.omp_calls": (per_op(calls("sparse.omp")), "count"),
        "sparse.omp_us_p50": (_pct(samples.get("sparse.omp", []), 50) * us, "us"),
        "sparse.omp_s": (per_op(total("sparse.omp")), "s"),
        "sparse.self_s": (per_op(layer_self.get("sparse", 0.0)), "s"),
        "frames.metrics_calls": (per_op(calls("frames.frame_metrics")), "count"),
        "frames.metrics_s": (per_op(total("frames.frame_metrics")), "s"),
        "frameio.write_s": (
            per_op(total("frameio.write_frame") + total("frameio.write_manifest")),
            "s",
        ),
        "cli.self_s": (per_op(layer_self.get("cli", 0.0)), "s"),
    }
