"""incoframes benchmark: design time and quality, traced per layer.

    python3 bench/run.py --workload design-15x30-seeds --seed 1 --seconds 20 --trace 0

Run from the repository root (or any copy of it that holds ``src/``). The
seed fixes every input. After set-up, the run repeats whole passes over the
workload's operation pool until ``--seconds`` have gone by, checks every
output and prints one line per metric, then, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` each
pool entry runs untraced and then traced, and the metrics are per layer.
Results, the quality fingerprint and (when traced) the spans are also
written under ``.bench_out/``. See bench/README.md.
"""
from __future__ import annotations

import os

# One BLAS thread: the matrices here are at most 128 wide, where OpenBLAS
# threads only add wake-up jitter on a small machine. Set before numpy loads;
# the set-up subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_CODE = (
    "import incoframes\n"
    "incoframes.run(incoframes.DesignConfig(m=3, n_vectors=4, sweeps=2, seed=0))\n"
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _setup_seconds():
    """Median wall time of a fresh interpreter importing the package and
    running one tiny design."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True, timeout=60
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


def _warm_up(workdir):
    """Finish lazy imports and first-call set-up before anything is timed."""
    import contextlib
    import io

    import incoframes
    import incoframes.cli

    with contextlib.redirect_stdout(io.StringIO()):
        incoframes.cli.main(["design", "--m", "3", "--N", "4", "--K", "2", "--out", str(workdir / "warm-up")])
    incoframes.run_cs_experiment(
        incoframes.CsExperiment(n_signal=8, n_atoms=12, sparsity=2, trials=2),
        incoframes.random_sensing_frame(4, 8, 0),
    )


# Speed probe. On a 2-vCPU VM shared with other tenants the same design runs
# 25% slower in some minutes than in others, and CPU time tracks wall time,
# so the slowdown is contention, not preemption. Before every untraced operation the run times a fixed mix of
# what the package spends its time on: small Cholesky solves through scipy,
# a 65-wide normal-matrix build and factorization, and Python arithmetic.
# op_s scales each operation's wall time by PROBE_REF_S / probe time. This
# keeps changes to the package visible, since the probe never calls it,
# while the machine's speed swings mostly cancel.
PROBE_REF_S = 0.010


def _speed_probe():
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    a16 = rng.standard_normal((30, 16))
    s16 = a16.T @ a16 + np.eye(16)
    b16 = rng.standard_normal(16)
    a65 = rng.standard_normal((128, 65))
    b65 = rng.standard_normal(65)

    def probe():
        started = time.perf_counter()
        acc = 0.0
        for _ in range(180):
            x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(s16, lower=True), b16)
            acc += float(np.abs(x).max()) + sum(range(40))
        for _ in range(18):
            m = (a65 * np.abs(a65 @ b65)[:, None]).T @ a65 + np.eye(65)
            acc += float(scipy.linalg.cho_solve(scipy.linalg.cho_factor(m, lower=True), b65)[0])
        if not np.isfinite(acc):
            raise RuntimeError("speed probe produced a non-finite value")
        return time.perf_counter() - started

    probe()
    return probe


def _direct(name, fn, *args):
    return fn(*args)


class Run:
    """Operations, outcomes and failures of one benchmark run."""

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.reference = [None] * len(pool)  # first outcome of each pool entry
        # (op id, pool entry, outcome, wall seconds, traced, probe seconds or None)
        self.done = []
        self.attempted = 0
        self.failures = []

    def execute(self, j, call, enter, traced=False, more_problems=None, probe=None):
        """Run pool entry j once, check its outputs and compare its
        fingerprint with the entry's first run. An operation that raises or
        fails a check counts as failed and its time is dropped."""
        op_id = self.attempted
        self.attempted += 1
        op = self.pool[j]
        started = time.perf_counter()
        try:
            result = call(op, enter)
        except Exception as exc:
            self.failures.append(f"op {op_id} (entry {j}): {type(exc).__name__}: {exc}")
            return
        wall = time.perf_counter() - started
        try:
            outcome = self.workload.check(op, result)
        except Exception as exc:
            self.failures.append(f"op {op_id} (entry {j}) check: {type(exc).__name__}: {exc}")
            return
        problems = list(outcome.problems) + (more_problems() if more_problems else [])
        if self.reference[j] is None:
            self.reference[j] = outcome
        elif outcome.fingerprint != self.reference[j].fingerprint:
            problems.append("fingerprint differs from the first run of the same inputs")
        if problems:
            self.failures.append(f"op {op_id} (entry {j}): " + "; ".join(problems))
            return
        self.done.append((op_id, j, outcome, wall, traced, probe))

    def walls(self, traced):
        return [w for _, _, _, w, t, _ in self.done if t == traced]

    def op_seconds(self):
        """Median untraced wall time, each scaled to the probe reference."""
        scaled = [w * PROBE_REF_S / p for _, _, _, w, t, p in self.done if not t]
        return statistics.median(scaled) if scaled else float("nan")

    def fingerprint(self):
        joined = "\n".join(o.fingerprint if o else "missing" for o in self.reference)
        return hashlib.sha256(joined.encode()).hexdigest()

    def quality(self):
        values = [q for o in self.reference if o for q in o.quality]
        return self.workload.quality_stat(values) if values else float("nan")


def _measure(workload, seed, seconds, tracer, workdir):
    """Whole passes over the pool until ``seconds`` have gone by. When
    tracing, every pool entry runs untraced and then traced."""
    from tracing import kkt_violations

    run = Run(workload, workload.pool(seed, workdir))

    def traced_call(op, enter):
        with tracer.installed():
            return tracer.wrap(workload.call, "bench.op")(op, enter)

    def traced_enter(name, fn, *args):
        return tracer.wrap(fn, name)(*args)

    def kkt_check(first_solve):
        def problems():
            bad = kkt_violations(tracer.solves[first_solve:])
            return [f"{bad} certified solves above 10 x solver_tol"] if bad else []

        return problems

    probe = _speed_probe()
    started = time.perf_counter()
    while run.attempted == 0 or time.perf_counter() - started < seconds:
        for j in range(len(run.pool)):
            run.execute(j, workload.call, _direct, probe=probe())
            if tracer is not None:
                tracer.op = run.attempted
                run.execute(j, traced_call, traced_enter, True, kkt_check(len(tracer.solves)))
    return run


def _app_metrics(run):
    """sparse-apps rates (untraced operations) and errors (first pass);
    zero on workloads without them."""
    extras = [o.extra for _, _, o, _, t, _ in run.done if not t and "cs_s" in o.extra]
    if not extras:
        return {name: (0.0, unit) for name, unit in _APP_UNITS.items()}
    first = [o.extra for o in run.reference if o]
    return {
        "cs_trials_per_s": (extras[0]["trials"] / statistics.median(e["cs_s"] for e in extras), "1/s"),
        "cs_mean_error": (statistics.fmean(e["cs_mean_error"] for e in first), "ratio"),
        "adapt_rounds_per_s": (
            extras[0]["rounds"] / statistics.median(e["adapt_s"] for e in extras),
            "1/s",
        ),
        "adapt_final_error": (run.quality(), "ratio"),
    }


_APP_UNITS = {
    "cs_trials_per_s": "1/s",
    "cs_mean_error": "ratio",
    "adapt_rounds_per_s": "1/s",
    "adapt_final_error": "ratio",
}


def _end_to_end(run, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (run.op_seconds(), "s"),
        "quality": (run.quality(), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(run, tracer):
    from tracing import layer_metrics, self_time_errors

    traced = [(op_id, j, o, w) for op_id, j, o, w, t, _ in run.done if t]
    untraced = {}
    for _, j, _, w, t, _ in run.done:
        if not t:
            untraced.setdefault(j, []).append(w)
    metrics = layer_metrics(tracer, max(1, len(traced)))
    base = sum(statistics.median(untraced[j]) for _, j, _, _ in traced if j in untraced)
    overhead = sum(w for *_, w in traced) / base if base else float("nan")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    errors = self_time_errors(tracer, {op_id: w for op_id, _, _, w in traced})
    metrics["trace.self_sum_error"] = (max(errors.values(), default=0.0), "ratio")
    metrics["frameio.bytes"] = (
        statistics.fmean(o.extra.get("bytes", 0) for _, _, o, _ in traced) if traced else 0.0,
        "bytes",
    )
    metrics.update({f"sparse.{k}": v for k, v in _app_metrics(run).items()})
    return metrics


def _print_summary(workload, run, metrics, setup_s, env, trace):
    print(f"workload {workload.name}")
    print("environment " + json.dumps(env, sort_keys=True))
    walls = run.walls(traced=False)
    if setup_s is not None:
        print(f"setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS} fresh interpreters)")
    print(
        f"{workload.op_label} = {run.op_seconds():.4f} s "
        f"(op_s; median of {len(walls)} untraced operations, probe-scaled: {workload.op_text})"
    )
    if walls:
        print(f"raw wall median = {statistics.median(walls):.4f} s")
    n_quality = sum(len(o.quality) for o in run.reference if o)
    print(f"{workload.quality_label} = {run.quality()!r} (quality; {workload.quality_stat.__name__} over {n_quality} first-pass results)")
    for name, (value, unit) in _app_metrics(run).items():
        if value and name != workload.quality_label:
            print(f"{name} = {value:.6g} {unit}")
    print(f"peak_rss_mb = {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")
    print(f"failed_ratio = {len(run.failures)}/{run.attempted}")
    for failure in run.failures[:20]:
        print(f"  failed: {failure}")
    print(f"fingerprint = {run.fingerprint()}")
    if trace:
        for name, (value, unit) in sorted(metrics.items()):
            print(f"{name} = {value:.6g} {unit}")


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "incoframes" / "__init__.py").is_file():
        print(f"error: no incoframes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import incoframes.errors
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup_s = None if args.trace else _setup_seconds()
    env = _environment()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = Tracer(incoframes.errors.SolverStall) if args.trace else None
    try:
        _warm_up(workdir)
        run = _measure(workload, args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not run.failures and all(run.reference)
    if args.trace:
        missing = workload.expected_spans - tracer.names()
        if missing:
            print(f"error: wrapped calls never fired: {sorted(missing)}", file=sys.stderr)
            return 3
        metrics = _per_layer(run, tracer)
        overhead = metrics["trace.overhead_ratio"][0]
        # Spans must account for the traced wall time, to within the tracing
        # overhead (at least 1%, for timer and garbage-collector jitter).
        if metrics["trace.self_sum_error"][0] > max(abs(overhead - 1.0), 0.01):
            print("error: self times do not add up to the traced wall time", file=sys.stderr)
            correct = False
        stem = f"{workload.name}-seed{args.seed}"
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    else:
        metrics = _end_to_end(run, setup_s)

    _print_summary(workload, run, metrics, setup_s, env, args.trace)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "quality": {
            "fingerprint": run.fingerprint(),
            "value": run.quality(),
            "ops": [o.fingerprint if o else None for o in run.reference],
        },
        "timings": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "raw_wall_median_s": statistics.median(walls) if (walls := run.walls(traced=False)) else None,
        "failures": run.failures,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    result = {
        "correct": bool(correct),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
