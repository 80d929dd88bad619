"""The four benchmark workloads.

A workload turns the benchmark seed into a fixed pool of operations. Each
operation's inputs are made outside the timed region; ``call`` is the timed
part and goes through ``enter(name, fn, *args)`` for every call into the
package, so the traced run can put a span around it. ``check`` runs after the
timed region and returns the operation's outcome: its quality value, the
problems found in its outputs, and a deterministic fingerprint that any
rerun with the same seed must reproduce bit for bit.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import incoframes
import incoframes.cli
from incoframes import (
    CsExperiment,
    DesignConfig,
    adapt_dictionary,
    make_planted_dataset,
    mutual_coherence,
    random_sensing_frame,
    read_frame,
    run_cs_experiment,
)

# Wrapped spans each workload must fire in its traced run; a wrapper that no
# longer fires (say after a rename) fails the run instead of reporting zeros.
_DESIGN_SPANS = {"minimax.solve_subproblem", "minimax.TrustSubproblem", "frames.frame_metrics"}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _trace_problems(trace, escape_sweeps):
    """The coherence trace must not increase between escape steps."""
    escapes = set(escape_sweeps)
    for k in range(1, len(trace)):
        # trace[k] is sweep k + 1; an escape after sweep k resets the baseline.
        if k not in escapes and trace[k] > trace[k - 1]:
            return [f"coherence rose from {trace[k - 1]!r} to {trace[k]!r} at sweep {k + 1}"]
    return []


@dataclass
class Outcome:
    """What ``check`` found for one operation."""

    quality: list
    problems: list
    fingerprint: str
    extra: dict = field(default_factory=dict)


def _design_outcome(mu, best_sweep, escapes, stalled, degenerate, trace, frame_bytes):
    parts = [
        repr(mu),
        str(best_sweep),
        repr(list(escapes)),
        str(sum(stalled)),
        str(sum(degenerate)),
        _sha(repr(list(trace)).encode()),
        _sha(frame_bytes),
    ]
    return "|".join(parts)


class DesignCli:
    """``design`` CLI calls over consecutive seed pairs, stdout captured.

    At m=15 a subproblem is a 16x16 system with k=29, so the solver is bound
    by per-call overhead rather than flops; the CLI adds frame files and
    manifests, so the cli and frameio layers run too.
    """

    name = "design-15x30-seeds"
    op_label = "design_s"
    op_text = "one `design` CLI call over 2 seeds, K=12"
    quality_label = "final_mu"
    quality_stat = staticmethod(statistics.median)
    expected_spans = _DESIGN_SPANS | {
        "linalg.unit_polar",
        "design.run",
        "frameio.write_frame",
        "frameio.write_manifest",
    }
    # eps_stop 1e-3 makes the escape step fire within the 12-sweep budget.
    argv = ["design", "--m", "15", "--N", "30", "--K", "12", "--eps-stop", "1e-3"]
    pool_size = 3
    seeds_per_op = 2

    def pool(self, seed, workdir):
        ops = []
        for j in range(self.pool_size):
            first = seed * 100 + self.seeds_per_op * j
            seeds = list(range(first, first + self.seeds_per_op))
            out = workdir / f"op{j}"
            argv = self.argv + ["--seeds", f"{seeds[0]}..{seeds[-1]}", "--out", str(out)]
            ops.append({"argv": argv, "seeds": seeds, "out": out})
        return ops

    def call(self, op, enter):
        with contextlib.redirect_stdout(io.StringIO()):
            code = enter("cli.main", incoframes.cli.main, op["argv"])
        return code

    def check(self, op, code):
        if code != 0:
            return Outcome([], [f"design CLI exited with {code}"], "")
        quality, problems, prints = [], [], []
        for seed in op["seeds"]:
            stem = f"m15_n30_seed{seed}"
            frame_path = op["out"] / f"frame_{stem}.frame"
            frame, _ = read_frame(frame_path)  # re-verifies the recorded coherence
            manifest = json.loads((op["out"] / f"manifest_{stem}.json").read_text(encoding="utf-8"))
            mu = manifest["final_metrics"]["mu"]
            if mu != mutual_coherence(frame):
                problems.append(f"seed {seed}: manifest mu {mu!r} != frame coherence")
            problems += _trace_problems(manifest["trace"], manifest["escape_sweeps"])
            quality.append(mu)
            # The manifest carries the summed tie and stall skips, not degenerate.
            prints.append(
                _design_outcome(
                    mu,
                    manifest["best_sweep"],
                    manifest["escape_sweeps"],
                    manifest["stalled"],
                    [],
                    manifest["trace"],
                    frame_path.read_bytes(),
                )
            )
        written = sum(p.stat().st_size for p in op["out"].iterdir())
        shutil.rmtree(op["out"])
        return Outcome(quality, problems, ";".join(prints), {"bytes": written})


class DesignRun:
    """One ``incoframes.design.run`` per operation."""

    op_label = "design_s"
    quality_label = "final_mu"
    quality_stat = staticmethod(statistics.median)

    def __init__(self, name, m, n_vectors, sweeps, nonneg, pool_size):
        self.name = name
        self.m, self.n_vectors, self.sweeps, self.nonneg = m, n_vectors, sweeps, nonneg
        self.pool_size = pool_size
        self.op_text = f"one run(), {m}x{n_vectors}, K={sweeps}" + (", nonneg" if nonneg else "")
        # Nonneg mode starts from |Gaussian| columns and never escapes: no polar.
        self.expected_spans = _DESIGN_SPANS | (set() if nonneg else {"linalg.unit_polar"})

    def pool(self, seed, workdir):
        return [
            DesignConfig(
                m=self.m,
                n_vectors=self.n_vectors,
                sweeps=self.sweeps,
                seed=seed * 100 + j,
                nonneg=self.nonneg,
            )
            for j in range(self.pool_size)
        ]

    def call(self, cfg, enter):
        return enter("design.run", incoframes.design.run, cfg)

    def check(self, cfg, result):
        frame, report = result
        mu = report.final_metrics.mu
        problems = []
        if mu != mutual_coherence(frame):
            problems.append(f"report mu {mu!r} != coherence of the returned frame")
        problems += _trace_problems(report.trace, report.escape_sweeps)
        fp = _design_outcome(
            mu,
            report.best_sweep,
            report.escape_sweeps,
            report.stalled,
            report.degenerate,
            report.trace,
            frame.vectors.tobytes(),
        )
        return Outcome([mu], problems, fp)


class SparseApps:
    """A compressed-sensing batch with a random sensing frame, then a
    rotation-only dictionary adaptation on planted data.

    It never enters design or minimax: the no-change control for design work,
    and the guard on the frames/linalg code the sparse layer shares.
    """

    name = "sparse-apps"
    op_label = "sparse_op_s"
    op_text = "125 CS trials, then 5 adaptation rounds on 256 samples"
    quality_label = "adapt_final_error"
    # The mean: the per-dataset errors spread more than coherences do.
    quality_stat = staticmethod(statistics.fmean)
    expected_spans = {"sparse.omp", "linalg.least_squares", "linalg.svd"}
    pool_size = 8
    trials = 125
    rounds = 5

    def pool(self, seed, workdir):
        ops = []
        for j in range(self.pool_size):
            op_seed = seed * 100 + j
            dictionary = random_sensing_frame(16, 32, [seed, j, 1])
            data, _, _ = make_planted_dataset(dictionary, 4, 256, 0.01, op_seed)
            ops.append(
                {
                    "experiment": CsExperiment(
                        n_signal=80, n_atoms=120, sparsity=4, trials=self.trials, seed=op_seed
                    ),
                    "sensing": random_sensing_frame(30, 80, [seed, j, 0]),
                    "data": data,
                    "dictionary": dictionary,
                }
            )
        return ops

    def call(self, op, enter):
        t0 = time.perf_counter()
        cs = enter("sparse.run_cs_experiment", run_cs_experiment, op["experiment"], op["sensing"])
        t1 = time.perf_counter()
        adapted = enter("sparse.adapt_dictionary", adapt_dictionary, op["data"], op["dictionary"], 4, self.rounds)
        t2 = time.perf_counter()
        return cs, adapted, t1 - t0, t2 - t1

    def check(self, op, result):
        cs, adapted, cs_s, adapt_s = result
        problems = []
        if not (np.isfinite(cs.errors).all() and np.isfinite(cs.mean_error)):
            problems.append("non-finite recovery error")
        if not np.isfinite(adapted.error_trace).all():
            problems.append("non-finite adaptation error")
        drift = abs(mutual_coherence(adapted.adapted) - mutual_coherence(adapted.initial))
        if drift > 1e-10:
            problems.append(f"adaptation moved the coherence by {drift:.3e}")
        fp = "|".join(
            [
                repr(cs.mean_error),
                repr(cs.support_rate),
                _sha(cs.errors.tobytes()),
                repr(adapted.error_trace),
                repr(adapted.rank_deficient_steps),
                _sha(adapted.adapted.vectors.tobytes()),
            ]
        )
        extra = {
            "cs_s": cs_s,
            "adapt_s": adapt_s,
            "cs_mean_error": cs.mean_error,
            "trials": self.trials,
            "rounds": self.rounds,
        }
        return Outcome([adapted.error_trace[-1]], problems, fp, extra)


WORKLOADS = {
    w.name: w
    for w in (
        DesignCli(),
        # p=128, n=65 subproblems: normal-matrix assembly and the Cholesky
        # factorization carry a large share of each solve, so kernel fixes move
        # it more than overhead fixes do.
        DesignRun(
            "design-64x128",
            m=64,
            n_vectors=128,
            sweeps=2,
            nonneg=False,
            pool_size=4,
        ),
        # Nonneg subproblems carry m extra bound rows, skip sign flips and
        # escapes, and polish and stall more often: signed-only changes must
        # not move it.
        DesignRun(
            "design-nonneg-20x40",
            m=20,
            n_vectors=40,
            sweeps=8,
            nonneg=True,
            pool_size=4,
        ),
        SparseApps(),
    )
}
