"""Sequential frame design: per-vector convex minimax steps in trust regions.

Starting from a seeded random frame (column-normalized Gaussian followed by
its orthonormal polar factor), each sweep visits the vectors in randomized
order and replaces one vector at a time by the normalized solution of its
trust-region minimax subproblem. Sign flips keep all correlations with the
active vector non-negative, the trust radius stays strictly inside the
per-vector safe bound, and a tie gate skips vectors whose update provably
cannot make progress. ``subproblem(frame, i)`` builds vector i's instance
through the same code a sweep uses, and ``run`` is the one driver of sweeps.
When sweeps flatten out, an orthonormal-polar "escape" step retightens the
frame and the search continues; the best frame ever seen is returned.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVector, InvalidInput, SolverStall
from .frames import (
    _require_bool,
    _require_ints,
    Frame,
    FrameMetrics,
    correlations,
    frame_metrics,
    random_unit_frame,
    unit_columns,
)
from .linalg import unit_polar
from .minimax import TrustSubproblem, solve_subproblem

# A correlation this close to 1 means a duplicated vector: no trust region exists.
_DUP_TOL = 1e-12
# Relative tolerance for counting ties at the maximum correlation.
_TIE_REL = 1e-9
_RADIUS_SLACK = 1e-4  # squared trust radius T_i = (1 - _RADIUS_SLACK) * (1 - g_max^2)


@dataclass(frozen=True)
class DesignConfig:
    """Knobs of one design run.

    ``eps_stop`` is the mean three-sweep coherence decrease below which the
    escape step fires. Nonnegative mode optimizes entrywise-nonnegative
    vectors; it disables sign flips and escape steps and optimizes every
    vector including the first one. The trust radius backoff (1e-4) is
    fixed, and every subproblem solution is certified with each KKT
    residual within the solver's fixed 1e-8.
    """

    m: int
    n_vectors: int
    sweeps: int = 200
    seed: int = 0
    eps_stop: float = 1e-5
    nonneg: bool = False

    def __post_init__(self):
        _require_ints(self, "m", "n_vectors", "sweeps", "seed")
        _require_bool("nonneg", self.nonneg)
        if type(self.eps_stop) not in (int, float):
            raise InvalidInput(f"eps_stop must be a real number, got {self.eps_stop!r}")
        if self.m < 2 or self.n_vectors < self.m:
            raise InvalidInput(f"need 2 <= m <= N, got m={self.m}, N={self.n_vectors}")
        if self.sweeps < 0:
            raise InvalidInput(f"sweeps must be >= 0, got {self.sweeps}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.eps_stop < 1.0):
            raise InvalidInput(f"eps_stop must be in (0, 1), got {self.eps_stop}")


@dataclass
class SweepReport:
    """Full trace of a design run.

    ``raw_coherence`` is the coherence of the raw seeded random frame before
    any refinement (its |entries| in nonneg mode, or the caller's frame when
    one is passed in); ``initial_coherence`` is the coherence of the frame
    the sweeps actually start from. ``trace[k]`` is the coherence after sweep
    k+1. ``escape_sweeps`` holds the 1-based sweep indices right after which
    an escape step was applied, and ``escape_coherence`` the coherence right
    after that step. The trace is non-increasing between consecutive escape
    steps.

    Each sweep's visited vectors are counted once in ``updated``,
    ``tie_skips`` (the tie gate held), ``solver_stalls`` (the solve raised
    ``SolverStall``) or ``degenerate`` (a duplicated vector). ``stalled``
    is ``tie_skips + solver_stalls``.
    """

    raw_coherence: float
    initial_coherence: float
    trace: list = field(default_factory=list)
    escape_sweeps: list = field(default_factory=list)
    escape_coherence: list = field(default_factory=list)
    updated: list = field(default_factory=list)
    tie_skips: list = field(default_factory=list)
    solver_stalls: list = field(default_factory=list)
    stalled: list = field(default_factory=list)
    degenerate: list = field(default_factory=list)
    best_sweep: int = 0
    final_metrics: FrameMetrics | None = None


def _start(cfg, initial):
    """Column-major start matrix, the raw matrix it comes from (the start
    itself except in signed seeded runs) and the generator for sweep orders.
    Nonneg mode starts from the seeded draw's |entries|, signed mode from its
    polar factor, a caller's frame from itself with ``default_rng(cfg.seed)``."""
    if initial is not None:
        if initial.m != cfg.m or initial.n_vectors != cfg.n_vectors:
            raise InvalidInput(
                f"initial frame is {initial.m}x{initial.n_vectors}, "
                f"config wants {cfg.m}x{cfg.n_vectors}"
            )
        work = np.array(initial.vectors, order="F")
        return work, work, np.random.default_rng(cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    raw = random_unit_frame(cfg.m, cfg.n_vectors, rng).vectors
    if cfg.nonneg:
        raw = np.abs(raw)
        return raw, raw, rng
    return np.asfortranarray(unit_columns(unit_polar(raw))), raw, rng


def _prepare(work, i, nonneg, tie_gate):
    """Vector i's subproblem over ``work``, whose columns are flipped in place
    in signed mode so every correlation with column i is non-negative.

    Raises DegenerateVector if column i duplicates another. With ``tie_gate``
    set, returns None and builds nothing when m or more neighbors tie at the
    largest correlation: then no update can make progress.
    """
    col = work[:, i]
    corr = work.T @ col
    if not nonneg:
        neg = corr < 0.0
        if neg.any():
            work[:, neg] *= -1.0
            corr[neg] = -corr[neg]
    corr[i] = -1.0
    gmax = float(corr.max())
    if gmax >= 1.0 - _DUP_TOL:
        raise DegenerateVector(f"vector {i} duplicates another (|g| = {gmax:.15f})")
    if tie_gate and gmax > 0.0 and (corr >= gmax * (1.0 - _TIE_REL)).sum() >= work.shape[0]:
        return None
    return TrustSubproblem(
        reference=col,
        neighbors=np.delete(work, i, axis=1),
        radius_sq=(1.0 - _RADIUS_SLACK) * (1.0 - gmax * gmax),
        nonneg=nonneg,
    )


def subproblem(frame, i, nonneg=False):
    """Vector i's trust-region subproblem, built by the sweep's own code.

    The squared radius is (1 - 1e-4) * (1 - max_j g_ij^2). No tie gate
    applies, so the simplex ETF, where every neighbor ties, has one too.
    Raises DegenerateVector if vector i duplicates another.
    """
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise InvalidInput(f"column index must be an integer, got {i!r}")
    if not 0 <= i < frame.n_vectors:
        raise InvalidInput(f"column index {i} out of range for N={frame.n_vectors}")
    return _prepare(np.array(frame.vectors, order="F", copy=True), i, nonneg, tie_gate=False)


def _sweep_inplace(work, cfg, rng):
    """One randomized pass updating ``work`` columns in place; returns how
    many visited vectors were updated, tie-skipped, stalled or degenerate."""
    start = 0 if cfg.nonneg else 1
    order = rng.permutation(np.arange(start, work.shape[1]))
    counts = Counter()
    for i in order:
        try:
            problem = _prepare(work, i, cfg.nonneg, tie_gate=True)
        except DegenerateVector:
            counts["degenerate"] += 1
            continue
        if problem is None:
            counts["tie_skips"] += 1
            continue
        try:
            sol = solve_subproblem(problem)
        except SolverStall:
            counts["solver_stalls"] += 1
            continue
        f = np.maximum(sol.f, 0.0) if cfg.nonneg else sol.f
        work[:, i] = f / math.sqrt(f @ f)  # np.linalg.norm's sum for a 1-D f
        counts["updated"] += 1
    return counts


def run(cfg, initial=None):
    """Full design run: up to ``cfg.sweeps`` sweeps with escape steps.

    Parameters
    ----------
    cfg : DesignConfig
    initial : Frame, optional
        Starting frame; defaults to the seeded initialization. Dimensions
        must match the config, and the sweep orders then come from
        ``np.random.default_rng(cfg.seed)``.

    Returns
    -------
    (Frame, SweepReport)
        The best-coherence frame observed anywhere in the run and the trace.
    """
    work, raw, rng = _start(cfg, initial)
    mu = float(correlations(work)[1].max())
    raw_mu = mu if raw is work else float(correlations(raw)[1].max())
    report = SweepReport(raw_coherence=raw_mu, initial_coherence=mu)
    best = work.copy()
    best_mu = mu
    decreases = []

    for k in range(1, cfg.sweeps + 1):
        if mu <= 1e-12:
            # Exactly orthonormal columns (possible only for N <= m): nothing to improve.
            break
        counts = _sweep_inplace(work, cfg, rng)
        mu_new = float(correlations(work)[1].max())
        report.trace.append(mu_new)
        for key in ("updated", "tie_skips", "solver_stalls", "degenerate"):
            getattr(report, key).append(counts[key])
        report.stalled.append(counts["tie_skips"] + counts["solver_stalls"])
        decreases.append(mu - mu_new)
        mu = mu_new
        seen = [(mu, work)]
        if (
            not cfg.nonneg
            and len(decreases) >= 3
            and (decreases[-1] + decreases[-2] + decreases[-3]) / 3.0 < cfg.eps_stop
        ):
            # The escape builds a new array, so the sweep's frame stays as seen.
            work = np.asfortranarray(unit_columns(unit_polar(work)))
            mu = float(correlations(work)[1].max())
            report.escape_sweeps.append(k)
            report.escape_coherence.append(mu)
            decreases.clear()
            seen.append((mu, work))
        for seen_mu, seen_work in seen:
            if seen_mu < best_mu:
                best_mu, best, report.best_sweep = seen_mu, seen_work.copy(), k

    best_frame = Frame(best)
    report.final_metrics = frame_metrics(best_frame)
    return best_frame, report

