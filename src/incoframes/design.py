"""Sequential frame design: per-vector convex minimax steps in trust regions.

Starting from a seeded random frame (column-normalized Gaussian followed by
its orthonormal polar factor), each sweep visits the vectors in randomized
order and replaces one vector at a time by the normalized solution of its
trust-region minimax subproblem. Sign flips keep all correlations with the
active vector non-negative, the trust radius stays strictly inside the
per-vector safe bound, and a tie gate skips vectors whose update provably
cannot make progress.
When sweeps flatten out, an orthonormal-polar "escape" step retightens the
frame and the search continues; the best frame ever seen is returned.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVector, InvalidInput, RankDeficient, SolverStall
from .frames import (
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
_SOLVER_TOL = 1e-8  # duality gap and infeasibility target of every subproblem solve


@dataclass(frozen=True)
class DesignConfig:
    """Knobs of one design run.

    ``eps_stop`` is the mean three-sweep coherence decrease below which the
    escape step fires. Nonnegative mode optimizes entrywise-nonnegative
    vectors; it disables sign flips and escape steps and optimizes every
    vector including the first one. The trust radius backoff (1e-4) and the
    subproblem solver tolerance (1e-8) are fixed.
    """

    m: int
    n_vectors: int
    sweeps: int = 200
    seed: int = 0
    eps_stop: float = 1e-5
    nonneg: bool = False

    def __post_init__(self):
        if self.m < 2 or self.n_vectors < self.m:
            raise InvalidInput(f"need 2 <= m <= N, got m={self.m}, N={self.n_vectors}")
        if self.sweeps < 0:
            raise InvalidInput(f"sweeps must be >= 0, got {self.sweeps}")
        if not (0.0 < self.eps_stop < 1.0):
            raise InvalidInput(f"eps_stop must be in (0, 1), got {self.eps_stop}")


@dataclass
class SweepStats:
    """Per-sweep bookkeeping from the inner loop."""

    updated: int = 0
    tie_skips: int = 0
    solver_stalls: int = 0
    degenerate: int = 0

    @property
    def stalled(self):
        return self.tie_skips + self.solver_stalls


@dataclass
class SweepReport:
    """Full trace of a design run.

    ``raw_coherence`` is the coherence of the raw seeded random frame before
    any refinement; ``initial_coherence`` is the coherence of the frame the
    sweeps actually start from (after the polar refinement, or of the caller's
    frame when one is passed in). ``trace[k]`` is the coherence after sweep
    k+1. ``escape_sweeps`` holds the 1-based sweep indices right after which
    an escape step was applied, and ``escape_coherence`` the coherence right
    after that step. The trace is non-increasing between consecutive escape
    steps.
    """

    raw_coherence: float
    initial_coherence: float
    trace: list = field(default_factory=list)
    escape_sweeps: list = field(default_factory=list)
    escape_coherence: list = field(default_factory=list)
    sweep_seconds: list = field(default_factory=list)
    stalled: list = field(default_factory=list)
    degenerate: list = field(default_factory=list)
    best_sweep: int = 0
    final_metrics: FrameMetrics | None = None


def _initial_matrix(cfg):
    """Seeded start matrix, its pre-refinement coherence, and the generator
    to keep using for sweep orders."""
    last = None
    for attempt in range(5):
        rng = np.random.default_rng(cfg.seed + attempt)
        # Row-major, as drawn: the sweep's floating-point results depend on the layout.
        a = np.ascontiguousarray(random_unit_frame(cfg.m, cfg.n_vectors, rng).vectors)
        if cfg.nonneg:
            a = np.abs(a)
            return float(correlations(a)[1].max()), a, rng
        raw_mu = float(correlations(a)[1].max())
        try:
            a = unit_columns(unit_polar(a))
        except RankDeficient as exc:
            last = exc
            continue
        return raw_mu, a, rng
    raise RankDeficient(f"frame initialization failed after 5 reseeds: {last}")


def initialize(cfg):
    """Seeded starting frame: |Gaussian| columns in nonneg mode, else the
    column-normalized orthonormal polar factor of a Gaussian matrix."""
    _, work, _ = _initial_matrix(cfg)
    return Frame(work)


def choose_radius(frame, i, slack=_RADIUS_SLACK):
    """Squared trust radius for vector i: (1 - slack) * (1 - max_j g_ij^2)."""
    if not (0.0 < slack <= 0.1):
        raise InvalidInput(f"slack must be in (0, 0.1], got {slack}")
    v = frame.vectors
    corr = np.abs(v.T @ v[:, i])
    corr[i] = -1.0
    gmax = float(corr.max())
    if gmax >= 1.0 - _DUP_TOL:
        raise DegenerateVector(f"vector {i} duplicates another (|g| = {gmax:.15f})")
    return (1.0 - slack) * (1.0 - gmax * gmax)


def _sweep_inplace(work, cfg, rng):
    """One randomized pass updating ``work`` columns in place."""
    m, n = work.shape
    start = 0 if cfg.nonneg else 1
    order = rng.permutation(np.arange(start, n))
    stats = SweepStats()
    for i in order:
        col = work[:, i]
        corr = work.T @ col
        corr[i] = 0.0
        if not cfg.nonneg:
            neg = corr < 0.0
            if neg.any():
                work[:, neg] *= -1.0
                corr[neg] = -corr[neg]
        corr[i] = -1.0
        gmax = float(corr.max())
        if gmax >= 1.0 - _DUP_TOL:
            stats.degenerate += 1
            continue
        ties = int((corr >= gmax * (1.0 - _TIE_REL)).sum()) if gmax > 0.0 else 0
        if ties >= m:
            stats.tie_skips += 1
            continue
        radius_sq = (1.0 - _RADIUS_SLACK) * (1.0 - gmax * gmax)
        problem = TrustSubproblem(
            reference=col.copy(),
            neighbors=np.delete(work, i, axis=1),
            radius_sq=radius_sq,
            nonneg=cfg.nonneg,
        )
        try:
            sol = solve_subproblem(problem, tol=_SOLVER_TOL)
        except SolverStall:
            stats.solver_stalls += 1
            continue
        f = np.maximum(sol.f, 0.0) if cfg.nonneg else sol.f
        norm = float(np.linalg.norm(f))
        if norm <= 1e-12:
            stats.solver_stalls += 1
            continue
        work[:, i] = f / norm
        stats.updated += 1
    return stats


def sweep(frame, cfg, rng):
    """One full randomized sweep over the frame; returns the new frame and stats."""
    if frame.m != cfg.m or frame.n_vectors != cfg.n_vectors:
        raise InvalidInput(
            f"frame is {frame.m}x{frame.n_vectors}, config wants {cfg.m}x{cfg.n_vectors}"
        )
    work = np.array(frame.vectors, order="F", copy=True)
    stats = _sweep_inplace(work, cfg, rng)
    return Frame(work), stats


def run(cfg, initial=None):
    """Full design run: up to ``cfg.sweeps`` sweeps with escape steps.

    Parameters
    ----------
    cfg : DesignConfig
    initial : Frame, optional
        Starting frame; defaults to the seeded initialization. Dimensions
        must match the config.

    Returns
    -------
    (Frame, SweepReport)
        The best-coherence frame observed anywhere in the run and the trace.
    """
    if initial is not None:
        if initial.m != cfg.m or initial.n_vectors != cfg.n_vectors:
            raise InvalidInput(
                f"initial frame is {initial.m}x{initial.n_vectors}, "
                f"config wants {cfg.m}x{cfg.n_vectors}"
            )
        work = np.array(initial.vectors, order="F", copy=True)
        rng = np.random.default_rng(cfg.seed)
        raw_mu = float(correlations(work)[1].max())
    else:
        raw_mu, work, rng = _initial_matrix(cfg)

    mu = float(correlations(work)[1].max())
    report = SweepReport(raw_coherence=raw_mu, initial_coherence=mu)
    best = work.copy()
    best_mu = mu
    decreases = []

    for k in range(1, cfg.sweeps + 1):
        if mu <= 1e-12:
            # Exactly orthonormal columns (possible only for N <= m): nothing to improve.
            break
        started = time.perf_counter()
        stats = _sweep_inplace(work, cfg, rng)
        mu_new = float(correlations(work)[1].max())
        report.sweep_seconds.append(time.perf_counter() - started)
        report.trace.append(mu_new)
        report.stalled.append(stats.stalled)
        report.degenerate.append(stats.degenerate)
        decreases.append(mu - mu_new)
        mu = mu_new
        if mu < best_mu:
            best_mu = mu
            best = work.copy()
            report.best_sweep = k
        if (
            not cfg.nonneg
            and len(decreases) >= 3
            and (decreases[-1] + decreases[-2] + decreases[-3]) / 3.0 < cfg.eps_stop
        ):
            work = np.asfortranarray(unit_columns(unit_polar(work)))
            mu = float(correlations(work)[1].max())
            report.escape_sweeps.append(k)
            report.escape_coherence.append(mu)
            if mu < best_mu:
                best_mu = mu
                best = work.copy()
                report.best_sweep = k
            decreases.clear()

    best_frame = Frame(best)
    report.final_metrics = frame_metrics(best_frame)
    return best_frame, report
