"""Convex minimax step for a single frame vector inside its trust region.

The step solves

    minimize_f   max_j  h_j^T f
    subject to   ||f - h||_2^2 <= T        (and optionally f >= 0)

where h is the current unit vector, the h_j are its (sign-canonicalized)
neighbors, and T < 1 - max_j(h_j^T h)^2 keeps the region clear of the
problematic caps. The optimal t is the level at which the point nearest h
in {f : h_j^T f <= t (, f >= 0)} lies exactly sqrt(T) away. On a fixed
working set (the tight planes, and the zero coordinates in nonneg mode)
that point is a closed form, affine in t: one non-negative least-squares
solve (Lawson & Hanson 1974, least-distance programming) finds the set at a
start level, and a walk of exact events carries it to the optimal level.
Every set's root is certified before its event scan; a stalled solve
carries the last root the walk reached, or None.

The multipliers are part of the contract: at an optimum

    H lam - nu + 2 lam_ball (f - h) = 0,   sum(lam) = 1,   lam, lam_ball, nu >= 0,
    t = 2 lam_ball (f^T h - ||f||^2)      (nu, the bound multipliers, in nonneg mode only),

and the ball constraint is active (lam_ball > 0), except in nonneg mode
when h with every coordinate some neighbor touches set to 0 lies inside the
ball: that point meets every plane at t = 0, with lam_ball = 0 and
nu = H lam. ``kkt_residuals`` measures how well a candidate satisfies that
system, dual feasibility included.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, SolverStall
from .frames import _UNIT_TOL, _frozen, _require_bool

_TOL = 1e-8  # each KKT residual of a returned solution, inside the 10 * _TOL contract
_MAX_CHANGES = 100  # working-set changes (walk events and NNLS restarts) per solve


@dataclass(frozen=True)
class TrustSubproblem:
    """One minimax step: reference vector, neighbor columns, squared radius.

    ``neighbors`` must have non-negative correlation with ``reference`` and
    the squared radius must satisfy ``0 < radius_sq < 1 - max_j (h_j^T h)^2``,
    and in nonneg mode exceed ``||min(h, 0)||^2`` so the region reaches
    f >= 0; ``design.subproblem(frame, i)`` builds a valid instance for any
    vector of a frame. Both arrays are stored as private read-only copies.
    """

    reference: np.ndarray
    neighbors: np.ndarray
    radius_sq: float
    nonneg: bool = False

    def __post_init__(self):
        _require_bool("nonneg", self.nonneg)
        h = _frozen(self.reference)
        nb = _frozen(self.neighbors)
        if h.ndim != 1 or h.size < 2:
            raise InvalidInput(f"reference must be a vector of length >= 2, got shape {h.shape}")
        if nb.ndim != 2 or nb.shape[0] != h.size or nb.shape[1] < 1:
            raise InvalidInput(f"neighbors must be (m, k) with k >= 1, got shape {nb.shape}")
        if not (np.isfinite(h).all() and np.isfinite(nb).all()):
            raise InvalidInput("non-finite entries in subproblem data")
        # np.linalg.norm's own sums, without its dispatch
        if abs(math.sqrt(h @ h) - 1.0) > _UNIT_TOL:
            raise InvalidInput("reference vector must be unit norm")
        if np.abs(np.sqrt(np.add.reduce(nb * nb, axis=0)) - 1.0).max() > _UNIT_TOL:
            raise InvalidInput("neighbor columns must be unit norm")
        corr = nb.T @ h
        if corr.min() < -1e-10:
            raise InvalidInput(
                f"neighbors must be sign-canonicalized (min correlation {corr.min():.3e})"
            )
        t = float(self.radius_sq)
        gmax = float(corr.max())
        limit = 1.0 - gmax * gmax
        if not (0.0 < t < 1.0):
            raise InvalidInput(f"radius_sq must lie in (0, 1), got {t}")
        if t >= limit:
            raise InvalidInput(
                f"radius_sq {t:.6g} >= 1 - max correlation^2 = {limit:.6g}; trust region too large"
            )
        gap = float(np.square(np.minimum(h, 0.0)).sum()) if self.nonneg else 0.0
        if t <= gap:
            raise InvalidInput(f"radius_sq {t:.6g} <= ||min(h, 0)||^2 = {gap:.6g}: misses f >= 0")
        object.__setattr__(self, "reference", h)
        object.__setattr__(self, "neighbors", nb)
        object.__setattr__(self, "radius_sq", t)

    @property
    def m(self):
        return self.reference.size

    @property
    def k(self):
        return self.neighbors.shape[1]


class KktResiduals(NamedTuple):
    """Max-norm residuals of the optimality system, dual feasibility included."""

    stationarity: float
    complementarity: float
    primal: float
    dual: float  # the largest violation of lam >= 0, lam_ball >= 0 and nu >= 0

    def worst(self):
        return max(self.stationarity, self.complementarity, self.primal, self.dual)


@dataclass
class SubproblemSolution:
    """Primal-dual answer to a TrustSubproblem.

    ``lam`` holds the multipliers of the k neighbor constraints (summing to 1
    at an optimum), ``lam_ball`` the multiplier of the trust-region ball, and
    ``bound_lam`` the multipliers of the f >= 0 bounds when they are present.
    ``iterations`` counts the working-set changes the solve made.
    """

    f: np.ndarray
    t: float
    lam: np.ndarray
    lam_ball: float
    bound_lam: np.ndarray | None
    iterations: int
    residuals: KktResiduals | None = None


def kkt_residuals(problem, solution):
    """Recompute the optimality residuals of ``solution`` for ``problem``."""
    h, nb, nonneg = problem.reference, problem.neighbors, problem.nonneg
    f = np.asarray(solution.f, dtype=float)
    t = float(solution.t)
    lam = np.asarray(solution.lam, dtype=float)
    lam_ball = float(solution.lam_ball)
    nu = solution.bound_lam
    nu = np.asarray(nu, dtype=float) if (nonneg and nu is not None) else np.zeros_like(f)
    fh = f - h
    stat_f = nb @ lam - nu + 2.0 * lam_ball * fh
    stat = max(float(np.abs(stat_f).max()), abs(1.0 - float(lam.sum())))

    g_lin = nb.T @ f - t
    g_ball = float(fh @ fh - problem.radius_sq)
    comp = float(np.abs(lam * g_lin).max())
    comp = max(comp, abs(lam_ball * g_ball))
    primal = max(0.0, float(g_lin.max()), g_ball)
    dual = max(0.0, float(-lam.min()), -lam_ball, float(-nu.min()))
    if nonneg:
        comp = max(comp, float(np.abs(nu * f).max()))
        primal = max(primal, float((-f).max()))
    return KktResiduals(stationarity=stat, complementarity=comp, primal=primal, dual=dual)


@functools.cache
def _nnls():
    """scipy's compiled Lawson-Hanson ``nnls(A, b, maxiter) -> (x, rnorm, info)``, found and
    loaded with no scipy package code run: ``import scipy.optimize`` costs 0.5 s and 20 MB."""
    scipy = importlib.util.find_spec("scipy")
    places = [f"{place}/optimize" for place in scipy.submodule_search_locations] if scipy else []
    found = importlib.machinery.PathFinder.find_spec("_slsqplib", places)
    if found is None:
        raise ImportError("solve_subproblem needs the compiled nnls of scipy 1.17 or later")
    loader = importlib.machinery.ExtensionFileLoader("scipy.optimize._slsqplib", found.origin)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return sys.modules.setdefault(loader.name, module).nnls


def _tight_set(h, nb, c, t, nonneg):
    """Masks of the tight planes W and zero coordinates B of the point
    nearest h in {f : H^T f <= t (, f >= 0)}.

    With y = f - h the constraints read G y >= g, G = [-H^T; I] and
    g = [c - t 1; -h] (identity rows in nonneg mode only), and min ||y||
    is the NNLS min ||E u - e_{m+1}|| over u >= 0, E = [G^T; g^T]: positive
    entries of u mark tight rows. Where h_i = 0 and no neighbor is negative,
    f_i = bound multiplier - (H alpha)_i stays 0, so i joins B outside the
    NNLS: its degenerate column [e_i; 0] can make the NNLS report infeasible.
    """
    m, k = nb.shape
    rows = (h != 0.0) | (nb < 0.0).any(axis=1) if nonneg else np.ones(m, dtype=bool)
    r = int(rows.sum())
    cols = k + r if nonneg else k
    e = np.zeros((r + 1, cols))
    np.negative(nb[rows] if nonneg else nb, out=e[:r, :k])  # every row in signed mode
    e[r, :k] = c - t
    if nonneg:
        np.fill_diagonal(e[:r, k:], 1.0)
        e[r, k:] = -h[rows]
    rhs = np.zeros(r + 1)
    rhs[r] = 1.0
    # At its iteration cap (info 3) the routine still returns a feasible u,
    # and the walk and the certificate judge the set it marks.
    u, _, _ = _nnls()(e, rhs, 3 * cols)
    zero = ~rows
    if nonneg:
        zero[rows] = u[k:] > 0.0
    return u[:k] > 0.0, zero


def _inside(problem, changes):
    """The inactive-ball answer of a nonneg problem, once certified, or None:
    h with every coordinate some neighbor touches set to 0, at t = 0, with
    uniform lam, lam_ball = 0 and nu = H lam."""
    h, nb = problem.reference, problem.neighbors
    f = np.where(nb.any(axis=1), 0.0, h)
    if not f.any() or float(np.square(h - f).sum()) >= problem.radius_sq:
        return None
    lam = np.full(problem.k, 1.0 / problem.k)
    answer = SubproblemSolution(f, 0.0, lam, 0.0, nb @ lam, changes)
    answer.residuals = kkt_residuals(problem, answer)
    return answer if answer.residuals.worst() <= _TOL else None


def solve_subproblem(problem):
    """Solve a TrustSubproblem exactly, certified by its KKT residuals.

    With s = c_max - t (c_max the largest h_j^T h), the nearest-point
    multipliers on a working set (W, B) are alpha = G^-1 (d + s 1), where
    G = H_W^T H_W over the free rows and d = H_W^T h - c_max; the squared
    distance a s^2 + 2 b s + q meets T' = T - ||h_B||^2 at one root. One NNLS
    gives the set at a start level. At a root lam = alpha / sum(alpha) and
    lam_ball = 1 / (2 sum(alpha)), and a candidate is returned once
    ``kkt_residuals``, dual feasibility included, are all within ``_TOL``
    (1e-8). Every set's root is certified before its event scan; only when
    it fails, or the set has none, does the scan run, and s walks toward the
    root. At the first event on the way (a multiplier or a slack reaching 0)
    the set changes, ties going to the lowest index, planes first. A failed
    root with no event before it, or a singular set, restarts the walk from
    an NNLS at the current level, and a nonneg restart first returns the
    inactive-ball answer if it is certified. ``iterations`` counts the
    working-set changes; after ``_MAX_CHANGES`` (100) the solve raises
    ``SolverStall`` carrying the last root the walk reached (or None): a
    failed root with an event before it is walked past, not carried.
    """
    h, nb, big_t, nonneg = problem.reference, problem.neighbors, problem.radius_sq, problem.nonneg
    k = problem.k
    c = nb.T @ h
    top = float(c.max())
    # f = (1 - sqrt(T)) h lies sqrt(T) from h with no correlation above
    # (1 - sqrt(T)) c_max: the root lies at or beyond s = sqrt(T) c_max. With
    # c_max <= 0 no plane is tight there, but the top one is at s = sqrt(T).
    s = math.sqrt(big_t) * (top if top > 0.0 else 1.0)
    tight = candidate = None
    for changes in range(_MAX_CHANGES + 1):
        if tight is None:  # the start, a singular set or a failed root
            # An inactive ball has no root; walks that certify never pay for this.
            if changes and nonneg and (inside := _inside(problem, changes)) is not None:
                return inside
            tight, zero = _tight_set(h, nb, c, top - s, nonneg)
        hw = nb[:, tight]
        hf, t_free = hw, big_t  # H_W on the free rows, T' (no zero row in signed mode)
        if nonneg:
            hf = np.where(zero[:, None], 0.0, hw)
            t_free = big_t - float(h[zero] @ h[zero])
        rhs = np.column_stack([np.ones(hw.shape[1]), hf.T @ h - top])
        try:
            x = np.linalg.solve(hf.T @ hf, rhs)  # alpha = x[:, 1] + s x[:, 0]
        except np.linalg.LinAlgError:  # a dependent set
            tight = None
            continue
        a, b = float(x[:, 0].sum()), float(x[:, 1].sum())  # sum(alpha) = b + a s
        q = float(rhs[:, 1] @ x[:, 1])
        disc = b * b - a * (q - t_free)
        p = hw @ x  # H_W alpha = p[:, 1] + s p[:, 0] on every row
        f0, f1 = h - p[:, 1], -p[:, 0]  # f = f0 + s f1
        if nonneg:
            f0[zero] = f1[zero] = 0.0
        if disc > 0.0:  # certify the set's root before any scan
            root = math.sqrt(disc)
            end = (t_free - q) / (b + root) if b > 0.0 else (root - b) / a
            total = b + a * end  # sum(alpha) at the root: sqrt(disc) up to rounding
            lam = np.zeros(k)
            lam[tight] = (x[:, 1] + end * x[:, 0]) / total
            nu = None
            if nonneg:
                nu = np.zeros(problem.m)
                nu[zero] = (p[zero, 1] + end * p[zero, 0] - h[zero]) / total
            at_root = SubproblemSolution(f0 + end * f1, top - end, lam, 0.5 / total, nu, changes)
            at_root.residuals = kkt_residuals(problem, at_root)
            if at_root.residuals.worst() <= _TOL:
                return at_root
        else:  # no root: walk to sum(alpha) = 0, or with no tight plane until an event
            end = -b / a if a > 0.0 else math.inf
        sign = 1.0 if end >= s else -1.0
        hv = nb.T @ np.column_stack([f0, f1])
        # One affine quantity per plane (alpha on W, the slack t - h_j^T f
        # off it) and per coordinate (the bound multiplier on B, f off it).
        v0, v1 = top - hv[:, 0], -1.0 - hv[:, 1]
        v0[tight], v1[tight] = x[:, 1], x[:, 0]
        if nonneg:
            v0 = np.concatenate([v0, np.where(zero, p[:, 1] - h, f0)])
            v1 = np.concatenate([v1, np.where(zero, p[:, 0], f1)])
        rate = sign * v1
        dist = np.full(v0.size, np.inf)
        np.divide(np.maximum(v0 + s * v1, 0.0), -rate, out=dist, where=rate < 0.0)
        event = int(np.argmin(dist))
        if dist[event] < abs(end - s):  # the set changes on the way to the root
            s += sign * dist[event]
            if event < k:
                tight[event] = not tight[event]
            else:
                zero[event - k] = not zero[event - k]
            continue
        s = end if math.isfinite(end) else s
        if disc > 0.0:  # the walk reached a root that failed
            candidate = at_root
        tight = None
    message = f"no certificate after {_MAX_CHANGES} working-set changes (tol {_TOL:.1e})"
    raise SolverStall(message, solution=candidate)
