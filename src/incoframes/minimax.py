"""Convex minimax step for a single frame vector inside its trust region.

The step solves

    minimize_f   max_j  h_j^T f
    subject to   ||f - h||_2^2 <= T        (and optionally f >= 0)

where h is the current unit vector, the h_j are its (sign-canonicalized)
neighbors, and T < 1 - max_j(h_j^T h)^2 keeps the region clear of the
problematic caps. In epigraph form (variables x = (f, t), minimize t subject
to h_j^T f <= t and the ball constraint) this is a linearly-constrained
convex program with one quadratic inequality, solved here by a primal-dual
interior-point method with Mehrotra's predictor-corrector.

The multipliers are part of the contract: at an optimum

    H lam + 2 lam_ball (f - h) = 0,   sum(lam) = 1,   lam >= 0,
    t = 2 lam_ball (f^T h - ||f||^2),

and the ball constraint is active. ``kkt_residuals`` measures how well a
candidate solution satisfies that system.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import InvalidInput, SolverStall
from .frames import _UNIT_TOL


@dataclass(frozen=True)
class TrustSubproblem:
    """One minimax step: reference vector, neighbor columns, squared radius.

    ``neighbors`` must have non-negative correlation with ``reference``
    (callers canonicalize signs first) and the squared radius must satisfy
    ``0 < radius_sq < 1 - max_j (h_j^T h)^2``.
    """

    reference: np.ndarray
    neighbors: np.ndarray
    radius_sq: float
    nonneg: bool = False

    def __post_init__(self):
        h = np.asarray(self.reference, dtype=float)
        nb = np.asarray(self.neighbors, dtype=float)
        if h.ndim != 1 or h.size < 2:
            raise InvalidInput(f"reference must be a vector of length >= 2, got shape {h.shape}")
        if nb.ndim != 2 or nb.shape[0] != h.size or nb.shape[1] < 1:
            raise InvalidInput(f"neighbors must be (m, k) with k >= 1, got shape {nb.shape}")
        if not (np.isfinite(h).all() and np.isfinite(nb).all()):
            raise InvalidInput("non-finite entries in subproblem data")
        if abs(np.linalg.norm(h) - 1.0) > _UNIT_TOL:
            raise InvalidInput("reference vector must be unit norm")
        if np.abs(np.linalg.norm(nb, axis=0) - 1.0).max() > _UNIT_TOL:
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
        h = h.copy()
        nb = np.asfortranarray(nb)
        h.flags.writeable = False
        nb.flags.writeable = False
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
    """Max-norm residuals of the optimality system at a candidate point."""

    stationarity: float
    complementarity: float
    primal: float

    def worst(self):
        return max(self.stationarity, self.complementarity, self.primal)


@dataclass
class SubproblemSolution:
    """Primal-dual answer to a TrustSubproblem.

    ``lam`` holds the multipliers of the k neighbor constraints (summing to 1
    at an optimum), ``lam_ball`` the multiplier of the trust-region ball, and
    ``bound_lam`` the multipliers of the f >= 0 bounds when they are present.
    """

    f: np.ndarray
    t: float
    lam: np.ndarray
    lam_ball: float
    bound_lam: np.ndarray | None
    gap: float
    iterations: int
    converged: bool
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
    stat_f = nb @ lam - nu + 2.0 * lam_ball * (f - h)
    stat = max(float(np.abs(stat_f).max()), abs(1.0 - float(lam.sum())))

    g_lin = nb.T @ f - t
    g_ball = float(f @ f - 2.0 * (f @ h) + 1.0 - problem.radius_sq)
    comp = float(np.abs(lam * g_lin).max())
    comp = max(comp, abs(lam_ball * g_ball))
    primal = max(0.0, float(g_lin.max()), g_ball)
    if nonneg:
        comp = max(comp, float(np.abs(nu * f).max()))
        primal = max(primal, float((-f).max()))
    return KktResiduals(stationarity=stat, complementarity=comp, primal=primal)


def _max_step(v, dv):
    """Largest alpha with v + alpha*dv >= 0, assuming v > 0."""
    neg = dv < 0.0
    if not neg.any():
        return np.inf
    return float((-v[neg] / dv[neg]).min())


def solve_subproblem(problem, tol=1e-8, max_iter=100):
    """Solve a TrustSubproblem to a certified duality gap.

    Parameters
    ----------
    problem : TrustSubproblem
    tol : float
        Absolute target for the duality gap and the primal/dual infeasibility
        max-norms; must lie in (0, 1e-4].
    max_iter : int
        Interior-point iteration cap.

    Returns
    -------
    SubproblemSolution
        With ``converged=True`` and residuals attached.

    Raises
    ------
    SolverStall
        If the iteration cap is hit first; the exception carries the best
        iterate and its gap.
    """
    if not (0.0 < tol <= 1e-4):
        raise InvalidInput(f"tol must be in (0, 1e-4], got {tol}")
    if max_iter < 5:
        raise InvalidInput(f"max_iter must be >= 5, got {max_iter}")

    h = problem.reference
    nb = problem.neighbors
    big_t = problem.radius_sq
    nonneg = problem.nonneg
    m, k = problem.m, problem.k
    n = m + 1
    p = k + (m if nonneg else 0) + 1

    jac = np.zeros((p, n))
    jac[:k, :m] = nb.T
    jac[:k, m] = -1.0
    if nonneg:
        jac[k : k + m, :m] = -np.eye(m)
    c = np.zeros(n)
    c[m] = 1.0

    def constraints(x):
        f, t = x[:m], x[m]
        g = np.empty(p)
        g[:k] = nb.T @ f - t
        if nonneg:
            g[k : k + m] = -f
        g[-1] = f @ f - 2.0 * (f @ h) + 1.0 - big_t
        return g

    # Strictly interior start: shrink toward the center, lift t above all
    # planes. Slacks and multipliers follow each row's natural scale; the
    # ball row scales with the radius (its multiplier sits near 1/(2 sqrt T)
    # at the optimum), so tiny trust regions must not be floored at 1e-2.
    x = np.empty(n)
    x[:m] = (1.0 - 0.5 * math.sqrt(big_t)) * h
    x[m] = float((nb.T @ x[:m]).max()) + 1.0
    g = constraints(x)
    s = np.maximum(-g, 1e-2)
    s[-1] = max(-g[-1], 1e-2 * big_t)
    z = np.empty(p)
    z[:k] = 1.0 / k
    if nonneg:
        z[k : k + m] = 0.5
    z[-1] = 0.5 / math.sqrt(big_t)

    # Trial points form the dual residual from jac_fixed plus the ball gradient,
    # which differs from the loop top's jac.T @ z by rounding. The tail of the
    # damped line search tests phi_t against (1 - 1e-4*beta)*phi0 at rounding
    # level, so one shared formula would change which steps are accepted.
    def residual_norms(x, s, z):
        f = x[:m]
        g = constraints(x)
        r_p = g + s
        r_d = c + jac_fixed.T @ z + z[-1] * np.concatenate([2.0 * (f - h), [0.0]])
        return r_p, r_d, float(s @ z)

    jac_fixed = jac.copy()  # rows without the state-dependent ball gradient

    best = None
    best_merit = np.inf
    certified = None

    for it in range(max_iter):
        f = x[:m]
        jac[-1, :m] = 2.0 * (f - h)
        g = constraints(x)
        r_p = g + s
        r_d = c + jac.T @ z
        gap = float(s @ z)
        merit = max(gap, float(np.abs(r_p).max()), float(np.abs(r_d).max()))
        if merit < best_merit:
            best_merit = merit
            best = (x.copy(), z.copy(), gap)
        if gap <= tol and np.abs(r_p).max() <= tol:
            # Objective certified by the gap; accept once the full optimality
            # residuals sit safely inside the 10*tol contract. Ill-conditioned
            # instances can pin the dual residual slightly above tol while the
            # gap is already many orders below it. The optimum always sits on
            # the ball boundary, so also require the ball slack inside tol;
            # a gap-certified iterate with a loose boundary is kept as a
            # fallback in case the cap runs out first.
            candidate = _package(problem, x, z, gap, it, True)
            if candidate.residuals.worst() <= 9.0 * tol:
                if abs(g[-1]) <= tol:
                    return candidate
                certified = candidate

        d = z / s
        m_mat = (jac * d[:, None]).T @ jac
        m_mat[:m, :m] += (2.0 * z[-1]) * np.eye(m)
        factor = None
        for jitter in (1e-12, 1e-9, 1e-6):
            try:
                factor = scipy.linalg.cho_factor(m_mat + jitter * np.eye(n), lower=True)
                break
            except scipy.linalg.LinAlgError:
                continue
        if factor is None:
            break

        def newton(rp, rc):
            """Direction (dx, ds, dz) for primal residual rp and complementarity target rc."""
            dx = scipy.linalg.cho_solve(factor, -(r_d + jac.T @ (d * rp - rc / s)))
            dz = d * (jac @ dx + rp) - rc / s
            return dx, -(rc + s * dz) / z, dz

        mu = gap / p
        # Predictor: pure Newton step toward complementarity zero.
        dx_a, ds_a, dz_a = newton(r_p, s * z)
        a_p = min(1.0, _max_step(s, ds_a))
        a_d = min(1.0, _max_step(z, dz_a))
        mu_aff = float((s + a_p * ds_a) @ (z + a_d * dz_a)) / p
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0.0 else 0.0

        # Corrector: complementarity second-order term plus recentring, and
        # the exact quadratic term of the ball row (its linearization error
        # is exactly ||df||^2), reusing the same factorization.
        rp2 = r_p.copy()
        rp2[-1] += float(dx_a[:m] @ dx_a[:m])
        dx, ds, dz = newton(rp2, s * z + ds_a * dz_a - sigma * mu)

        eta = min(0.99999, max(0.995, 1.0 - 10.0 * mu))
        a_p = min(1.0, eta * _max_step(s, ds))
        a_d = min(1.0, eta * _max_step(z, dz))
        if not (np.isfinite(dx).all() and np.isfinite(ds).all() and np.isfinite(dz).all()):
            break

        # Centering and second-order terms may raise the raw KKT residual a
        # little; that is normal. A blow-up means the step left the region
        # where the ball linearization is any good, so fall back to a damped
        # pure Newton step, which is a certified descent direction for the
        # residual: the predictor direction, whose inputs are unchanged.
        phi0 = float(np.linalg.norm(r_p)) + float(np.linalg.norm(r_d)) + gap
        xt = x + a_p * dx
        st = s + a_p * ds
        zt = z + a_d * dz
        rp_t, rd_t, gap_t = residual_norms(xt, st, zt)
        phi_t = float(np.linalg.norm(rp_t)) + float(np.linalg.norm(rd_t)) + gap_t
        if not np.isfinite(phi_t) or phi_t > 10.0 * phi0 + tol:
            dx, ds, dz = dx_a, ds_a, dz_a
            a_p = min(1.0, eta * _max_step(s, ds))
            a_d = min(1.0, eta * _max_step(z, dz))
            beta = 1.0
            for _ in range(40):
                xt = x + beta * a_p * dx
                st = s + beta * a_p * ds
                zt = z + beta * a_d * dz
                rp_t, rd_t, gap_t = residual_norms(xt, st, zt)
                phi_t = float(np.linalg.norm(rp_t)) + float(np.linalg.norm(rd_t)) + gap_t
                if np.isfinite(phi_t) and phi_t <= (1.0 - 1e-4 * beta) * phi0:
                    break
                beta *= 0.5
            else:
                break
        x = xt
        s = st
        z = zt

    bx, bz, bgap = best
    polished = _polish(problem, bx, bz, tol, it + 1)
    if polished is not None:
        return polished
    if certified is not None:
        # The objective was certified but the boundary never tightened
        # within the cap; the certificate still stands.
        return certified
    partial = _package(problem, bx, bz, bgap, it + 1, False)
    raise SolverStall(
        f"no certificate after {it + 1} iterations (gap {bgap:.3e}, tol {tol:.1e})",
        solution=partial,
        gap=bgap,
    )


def _polish(problem, x, z, tol, iterations):
    """Active-set Newton cleanup from a near-converged interior iterate.

    The condensed step equations square the conditioning of the constraint
    Jacobian, which on hard instances floors the reachable residual a shade
    above tol. Solving the optimality system restricted to the active set
    has no such squaring, so a few Newton steps from the interior iterate
    reach machine accuracy whenever the active-set guess is right. Returns
    None when the guess cannot be validated.
    """
    m, k = problem.m, problem.k
    h = problem.reference
    nb = problem.neighbors
    big_t = problem.radius_sq
    nonneg = problem.nonneg

    f = x[:m].copy()
    t = float(x[m])
    w = max(float(z[-1]), 1e-12)
    lam_full = np.maximum(z[:k].copy(), 0.0)
    nu_full = np.maximum(z[k : k + m].copy(), 0.0) if nonneg else np.zeros(m)

    # Guess activity by comparing each multiplier against its slack; the
    # products are tiny near the optimum so the split is unambiguous.
    g_lin = nb.T @ f - t
    act = lam_full >= -g_lin
    if not act.any():
        act[int(np.argmax(g_lin))] = True
    act_b = (nu_full >= f) if nonneg else np.zeros(m, dtype=bool)

    for _ in range(4):
        a_idx = np.flatnonzero(act)
        b_idx = np.flatnonzero(act_b)
        na = nb[:, a_idx]
        a, b = a_idx.size, b_idx.size
        lam = lam_full[a_idx].copy()
        nu = nu_full[b_idx].copy()
        dim = m + 1 + a + b + 1
        b_rows = m + 1 + a + np.arange(b)  # rows and columns of the bound multipliers

        res_inf = np.inf
        for _ in range(25):
            r1 = na @ lam + 2.0 * w * (f - h)
            r1[b_idx] -= nu
            r5 = float(f @ f - 2.0 * (f @ h) + 1.0 - big_t)
            res = np.concatenate([r1, [1.0 - lam.sum()], na.T @ f - t, f[b_idx], [r5]])
            res_inf = float(np.abs(res).max())
            if res_inf <= 1e-14:
                break
            # A wrong active-set guess can send Newton off to infinity;
            # give up on this polish rather than chase it.
            if not np.isfinite(res_inf) or res_inf > 1e8:
                return None
            jmat = np.zeros((dim, dim))
            jmat[:m, :m] = (2.0 * w) * np.eye(m)
            jmat[:m, m + 1 : m + 1 + a] = na
            jmat[b_idx, b_rows] = -1.0
            jmat[:m, -1] = 2.0 * (f - h)
            jmat[m, m + 1 : m + 1 + a] = -1.0
            jmat[m + 1 : m + 1 + a, :m] = na.T
            jmat[m + 1 : m + 1 + a, m] = -1.0
            jmat[b_rows, b_idx] = 1.0
            jmat[-1, :m] = 2.0 * (f - h)
            try:
                du = np.linalg.lstsq(jmat, -res, rcond=None)[0]
            except np.linalg.LinAlgError:
                return None
            f = f + du[:m]
            t = t + float(du[m])
            lam = lam + du[m + 1 : m + 1 + a]
            nu = nu + du[m + 1 + a : m + 1 + a + b]
            w = w + float(du[-1])
        if res_inf > 1e-12 or w < 0.0:
            return None

        # Wrong-sign multipliers mean a plane was guessed active that is
        # not; violated inactive planes mean the opposite. Fix the set and
        # run Newton again, a few rounds at most.
        lam_full[:] = 0.0
        lam_full[a_idx] = lam
        nu_full[:] = 0.0
        nu_full[b_idx] = nu  # b_idx is empty in signed mode
        if lam.size and float(lam.min()) < -1e-9:
            act[a_idx[int(np.argmin(lam))]] = False
            lam_full = np.maximum(lam_full, 0.0)
            continue
        if nu.size and float(nu.min()) < -1e-9:
            act_b[b_idx[int(np.argmin(nu))]] = False
            nu_full = np.maximum(nu_full, 0.0)
            continue
        g_lin = nb.T @ f - t
        if (~act).any() and float(g_lin[~act].max()) > 1e-10:
            act[int(np.argmax(np.where(act, -np.inf, g_lin)))] = True
            continue
        if nonneg and (~act_b).any() and float(f[~act_b].min()) < -1e-10:
            act_b[int(np.argmin(np.where(act_b, np.inf, f)))] = True
            continue

        p = k + (m if nonneg else 0) + 1
        z_full = np.zeros(p)
        z_full[:k] = np.maximum(lam_full, 0.0)
        if nonneg:
            z_full[k : k + m] = np.maximum(nu_full, 0.0)
        z_full[-1] = w
        g_ball = float(f @ f - 2.0 * (f @ h) + 1.0 - big_t)
        gap = float(np.abs(g_lin * z_full[:k]).sum()) + abs(g_ball) * w
        if nonneg:
            gap += float(np.abs(f * z_full[k : k + m]).sum())
        sol = _package(problem, np.concatenate([f, [t]]), z_full, gap, iterations, True)
        if sol.residuals.worst() <= 9.0 * tol and abs(g_ball) <= tol:
            return sol
        return None
    return None


def _package(problem, x, z, gap, iterations, converged):
    m, k = problem.m, problem.k
    f = x[:m].copy()
    t = float(x[m])
    lam = z[:k].copy()
    bound_lam = z[k : k + m].copy() if problem.nonneg else None
    lam_ball = float(z[-1])
    sol = SubproblemSolution(
        f=f,
        t=t,
        lam=lam,
        lam_ball=lam_ball,
        bound_lam=bound_lam,
        gap=float(gap),
        iterations=int(iterations),
        converged=bool(converged),
    )
    sol.residuals = kkt_residuals(problem, sol)
    return sol

