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
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, NumericsFailure, SolverStall
from .frames import _UNIT_TOL

# Absolute target for the duality gap and the primal infeasibility of every
# solve; a certified solution keeps each KKT residual within 10 * _TOL.
_TOL = 1e-8
_MAX_ITER = 100  # interior-point iteration cap
_MODULE = sys.modules[__name__]


def __getattr__(name):
    """Import LAPACK's ``dpotrf`` or ``dpotrs`` on first use.

    Importing ``scipy.linalg`` takes about 0.2 s and 30 MB, and only a solve
    needs it: ``analyze``, ``adapt`` and random-source ``cs-bench`` never
    factor anything. Each name loads alone, so a replacement set for one of
    them stays in place.
    """
    if name not in ("dpotrf", "dpotrs"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg import lapack

    value = globals()[name] = getattr(lapack, name)
    return value


@dataclass(frozen=True)
class TrustSubproblem:
    """One minimax step: reference vector, neighbor columns, squared radius.

    ``neighbors`` must have non-negative correlation with ``reference`` and
    the squared radius must satisfy ``0 < radius_sq < 1 - max_j (h_j^T h)^2``;
    ``design.subproblem(frame, i)`` builds a valid instance for any vector
    of a frame.
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
    fh = f - h
    stat_f = nb @ lam - nu + 2.0 * lam_ball * fh
    stat = max(float(np.abs(stat_f).max()), abs(1.0 - float(lam.sum())))

    g_lin = nb.T @ f - t
    g_ball = float(fh @ fh - problem.radius_sq)
    comp = float(np.abs(lam * g_lin).max())
    comp = max(comp, abs(lam_ball * g_ball))
    primal = max(0.0, float(g_lin.max()), g_ball)
    if nonneg:
        comp = max(comp, float(np.abs(nu * f).max()))
        primal = max(primal, float((-f).max()))
    return KktResiduals(stationarity=stat, complementarity=comp, primal=primal)


def _step_lengths(w, dw, p, out):
    """Largest step along ``dw`` keeping each half of ``w = (s, z) > 0`` non-negative.

    Returns ``(alpha_s, alpha_z)``, each ``inf`` when its half of ``dw`` has
    no negative entry. ``out`` is a work array of ``w``'s length.
    """
    # min over dw < 0 of -w/dw is -(max of w/dw): negation is exact, so this
    # is bit for bit the textbook ratio test. -0.0 and NaN entries of dw are
    # not negative and drop out.
    out.fill(-np.inf)
    np.divide(w, dw, out=out, where=dw < 0.0)
    return -float(np.maximum.reduce(out[:p])), -float(np.maximum.reduce(out[p:]))


def solve_subproblem(problem):
    """Solve a TrustSubproblem, certified to a duality gap of 1e-8.

    ``_TOL`` (1e-8) is the target for the gap and the primal infeasibility;
    a returned solution keeps every KKT residual within 10 * ``_TOL``. The
    solve has two exits: the interior-point loop returns a certified
    iterate, or it stops and raises ``SolverStall``.

    Returns
    -------
    SubproblemSolution
        With ``converged=True`` and residuals attached.

    Raises
    ------
    SolverStall
        If the IPM stops without a certificate. Its ``reason`` says why:
        ``"cap"`` after ``_MAX_ITER`` (100) iterations, ``"non-finite"`` for
        a non-finite normal matrix or corrector direction, and
        ``"factorization"`` when the normal matrix fails to factor. The
        exception carries the iterate the loop stopped at, with its gap.
    NumericsFailure
        If LAPACK rejects an argument, which no input data can cause.
    """
    dpotrf, dpotrs = _MODULE.dpotrf, _MODULE.dpotrs  # once per solve; see __getattr__
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
    ball_row = jac[-1, :m]

    # The iterate (x, s, z) is one array and each Newton direction (dx, ds,
    # dz) another of the same layout, so a step is one multiply-add and the
    # trailing 2p entries take one ratio test. Trial points, the start among
    # them, fill a second state array, copied in when accepted; the views
    # below stay valid.
    def split(v):
        return v[:n], v[n : n + p], v[n + p :]

    state = np.empty(n + 2 * p)
    trial_state = np.zeros(n + 2 * p)
    pred = np.empty(n + 2 * p)
    corr = np.empty(n + 2 * p)
    x, s, z = split(state)
    xt, st, zt = split(trial_state)
    pred_parts = split(pred)
    corr_parts = split(corr)

    # Per-solve work arrays; every iteration overwrites them in full.
    g = np.empty(p)
    r_p = np.empty(p)
    r_d = np.empty(n)
    d = np.empty(p)
    jac_d = np.empty((p, n))
    m_mat = np.empty((n, n))
    # One add of shift puts the ball Hessian and a 1e-12 jitter on the
    # diagonal, a strided view of the C-ordered product (dpotrf reads its lower triangle).
    diag = m_mat.reshape(-1)[:: n + 1]
    shift = np.full(n, 1e-12)
    sz = np.empty(p)
    target = np.empty(p)
    rc_s = np.empty(p)
    rhs = np.empty(p)
    rp2 = np.empty(p)
    steps = np.empty(n + 2 * p)
    ratios = np.empty(2 * p)

    # Products inside the iteration use ndarray.dot: it calls the same BLAS
    # routine as @ (ddot, dgemv or dgemm) at about half of @'s dispatch cost.
    def merit():
        """r_p, the gap and the merit (both residuals' 2-norms plus the gap) at trial_state."""
        np.add(g, st, out=r_p)
        gap = float(st.dot(zt))
        return gap, math.sqrt(r_p.dot(r_p)) + math.sqrt(r_d.dot(r_d)) + gap

    def evaluate():
        """g, the ball gradient in jac's last row and r_d at trial_state, then merit()."""
        # One product with jac's linear rows gives every plane and bound
        # value: a bound row's -1 and zeros give -f exactly.
        jac[:-1].dot(xt, out=g[:-1])
        np.subtract(xt[:m], h, out=ball_row)
        g[-1] = ball_row.dot(ball_row) - big_t
        np.multiply(ball_row, 2.0, out=ball_row)
        jac.T.dot(zt, out=r_d)
        r_d[m] += 1.0
        return merit()

    # Strictly interior start: shrink toward the center, lift t above all
    # planes. Slacks and multipliers follow each row's natural scale; the
    # ball row scales with the radius (its multiplier sits near 1/(2 sqrt T)
    # at the optimum), so tiny trust regions must not be floored at 1e-2.
    xt[:m] = (1.0 - 0.5 * math.sqrt(big_t)) * h
    xt[m] = float((nb.T @ xt[:m]).max()) + 1.0
    zt[:k] = 1.0 / k
    if nonneg:
        zt[k : k + m] = 0.5
    zt[-1] = 0.5 / math.sqrt(big_t)
    evaluate()  # slacks still zero: only g, a function of x, is used
    np.maximum(-g, 1e-2, out=st)
    st[-1] = max(-g[-1], 1e-2 * big_t)
    gap, phi = merit()
    state[:] = trial_state

    def newton(rp, rc, out):
        """Write the direction (dx, ds, dz) for primal residual rp and
        complementarity target rc into the views ``out``."""
        dx, ds, dz = out
        np.divide(rc, s, out=rc_s)
        np.multiply(d, rp, out=rhs)
        np.subtract(rc_s, rhs, out=rhs)
        jac.T.dot(rhs, out=dx)
        np.subtract(dx, r_d, out=dx)
        sol, info = dpotrs(factor, dx, lower=1, overwrite_b=1)
        if info < 0:
            raise NumericsFailure(f"dpotrs: illegal value in argument {-info}")
        dx[...] = sol  # overwrite_b permits an in-place solve but does not promise one
        # ds = -(rp + J dx) from the linearized constraints, and
        # dz = D (J dx + rp) - rc / s from the complementarity row.
        jac.dot(dx, out=ds)
        np.add(ds, rp, out=ds)
        np.multiply(d, ds, out=dz)
        np.subtract(dz, rc_s, out=dz)
        np.negative(ds, out=ds)

    def advance(a_p, a_d, direction):
        """trial_state = state + (a_p on x and s, a_d on z) * direction."""
        steps[: n + p] = a_p
        steps[n + p :] = a_d
        np.multiply(steps, direction, out=trial_state)
        np.add(state, trial_state, out=trial_state)

    reason = "cap"
    # A constant fraction to the boundary: a rule that moves it toward 1 as
    # mu falls lets a slack shrink 1e5-fold per iteration, until its weight
    # z/s reaches 1e22 and the normal matrix no longer factors.
    eta = 0.995

    # g, gap, phi, r_p, r_d and jac's last row all belong to the point in
    # state: it is the last point evaluated.
    for it in range(_MAX_ITER):
        if gap <= _TOL and float(np.abs(r_p).max()) <= _TOL:
            # Objective certified by the gap; accept once the full optimality
            # residuals sit safely inside the 10*_TOL contract. Ill-conditioned
            # instances can pin the dual residual slightly above _TOL while the
            # gap is already many orders below it. The optimum always sits on
            # the ball boundary, so also require the ball slack inside _TOL;
            # with a loose boundary the loop goes on.
            candidate = _package(problem, x, z, gap, it, True)
            if candidate.residuals.worst() <= 9.0 * _TOL and abs(g[-1]) <= _TOL:
                return candidate

        np.divide(z, s, out=d)
        np.multiply(jac, d[:, None], out=jac_d)
        jac_d.T.dot(jac, out=m_mat)
        # With d >= 0, a NaN or inf in any term d_i J_ij J_il of J^T D J also
        # reaches a diagonal term d_i J_ij^2: the diagonal shows it alone.
        if not np.isfinite(diag).all():
            reason = "non-finite"
            break
        shift[:m] = 2.0 * z[-1] + 1e-12
        np.add(diag, shift, out=diag)
        factor, info = dpotrf(m_mat, lower=1, clean=0)
        if info < 0:
            raise NumericsFailure(f"dpotrf: illegal value in argument {-info}")
        if info > 0:
            reason = "factorization"
            break

        mu = gap / p
        # Predictor: pure Newton step toward complementarity zero. The gap it
        # would reach, (s + a_s ds).(z + a_z dz), is expanded into three dots,
        # so no trial point is formed.
        np.multiply(s, z, out=sz)
        newton(r_p, sz, pred_parts)
        dx_a, ds_a, dz_a = pred_parts
        step_s, step_z = _step_lengths(state[n:], pred[n:], p, ratios)
        a_s, a_z = min(1.0, step_s), min(1.0, step_z)
        gap_aff = gap + a_z * float(s.dot(dz_a)) + a_s * float(ds_a.dot(z))
        mu_aff = (gap_aff + a_s * a_z * float(ds_a.dot(dz_a))) / p
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0.0 else 0.0

        # Corrector: complementarity second-order term plus recentring, and
        # the exact quadratic term of the ball row (its linearization error
        # is exactly ||df||^2), reusing the same factorization.
        np.copyto(rp2, r_p)
        rp2[-1] += float(dx_a[:m].dot(dx_a[:m]))
        np.multiply(ds_a, dz_a, out=target)
        np.add(sz, target, out=target)
        np.subtract(target, sigma * mu, out=target)
        newton(rp2, target, corr_parts)
        if not np.isfinite(corr).all():
            reason = "non-finite"
            break
        a_p, a_d = _step_lengths(state[n:], corr[n:], p, ratios)

        # Centering and second-order terms may raise the raw KKT residual a
        # little; that is normal. A blow-up means the step left the region
        # where the ball linearization is any good, so take the predictor
        # step instead, at the same fraction to the boundary. It is not
        # tested: a damped search on it gave up on near-tie instances, where
        # the full step goes on to certify.
        phi0 = phi
        advance(min(1.0, eta * a_p), min(1.0, eta * a_d), corr)
        gap, phi = evaluate()
        if not math.isfinite(phi) or phi > 10.0 * phi0 + _TOL:
            advance(min(1.0, eta * step_s), min(1.0, eta * step_z), pred)
            gap, phi = evaluate()
        state[:] = trial_state

    raise SolverStall(
        f"no certificate after {it + 1} iterations ({reason}; gap {gap:.3e}, tol {_TOL:.1e})",
        solution=_package(problem, x, z, gap, it + 1, False),
        reason=reason,
    )


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

