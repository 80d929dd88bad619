"""Sparse-recovery applications: matching pursuit, sensing benchmarks, adaptation.

Three consumers of incoherent frames live here. ``omp`` is a plain orthogonal
matching pursuit with least-squares refits. ``run_cs_experiment`` measures
sparse recovery through a compressed-sensing pipeline y = F D a with a
designed or random sensing frame F. ``adapt_dictionary`` rotates a frame to
fit training data while preserving its coherence exactly (rotations leave the
Gram matrix unchanged).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NumericsFailure, RankDeficient
from .frames import Frame, mutual_coherence, random_unit_frame, unit_columns
from .linalg import least_squares, svd

_RESIDUAL_TOL = 1e-12


def omp(d, y, s):
    """Orthogonal matching pursuit: greedy s-sparse approximation of y.

    Parameters
    ----------
    d : (m, M) array_like
        Dictionary with unit-norm columns.
    y : (m,) array_like
        Target vector.
    s : int
        Sparsity budget, 0 <= s <= m.

    Returns
    -------
    (support, coefficients)
        Indices in selection order and the least-squares coefficients on
        them. Ties in the correlation step go to the lowest index. Stops
        early once the residual norm drops below 1e-12, and stops without
        adding a column that would make the selection rank deficient.
    """
    d = np.asarray(d, dtype=float)
    y = np.asarray(y, dtype=float)
    if d.ndim != 2:
        raise InvalidInput(f"dictionary must be 2-D, got shape {d.shape}")
    m = d.shape[0]
    if y.shape != (m,):
        raise InvalidInput(f"y must have shape ({m},), got {y.shape}")
    if not (0 <= s <= m):
        raise InvalidInput(f"sparsity must satisfy 0 <= s <= m, got s={s}, m={m}")
    if not (np.isfinite(d).all() and np.isfinite(y).all()):
        raise InvalidInput("non-finite entries in omp inputs")

    support: list[int] = []
    coef = np.zeros(0)
    residual = y.copy()
    for _ in range(s):
        if float(np.linalg.norm(residual)) < _RESIDUAL_TOL:
            break
        corr = d.T @ residual
        j = int(np.argmax(np.abs(corr)))
        if j in support:
            break
        try:
            x = least_squares(d[:, support + [j]], y)
        except RankDeficient:
            break
        support.append(j)
        coef = x
        residual = y - d[:, support] @ coef
    return np.asarray(support, dtype=int), coef


@dataclass(frozen=True)
class CsExperiment:
    """Configuration of a compressed-sensing recovery benchmark."""

    n_signal: int
    n_atoms: int
    sparsity: int
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.n_signal < 2 or self.n_atoms < self.n_signal:
            raise InvalidInput(
                f"need 2 <= N <= M, got N={self.n_signal}, M={self.n_atoms}"
            )
        if not (0 <= self.sparsity <= self.n_signal):
            raise InvalidInput(f"sparsity out of range: {self.sparsity}")
        if self.trials < 1:
            raise InvalidInput(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")


@dataclass
class CsResult:
    """Recovery statistics over all trials of one experiment."""

    experiment: CsExperiment
    sensing_coherence: float
    mean_error: float
    quantiles: dict
    support_rate: float
    errors: np.ndarray = field(repr=False)


# The benchmark baseline: a column-normalized Gaussian sensing frame.
random_sensing_frame = random_unit_frame


def run_cs_experiment(experiment, sensing):
    """Measure sparse recovery through a sensing frame.

    Each trial draws a fresh column-normalized Gaussian dictionary D of shape
    (N, M), an s-sparse coefficient vector a with Gaussian nonzeros on a
    uniform random support, and observes y = F D a. Recovery runs orthogonal
    matching pursuit on the column-normalized product F D, then scales the
    coefficients back. Trials use independently derived seeds, so the result
    is reproducible for a fixed experiment seed.

    Parameters
    ----------
    experiment : CsExperiment
    sensing : Frame
        Sensing frame with ``n_vectors == experiment.n_signal``.

    Returns
    -------
    CsResult
    """
    if not isinstance(sensing, Frame):
        raise InvalidInput("sensing must be a Frame")
    if sensing.n_vectors != experiment.n_signal:
        raise InvalidInput(
            f"sensing frame has {sensing.n_vectors} columns, "
            f"experiment wants {experiment.n_signal}"
        )
    n, m_atoms, s = experiment.n_signal, experiment.n_atoms, experiment.sparsity
    f_mat = sensing.vectors

    children = np.random.SeedSequence(experiment.seed).spawn(experiment.trials)
    errors = np.empty(experiment.trials)
    exact = 0
    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        d = unit_columns(rng.standard_normal((n, m_atoms)))
        support = rng.choice(m_atoms, size=s, replace=False)
        a = np.zeros(m_atoms)
        a[support] = rng.standard_normal(s)
        y = f_mat @ (d @ a)
        phi = f_mat @ d
        scales = np.linalg.norm(phi, axis=0)
        scales[scales < 1e-300] = 1.0
        sup_hat, coef = omp(phi / scales, y, s)
        a_hat = np.zeros(m_atoms)
        a_hat[sup_hat] = coef / scales[sup_hat]
        denom = float(a @ a)
        errors[t] = float((a - a_hat) @ (a - a_hat)) / denom if denom > 0.0 else 0.0
        if set(sup_hat.tolist()) == set(support.tolist()):
            exact += 1

    q25, q50, q75 = np.quantile(errors, [0.25, 0.5, 0.75])
    return CsResult(
        experiment=experiment,
        sensing_coherence=mutual_coherence(sensing),
        mean_error=float(errors.mean()),
        quantiles={"q25": float(q25), "q50": float(q50), "q75": float(q75)},
        support_rate=exact / experiment.trials,
        errors=errors,
    )


@dataclass
class AdaptationRun:
    """Outcome of coherence-preserving dictionary adaptation.

    ``error_trace[k]`` is ||Y - F_k X_k||_F / ||Y||_F after k rotations
    (entry 0 uses the initial frame). ``rotation`` accumulates the applied
    orthonormal factors, so ``adapted.vectors == rotation @ initial.vectors``
    up to roundoff.
    """

    initial: Frame
    adapted: Frame
    rotation: np.ndarray
    error_trace: list
    iterations: int
    rank_deficient_steps: list = field(default_factory=list)


def _sparse_codes(f_mat, y, s):
    """``omp(f_mat, y[:, j], s)`` for every column j, pursued together.

    Samples still pursuing after k picks all hold k atoms, so each step takes
    one product with the dictionary and one stacked SVD of their selections.
    The SVD applies lstsq's rank rule and gives the residual y - U U^T y.
    The coefficients come from the ``least_squares`` call omp's last refit
    makes, so the codes equal the per-column loop's bit for bit.
    """
    m, n = y.shape
    supports = np.zeros((n, s), dtype=int)
    sizes = np.zeros(n, dtype=int)
    active = np.arange(n)
    residual = y.T.copy()
    for k in range(s):
        going = np.linalg.norm(residual, axis=1) >= _RESIDUAL_TOL
        active, residual = active[going], residual[going]
        # A stack of matrix-vector products, not one matrix product: omp's
        # ``d.T @ residual`` rounds the same way, so exact ties (parallel
        # atoms) fall to the same index.
        picks = np.argmax(np.abs(f_mat.T @ residual[:, :, None]), axis=1)[:, 0]
        fresh = ~(supports[active, :k] == picks[:, None]).any(axis=1)
        active, picks = active[fresh], picks[fresh]
        if active.size == 0:
            break
        supports[active, k] = picks
        try:
            u, sv, _ = np.linalg.svd(f_mat.T[supports[active, : k + 1]].transpose(0, 2, 1),
                                     full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericsFailure(f"SVD did not converge: {exc}") from exc
        full_rank = sv[:, -1] > np.finfo(float).eps * max(m, k + 1) * sv[:, 0]
        active, u = active[full_rank], u[full_rank]
        sizes[active] = k + 1
        y_act = y.T[active]
        residual = y_act - np.einsum("imk,ik->im", u, np.einsum("imk,im->ik", u, y_act))
    x = np.zeros((f_mat.shape[1], n))
    for j in np.flatnonzero(sizes):
        sup = supports[j, : sizes[j]]
        x[sup, j] = least_squares(f_mat[:, sup], y[:, j])
    return x


def adapt_dictionary(y, frame, s, iterations):
    """Alternate sparse coding with the best rotation fitting the data.

    Each round solves the orthogonal Procrustes problem for Q minimizing
    ||Y - Q F X||_F (Q = U V^T from the SVD of Y X^T F^T), applies it to the
    frame, then recodes the data with matching pursuit at sparsity ``s``.
    Rotations cannot change the Gram matrix, so the frame's coherence is
    preserved to machine precision.

    Parameters
    ----------
    y : (m, n_samples) array_like
        Training data, columns are samples.
    frame : Frame
        Starting dictionary, m rows.
    s : int
        Sparsity per sample.
    iterations : int
        Number of rotation rounds (>= 0).

    Returns
    -------
    AdaptationRun
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] != frame.m or y.shape[1] < 1:
        raise InvalidInput(f"data must be ({frame.m}, n>=1), got shape {y.shape}")
    if not np.isfinite(y).all():
        raise InvalidInput("data contains non-finite entries")
    if not (0 <= s <= frame.m):
        raise InvalidInput(f"sparsity must satisfy 0 <= s <= m, got s={s}, m={frame.m}")
    if iterations < 0:
        raise InvalidInput(f"iterations must be >= 0, got {iterations}")
    y_norm = float(np.linalg.norm(y))
    if y_norm <= 0.0:
        raise InvalidInput("data matrix is all zeros")

    m = frame.m
    f_mat = np.array(frame.vectors, copy=True)
    rotation = np.eye(m)
    x = _sparse_codes(f_mat, y, s)
    trace = [float(np.linalg.norm(y - f_mat @ x)) / y_norm]
    rank_deficient = []

    for it in range(1, iterations + 1):
        u, sv, v = svd(y @ x.T @ f_mat.T)
        if sv[-1] <= 1e-12 * max(sv[0], 1e-300):
            # Zero singular directions: the SVD factors still complete the
            # basis orthonormally, so Q stays a rotation; just record it.
            rank_deficient.append(it)
        q = u @ v.T
        f_mat = q @ f_mat
        rotation = q @ rotation
        x = _sparse_codes(f_mat, y, s)
        trace.append(float(np.linalg.norm(y - f_mat @ x)) / y_norm)

    return AdaptationRun(
        initial=frame,
        adapted=Frame(f_mat),
        rotation=rotation,
        error_trace=trace,
        iterations=iterations,
        rank_deficient_steps=rank_deficient,
    )


def make_planted_dataset(frame, s, n_samples, noise, seed):
    """Synthetic adaptation data: a hidden rotation of the frame explains Y.

    Returns ``(y, q_true, x_true)`` with ``y = q_true @ frame.vectors @ x_true``
    plus Gaussian noise of scale ``noise``.
    """
    if n_samples < 1:
        raise InvalidInput(f"n_samples must be >= 1, got {n_samples}")
    if not (0 <= s <= frame.m):
        raise InvalidInput(f"sparsity out of range: {s}")
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    m, n = frame.m, frame.n_vectors
    raw = rng.standard_normal((m, m))
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.diag(r))  # deterministic orientation
    x = np.zeros((n, n_samples))
    for j in range(n_samples):
        sup = rng.choice(n, size=s, replace=False)
        x[sup, j] = rng.standard_normal(s)
    y = q @ frame.vectors @ x
    if noise > 0.0:
        y = y + noise * rng.standard_normal(y.shape)
    return y, q, x
