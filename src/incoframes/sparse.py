"""Sparse-recovery applications: matching pursuit, sensing benchmarks, adaptation.

Three consumers of incoherent frames live here. ``omp`` is the one pursuit:
it codes a target or a batch of them, against one dictionary or one per target.
``run_cs_experiment`` measures sparse recovery through a compressed-sensing
pipeline y = F D a with a designed or random sensing frame F.
``adapt_dictionary`` rotates a frame to fit training data while preserving its
coherence exactly (rotations leave the Gram matrix unchanged).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .frames import _require_ints, Frame, mutual_coherence, random_unit_frame, unit_columns
from .linalg import least_squares, svd

_RESIDUAL_TOL = 1e-12
# CS trials per pursuit: a fixed chunk bounds the stacked dictionaries' memory.
_CS_CHUNK = 8


def omp(d, y, s):
    """Orthogonal matching pursuit: greedy s-sparse approximations of targets.

    Parameters
    ----------
    d : (m, M) or (n, m, M) array_like
        One dictionary with unit-norm columns, or one per target.
    y : (m,) or (m, n) array_like
        One target, or one target per column.
    s : int
        Sparsity budget, 0 <= s <= m.

    Returns
    -------
    (support, coefficients)
        For a 1-D ``y``: the indices in selection order and the least-squares
        coefficients on them. For a 2-D ``y``: two lists whose entry j is
        column j's support and coefficients. Ties in the correlation step go
        to the lowest index. A target stops early once its residual norm drops
        below 1e-12, when it picks an atom it already holds, and without
        adding an atom that would make its selection rank deficient.

    Targets still going after k picks hold k atoms, so each step makes one
    stacked product and one stacked ``least_squares`` solve for all of them,
    after Batch-OMP (Rubinstein, Zibulevsky & Elad 2008).
    """
    d = np.asarray(d, dtype=float)
    y = np.asarray(y, dtype=float)
    if d.ndim not in (2, 3) or y.ndim not in (1, 2):
        raise InvalidInput(f"need a 2-D or 3-D d and a 1-D or 2-D y, got {d.shape}, {y.shape}")
    m = d.shape[-2]
    targets = y[:, None] if y.ndim == 1 else y
    n = d.shape[0] if d.ndim == 3 else targets.shape[1]
    if targets.shape != (m, n):
        raise InvalidInput(f"y must have shape ({m},) or ({m}, n) matching d, got {y.shape}")
    if not (0 <= s <= m):
        raise InvalidInput(f"sparsity must satisfy 0 <= s <= m, got s={s}, m={m}")
    if not (np.isfinite(d).all() and np.isfinite(y).all()):
        raise InvalidInput("non-finite entries in omp inputs")

    # Target j's dictionary is stack[which[j]].
    stack = d if d.ndim == 3 else d[None]
    which = np.arange(n) if d.ndim == 3 else np.zeros(n, dtype=int)
    supports = np.zeros((n, s), dtype=int)
    coefs = np.zeros((n, s))
    sizes = np.zeros(n, dtype=int)
    active = np.arange(n)
    residual = targets.T.copy()
    for k in range(s):
        going = np.linalg.norm(residual, axis=1) >= _RESIDUAL_TOL
        active, residual = active[going], residual[going]
        # np.unique: a shared dictionary broadcasts as one matrix, not one copy per target.
        atoms = stack[np.unique(which[active])]
        # A stack of matrix-vector products, not one matrix product: each
        # target's correlations round alike however many targets go along,
        # so exact ties (parallel atoms) fall to the same index.
        picks = np.argmax(np.abs(np.swapaxes(atoms, 1, 2) @ residual[:, :, None]), axis=1)[:, 0]
        fresh = ~(supports[active, :k] == picks[:, None]).any(axis=1)
        active, picks = active[fresh], picks[fresh]
        if active.size == 0:
            break
        supports[active, k] = picks
        chosen = np.swapaxes(stack[which[active, None], :, supports[active, : k + 1]], 1, 2)
        x, full_rank = least_squares(chosen, targets.T[active])
        active, chosen, x = active[full_rank], chosen[full_rank], x[full_rank]
        sizes[active] = k + 1
        coefs[active, : k + 1] = x
        residual = targets.T[active] - (chosen @ x[:, :, None])[:, :, 0]
    found = [supports[j, : sizes[j]] for j in range(n)]
    found_coefs = [coefs[j, : sizes[j]] for j in range(n)]
    return (found[0], found_coefs[0]) if y.ndim == 1 else (found, found_coefs)


def _codes(f_mat, y, s):
    """The (M, n) coefficient matrix of ``omp`` over every column of y, against
    one (m, M) dictionary or an (n, m, M) stack of them."""
    supports, coefs = omp(f_mat, y, s)
    x = np.zeros((f_mat.shape[-1], y.shape[1]))
    cols = np.repeat(np.arange(y.shape[1]), [c.size for c in coefs])
    x[np.concatenate(supports), cols] = np.concatenate(coefs)
    return x


@dataclass(frozen=True)
class CsExperiment:
    """Configuration of a compressed-sensing recovery benchmark."""

    n_signal: int
    n_atoms: int
    sparsity: int
    trials: int
    seed: int = 0

    def __post_init__(self):
        _require_ints(self, "n_signal", "n_atoms", "sparsity", "trials", "seed")
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
    coefficients back; a trial recovers its support when the estimate's
    nonzeros sit exactly on it. Trials use independently derived seeds, so
    the result is reproducible for a fixed experiment seed.

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
    truth = np.zeros((experiment.trials, m_atoms))
    estimate = np.empty_like(truth)
    for start in range(0, experiment.trials, _CS_CHUNK):
        chunk = range(start, min(start + _CS_CHUNK, experiment.trials))
        phis, ys = [], []
        for t in chunk:
            rng = np.random.default_rng(children[t])
            d = unit_columns(rng.standard_normal((n, m_atoms)))
            support = rng.choice(m_atoms, size=s, replace=False)
            truth[t, support] = rng.standard_normal(s)
            phis.append(f_mat @ d)
            ys.append(f_mat @ (d @ truth[t]))
        phis = np.array(phis)
        scales = np.linalg.norm(phis, axis=1)
        scales[scales < 1e-300] = 1.0
        estimate[start : chunk.stop] = _codes(phis / scales[:, None], np.column_stack(ys), s).T / scales

    # Row-wise dot products through matmul, which rounds like ``a @ a``.
    miss = truth - estimate
    power = (truth[:, None, :] @ truth[:, :, None])[:, 0, 0]
    errors = np.zeros(experiment.trials)
    np.divide((miss[:, None, :] @ miss[:, :, None])[:, 0, 0], power, out=errors, where=power > 0.0)

    q25, q50, q75 = np.quantile(errors, [0.25, 0.5, 0.75])
    return CsResult(
        experiment=experiment,
        sensing_coherence=mutual_coherence(sensing),
        mean_error=float(errors.mean()),
        quantiles={"q25": float(q25), "q50": float(q50), "q75": float(q75)},
        support_rate=float(((truth != 0.0) == (estimate != 0.0)).all(axis=1).mean()),
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
    rank_deficient_steps: list = field(default_factory=list)


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
    if iterations < 0:
        raise InvalidInput(f"iterations must be >= 0, got {iterations}")
    y_norm = float(np.linalg.norm(y))
    if y_norm <= 0.0:
        raise InvalidInput("data matrix is all zeros")

    m = frame.m
    f_mat = np.array(frame.vectors, copy=True)
    rotation = np.eye(m)
    x = _codes(f_mat, y, s)
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
        x = _codes(f_mat, y, s)
        trace.append(float(np.linalg.norm(y - f_mat @ x)) / y_norm)

    return AdaptationRun(
        initial=frame,
        adapted=Frame(f_mat),
        rotation=rotation,
        error_trace=trace,
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
    if not (np.isfinite(noise) and noise >= 0.0):
        raise InvalidInput(f"noise must be finite and >= 0, got {noise}")
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
