"""Dense linear-algebra kernels used by the frame-design pipeline.

Thin, validating wrappers around LAPACK via numpy. Every public function
checks its inputs for shape and finiteness and maps backend failures onto
the package exception types.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInput, NumericsFailure, RankDeficient

# Relative cutoff below which a singular value counts as zero.
_RANK_RTOL = 1e-12


def _as_matrix(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInput(f"a must be a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("a contains non-finite entries")
    return a


def svd(a):
    """Thin singular value decomposition of a real matrix.

    Parameters
    ----------
    a : (m, n) array_like
        Real matrix, all entries finite.

    Returns
    -------
    (U, S, V)
        ``U`` is (m, k), ``S`` is (k,) non-increasing and non-negative,
        ``V`` is (n, k) with ``k = min(m, n)``, so ``a = U @ np.diag(S) @ V.T``.
    """
    a = _as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # LAPACK non-convergence
        raise NumericsFailure(f"SVD did not converge: {exc}") from exc
    return u, s, vh.T


def unit_polar(a):
    """Orthonormal polar factor of a wide full-rank matrix.

    For ``a`` of shape (m, n) with m <= n and rank m, returns the closest
    row-orthonormal matrix ``P = U @ V.T`` (from the thin SVD), the minimizer
    of ``||a - c P||_F`` over matrices with orthonormal rows for the optimal
    scale c.

    Raises
    ------
    InvalidInput
        If m > n or entries are non-finite.
    RankDeficient
        If the smallest singular value is below ``1e-12`` times the largest.
    """
    u, s, v = svd(a)
    if u.shape[0] > v.shape[0]:
        raise InvalidInput(f"unit_polar expects m <= n, got shape {np.shape(a)}")
    if s[0] <= 0.0 or s[-1] <= _RANK_RTOL * s[0]:
        raise RankDeficient(
            f"matrix is numerically rank deficient (smin/smax = {s[-1] / max(s[0], 1e-300):.3e})"
        )
    return u @ v.T


def least_squares(a, b):
    """Minimum-residual solutions of a stack of overdetermined systems.

    Parameters
    ----------
    a : (n, m, k) array_like
        Stack of coefficient matrices with 1 <= k <= m.
    b : (n, m) array_like
        One right-hand side per matrix.

    Returns
    -------
    (x, full_rank)
        ``x`` is (n, k); row i minimizes ``||a[i] @ x[i] - b[i]||_2``, so its
        residual is orthogonal to the column span of ``a[i]``. ``full_rank``
        is (n,) boolean, lstsq's rank rule from one stacked SVD: the smallest
        singular value exceeds ``eps * m`` times the largest. Rows of ``x``
        for rank-deficient matrices are zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 3 or a.shape[0] < 1 or not 1 <= a.shape[2] <= a.shape[1]:
        raise InvalidInput(f"a must be an (n, m, k) stack with n >= 1, 1 <= k <= m, got {a.shape}")
    n, m, k = a.shape
    if b.shape != (n, m):
        raise InvalidInput(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidInput("least-squares inputs contain non-finite entries")
    try:
        u, sv, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # LAPACK non-convergence
        raise NumericsFailure(f"SVD did not converge: {exc}") from exc
    full_rank = sv[:, -1] > np.finfo(float).eps * m * sv[:, 0]
    ub = np.zeros((n, k))
    np.divide((np.swapaxes(u, 1, 2) @ b[:, :, None])[:, :, 0], sv, out=ub,
              where=full_rank[:, None])
    x = (np.swapaxes(vh, 1, 2) @ ub[:, :, None])[:, :, 0]
    if not np.isfinite(x).all():
        raise NumericsFailure("least-squares solution contains non-finite entries")
    return x, full_rank
