"""Dense linear-algebra kernels used by the frame-design pipeline.

Thin, validating wrappers around LAPACK via numpy. Every public function
checks its inputs for shape and finiteness and maps backend failures onto
the package exception types.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, NumericsFailure, RankDeficient

# Relative cutoff below which a singular value counts as zero.
_RANK_RTOL = 1e-12


class SvdResult(NamedTuple):
    """Thin SVD ``A = U @ diag(S) @ V.T`` with singular values descending."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def _as_matrix(a, name="a"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInput(f"{name} must be a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def svd(a):
    """Thin singular value decomposition of a real matrix.

    Parameters
    ----------
    a : (m, n) array_like
        Real matrix, all entries finite.

    Returns
    -------
    SvdResult
        ``U`` is (m, k), ``S`` is (k,) non-increasing and non-negative,
        ``V`` is (n, k) with ``k = min(m, n)``, so ``a = U @ np.diag(S) @ V.T``.
    """
    a = _as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # LAPACK non-convergence
        raise NumericsFailure(f"SVD did not converge: {exc}") from exc
    return SvdResult(U=u, S=s, V=vh.T)


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
    a = _as_matrix(a)
    m, n = a.shape
    if m > n:
        raise InvalidInput(f"unit_polar expects m <= n, got shape {a.shape}")
    u, s, v = svd(a)
    if s[0] <= 0.0 or s[-1] <= _RANK_RTOL * s[0]:
        raise RankDeficient(
            f"matrix is numerically rank deficient (smin/smax = {s[-1] / max(s[0], 1e-300):.3e})"
        )
    return u @ v.T


def least_squares(a, b):
    """Minimum-residual solution of an overdetermined full-rank system.

    Parameters
    ----------
    a : (m, k) array_like
        Coefficient matrix with k <= m and full column rank.
    b : (m,) or (m, r) array_like
        Right-hand side(s).

    Returns
    -------
    numpy.ndarray
        ``x`` minimizing ``||a @ x - b||_2``; the residual is orthogonal to
        the column span of ``a``.
    """
    a = _as_matrix(a)
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b).all():
        raise InvalidInput("b contains non-finite entries")
    if b.shape[0] != a.shape[0]:
        raise InvalidInput(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    if a.shape[1] > a.shape[0]:
        raise InvalidInput(f"least_squares expects k <= m, got shape {a.shape}")
    try:
        x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise NumericsFailure(f"least squares failed: {exc}") from exc
    if rank < a.shape[1]:
        raise RankDeficient(f"rank {rank} < {a.shape[1]} columns")
    if not np.isfinite(x).all():
        raise NumericsFailure("least-squares solution contains non-finite entries")
    return x
