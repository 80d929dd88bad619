"""Unit-norm frames: coherence metrics and tight-frame certificates.

A frame here is an m x N real matrix of unit-norm columns, m <= N. The metrics
of interest are the largest and the average absolute pairwise correlation, the
frame potential, and the Welch lower bound on the largest correlation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

_UNIT_TOL = 1e-10


def _frozen(a):
    """A read-only column-major float copy of ``a``; the caller's array stays theirs."""
    a = np.array(a, dtype=float, order="F")
    a.flags.writeable = False
    return a


def _require_ints(config, *names):
    """Raise ``InvalidInput`` unless each named field of ``config`` is an int (a bool is not)."""
    for name in names:
        value = getattr(config, name)
        if type(value) is not int:
            raise InvalidInput(f"{name} must be an integer, got {value!r}")


def _require_bool(name, value):
    """Raise ``InvalidInput`` unless ``value`` is a bool: a truthy string or int is not."""
    if type(value) is not bool:
        raise InvalidInput(f"{name} must be a bool, got {value!r}")


def unit_columns(a):
    """Return a copy of the matrix ``a`` with every column scaled to unit
    Euclidean norm. Any other rank raises ``InvalidInput``: a stack would be
    normalized across its first axis, not per column."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidInput(f"unit_columns needs a 2-D matrix, got shape {a.shape}")
    norms = np.linalg.norm(a, axis=0)
    if (norms <= 0.0).any() or not np.isfinite(norms).all():
        raise InvalidInput("cannot normalize a zero or non-finite column")
    return a / norms


@dataclass(frozen=True)
class Frame:
    """Immutable m x N matrix of unit-norm columns (2 <= m <= N)."""

    vectors: np.ndarray

    def __post_init__(self):
        v = _frozen(self.vectors)
        if v.ndim != 2:
            raise InvalidInput(f"frame must be a 2-D matrix, got shape {v.shape}")
        m, n = v.shape
        if m < 2 or n < m:
            raise InvalidInput(f"frame needs 2 <= m <= N, got m={m}, N={n}")
        if not np.isfinite(v).all():
            raise InvalidInput("frame contains non-finite entries")
        norms = np.linalg.norm(v, axis=0)
        bad = np.abs(norms - 1.0) > _UNIT_TOL
        if bad.any():
            raise InvalidInput(
                f"columns must be unit norm within {_UNIT_TOL:g}; "
                f"worst deviation {np.abs(norms - 1.0).max():.3e}"
            )
        object.__setattr__(self, "vectors", v)

    @property
    def m(self):
        return self.vectors.shape[0]

    @property
    def n_vectors(self):
        return self.vectors.shape[1]


@dataclass(frozen=True)
class FrameMetrics:
    """Scalar summary of a frame's correlation structure.

    ``sparsity_cap`` is the largest sparsity level with a uniqueness
    guarantee, ``floor((1/mu + 1) / 2)``; it is None when ``mu == 0``
    (orthonormal columns, no finite cap).
    """

    mu: float
    mu_avg: float
    frame_potential: float
    welch: float
    sparsity_cap: int | None


def welch_bound(m, n):
    """Lower bound on the peak |correlation| of any m x N unit-norm frame."""
    if m < 1 or n < m:
        raise InvalidInput(f"welch_bound needs 1 <= m <= N, got m={m}, N={n}")
    if n == m:
        return 0.0
    return math.sqrt((n - m) / (m * (n - 1)))


def random_unit_frame(m, n_vectors, seed):
    """Seeded random frame: column-normalized standard Gaussian entries.

    ``seed`` is anything ``numpy.random.default_rng`` accepts; a Generator is
    used as is and advanced by the draw.
    """
    rng = np.random.default_rng(seed)
    return Frame(unit_columns(rng.standard_normal((m, n_vectors))))


def correlations(v):
    """Gram matrix of the columns of ``v`` and its off-diagonal magnitudes.

    Returns ``(g, off)`` where ``off`` holds ``|g[i, j]|`` for ``i < j`` in
    row-major order. ``v`` is any 2-D array, not only ``Frame.vectors``.
    """
    g = v.T @ v
    return g, np.abs(g[np.triu_indices(v.shape[1], k=1)])


def mutual_coherence(frame):
    """Largest absolute inner product between distinct columns."""
    return float(correlations(frame.vectors)[1].max())


def frame_metrics(frame):
    """All scalar metrics of a frame in one pass.

    ``mu_avg`` is the mean |correlation| over distinct column pairs and
    ``frame_potential`` the squared Frobenius norm of the Gram matrix, at
    least N^2/m with equality iff the frame is tight.
    """
    g, off = correlations(frame.vectors)
    mu = float(off.max())
    # The cap is inclusive at the boundary; guard the floor against the
    # one-ulp overshoot when 1/mu lands on an integer (e.g. mu = 1/3).
    cap = None if mu == 0.0 else int(math.floor(0.5 * (1.0 / mu + 1.0) + 1e-9))
    return FrameMetrics(
        mu=mu,
        mu_avg=float(off.mean()),
        frame_potential=float((g * g).sum()),
        welch=welch_bound(frame.m, frame.n_vectors),
        sparsity_cap=cap,
    )


def make_simplex_etf(m):
    """Regular simplex frame: m x (m+1), every pairwise correlation equal to -1/m.

    Built from a Householder basis of the hyperplane orthogonal to the all-ones
    vector in R^(m+1), then column-normalized. The result is an equiangular
    tight frame attaining the Welch bound 1/m.
    """
    if m < 2:
        raise InvalidInput(f"simplex frame needs m >= 2, got {m}")
    k = m + 1
    w = np.full(k, 1.0 / math.sqrt(k))
    v = w - np.eye(k)[:, 0]
    h = np.eye(k) - 2.0 * np.outer(v, v) / (v @ v)
    # Columns 2..k of the reflector span the complement of the ones vector.
    f = h[:, 1:].T
    return Frame(unit_columns(f))


@dataclass(frozen=True)
class EtfCertificate:
    """Outcome of testing a frame for equiangular tightness.

    When both flags hold with coherence mu > ``tol`` the certificate also checks
    two structural identities of such frames around a reference column: the
    canonicalized neighbor Gram has the ones vector as an eigenvector with
    eigenvalue (N - m)/m, and every column's positive-minus-negative
    correlation-sign count equals the integer (N - 2m)/(m mu) + 1.
    """

    is_equiangular: bool
    is_tight: bool
    eigen_residual: float | None = None
    balance_value: float | None = None
    balance_ok: bool | None = None


def certify_etf(frame, tol=1e-6):
    """Certify whether ``frame`` is an equiangular tight frame at tolerance ``tol``."""
    if not (0.0 < tol <= 1e-2):
        raise InvalidInput(f"tol must be in (0, 1e-2], got {tol}")
    v = frame.vectors
    m, n = v.shape
    g, off = correlations(v)
    mu = float(off.max())
    spread = float(off.max() - off.min())
    is_eq = spread <= tol * max(mu, 1e-300) if mu > 0.0 else True
    tight_target = n / m
    tight_dev = float(np.abs(v @ v.T - tight_target * np.eye(m)).max())
    is_tight = tight_dev <= tol * tight_target

    if not (is_eq and is_tight and mu > tol):
        return EtfCertificate(is_equiangular=is_eq, is_tight=is_tight)

    # The Gram of the columns flipped so every correlation with column 0 is
    # non-negative, the orientation ``design.subproblem(frame, 0)`` builds.
    flip = np.where(g[:, 0] < 0.0, -1.0, 1.0)
    gc = g * flip[:, None] * flip[None, :]
    target = (n - m) / m
    eigen_residual = float(np.abs(gc[1:, 1:] @ np.ones(n - 1) - target).max())

    signs = np.sign(gc)
    np.fill_diagonal(signs, 0.0)
    balance = signs.sum(axis=0)  # N+ minus N- per column
    expected = (n - 2 * m) / (m * mu) + 1.0
    nearest = round(expected)
    balance_ok = bool(
        abs(expected - nearest) <= tol * max(1.0, abs(expected))
        and np.all(balance[1:] == nearest)
    )
    return EtfCertificate(
        is_equiangular=is_eq,
        is_tight=is_tight,
        eigen_residual=eigen_residual,
        balance_value=float(expected),
        balance_ok=balance_ok,
    )
