"""Linear-algebra kernel checks against slow, independent oracles."""
import numpy as np
import pytest

from incoframes import InvalidInput, RankDeficient
from incoframes.linalg import SvdResult, least_squares, svd, unit_polar


def jacobi_eigenvalues(s, tol=1e-13, max_sweeps=60):
    """Cyclic Jacobi eigenvalue iteration for a symmetric matrix.

    Deliberately independent of LAPACK: plain two-sided rotations applied
    until the off-diagonal mass is tiny. Returns eigenvalues sorted
    descending.
    """
    a = np.array(s, dtype=float, copy=True)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, sn = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = sn
                rot[q, p] = -sn
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


class TestSvd:
    def test_reconstructs_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 12))
        u, s, v = svd(a)
        assert np.allclose(u @ np.diag(s) @ v.T, a, atol=1e-12)
        assert np.allclose(u.T @ u, np.eye(7), atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(7), atol=1e-12)
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all(s >= 0.0)

    def test_result_type_is_named(self):
        a = np.eye(3)
        res = svd(a)
        assert isinstance(res, SvdResult)
        assert np.allclose(res.S, 1.0)

    def test_singular_values_match_jacobi_oracle(self):
        # Independent route: eigenvalues of A A^T via cyclic Jacobi rotations.
        rng = np.random.default_rng(7)
        for m, n in [(4, 9), (6, 6), (5, 20)]:
            a = rng.standard_normal((m, n))
            s_fast = svd(a).S
            eigs = jacobi_eigenvalues(a @ a.T)
            s_slow = np.sqrt(np.clip(eigs, 0.0, None))
            assert np.allclose(s_fast, s_slow, rtol=1e-9, atol=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInput):
            svd(np.array([1.0, 2.0]))
        with pytest.raises(InvalidInput):
            svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))


class TestUnitPolar:
    def test_rows_are_orthonormal(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 15))
        p = unit_polar(a)
        assert p.shape == a.shape
        assert np.allclose(p @ p.T, np.eye(6), atol=1e-12)

    def test_is_closest_row_orthonormal_matrix(self):
        # The polar factor minimizes ||a - P||_F over orthonormal-row P.
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 10))
        p = unit_polar(a)
        best = np.linalg.norm(a - p)
        for trial in range(100):
            # Mix of far-away candidates and small perturbations of p.
            scale = 1.0 if trial % 2 == 0 else 0.05
            q = unit_polar(p + scale * rng.standard_normal(a.shape))
            assert np.linalg.norm(a - q) >= best - 1e-10

    def test_square_orthonormal_fixed_point(self):
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        assert np.allclose(unit_polar(q), q, atol=1e-12)

    def test_rank_deficient_raises(self):
        a = np.ones((3, 8))
        with pytest.raises(RankDeficient):
            unit_polar(a)

    def test_tall_matrix_rejected(self):
        with pytest.raises(InvalidInput):
            unit_polar(np.ones((5, 3)))


class TestLeastSquares:
    def test_normal_equations_hold(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((20, 5))
        b = rng.standard_normal(20)
        x = least_squares(a, b)
        # Residual orthogonal to the column span.
        assert np.abs(a.T @ (a @ x - b)).max() < 1e-10

    def test_matches_pseudoinverse(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 4))
        b = rng.standard_normal((12, 3))
        x = least_squares(a, b)
        assert np.allclose(x, np.linalg.pinv(a) @ b, atol=1e-10)

    def test_exact_system_recovered(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((9, 3))
        x_true = rng.standard_normal(3)
        x = least_squares(a, a @ x_true)
        assert np.allclose(x, x_true, atol=1e-10)

    def test_rank_deficient_raises(self):
        a = np.ones((6, 2))
        with pytest.raises(RankDeficient):
            least_squares(a, np.ones(6))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            least_squares(np.ones((4, 2)), np.ones(5))
        with pytest.raises(InvalidInput):
            least_squares(np.ones((2, 4)), np.ones(2))
