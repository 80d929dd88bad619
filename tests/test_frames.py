"""Frame container, metrics, and ETF certification."""
import math

import numpy as np
import pytest

from incoframes import (
    Frame,
    InvalidInput,
    certify_etf,
    frame_metrics,
    make_simplex_etf,
    mutual_coherence,
    welch_bound,
)
from incoframes.frames import correlations, unit_columns


def rotated(frame, seed=0):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((frame.m, frame.m)))[0]
    return Frame(unit_columns(q @ frame.vectors))


class TestFrameContainer:
    def test_valid_frame_roundtrip(self):
        rng = np.random.default_rng(0)
        v = unit_columns(rng.standard_normal((4, 9)))
        fr = Frame(v)
        assert fr.m == 4 and fr.n_vectors == 9
        assert np.allclose(fr.vectors, v)
        assert not fr.vectors.flags.writeable

    def test_caller_array_is_copied_not_frozen(self):
        # A float, column-major input is the layout a no-copy conversion aliases.
        rng = np.random.default_rng(2)
        v = np.asfortranarray(unit_columns(rng.standard_normal((4, 9))))
        fr = Frame(v)
        before = fr.vectors.copy()
        assert v.flags.writeable
        v[:, 0] = -v[:, 0]
        assert np.array_equal(fr.vectors, before)

    def test_gram_is_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(1)
        fr = Frame(unit_columns(rng.standard_normal((5, 11))))
        g, off = correlations(fr.vectors)
        assert np.allclose(g, g.T, atol=1e-14)
        assert np.allclose(np.diag(g), 1.0, atol=1e-12)
        assert np.array_equal(off, np.abs(g[np.triu_indices(11, k=1)]))

    def test_rejects_non_unit_columns(self):
        with pytest.raises(InvalidInput):
            Frame(np.ones((3, 4)))

    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(InvalidInput):
            Frame(np.eye(4)[:, :2])

    def test_rejects_non_finite(self):
        v = np.eye(3)
        v[0, 0] = np.inf
        with pytest.raises(InvalidInput):
            Frame(v)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)], ids=["vector", "stack"])
    def test_rejects_other_ranks(self, shape):
        with pytest.raises(InvalidInput, match="2-D"):
            Frame(np.ones(shape))


class TestUnitColumns:
    def test_columns_come_back_unit(self):
        v = unit_columns(np.random.default_rng(5).standard_normal((16, 24)))
        assert np.abs(np.linalg.norm(v, axis=0) - 1.0).max() < 1e-14

    @pytest.mark.parametrize("shape", [(11, 16, 24), (16,)], ids=["stack", "vector"])
    def test_rejects_other_ranks(self, shape):
        # A stack of dictionaries would be normalized across the stack, not
        # per column: its column norms came back between 1.2 and 1.3.
        with pytest.raises(InvalidInput):
            unit_columns(np.random.default_rng(5).standard_normal(shape))

    @pytest.mark.parametrize("entry", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
    def test_rejects_zero_or_non_finite_column(self, entry):
        a = np.ones((3, 4))
        a[:, 1] = 0.0
        a[0, 1] = entry
        with pytest.raises(InvalidInput, match="zero or non-finite"):
            unit_columns(a)


class TestWelchBound:
    def test_known_values(self):
        assert welch_bound(15, 30) == pytest.approx(0.1857, abs=5e-5)
        assert welch_bound(25, 50) == pytest.approx(0.1429, abs=5e-5)
        assert welch_bound(64, 128) == pytest.approx(0.0887, abs=5e-5)

    def test_formula(self):
        for m, n in [(3, 7), (10, 40), (2, 2)]:
            expect = math.sqrt((n - m) / (m * (n - 1))) if n > 1 else 0.0
            assert welch_bound(m, n) == pytest.approx(expect, abs=1e-15)

    def test_zero_for_square(self):
        assert welch_bound(6, 6) == 0.0

    @pytest.mark.parametrize("m, n", [(0, 3), (5, 4)], ids=["no-rows", "too-few-vectors"])
    def test_rejects_impossible_sizes(self, m, n):
        with pytest.raises(InvalidInput):
            welch_bound(m, n)

    def test_monotone_in_n(self):
        vals = [welch_bound(8, n) for n in range(8, 60)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


class TestMetrics:
    def test_orthonormal_frame(self):
        fm = frame_metrics(Frame(np.eye(5)))
        assert fm.mu == 0.0
        assert fm.mu_avg == 0.0
        assert fm.frame_potential == pytest.approx(5.0, abs=1e-12)
        assert fm.welch == 0.0
        assert fm.sparsity_cap is None

    def test_simplex_values(self):
        fr = make_simplex_etf(3)
        fm = frame_metrics(fr)
        assert fm.mu == pytest.approx(1 / 3, abs=1e-12)
        assert fm.mu_avg == pytest.approx(1 / 3, abs=1e-12)
        # Tight frame: potential attains N^2/m = 16/3.
        assert fm.frame_potential == pytest.approx(16 / 3, abs=1e-10)
        # floor((1/mu + 1)/2) with mu = 1/3.
        assert fm.sparsity_cap == 2

    def test_potential_never_below_minimum(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            fr = Frame(unit_columns(rng.standard_normal((6, 14))))
            assert frame_metrics(fr).frame_potential >= 14 * 14 / 6 - 1e-9

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        fr = Frame(unit_columns(rng.standard_normal((5, 12))))
        rot = rotated(fr, seed=5)
        a, b = frame_metrics(rot), frame_metrics(fr)
        assert mutual_coherence(rot) == pytest.approx(mutual_coherence(fr), abs=1e-10)
        assert a.mu_avg == pytest.approx(b.mu_avg, abs=1e-10)
        assert a.frame_potential == pytest.approx(b.frame_potential, abs=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        v = unit_columns(rng.standard_normal((4, 10)))
        perm = rng.permutation(10)
        a, b = frame_metrics(Frame(v)), frame_metrics(Frame(v[:, perm]))
        assert a.mu == pytest.approx(b.mu, abs=1e-14)
        assert a.mu_avg == pytest.approx(b.mu_avg, abs=1e-14)
        assert a.frame_potential == pytest.approx(b.frame_potential, abs=1e-10)

    def test_average_coherence_excludes_diagonal(self):
        # Two copies of a 2-vector frame at a known angle.
        c = math.cos(0.4)
        v = np.array([[1.0, c], [0.0, math.sin(0.4)]])
        fm = frame_metrics(Frame(v))
        assert fm.mu == pytest.approx(c, abs=1e-12)
        assert fm.mu_avg == pytest.approx(c, abs=1e-12)


class TestSimplexEtf:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_certified_for_all_sizes(self, m):
        fr = make_simplex_etf(m)
        assert fr.m == m and fr.n_vectors == m + 1
        cert = certify_etf(fr, tol=1e-9)
        assert cert.is_equiangular
        assert cert.is_tight
        assert frame_metrics(fr).mu == pytest.approx(1.0 / m, abs=1e-12)

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_gram_is_constant_off_diagonal(self, m):
        g, _ = correlations(make_simplex_etf(m).vectors)
        off = g[~np.eye(m + 1, dtype=bool)]
        assert np.allclose(np.abs(off), 1.0 / m, atol=1e-12)

    def test_eigen_identity_of_neighbor_gram(self, subtests=None):
        # For the simplex ETF the neighbor Gram around any column has the
        # all-ones vector as an eigenvector with eigenvalue (N - m)/m.
        for m in (3, 5, 8):
            fr = make_simplex_etf(m)
            cert = certify_etf(fr, tol=1e-9)
            assert cert.eigen_residual is not None
            assert cert.eigen_residual < 1e-10
            assert cert.balance_ok

    def test_rejects_tiny_dimension(self):
        with pytest.raises(InvalidInput):
            make_simplex_etf(1)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, 0.1])
    def test_rejects_tolerance_out_of_range(self, tol):
        with pytest.raises(InvalidInput, match="tol"):
            certify_etf(make_simplex_etf(3), tol=tol)

    def test_non_etf_is_rejected_by_certificate(self):
        rng = np.random.default_rng(10)
        fr = Frame(unit_columns(rng.standard_normal((4, 9))))
        cert = certify_etf(fr)
        assert not cert.is_equiangular

    def test_orthonormal_is_tight_not_flagged_equiangular_mu_zero(self):
        fr = Frame(np.eye(4))
        assert certify_etf(fr).is_tight
        assert frame_metrics(fr).mu == 0.0
