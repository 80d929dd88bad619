"""Trust-region minimax subproblem: solver, optimality system, stall test."""
import math

import numpy as np
import pytest

from incoframes import (
    DesignConfig,
    Frame,
    InvalidInput,
    SolverStall,
    TrustSubproblem,
    canonicalize_signs,
    choose_radius,
    initialize,
    kkt_residuals,
    make_simplex_etf,
    solve_subproblem,
    sweep,
    unit_columns,
)


def subproblem_for(frame, i, slack=1e-4, max_neighbors=None):
    """Canonicalize around column i and build its trust-region instance."""
    canon, _ = canonicalize_signs(frame, i)
    radius = choose_radius(canon, i, slack)
    h = canon.vectors[:, i]
    nb = np.delete(canon.vectors, i, axis=1)
    if max_neighbors is not None and nb.shape[1] > max_neighbors:
        order = np.argsort(-(nb.T @ h))
        nb = nb[:, order[:max_neighbors]]
    return TrustSubproblem(reference=h, neighbors=nb, radius_sq=radius)


def harvested_frames(m, n, seed, run_in_sweeps=2):
    """Frames two sweeps into a real design run: realistic solver inputs."""
    cfg = DesignConfig(m=m, n_vectors=n, seed=seed)
    frame = initialize(cfg)
    rng = np.random.default_rng(seed + 1000)
    for _ in range(run_in_sweeps):
        frame, _ = sweep(frame, cfg, rng)
    return frame


def brute_force_circle(problem, grid=1e-3):
    """2-D oracle: scan the trust-circle boundary at ``grid`` resolution."""
    assert problem.m == 2
    h = problem.reference
    r = math.sqrt(problem.radius_sq)
    psi = np.arange(0.0, 2.0 * math.pi, grid)
    f = h[:, None] + r * np.vstack([np.cos(psi), np.sin(psi)])
    vals = (problem.neighbors.T @ f).max(axis=0)
    best = int(np.argmin(vals))
    return float(vals[best]), f[:, best]


class TestClosedForms:
    def test_simplex_etf_solution(self):
        # Around any vector of the simplex ETF all correlations tie at 1/m,
        # so the optimum shrinks the vector straight toward the origin.
        frame = make_simplex_etf(3)
        prob = subproblem_for(frame, 0)
        sol = solve_subproblem(prob)
        root = math.sqrt(prob.radius_sq)
        assert sol.converged
        assert np.abs(sol.f - (1.0 - root) * prob.reference).max() < 1e-6
        assert sol.t == pytest.approx((1.0 - root) / 3.0, abs=1e-6)
        assert np.abs(sol.lam - 1.0 / 3.0).max() < 1e-6
        # Ball multiplier from stationarity along the reference direction.
        assert sol.lam_ball == pytest.approx((1.0 / 3.0) / (2.0 * root), abs=1e-6)
        assert sol.residuals.worst() < 1e-7

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_simplex_etf_all_sizes(self, m):
        frame = make_simplex_etf(m)
        prob = subproblem_for(frame, 1)
        sol = solve_subproblem(prob)
        root = math.sqrt(prob.radius_sq)
        assert np.abs(sol.f - (1.0 - root) * prob.reference).max() < 1e-8
        assert sol.t == pytest.approx((1.0 - root) / m, abs=1e-8)

    def test_single_orthogonal_neighbor(self):
        # One neighbor at ninety degrees: walk straight away from it along
        # the boundary, objective -sqrt(T).
        radius = 0.75
        prob = TrustSubproblem(
            reference=np.array([1.0, 0.0]),
            neighbors=np.array([[0.0], [1.0]]),
            radius_sq=radius,
        )
        sol = solve_subproblem(prob)
        assert sol.t == pytest.approx(-math.sqrt(radius), abs=1e-7)
        assert np.allclose(sol.f, [1.0, -math.sqrt(radius)], atol=1e-7)
        assert sol.lam[0] == pytest.approx(1.0, abs=1e-8)


class TestBruteForce2d:
    def test_matches_circle_scan(self):
        rng = np.random.default_rng(11)
        checked = 0
        for seed in range(40):
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=rng.integers(2, 6)))
            v = np.vstack([np.cos(angles), np.sin(angles)])
            frame = Frame(unit_columns(v))
            for i in range(frame.n_vectors):
                try:
                    prob = subproblem_for(frame, i, max_neighbors=4)
                except InvalidInput:
                    continue  # nearly duplicated directions
                sol = solve_subproblem(prob)
                t_grid, _ = brute_force_circle(prob)
                assert sol.t <= t_grid + 1e-7  # solver at least as good, up to gap tol
                assert abs(sol.t - t_grid) < 2e-3
                checked += 1
            if checked >= 60:
                break
        assert checked >= 60


class TestOptimalityProperties:
    @pytest.mark.parametrize("m,n", [(2, 5), (8, 20), (15, 30)])
    def test_kkt_boundary_and_norm_law(self, m, n):
        frame = harvested_frames(m, n, seed=m)
        tol = 1e-8
        solved = 0
        for i in range(1, frame.n_vectors):
            prob = subproblem_for(frame, i)
            sol = solve_subproblem(prob, tol=tol)
            assert sol.converged
            assert sol.residuals.worst() <= 10.0 * tol
            # Trust ball active at the optimum.
            dist_sq = float(np.sum((sol.f - prob.reference) ** 2))
            assert abs(dist_sq - prob.radius_sq) < 1e-8
            # Multipliers form a probability vector.
            assert sol.lam.min() >= -1e-9
            assert sol.lam.sum() == pytest.approx(1.0, abs=1e-8)
            if sol.t > 1e-9:
                # Norm law: the solution norm is the smaller root of
                # x^2 - 2x cos(theta) + (1 - T) = 0 with theta the angle
                # between the solution and the reference.
                norm = float(np.linalg.norm(sol.f))
                cos_theta = float(sol.f @ prob.reference) / norm
                root = cos_theta - math.sqrt(
                    max(cos_theta**2 - 1.0 + prob.radius_sq, 0.0)
                )
                assert abs(norm - root) < 1e-6
                # And it lies in the guaranteed bracket.
                rt = math.sqrt(prob.radius_sq)
                assert 1.0 - rt - 1e-9 <= norm <= math.sqrt(1.0 - prob.radius_sq) + 1e-9
            solved += 1
        assert solved == frame.n_vectors - 1

    def test_objective_improves_on_reference(self):
        # The step never does worse than keeping the current vector.
        frame = harvested_frames(6, 18, seed=3)
        for i in (1, 5, 11, 17):
            prob = subproblem_for(frame, i)
            before = float((prob.neighbors.T @ prob.reference).max())
            sol = solve_subproblem(prob)
            assert sol.t < before

    def test_recomputed_residuals_match_reported(self):
        frame = harvested_frames(5, 12, seed=9)
        prob = subproblem_for(frame, 4)
        sol = solve_subproblem(prob)
        again = kkt_residuals(prob, sol)
        assert again.worst() == pytest.approx(sol.residuals.worst(), abs=1e-12)


class TestNonnegativeVariant:
    def test_solution_stays_nonnegative(self):
        rng = np.random.default_rng(21)
        v = unit_columns(np.abs(rng.standard_normal((6, 15))))
        frame = Frame(v)
        corr = v.T @ v[:, 2]
        corr[2] = -1.0
        gmax = float(corr.max())
        prob = TrustSubproblem(
            reference=v[:, 2],
            neighbors=np.delete(v, 2, axis=1),
            radius_sq=(1.0 - 1e-4) * (1.0 - gmax * gmax),
            nonneg=True,
        )
        sol = solve_subproblem(prob)
        assert sol.converged
        assert sol.f.min() >= -1e-8
        assert sol.bound_lam is not None
        assert sol.bound_lam.min() >= -1e-9
        assert sol.residuals.worst() <= 1e-7

    def test_nonneg_no_worse_than_projected_unconstrained(self):
        rng = np.random.default_rng(22)
        v = unit_columns(np.abs(rng.standard_normal((4, 9))))
        corr = v.T @ v[:, 1]
        corr[1] = -1.0
        gmax = float(corr.max())
        radius = (1.0 - 1e-4) * (1.0 - gmax * gmax)
        nb = np.delete(v, 1, axis=1)
        sol_free = solve_subproblem(TrustSubproblem(v[:, 1], nb, radius))
        sol_nn = solve_subproblem(TrustSubproblem(v[:, 1], nb, radius, nonneg=True))
        # Adding constraints cannot improve the optimum.
        assert sol_nn.t >= sol_free.t - 1e-9


class TestValidationAndFailure:
    def test_rejects_non_unit_reference(self):
        with pytest.raises(InvalidInput):
            TrustSubproblem(np.array([2.0, 0.0]), np.array([[0.0], [1.0]]), 0.5)

    def test_rejects_negative_correlations(self):
        with pytest.raises(InvalidInput):
            TrustSubproblem(np.array([1.0, 0.0]), np.array([[-0.6], [0.8]]), 0.3)

    def test_rejects_oversized_radius(self):
        h = np.array([1.0, 0.0])
        nb = unit_columns(np.array([[0.8], [0.6]]))
        with pytest.raises(InvalidInput):
            TrustSubproblem(h, nb, 0.5)  # 1 - 0.8^2 = 0.36 < 0.5

    def test_stall_exception_carries_partial_result(self):
        frame = harvested_frames(8, 20, seed=2)
        prob = subproblem_for(frame, 7)
        with pytest.raises(SolverStall) as info:
            solve_subproblem(prob, max_iter=5)
        assert info.value.solution is not None
        assert info.value.gap is not None
        assert info.value.gap > 0.0
