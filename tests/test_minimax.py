"""Trust-region minimax subproblem: solver, optimality system, stall test."""
import dataclasses
import functools
import hashlib
import importlib.machinery
import math
from pathlib import Path

import numpy as np
import pytest

import incoframes.minimax
from incoframes import (
    DegenerateVector,
    DesignConfig,
    Frame,
    InvalidInput,
    SolverStall,
    SubproblemSolution,
    TrustSubproblem,
    kkt_residuals,
    make_simplex_etf,
    run,
    solve_subproblem,
    subproblem,
)
from incoframes.frames import unit_columns


def seeded_start(cfg):
    """The frame a run of ``cfg`` starts from: ``run`` with no sweeps."""
    return run(dataclasses.replace(cfg, sweeps=0))[0]


def subproblem_for(frame, i, max_neighbors=None):
    """Vector i's trust-region instance, optionally cut to its most
    correlated neighbors (the radius stays: the top neighbor is kept)."""
    prob = subproblem(frame, i)
    h, nb = prob.reference, prob.neighbors
    if max_neighbors is not None and nb.shape[1] > max_neighbors:
        order = np.argsort(-(nb.T @ h))
        nb = nb[:, order[:max_neighbors]]
        prob = TrustSubproblem(reference=h, neighbors=nb, radius_sq=prob.radius_sq)
    return prob


@functools.cache
def harvested_frames(m, n, seed, nonneg=False):
    """Frames two sweeps into a real design run: realistic solver inputs."""
    start = seeded_start(DesignConfig(m=m, n_vectors=n, seed=seed, nonneg=nonneg))
    cfg = DesignConfig(m=m, n_vectors=n, sweeps=2, seed=seed + 1000, nonneg=nonneg)
    return run(cfg, initial=start)[0]


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
        assert np.abs(sol.f - (1.0 - root) * prob.reference).max() < 1e-6
        assert sol.t == pytest.approx((1.0 - root) / 3.0, abs=1e-6)
        assert np.abs(sol.lam - 1.0 / 3.0).max() < 1e-6
        # Ball multiplier from stationarity along the reference direction.
        assert sol.lam_ball == pytest.approx((1.0 / 3.0) / (2.0 * root), abs=1e-6)
        assert sol.residuals.worst() <= incoframes.minimax._TOL

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
                assert sol.t <= t_grid + 1e-7  # solver at least as good, up to its tolerance
                assert abs(sol.t - t_grid) < 2e-3
                checked += 1
            if checked >= 60:
                break
        assert checked >= 60


class TestOptimalityProperties:
    @pytest.mark.parametrize("m,n", [(2, 5), (8, 20), (15, 30)])
    def test_kkt_boundary_and_norm_law(self, m, n):
        frame = harvested_frames(m, n, seed=m)
        solved = 0
        for i in range(1, frame.n_vectors):
            prob = subproblem_for(frame, i)
            sol = solve_subproblem(prob)
            assert sol.residuals.worst() <= incoframes.minimax._TOL
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


class TestCertificate:
    """The certificate includes dual feasibility: a stationary, complementary
    and feasible point with a negative multiplier is not an optimum."""

    ROOT = math.sqrt(0.5)
    SIN60 = math.sqrt(3.0) / 2.0

    def test_far_point_fails_on_its_ball_multiplier(self):
        # Neighbors at +-60 degrees around h = (1, 0), T = 0.5. The far point
        # (1 + sqrt(T), 0) is stationary with lam_ball = -0.354 and has
        # t = 0.854; the optimum (1 - sqrt(T), 0) has t = 0.146.
        prob = TrustSubproblem(
            np.array([1.0, 0.0]), np.array([[0.5, 0.5], [self.SIN60, -self.SIN60]]), 0.5
        )
        far = SubproblemSolution(
            np.array([1.0 + self.ROOT, 0.0]), 0.5 * (1.0 + self.ROOT),
            np.array([0.5, 0.5]), -0.25 / self.ROOT, None, 0,
        )
        res = kkt_residuals(prob, far)
        assert max(res.stationarity, res.complementarity, res.primal) < 1e-12
        assert res.dual == pytest.approx(0.25 / self.ROOT, abs=1e-12)
        assert res.worst() > 0.3
        sol = solve_subproblem(prob)
        assert sol.residuals.worst() <= 1e-8
        assert sol.t == pytest.approx(0.5 * (1.0 - self.ROOT), abs=1e-12)
        assert sol.lam_ball == pytest.approx(0.25 / self.ROOT, abs=1e-12)

    def test_negative_bound_multiplier_is_rejected(self, monkeypatch):
        # One neighbor (0.5, -0.866) in nonneg mode: the optimum raises f_2
        # off its bound. Pinning f_2 = 0 gives a stationary point whose bound
        # multiplier is -0.866.
        prob = TrustSubproblem(
            np.array([1.0, 0.0]), np.array([[0.5], [-self.SIN60]]), 0.5, nonneg=True
        )
        pinned = SubproblemSolution(
            np.array([1.0 - self.ROOT, 0.0]), 0.5 * (1.0 - self.ROOT),
            np.array([1.0]), 0.25 / self.ROOT, np.array([0.0, -self.SIN60]), 0,
        )
        res = kkt_residuals(prob, pinned)
        assert max(res.stationarity, res.complementarity, res.primal) < 1e-12
        assert res.dual == pytest.approx(self.SIN60, abs=1e-12)
        want = solve_subproblem(prob)
        assert want.f[1] > 0.5 and want.residuals.worst() <= 1e-8
        # A walk started on the pinned set reaches that point at its root;
        # the solve must reject it and restart from an NNLS.
        tight_set = incoframes.minimax._tight_set
        calls = []

        def pin_first(h, nb, c, t, nonneg):
            tight, zero = tight_set(h, nb, c, t, nonneg)
            calls.append(t)
            return tight, (zero if len(calls) > 1 else np.array([False, True]))

        monkeypatch.setattr(incoframes.minimax, "_tight_set", pin_first)
        sol = solve_subproblem(prob)
        assert len(calls) == 2
        assert np.array_equal(sol.f, want.f) and sol.t == want.t
        assert np.array_equal(sol.bound_lam, want.bound_lam)

    def test_stall_carries_the_reached_root(self, monkeypatch):
        # With f_2 pinned to 0 on every set, the walk reaches the pinned
        # set's root with no event before it, and that root fails on its
        # bound multiplier. A stall at the change cap carries it.
        prob = TrustSubproblem(
            np.array([1.0, 0.0]), np.array([[0.5], [-self.SIN60]]), 0.5, nonneg=True
        )
        tight_set = incoframes.minimax._tight_set

        def pin(h, nb, c, t, nonneg):
            return tight_set(h, nb, c, t, nonneg)[0], np.array([False, True])

        monkeypatch.setattr(incoframes.minimax, "_tight_set", pin)
        monkeypatch.setattr(incoframes.minimax, "_MAX_CHANGES", 0)
        with pytest.raises(SolverStall) as info:
            solve_subproblem(prob)
        root = info.value.solution
        assert root is not None and root.iterations == 0
        np.testing.assert_allclose(root.f, [1.0 - self.ROOT, 0.0], atol=1e-12)
        assert root.residuals.dual == pytest.approx(self.SIN60, abs=1e-12)


class TestNonnegativeVariant:
    def test_solution_stays_nonnegative(self):
        rng = np.random.default_rng(21)
        frame = Frame(unit_columns(np.abs(rng.standard_normal((6, 15)))))
        sol = solve_subproblem(subproblem(frame, 2, nonneg=True))
        assert sol.f.min() >= -1e-8
        assert sol.bound_lam is not None
        assert sol.bound_lam.min() >= -1e-9
        assert sol.residuals.worst() <= incoframes.minimax._TOL

    def test_nonneg_no_worse_than_projected_unconstrained(self):
        rng = np.random.default_rng(22)
        frame = Frame(unit_columns(np.abs(rng.standard_normal((4, 9)))))
        sol_free = solve_subproblem(subproblem(frame, 1))
        sol_nn = solve_subproblem(subproblem(frame, 1, nonneg=True))
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

    @pytest.mark.parametrize(
        "reference, neighbors, radius_sq, match",
        [
            ([1.0], [[1.0]], 0.5, "reference must be a vector"),
            ([1.0, 0.0], [0.0, 1.0], 0.5, "neighbors must be"),
            ([1.0, 0.0], [[0.0, 1.0]], 0.5, "neighbors must be"),
            ([1.0, np.nan], [[0.0], [1.0]], 0.5, "non-finite"),
            ([1.0, 0.0], [[0.0], [2.0]], 0.5, "neighbor columns must be unit"),
            ([1.0, 0.0], [[0.0], [1.0]], 0.0, "must lie in"),
            ([1.0, 0.0], [[0.0], [1.0]], 1.0, "must lie in"),
        ],
        ids=["short-reference", "flat-neighbors", "neighbor-rows", "non-finite",
             "non-unit-neighbor", "zero-radius", "unit-radius"],
    )
    def test_rejects_malformed_input(self, reference, neighbors, radius_sq, match):
        with pytest.raises(InvalidInput, match=match):
            TrustSubproblem(np.array(reference), np.array(neighbors), radius_sq)

    def test_missing_compiled_nnls_raises_import_error(self, monkeypatch):
        # A scipy without the compiled module fails at the first solve.
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        incoframes.minimax._nnls.cache_clear()
        try:
            with pytest.raises(ImportError, match="compiled nnls"):
                incoframes.minimax._nnls()
        finally:
            incoframes.minimax._nnls.cache_clear()

    def test_caller_arrays_are_copied_not_frozen(self):
        # Float, column-major inputs are the layout a no-copy conversion aliases.
        h = np.array([1.0, 0.0])
        nb = np.asfortranarray(unit_columns(np.array([[0.8, 0.6], [0.6, 0.8]])))
        problem = TrustSubproblem(h, nb, 0.3)
        assert problem.reference is not h and problem.neighbors is not nb
        assert h.flags.writeable and nb.flags.writeable
        assert not (problem.reference.flags.writeable or problem.neighbors.flags.writeable)
        assert problem.neighbors.flags.f_contiguous
        nb[:, 0] = 0.0
        h[1] = 1.0
        assert problem.neighbors[0, 0] == 0.8 and problem.reference[1] == 0.0

    def test_nonneg_region_must_reach_the_orthant(self):
        # The nearest f >= 0 to h = (0.6, -0.8) is 0.8 away, beyond the
        # radius: a solve would spend its change cap and stall.
        with pytest.raises(InvalidInput, match="misses f >= 0"):
            TrustSubproblem(np.array([0.6, -0.8]), np.array([[1.0], [0.0]]), 0.5, nonneg=True)

    def test_nonneg_region_reaching_the_orthant_certifies(self):
        # A negative reference entry is fine while the ball reaches f >= 0.
        h = unit_columns(np.array([[0.7], [0.7], [-0.14]]))[:, 0]
        problem = TrustSubproblem(h, np.array([[1.0], [0.0], [0.0]]), 0.3, nonneg=True)
        sol = solve_subproblem(problem)
        assert sol.residuals.worst() <= incoframes.minimax._TOL
        assert sol.f.min() >= -1e-12

    @pytest.mark.parametrize(
        "name",
        [
            # Instances an earlier interior-point solver stalled on. The two
            # vectors the pinned nonneg run of tests/test_design.py once
            # skipped (sweeps 3 and 4), where a damped line search gave up.
            "nonneg_stalls",
            # Three solves whose normal matrix failed to factor: two in the
            # nonneg 64x128 seed-1 run (sweeps 28 and 35) and one in the
            # nonneg 20x40 seed-301 run. Instances of mixed sizes are stored
            # under keys suffixed with their index.
            "nonneg_factor_failures",
        ],
    )
    def test_former_stall_instances_certify(self, name):
        data = np.load(Path(__file__).parent / "data" / f"{name}.npz")
        if "radius_sq" in data:
            instances = zip(data["reference"], data["neighbors"], data["radius_sq"])
        else:
            count = sum(key.startswith("radius_sq_") for key in data)
            instances = [
                (data[f"reference_{j}"], data[f"neighbors_{j}"], data[f"radius_sq_{j}"])
                for j in range(count)
            ]
        for h, nb, radius_sq in instances:
            sol = solve_subproblem(TrustSubproblem(h, nb, float(radius_sq), nonneg=True))
            assert sol.residuals.worst() <= incoframes.minimax._TOL

    @pytest.mark.parametrize(
        "eps, count",
        [(1e-4, 20), (3e-5, 20), (1e-5, 20), (3e-6, 20), (1e-6, 1)],
        ids=["0.0001", "3e-05", "1e-05", "3e-06", "1e-06"],
    )
    @pytest.mark.parametrize("nonneg", [False, True], ids=["signed", "nonneg"])
    def test_near_duplicate_neighbor_certifies(self, eps, count, nonneg):
        # A near-copy of vector 0 leaves it a trust region with radius_sq
        # down to about 1e-12. Over seeds 0-19, ``count`` of the frames keep
        # the copy apart from vector 0 (162 instances over all ten cases);
        # the rest duplicate it and have no trust region. Every solve
        # certifies far inside the contract.
        solved = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((15, 30))
            a[:, 1] = a[:, 0] + eps * rng.standard_normal(15)
            if nonneg:
                a = np.abs(a)
            try:
                problem = subproblem(Frame(unit_columns(a)), 0, nonneg=nonneg)
            except DegenerateVector:
                continue
            sol = solve_subproblem(problem)
            assert sol.residuals.worst() <= 1e-10
            solved += 1
        assert solved == count


class TestHardInstances:
    """A seeded family of hard instances (numpy seeds, so reruns repeat).

    Every subproblem of every frame must certify within 10 * _TOL or raise
    ``SolverStall``; nothing else may escape.
    """

    @staticmethod
    def certify_or_stall(frame, nonneg=False):
        for i in range(frame.n_vectors):
            problem = subproblem(frame, i, nonneg=nonneg)
            try:
                sol = solve_subproblem(problem)
            except SolverStall:
                continue
            assert sol.residuals.worst() <= incoframes.minimax._TOL

    def test_two_dimensions_one_neighbor(self):
        for seed in range(60):
            a = unit_columns(np.random.default_rng(seed).standard_normal((2, 2)))
            self.certify_or_stall(Frame(a))
            self.certify_or_stall(Frame(np.abs(a)), nonneg=True)

    def test_nonneg_with_exact_zeros(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            for m, n in ((6, 12), (10, 20), (15, 30)):
                a = np.abs(rng.standard_normal((m, n)))
                a[rng.random((m, n)) < 0.4] = 0.0
                # One positive entry per column keeps every column nonzero.
                a[rng.integers(m, size=n), np.arange(n)] = 1.0 + rng.random(n)
                assert (a == 0.0).any()
                self.certify_or_stall(Frame(unit_columns(a)), nonneg=True)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_15x120_random_and_after_3_sweeps(self, seed):
        # 119 neighbors around 16 unknowns.
        rng = np.random.default_rng(seed)
        start = Frame(unit_columns(rng.standard_normal((15, 120))))
        self.certify_or_stall(start)
        cfg = DesignConfig(m=15, n_vectors=120, sweeps=3, seed=seed)
        self.certify_or_stall(run(cfg, initial=start)[0])


class TestWorkingSet:
    """The exact solve's working set: one NNLS per solve, few changes after
    it, restarts from a wrong set, the change cap, and the compiled NNLS
    routine it loads."""

    @pytest.fixture(scope="class")
    def frames(self):
        return [harvested_frames(15, 30, seed=1), harvested_frames(64, 128, seed=3)]

    def test_one_nnls_per_solve(self, frames, monkeypatch):
        routine = incoframes.minimax._nnls()
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            return routine(*args)

        monkeypatch.setattr(incoframes.minimax, "_nnls", lambda: counted)
        for frame in frames:
            for i in range(frame.n_vectors):
                calls.clear()
                solve_subproblem(subproblem(frame, i))
                assert len(calls) == 1

    def test_working_set_changes_stay_few(self, frames):
        # Measured: no change on any of the 15x30 frame's 30 solves, and one
        # change on each of three of the 64x128 frame's 128.
        changes = [
            solve_subproblem(subproblem(frame, i)).iterations
            for frame in frames
            for i in range(frame.n_vectors)
        ]
        assert max(changes) <= 2
        assert sum(changes) <= 6

    @pytest.mark.parametrize("keep", ["top-plane", "no-plane"])
    def test_restart_from_a_cut_set_reaches_same_answer(self, keep, monkeypatch):
        # Cut the first NNLS set's planes. From the top plane alone the walk
        # reaches a root that fails the certificate (measured: 70 of 70
        # solves, 78 backward walks); with no plane the set has no root and
        # the walk adds planes at events first. Every solve restarts once
        # from an NNLS and returns the same bytes.
        frames = [
            (harvested_frames(15, 30, seed=1), False),
            (harvested_frames(20, 40, seed=2, nonneg=True), True),
        ]
        tight_set = incoframes.minimax._tight_set
        calls = []

        def top_plane_first(h, nb, c, t, nonneg):
            tight, zero = tight_set(h, nb, c, t, nonneg)
            calls.append(t)
            if len(calls) == 1:
                tight = (np.arange(tight.size) == np.argmax(c)) & (keep == "top-plane")
            return tight, zero

        for frame, nonneg in frames:
            for i in range(frame.n_vectors):
                problem = subproblem(frame, i, nonneg=nonneg)
                want = solve_subproblem(problem)
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(incoframes.minimax, "_tight_set", top_plane_first)
                    sol = solve_subproblem(problem)
                assert len(calls) >= 2
                assert np.array_equal(sol.f, want.f) and sol.t == want.t
                assert sol.residuals.worst() <= incoframes.minimax._TOL

    def test_change_cap_stalls(self, monkeypatch):
        # The NNLS set of this vector meets one event on the walk to its root.
        problem = subproblem(harvested_frames(15, 30, seed=3), 29)
        sol = solve_subproblem(problem)
        assert sol.iterations == 1
        monkeypatch.setattr(incoframes.minimax, "_MAX_CHANGES", 0)
        with pytest.raises(SolverStall) as info:
            solve_subproblem(problem)
        # The walk stopped before any root, so there is no candidate to carry.
        assert info.value.solution is None
        monkeypatch.setattr(incoframes.minimax, "_MAX_CHANGES", 1)
        again = solve_subproblem(problem)
        assert np.array_equal(again.f, sol.f) and again.t == sol.t

    def test_loaded_nnls_matches_scipy_optimize(self):
        import scipy.optimize

        routine = incoframes.minimax._nnls()
        rng = np.random.default_rng(8)
        for rows, cols in [(3, 2), (16, 29), (20, 15), (21, 59), (65, 127)]:
            for _ in range(4):
                a = rng.standard_normal((rows, cols))
                b = rng.standard_normal(rows)
                x, rnorm, info = routine(a, b, 3 * cols)
                want, want_rnorm = scipy.optimize.nnls(a, b)
                assert info == 1
                assert x.tobytes() == want.tobytes()
                assert rnorm == want_rnorm


class TestPinnedSolves:
    """Every solve on three harvested frames pinned to the byte.

    Each digest is sha256 over the solutions of all of a frame's vector
    subproblems, in vector order: ``f``, ``t``, ``lam``, ``lam_ball``,
    ``bound_lam`` (nonneg only) and ``iterations``. A refactor of
    the solver must reproduce them exactly; they move only in a recorded
    fingerprint re-base, as the ``TestPinnedRuns`` frame digests do, which
    do not see the multipliers or the working-set change counts.
    """

    # (m, N, harvest seed, nonneg, digest)
    PINS = {
        "signed-15x30": (
            15, 30, 1, False,
            "9d36dc57febf620a3c78b876c8f4ce3d0c0730116a5073922352061fbc39697c",
        ),
        "nonneg-20x40": (
            20, 40, 2, True,
            "73bf786642539a44da8cdb14aab1f8decccdfd4c4b4d653a2abe7a62ca9d1a4c",
        ),
        # 127 neighbor planes around 64 coordinates: the NNLS at the size
        # where its own work, not dispatch, carries the cost.
        "signed-64x128": (
            64, 128, 3, False,
            "b917843e3cb33677334a779d93bad66aefef6d04aaed5bd028d2f9cebd0a8bb1",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_solution_bytes(self, name):
        m, n, seed, nonneg, digest = self.PINS[name]
        frame = harvested_frames(m, n, seed, nonneg=nonneg)
        sha = hashlib.sha256()
        for i in range(n):
            sol = solve_subproblem(subproblem(frame, i, nonneg=nonneg))
            assert sol.residuals.worst() <= incoframes.minimax._TOL
            parts = (sol.f, sol.t, sol.lam, sol.lam_ball, sol.bound_lam, sol.iterations)
            for part in parts:
                if part is not None:
                    sha.update(np.asarray(part).tobytes())
        assert sha.hexdigest() == digest
