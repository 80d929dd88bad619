"""Trust-region minimax subproblem: solver, optimality system, stall test."""
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack

import incoframes.design
import incoframes.minimax
from incoframes import (
    DesignConfig,
    Frame,
    InvalidInput,
    NumericsFailure,
    SolverStall,
    TrustSubproblem,
    initialize,
    kkt_residuals,
    make_simplex_etf,
    run,
    solve_subproblem,
    subproblem,
)
from incoframes.frames import unit_columns


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


def harvested_frames(m, n, seed, nonneg=False):
    """Frames two sweeps into a real design run: realistic solver inputs."""
    start = initialize(DesignConfig(m=m, n_vectors=n, seed=seed, nonneg=nonneg))
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
        solved = 0
        for i in range(1, frame.n_vectors):
            prob = subproblem_for(frame, i)
            sol = solve_subproblem(prob)
            assert sol.converged
            assert sol.residuals.worst() <= 10.0 * 1e-8
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
        frame = Frame(unit_columns(np.abs(rng.standard_normal((6, 15)))))
        sol = solve_subproblem(subproblem(frame, 2, nonneg=True))
        assert sol.converged
        assert sol.f.min() >= -1e-8
        assert sol.bound_lam is not None
        assert sol.bound_lam.min() >= -1e-9
        assert sol.residuals.worst() <= 1e-7

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
        "name",
        [
            # The two vectors the pinned nonneg run of tests/test_design.py
            # skipped as solver stalls (sweeps 3 and 4) while the IPM fell
            # back to a damped line search, which gave up on both.
            "nonneg_stalls",
            # Three solves whose normal matrix failed to factor at every
            # jitter while the step to the boundary tended to 1 as mu fell:
            # two stalls in the nonneg 64x128 seed-1 run (sweeps 28 and 35)
            # and one in the nonneg 20x40 seed-301 run. Instances of mixed
            # sizes are stored under keys suffixed with their index.
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
            assert sol.converged
            assert sol.residuals.worst() <= 10.0 * incoframes.minimax._TOL

    @pytest.mark.parametrize("eps", [1e-4, 3e-5, 1e-5])
    @pytest.mark.parametrize("nonneg", [False, True], ids=["signed", "nonneg"])
    def test_near_duplicate_neighbor_certifies(self, eps, nonneg):
        # A near-copy of vector 0 leaves it a trust region with radius_sq
        # down to about 1e-10. Some corrector steps there blow the merit up,
        # and only the predictor fallback carries the solve to a certificate.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((15, 30))
        a[:, 1] = a[:, 0] + eps * rng.standard_normal(15)
        if nonneg:
            a = np.abs(a)
        sol = solve_subproblem(subproblem(Frame(unit_columns(a)), 0, nonneg=nonneg))
        assert sol.converged
        assert sol.residuals.worst() <= 10.0 * incoframes.minimax._TOL


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
            assert sol.converged
            assert sol.residuals.worst() <= 10.0 * incoframes.minimax._TOL

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


class TestFactorization:
    """The Cholesky kernel: one factorization per iteration, and the
    ``SolverStall`` or error each exit real workloads never reach ends in."""

    @pytest.fixture(scope="class")
    def frame(self):
        return harvested_frames(15, 30, seed=1)

    @pytest.fixture(scope="class")
    def problem(self, frame):
        return subproblem_for(frame, 5)

    @pytest.mark.parametrize(
        "factor, reason",
        [
            (lambda a: (a, 1), "factorization"),
            (lambda a: (np.full_like(a, np.nan), 0), "non-finite"),
        ],
        ids=["factor-fails", "nan-factor"],
    )
    def test_failed_factor_stalls_with_partial_solution(self, problem, monkeypatch, factor, reason):
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda a, **kw: factor(a))
        with pytest.raises(SolverStall) as info:
            solve_subproblem(problem)
        assert info.value.reason == reason
        partial = info.value.solution
        assert partial is not None and not partial.converged
        assert partial.gap > 0.0

    def test_iteration_cap_stalls(self, problem, monkeypatch):
        monkeypatch.setattr(incoframes.minimax, "_MAX_ITER", 2)
        with pytest.raises(SolverStall) as info:
            solve_subproblem(problem)
        assert info.value.reason == "cap"
        assert info.value.solution.iterations == 2

    def test_illegal_lapack_argument_raises(self, problem, monkeypatch):
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda a, **kw: (a, -1))
        with pytest.raises(NumericsFailure):
            solve_subproblem(problem)

    def test_at_most_one_factorization_and_two_solves_per_iteration(self, frame, monkeypatch):
        real_trf, real_trs = scipy.linalg.lapack.dpotrf, scipy.linalg.lapack.dpotrs
        counts = {"factored": 0, "solved": 0}

        def dpotrf(a, **kw):
            counts["factored"] += 1
            return real_trf(a, **kw)

        def dpotrs(c, b, **kw):
            counts["solved"] += 1
            return real_trs(c, b, **kw)

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", dpotrf)
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrs", dpotrs)
        for i in range(1, frame.n_vectors):
            counts.update(factored=0, solved=0)
            sol = solve_subproblem(subproblem_for(frame, i))
            assert counts["factored"] == sol.iterations > 0
            assert counts["solved"] <= 2 * sol.iterations

    def test_dispatches_per_iteration(self, frame, monkeypatch):
        """numpy and LAPACK calls per IPM iteration stay under a ceiling.

        A proxy in place of the module's ``np`` counts each call of a numpy
        function or ufunc, ufunc methods such as ``maximum.reduce``
        included, and dpotrf and dpotrs are wrapped. The proxy does not see
        ndarray methods (``dot``, ``all``, ``copy``, ``fill``) or indexing,
        so the count is a floor on what an iteration dispatches. Each
        solve's set-up and packaging calls are spread over its iterations.
        The kernel makes 41.2 such calls per iteration on this frame; the
        ceiling leaves about 6% of room above that.
        """
        problems = [subproblem_for(frame, i) for i in range(1, frame.n_vectors)]
        calls = 0

        class Counted:
            def __init__(self, target):
                self.target = target

            def __call__(self, *args, **kwargs):
                nonlocal calls
                calls += 1
                return self.target(*args, **kwargs)

            def __getattr__(self, name):
                attr = getattr(self.target, name)
                return Counted(attr) if callable(attr) else attr

        class NumpyProxy:
            def __getattr__(self, name):
                attr = getattr(np, name)
                return Counted(attr) if callable(attr) and not isinstance(attr, type) else attr

        monkeypatch.setattr(incoframes.minimax, "np", NumpyProxy())
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", Counted(scipy.linalg.lapack.dpotrf))
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrs", Counted(scipy.linalg.lapack.dpotrs))
        iterations = sum(solve_subproblem(problem).iterations for problem in problems)
        assert calls / iterations <= 44.0


class TestPinnedSolves:
    """Every solve on three harvested frames pinned to the byte.

    Each digest is sha256 over the solutions of all of a frame's vector
    subproblems, in vector order: ``f``, ``t``, ``lam``, ``lam_ball``,
    ``bound_lam`` (nonneg only), ``gap`` and ``iterations``. A refactor of
    the solver must reproduce them exactly; they move only in a recorded
    fingerprint re-base, as the ``TestPinnedRuns`` frame digests do, which
    do not see the multipliers or the iteration counts.
    """

    # (m, N, harvest seed, nonneg, digest)
    PINS = {
        "signed-15x30": (
            15, 30, 1, False,
            "0941ac06c2b27d0966824982b1b6d559306473fad0278ccbf8c14dd8ed182657",
        ),
        "nonneg-20x40": (
            20, 40, 2, True,
            "c92517387c9f4915ddf2ae0ae8bb6b8b1e37883e0e17bd10e5b77518b172da02",
        ),
        # p = 128 rows around n = 65 unknowns: the normal-matrix kernel at
        # the size where its products, not dispatch, carry the cost.
        "signed-64x128": (
            64, 128, 3, False,
            "192b866913da0a1d6000359b20d1e9c72eb751a25d27f06a6ec7b9ecc434abcf",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_solution_bytes(self, name):
        m, n, seed, nonneg, digest = self.PINS[name]
        frame = harvested_frames(m, n, seed, nonneg=nonneg)
        sha = hashlib.sha256()
        for i in range(n):
            sol = solve_subproblem(subproblem(frame, i, nonneg=nonneg))
            assert sol.converged
            parts = (sol.f, sol.t, sol.lam, sol.lam_ball, sol.bound_lam, sol.gap, sol.iterations)
            for part in parts:
                if part is not None:
                    sha.update(np.asarray(part).tobytes())
        assert sha.hexdigest() == digest


def max_step_reference(v, dv):
    """The textbook ratio test: largest alpha with v + alpha*dv >= 0, v > 0."""
    neg = dv < 0.0
    if not neg.any():
        return np.inf
    return float((-v[neg] / dv[neg]).min())


class TestStepLengths:
    """The ratio test over all of (s, z) equals the textbook test, bit for bit."""

    @staticmethod
    def both(s, z, ds, dz):
        w, dw = np.concatenate([s, z]), np.concatenate([ds, dz])
        got = incoframes.minimax._step_length(w, dw, np.empty(w.size))
        return got, max_step_reference(w, dw)

    def test_random_directions(self):
        rng = np.random.default_rng(5)
        for p in (1, 2, 7, 30, 61):
            for _ in range(50):
                s, z = np.exp(rng.normal(0, 3, p)), np.exp(rng.normal(0, 3, p))
                ds, dz = rng.normal(0, 2, p), rng.normal(0, 2, p)
                got, want = self.both(s, z, ds, dz)
                assert got == want
                # The same float, not merely an equal one: -0.0 and 0.0 compare equal.
                assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize(
        "ds, dz",
        [
            ([0.5, 2.0, 0.0], [1.0, 3.0, 4.0]),  # no negative entry
            ([-1.0, -2.0, -3.0], [-0.5, -0.25, -8.0]),  # all negative
            ([-0.0, 0.0, -1.0], [0.0, -0.0, -0.0]),  # signed zeros are not negative
            ([np.nan, -1.0, 2.0], [np.nan, np.nan, np.nan]),  # NaN entries drop out
            ([np.nan, -np.inf, -3.0], [-1e-300, 1.0, np.inf]),
        ],
        ids=["none-negative", "all-negative", "signed-zeros", "nan", "extremes"],
    )
    def test_edge_cases(self, ds, dz):
        s = np.array([1.0, 0.25, 3.0])
        z = np.array([2.0, 1e-12, 5.0])
        got, want = self.both(s, z, np.array(ds), np.array(dz))
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
