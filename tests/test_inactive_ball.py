"""Nonneg subproblems whose optimum leaves the trust ball inactive.

When h, with every coordinate that some neighbor touches set to 0, lies
inside the ball, that point meets every plane at t = 0 and no root of the
ball exists; the solve returns it with lam_ball = 0 instead of stalling.
"""
import math

import numpy as np
import pytest

from incoframes import DesignConfig, TrustSubproblem, kkt_residuals, run, solve_subproblem


def test_inside_point_is_certified_at_t_zero():
    h = np.array([0.3, 0.8, math.sqrt(0.27)])
    nb = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    problem = TrustSubproblem(h, nb, radius_sq=(1 - 1e-4) * 0.73, nonneg=True)
    sol = solve_subproblem(problem)
    np.testing.assert_array_equal(sol.f, [0.0, 0.8, 0.0])
    assert sol.t == 0.0 and sol.lam_ball == 0.0
    np.testing.assert_array_equal(sol.lam, [0.5, 0.5])
    np.testing.assert_array_equal(sol.bound_lam, nb @ sol.lam)
    assert kkt_residuals(problem, sol).worst() <= 1e-8


def test_square_nonneg_run_gets_below_its_old_stall_at_0_6():
    _, report = run(DesignConfig(m=3, n_vectors=3, sweeps=25, seed=0, nonneg=True))
    assert sum(report.solver_stalls) == 0
    assert report.trace[-1] < 0.6


@pytest.mark.parametrize(
    "m, seeds, sweeps",
    [pytest.param(m, range(6), 25, id=str(m)) for m in (2, 3, 4, 5)]
    # Every coordinate is touched here, and these stalled at 40 sweeps until
    # the NNLS set's root was certified before the first event scan.
    + [
        pytest.param(m, [seed], 40, id=f"{m}-seed{seed}")
        for m, seed in [(4, 5), (4, 8), (5, 2), (6, 7)]
    ],
)
def test_square_nonneg_runs_never_stall(m, seeds, sweeps):
    for seed in seeds:
        _, report = run(DesignConfig(m=m, n_vectors=m, sweeps=sweeps, seed=seed, nonneg=True))
        assert sum(report.solver_stalls) == 0, (m, seed)
