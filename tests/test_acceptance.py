"""Acceptance gate: the twelve headline checks, one test per criterion.

Heavy design runs are shared through module-scoped fixtures, and every
loop of independent design runs is spread over the usable cores by
``_fork_map``. An elapsed-time bound checks the summed seconds of the runs,
the same work a serial loop would time; the line also prints the pool's wall
time. Each test prints a single criterion line with the measured numbers
next to the PASS/FAIL verdict that pytest -v reports.
"""

import time

import numpy as np
import pytest

from incoframes import (
    CsExperiment,
    DesignConfig,
    Frame,
    TrustSubproblem,
    adapt_dictionary,
    frame_metrics,
    make_planted_dataset,
    make_simplex_etf,
    mutual_coherence,
    random_sensing_frame,
    run,
    run_cs_experiment,
    solve_subproblem,
    subproblem,
)
from incoframes.frames import correlations, unit_columns
from incoframes.cli import _timed_run, main as cli_main
from incoframes.design import _fork_map

pytestmark = pytest.mark.acceptance

SOLVER_TOL = 1e-8  # the duality gap every solve_subproblem call is certified to


def report(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def timed_map(fn, items):
    """``fn`` over ``items`` through ``_fork_map``: each result without its
    seconds, each item's seconds, and the pool's wall time. ``fn`` returns
    its seconds last."""
    started = time.perf_counter()
    timed = list(_fork_map(fn, items))
    wall = time.perf_counter() - started
    return [t[:-1] for t in timed], [t[-1] for t in timed], wall


def design_many(m, n, sweeps, seeds):
    cfgs = [DesignConfig(m=m, n_vectors=n, sweeps=sweeps, seed=s) for s in seeds]
    return timed_map(_timed_run, cfgs)


@pytest.fixture(scope="module")
def runs_15x30():
    return design_many(15, 30, 200, range(1, 11))


@pytest.fixture(scope="module")
def runs_25x50():
    return design_many(25, 50, 200, range(1, 6))


@pytest.fixture(scope="module")
def runs_64x128():
    # Criterion 4's nonneg run joins criterion 3's three seeds: four runs keep
    # both cores busy, where three leave one idle for a third of the time.
    cfgs = [DesignConfig(m=64, n_vectors=128, sweeps=150, seed=s) for s in range(1, 4)]
    cfgs.append(DesignConfig(m=64, n_vectors=128, sweeps=150, seed=1, nonneg=True))
    return timed_map(_timed_run, cfgs)


def test_criterion_01_coherence_15x30(runs_15x30):
    results, seconds, wall = runs_15x30
    elapsed = sum(seconds)
    mus = [mutual_coherence(frame) for frame, _ in results]
    ok = min(mus) <= 0.215 and float(np.mean(mus)) <= 0.22 and elapsed <= 600
    report(
        "1 (15x30 K=200, 10 seeds)",
        ok,
        f"min mu {min(mus):.4f} <= 0.215, mean {np.mean(mus):.4f} <= 0.22, "
        f"{elapsed:.0f}s <= 600s summed over runs, {wall:.0f}s wall",
    )
    assert min(mus) <= 0.215
    assert float(np.mean(mus)) <= 0.22
    assert elapsed <= 600


def test_criterion_02_coherence_25x50(runs_25x50):
    results, seconds, wall = runs_25x50
    elapsed = sum(seconds)
    mus = [mutual_coherence(frame) for frame, _ in results]
    ok = min(mus) <= 0.170 and elapsed <= 900
    report(
        "2 (25x50 K=200, 5 seeds)",
        ok,
        f"min mu {min(mus):.4f} <= 0.170, "
        f"{elapsed:.0f}s <= 900s summed over runs, {wall:.0f}s wall",
    )
    assert min(mus) <= 0.170
    assert elapsed <= 900


def test_criterion_03_coherence_64x128(runs_64x128):
    runs, seconds, wall = runs_64x128
    results, elapsed = runs[:3], sum(seconds[:3])
    mus = [mutual_coherence(frame) for frame, _ in results]
    best = results[int(np.argmin(mus))][0]
    _, vals = correlations(best.vectors)
    frac99 = float((vals >= 0.99 * vals.max()).mean())
    ok = min(mus) <= 0.108 and frac99 >= 0.5 and elapsed <= 3600
    report(
        "3 (64x128 K=150, 3 seeds)",
        ok,
        f"min mu {min(mus):.4f} <= 0.108, frac>=0.99mu {frac99:.4f} >= 0.5, "
        f"{elapsed:.0f}s <= 3600s summed over runs, {wall:.0f}s wall with criterion 4's run",
    )
    assert min(mus) <= 0.108
    assert frac99 >= 0.5
    assert elapsed <= 3600


def test_criterion_04_nonnegative_64x128(runs_64x128):
    frame, _ = runs_64x128[0][3]
    mu = mutual_coherence(frame)
    ok = mu <= 0.26 and frame.vectors.min() >= 0.0
    report("4 (nonneg 64x128 K=150)", ok, f"mu {mu:.4f} <= 0.26, entries >= 0")
    assert frame.vectors.min() >= 0.0
    assert mu <= 0.26


def test_criterion_05_etf_fixed_point():
    worst = 0.0
    escapes_fired = True
    for m in (3, 5, 8):
        etf = make_simplex_etf(m)
        frame, rep = run(DesignConfig(m=m, n_vectors=m + 1, sweeps=10, seed=0), initial=etf)
        target = 1.0 / m
        devs = [abs(mu - target) for mu in rep.trace + rep.escape_coherence]
        devs.append(abs(mutual_coherence(frame) - target))
        worst = max(worst, max(devs))
        escapes_fired = escapes_fired and bool(rep.escape_sweeps)
    ok = worst <= 1e-6 and escapes_fired
    report(
        "5 (ETF fixed point m=3,5,8)",
        ok,
        f"worst |mu - 1/m| {worst:.2e} <= 1e-6, escape fired in every run: {escapes_fired}",
    )
    assert worst <= 1e-6
    assert escapes_fired


def test_criterion_06_monotonicity_15x60():
    violations = 0
    checked = 0
    results, seconds, wall = design_many(15, 60, 30, range(1, 21))
    for _, rep in results:
        escapes = set(rep.escape_sweeps)
        esc_mu = dict(zip(rep.escape_sweeps, rep.escape_coherence))
        for k in range(2, len(rep.trace) + 1):
            prev = esc_mu[k - 1] if (k - 1) in escapes else rep.trace[k - 2]
            checked += 1
            if rep.trace[k - 1] > prev + 1e-9:
                violations += 1
    ok = violations == 0
    report(
        "6 (trace monotone between escapes, 20 seeds)",
        ok,
        f"{violations} violations in {checked} steps at 1e-9 slack, "
        f"{sum(seconds):.0f}s summed over runs, {wall:.0f}s wall",
    )
    assert violations == 0


def harvest_problem(frame, i, max_neighbors=None):
    prob = subproblem(frame, i)
    h, nb = prob.reference, prob.neighbors
    if max_neighbors is not None and nb.shape[1] > max_neighbors:
        order = np.argsort(nb.T @ h)[::-1]
        prob = TrustSubproblem(h, nb[:, order[:max_neighbors]], prob.radius_sq)
    return prob


def brute_force_circle(problem, step=1e-3):
    h = problem.reference
    root = np.sqrt(problem.radius_sq)
    phi = np.arange(0.0, 2.0 * np.pi, step)
    f = h[:, None] + root * np.vstack([np.cos(phi), np.sin(phi)])
    tmax = (problem.neighbors.T @ f).max(axis=0)
    j = int(np.argmin(tmax))
    return float(tmax[j])


def check_invariants(problem, sol):
    h, big_t = problem.reference, problem.radius_sq
    worst = sol.residuals.worst()
    assert sol.converged
    assert worst <= 10.0 * SOLVER_TOL
    dist = float((sol.f - h) @ (sol.f - h))
    assert abs(dist - big_t) <= 1e-8  # optimum sits on the trust boundary
    assert sol.lam.min() >= -1e-9
    assert abs(sol.lam.sum() - 1.0) <= 1e-7
    if sol.t > 1e-9:
        norm = float(np.linalg.norm(sol.f))
        c = float(sol.f @ h) / norm
        assert c * c >= 1.0 - big_t - 1e-9
        expect = c - np.sqrt(max(c * c - (1.0 - big_t), 0.0))
        assert abs(norm - expect) <= 1e-6
    return worst


def test_criterion_07_subproblem_certification():
    count = 0
    worst_res = 0.0
    worst_gap_vs_grid = 0.0
    rng = np.random.default_rng(77)
    while count < 50:  # m=2 against exhaustive cap search, k <= 4
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=int(rng.integers(3, 7))))
        frame = Frame(unit_columns(np.vstack([np.cos(angles), np.sin(angles)])))
        for i in range(frame.n_vectors):
            if count >= 50:
                break
            try:
                prob = harvest_problem(frame, i, max_neighbors=4)
            except Exception:
                continue
            sol = solve_subproblem(prob)
            worst_res = max(worst_res, check_invariants(prob, sol))
            t_grid = brute_force_circle(prob)
            worst_gap_vs_grid = max(worst_gap_vs_grid, abs(sol.t - t_grid))
            assert abs(sol.t - t_grid) <= 2e-3
            count += 1
    for m, n, seeds, per in ((8, 20, (2, 3, 4), 17), (15, 30, (5, 6), 25), (64, 128, (7,), 50)):
        for seed in seeds:
            frame, _ = run(DesignConfig(m=m, n_vectors=n, sweeps=2, seed=seed))
            cols = np.linspace(1, n - 1, per, dtype=int)
            for i in cols:
                prob = harvest_problem(frame, int(i))
                sol = solve_subproblem(prob)
                worst_res = max(worst_res, check_invariants(prob, sol))
                count += 1
    ok = count >= 200 and worst_res <= 10.0 * SOLVER_TOL
    report(
        "7 (200 certified subproblems, m=2,8,15,64)",
        ok,
        f"{count} instances, worst KKT {worst_res:.2e} <= 1e-7, "
        f"worst m=2 grid gap {worst_gap_vs_grid:.2e} <= 2e-3",
    )
    assert count >= 200


def test_criterion_08_etf_closed_form():
    etf = make_simplex_etf(3)
    i = 0
    prob = harvest_problem(etf, i)
    big_t = prob.radius_sq
    sol = solve_subproblem(prob)
    root = np.sqrt(big_t)
    f_err = np.abs(sol.f - (1.0 - root) * etf.vectors[:, i]).max()
    t_err = abs(sol.t - (1.0 - root) / 3.0)
    lam_err = np.abs(sol.lam - 1.0 / 3.0).max()
    ok = max(f_err, t_err, lam_err) <= 1e-6
    report(
        "8 (simplex ETF (3,4) closed form)",
        ok,
        f"|f err| {f_err:.2e}, |t err| {t_err:.2e}, |lam err| {lam_err:.2e}, all <= 1e-6",
    )
    assert f_err <= 1e-6
    assert t_err <= 1e-6
    assert lam_err <= 1e-6


def test_criterion_09_frame_potential(runs_15x30, runs_25x50):
    excesses = []
    for results, n, m in ((runs_15x30[0][:5], 30, 15), (runs_25x50[0], 50, 25)):
        floor = n * n / m
        excess = float(np.mean([frame_metrics(frame).frame_potential / floor - 1.0 for frame, _ in results]))
        excesses.append(excess)
    ok = all(e <= 0.01 for e in excesses)
    report(
        "9 (frame potential within 1% of N^2/m)",
        ok,
        f"(15,30) excess {excesses[0] * 100:.2f}%, (25,50) excess {excesses[1] * 100:.2f}%, bound 1%",
    )
    assert excesses[0] <= 0.01, f"(15,30) frame potential excess {excesses[0]:.4%} > 1%"
    assert excesses[1] <= 0.01, f"(25,50) frame potential excess {excesses[1]:.4%} > 1%"


def test_criterion_10_cs_benchmark():
    n_signal, n_atoms, s, trials = 80, 120, 4, 1000
    ms = (25, 30, 35)

    def errors(m):
        started = time.perf_counter()
        designed, _ = run(DesignConfig(m=m, n_vectors=n_signal, sweeps=150, seed=0))
        random_frame = random_sensing_frame(m, n_signal, [0, m])
        exp = CsExperiment(
            n_signal=n_signal, n_atoms=n_atoms, sparsity=s, trials=trials, seed=0
        )
        err_designed = run_cs_experiment(exp, designed).mean_error
        err_random = run_cs_experiment(exp, random_frame).mean_error
        return err_designed, err_random, time.perf_counter() - started

    results, seconds, wall = timed_map(errors, ms)
    elapsed = sum(seconds)
    gaps = dict(zip(ms, results))
    ok = all(d < r for d, r in gaps.values()) and elapsed <= 600
    detail = ", ".join(f"m={m}: {d:.4f} < {r:.4f}" for m, (d, r) in gaps.items())
    report(
        "10 (CS benchmark, designed below random)",
        ok,
        f"{detail}, {elapsed:.0f}s <= 600s summed over runs, {wall:.0f}s wall",
    )
    for m, (d, r) in gaps.items():
        assert d < r, f"designed error {d:.5f} not below random {r:.5f} at m={m}"
    assert elapsed <= 600


def test_criterion_11_adaptation():
    frame, _ = run(DesignConfig(m=16, n_vectors=32, sweeps=30, seed=4))
    data, _, _ = make_planted_dataset(frame, s=4, n_samples=256, noise=0.0, seed=11)
    result = adapt_dictionary(data, frame, s=4, iterations=50)
    drift = abs(mutual_coherence(result.adapted) - mutual_coherence(frame))
    improved = result.error_trace[-1] < result.error_trace[0]
    ok = drift <= 1e-10 and improved
    report(
        "11 (adaptation over 50 rotations)",
        ok,
        f"coherence drift {drift:.2e} <= 1e-10, error {result.error_trace[0]:.4f} -> "
        f"{result.error_trace[-1]:.4f}",
    )
    assert drift <= 1e-10
    assert improved


def test_criterion_12_byte_identical_csv(tmp_path):
    args = (
        "cs-bench", "--N", "24", "--M", "36", "--sparsity", "2",
        "--m-list", "8,10", "--trials", "25", "--seed", "9",
        "--sources", "designed-fresh,random-gaussian", "--design-sweeps", "5",
    )
    assert cli_main([*args, "--out", str(tmp_path / "a")]) == 0
    assert cli_main([*args, "--out", str(tmp_path / "b")]) == 0
    bench_same = (tmp_path / "a" / "cs_bench.csv").read_bytes() == (
        tmp_path / "b" / "cs_bench.csv"
    ).read_bytes()

    design_args = ("design", "--m", "8", "--N", "20", "--K", "4", "--seeds", "3")
    assert cli_main([*design_args, "--out", str(tmp_path / "d1")]) == 0
    assert cli_main([*design_args, "--out", str(tmp_path / "d2")]) == 0
    profiles = []
    for sub in ("d1", "d2"):
        frame_file = tmp_path / sub / "frame_m8_n20_seed3.frame"
        assert cli_main(["analyze", str(frame_file)]) == 0
        profiles.append((tmp_path / sub / "frame_m8_n20_seed3_correlations.csv").read_bytes())
    frames_same = (tmp_path / "d1" / "frame_m8_n20_seed3.frame").read_bytes() == (
        tmp_path / "d2" / "frame_m8_n20_seed3.frame"
    ).read_bytes()
    ok = bench_same and frames_same and profiles[0] == profiles[1]
    report(
        "12 (byte-identical outputs on rerun)",
        ok,
        f"cs table identical: {bench_same}, frame files identical: {frames_same}, "
        f"correlation profiles identical: {profiles[0] == profiles[1]}",
    )
    assert bench_same
    assert frames_same
    assert profiles[0] == profiles[1]
