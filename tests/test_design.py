"""Driver-level behaviour: initialization, subproblem construction, single
sweeps through ``run``, escape scheduling, and full runs on small frames."""

import dataclasses
import hashlib

import numpy as np
import pytest

import incoframes.design
from incoframes import (
    DegenerateVector,
    DesignConfig,
    Frame,
    InvalidInput,
    RankDeficient,
    make_simplex_etf,
    mutual_coherence,
    run,
    subproblem,
)
from incoframes.frames import random_unit_frame, unit_columns


def seeded_start(cfg):
    """The frame a run of ``cfg`` starts from: ``run`` with no sweeps."""
    return run(dataclasses.replace(cfg, sweeps=0))[0]


def run_in(m, n, seed, sweeps=2):
    cfg = DesignConfig(m=m, n_vectors=n, sweeps=sweeps, seed=seed)
    frame, _ = run(cfg)
    return frame


def one_sweep(frame, seed, nonneg=False):
    """A one-sweep run from ``frame``, its order drawn from ``default_rng(seed)``."""
    cfg = DesignConfig(m=frame.m, n_vectors=frame.n_vectors, sweeps=1, seed=seed, nonneg=nonneg)
    return run(cfg, initial=frame)


class TestConfigValidation:
    def test_bad_dimensions(self):
        with pytest.raises(InvalidInput):
            DesignConfig(m=1, n_vectors=4)
        with pytest.raises(InvalidInput):
            DesignConfig(m=6, n_vectors=5)
        for sizes in [dict(m=4.5, n_vectors=8), dict(m=4, n_vectors=8.0)]:
            with pytest.raises(InvalidInput, match="must be an integer"):
                DesignConfig(**sizes)

    def test_bad_knobs(self):
        with pytest.raises(InvalidInput):
            DesignConfig(m=4, n_vectors=8, sweeps=-1)
        with pytest.raises(InvalidInput):
            DesignConfig(m=4, n_vectors=8, eps_stop=0.0)
        with pytest.raises(InvalidInput):
            DesignConfig(m=4, n_vectors=8, seed=-1)
        for knobs in [dict(sweeps=2.5), dict(sweeps=True), dict(seed=1.5)]:
            with pytest.raises(InvalidInput, match="must be an integer"):
                DesignConfig(m=4, n_vectors=8, **knobs)
        for knobs in [dict(nonneg="no"), dict(nonneg=1), dict(nonneg=None)]:
            with pytest.raises(InvalidInput, match="nonneg must be a bool"):
                DesignConfig(m=4, n_vectors=8, sweeps=2, **knobs)
        for eps_stop in ["0.1", True, None]:
            with pytest.raises(InvalidInput, match="eps_stop must be a real number"):
                DesignConfig(m=4, n_vectors=8, eps_stop=eps_stop)

class TestInitialization:
    def test_raw_gaussian_coherence_level(self):
        # Column-normalized Gaussian (15,30) frames have a stable average
        # peak correlation around 0.726; an independent reference for the
        # pre-refinement stage recorded in SweepReport.raw_coherence.
        mus = [mutual_coherence(random_unit_frame(15, 30, s)) for s in range(100)]
        assert abs(float(np.mean(mus)) - 0.7264) < 0.03

    def test_refined_start_coherence_level(self):
        # The polar refinement drops (64,128) starts to roughly 0.36.
        mus = [mutual_coherence(seeded_start(DesignConfig(m=64, n_vectors=128, seed=s))) for s in range(20)]
        assert abs(float(np.mean(mus)) - 0.3606) < 0.05

    def test_unit_norms(self):
        for f in (random_unit_frame(7, 19, 3), seeded_start(DesignConfig(m=7, n_vectors=19, seed=3))):
            norms = np.linalg.norm(f.vectors, axis=0)
            assert np.abs(norms - 1.0).max() < 1e-10

    def test_deterministic(self):
        a = seeded_start(DesignConfig(m=9, n_vectors=21, seed=11))
        b = seeded_start(DesignConfig(m=9, n_vectors=21, seed=11))
        c = seeded_start(DesignConfig(m=9, n_vectors=21, seed=12))
        assert np.array_equal(a.vectors, b.vectors)
        assert not np.array_equal(a.vectors, c.vectors)

    def test_nonneg_start_is_entrywise_nonneg(self):
        f = seeded_start(DesignConfig(m=6, n_vectors=14, seed=4, nonneg=True))
        assert f.vectors.min() >= 0.0
        assert np.abs(np.linalg.norm(f.vectors, axis=0) - 1.0).max() < 1e-10

    def test_rank_deficient_start_is_not_redrawn(self, monkeypatch):
        # The frame and manifest record the seed, so the start is drawn once.
        calls = []

        def refuse(a):
            calls.append(a)
            raise RankDeficient("refused")

        monkeypatch.setattr(incoframes.design, "unit_polar", refuse)
        with pytest.raises(RankDeficient):
            run(DesignConfig(m=4, n_vectors=8, sweeps=2, seed=3))
        assert len(calls) == 1


class TestSubproblem:
    def test_radius_matches_formula(self):
        frame = random_unit_frame(8, 20, seed=5)
        v = frame.vectors
        for i in (0, 7, 19):
            corr = np.abs(v.T @ v[:, i])
            corr[i] = -1.0
            gmax = float(corr.max())
            assert subproblem(frame, i).radius_sq == (1.0 - 1e-4) * (1.0 - gmax * gmax)

    def test_all_correlations_nonnegative(self):
        rng = np.random.default_rng(7)
        fr = Frame(unit_columns(rng.standard_normal((6, 13))))
        for i in (0, 5, 12):
            prob = subproblem(fr, i)
            assert prob.reference.tobytes() == fr.vectors[:, i].tobytes()
            assert (prob.neighbors.T @ prob.reference).min() >= 0.0

    def test_neighbors_are_flipped_columns(self):
        rng = np.random.default_rng(8)
        v = unit_columns(rng.standard_normal((4, 8)))
        for i in (0, 2, 7):
            signs = np.where(v.T @ v[:, i] < 0.0, -1.0, 1.0)
            signs[i] = 1.0
            want = np.delete(v * signs, i, 1)
            assert subproblem(Frame(v), i).neighbors.tobytes() == want.tobytes()

    def test_neighbor_magnitudes_unchanged(self):
        rng = np.random.default_rng(9)
        fr = Frame(unit_columns(rng.standard_normal((5, 9))))
        prob = subproblem(fr, 3)
        assert np.array_equal(np.abs(prob.neighbors), np.abs(np.delete(fr.vectors, 3, 1)))

    def test_duplicate_vector_rejected(self):
        v = random_unit_frame(5, 10, seed=7).vectors.copy()
        v[:, 3] = v[:, 8]
        with pytest.raises(DegenerateVector):
            subproblem(Frame(v), 3)
        with pytest.raises(DegenerateVector):
            subproblem(Frame(v), 8)

    def test_index_out_of_range(self):
        frame = random_unit_frame(4, 9, seed=6)
        for i in (-1, 9):
            with pytest.raises(InvalidInput):
                subproblem(frame, i)

    def test_index_must_be_an_integer(self):
        # Sweeps pass numpy integers; a float, a bool or a string is no index.
        frame = random_unit_frame(4, 9, seed=6)
        for i in (1.0, True, np.bool_(True), "1", np.float64(1.0)):
            with pytest.raises(InvalidInput, match="column index must be an integer"):
                subproblem(frame, i)
        want = subproblem(frame, 1)
        assert np.array_equal(subproblem(frame, np.int64(1)).neighbors, want.neighbors)

    @pytest.mark.parametrize("nonneg", [False, True], ids=["signed", "nonneg"])
    def test_sweep_solves_the_same_problem(self, monkeypatch, nonneg):
        frame = seeded_start(DesignConfig(m=7, n_vectors=18, seed=12, nonneg=nonneg))
        cfg = DesignConfig(m=7, n_vectors=18, sweeps=1, seed=3, nonneg=nonneg)
        seen = []
        solve = incoframes.design.solve_subproblem

        def record(problem):
            seen.append(problem)
            return solve(problem)

        monkeypatch.setattr(incoframes.design, "solve_subproblem", record)
        run(cfg, initial=frame)
        first = int(np.random.default_rng(cfg.seed).permutation(np.arange(0 if nonneg else 1, 18))[0])
        want = subproblem(frame, first, nonneg=nonneg)
        assert seen[0].reference.tobytes() == want.reference.tobytes()
        assert seen[0].neighbors.tobytes() == want.neighbors.tobytes()
        assert (seen[0].radius_sq, seen[0].nonneg) == (want.radius_sq, nonneg)


class TestTracedNames:
    """The bench tracer swaps these names in the design module at run time;
    code that bound them at import time would silence its spans."""

    def test_design_looks_names_up_at_call_time(self, monkeypatch):
        calls = {"TrustSubproblem": 0, "solve_subproblem": 0}
        for name in calls:
            original = getattr(incoframes.design, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(incoframes.design, name, counted)
        frame, _ = run(DesignConfig(m=6, n_vectors=12, sweeps=2, seed=21))
        assert calls["TrustSubproblem"] > 0 and calls["solve_subproblem"] > 0
        built = calls["TrustSubproblem"]
        subproblem(frame, 1)
        assert calls["TrustSubproblem"] == built + 1


class TestSweep:
    """Single sweeps through ``run(cfg, initial=frame)`` with ``sweeps=1``."""

    def test_input_frame_untouched_and_first_vector_fixed(self):
        frame = seeded_start(DesignConfig(m=7, n_vectors=18, seed=12))
        before = frame.vectors.copy()
        new, report = one_sweep(frame, seed=0)
        assert np.array_equal(frame.vectors, before)
        assert report.best_sweep == 1  # ``new`` is the swept frame
        # Vector 0 is the anchor: a sweep may flip its sign but never moves it.
        assert abs(abs(float(new.vectors[:, 0] @ before[:, 0])) - 1.0) < 1e-12
        assert report.updated[0] > 0

    def test_every_vector_lands_in_one_bucket(self):
        frame = seeded_start(DesignConfig(m=6, n_vectors=16, seed=13))
        _, report = one_sweep(frame, seed=1)
        assert report.updated[0] + report.stalled[0] + report.degenerate[0] == 15

    def test_single_sweep_does_not_increase_coherence(self):
        # Each accepted update cannot raise the peak correlation of the
        # touched column beyond the old one plus solver noise.
        frame = seeded_start(DesignConfig(m=8, n_vectors=20, seed=14))
        _, report = one_sweep(frame, seed=2)
        assert report.initial_coherence == mutual_coherence(frame)
        assert report.trace[0] <= report.initial_coherence + 1e-9

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_simplex_etf_is_tie_skipped(self, m):
        _, report = one_sweep(make_simplex_etf(m), seed=0)
        assert (report.tie_skips[0], report.updated[0]) == (m, 0)

    def test_duplicate_column_counted_degenerate(self):
        v = random_unit_frame(5, 10, seed=7).vectors.copy()
        v[:, 8] = v[:, 3]
        _, report = one_sweep(Frame(v), seed=0)
        assert report.degenerate[0] == 2

    def test_dimension_mismatch(self):
        frame = random_unit_frame(5, 10, seed=15)
        with pytest.raises(InvalidInput):
            run(DesignConfig(m=6, n_vectors=10, sweeps=1), initial=frame)

    def test_nonneg_sweep_keeps_entries_nonneg_and_moves_vector_zero(self):
        frame = seeded_start(DesignConfig(m=6, n_vectors=18, seed=16, nonneg=True))
        new, report = one_sweep(frame, seed=3, nonneg=True)
        assert report.best_sweep == 1  # ``new`` is the swept frame
        assert new.vectors.min() >= 0.0
        assert report.updated[0] > 0
        # No anchor in nonneg mode: vector 0 is optimized like the rest.
        assert not np.allclose(new.vectors[:, 0], frame.vectors[:, 0])


class TestEtfFixedPoint:
    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_simplex_etf_untouched_through_escape(self, m):
        etf = make_simplex_etf(m)
        cfg = DesignConfig(m=m, n_vectors=m + 1, sweeps=7, seed=0)
        frame, report = run(cfg, initial=etf)
        target = 1.0 / m
        assert abs(mutual_coherence(frame) - target) < 1e-6
        for mu in report.trace:
            assert abs(mu - target) < 1e-6
        # No sweep makes progress at the fixed point, so the flat-window
        # escape must fire; it maps the tight frame back to itself.
        assert report.escape_sweeps
        for mu in report.escape_coherence:
            assert abs(mu - target) < 1e-6


class TestRun:
    def test_trace_monotone_between_escapes(self):
        for seed in (3, 4):
            cfg = DesignConfig(m=15, n_vectors=60, sweeps=25, seed=seed)
            _, rep = run(cfg)
            escapes = set(rep.escape_sweeps)
            esc_mu = dict(zip(rep.escape_sweeps, rep.escape_coherence))
            for k in range(2, len(rep.trace) + 1):
                prev = esc_mu[k - 1] if (k - 1) in escapes else rep.trace[k - 2]
                assert rep.trace[k - 1] <= prev + 1e-9

    def test_square_frame_exits_immediately(self):
        cfg = DesignConfig(m=5, n_vectors=5, sweeps=30, seed=17)
        frame, rep = run(cfg)
        assert rep.trace == []
        assert mutual_coherence(frame) <= 1e-12

    def test_deterministic_rerun(self):
        cfg = DesignConfig(m=8, n_vectors=24, sweeps=8, seed=18)
        f1, r1 = run(cfg)
        f2, r2 = run(cfg)
        assert np.array_equal(f1.vectors, f2.vectors)
        assert r1.trace == r2.trace
        assert r1.escape_sweeps == r2.escape_sweeps

    def test_escape_every_three_sweeps_when_threshold_is_huge(self):
        # eps_stop close to 1 makes every 3-sweep window look flat; the
        # window resets after each escape, so they fire at 3, 6, 9.
        cfg = DesignConfig(m=6, n_vectors=12, sweeps=9, seed=19, eps_stop=0.9)
        _, rep = run(cfg)
        assert rep.escape_sweeps == [3, 6, 9]

    def test_returns_best_frame_seen(self):
        cfg = DesignConfig(m=10, n_vectors=30, sweeps=12, seed=20)
        frame, rep = run(cfg)
        candidates = [rep.initial_coherence] + rep.trace + rep.escape_coherence
        assert abs(mutual_coherence(frame) - min(candidates)) < 1e-12

    def test_escape_that_beats_every_frame_is_returned(self, monkeypatch):
        # The escape hands back a longer run's frame, better than any sweep's.
        # Starting from ``initial``, only the escape calls ``unit_polar``.
        better, _ = run(DesignConfig(m=6, n_vectors=12, sweeps=60, seed=22))
        monkeypatch.setattr(incoframes.design, "unit_polar", lambda a: better.vectors.copy())
        start = random_unit_frame(6, 12, np.random.default_rng(23))
        cfg = DesignConfig(m=6, n_vectors=12, sweeps=3, seed=22, eps_stop=0.9)
        frame, rep = run(cfg, initial=start)
        assert rep.escape_sweeps == [3]
        assert rep.escape_coherence[0] < min([rep.initial_coherence, *rep.trace])
        assert rep.best_sweep == 3
        assert rep.final_metrics.mu == rep.escape_coherence[0]
        assert mutual_coherence(frame) == rep.escape_coherence[0]
        assert np.allclose(frame.vectors, better.vectors, rtol=0.0, atol=1e-15)

    def test_caller_initial_frame(self):
        start = run_in(6, 14, seed=21, sweeps=1)
        cfg = DesignConfig(m=6, n_vectors=14, sweeps=3, seed=21)
        _, rep = run(cfg, initial=start)
        assert rep.initial_coherence == pytest.approx(mutual_coherence(start), abs=1e-15)
        assert rep.raw_coherence == rep.initial_coherence
        with pytest.raises(InvalidInput):
            run(DesignConfig(m=7, n_vectors=14), initial=start)

    def test_nonneg_run(self):
        cfg = DesignConfig(m=6, n_vectors=18, sweeps=8, seed=22, nonneg=True)
        frame, rep = run(cfg)
        assert frame.vectors.min() >= 0.0
        assert mutual_coherence(frame) < rep.initial_coherence
        assert rep.raw_coherence == rep.initial_coherence  # no polar refinement
        assert rep.escape_sweeps == []

    def test_every_sweep_works_on_a_column_major_matrix(self, monkeypatch):
        # The sweep's bits depend on the array layout, so every start path
        # and every escape must hand it the same one.
        layouts = []
        sweep = incoframes.design._sweep_inplace

        def record(work, cfg, rng):
            layouts.append(work.flags.f_contiguous)
            return sweep(work, cfg, rng)

        monkeypatch.setattr(incoframes.design, "_sweep_inplace", record)
        _, rep = run(DesignConfig(m=6, n_vectors=12, sweeps=5, seed=19, eps_stop=0.9))
        assert rep.escape_sweeps == [3]
        for nonneg in (False, True):
            cfg = DesignConfig(m=6, n_vectors=12, sweeps=2, seed=19, nonneg=nonneg)
            run(cfg)
            run(cfg, initial=seeded_start(cfg))
        assert layouts == [True] * 13


class TestPinnedRuns:
    """Two short runs pinned to the byte, with their skipped vectors.

    The digests are sha256 of ``frame.vectors.tobytes()``. A refactor of the
    solver or the sweep must reproduce them exactly; they move only in a
    recorded fingerprint re-base, which lists the old and new values in
    CHANGES.md. The signed run skips one vector in sweep 2, at the tie gate:
    its last exact step left m neighbors tied at its largest correlation.
    The nonneg run skips none. So both pin that no solve stalls (the two
    the nonneg run once skipped as stalls are ``tests/data/nonneg_stalls.npz``).
    The tie gate is also covered by ``test_simplex_etf_is_tie_skipped``.
    """

    # (config, digest, skipped vectors per sweep, why they were skipped)
    PINS = {
        "signed-15x30": (
            DesignConfig(m=15, n_vectors=30, sweeps=12, seed=101, eps_stop=1e-3),
            "2e927b5099d5e5fe3104a70925169eccd1b89ebc129cf4657d7bca463402d037",
            [0, 1] + [0] * 10,
            "tie_skips",
        ),
        "nonneg-20x40": (
            DesignConfig(m=20, n_vectors=40, sweeps=8, seed=101, nonneg=True),
            "4c10c8100b957fdc1277c356f1579b69c2d8767b562b25962b92809772bc14d3",
            [0] * 8,
            "solver_stalls",
        ),
    }

    @pytest.fixture(scope="class")
    def runs(self):
        return {name: (cfg, *run(cfg)) for name, (cfg, *_) in self.PINS.items()}

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_frame_bytes(self, runs, name):
        _, digest, stalled, reason = self.PINS[name]
        _, frame, report = runs[name]
        assert report.stalled == stalled
        assert getattr(report, reason) == stalled
        assert hashlib.sha256(frame.vectors.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_skip_reasons_add_up(self, runs, name):
        cfg, _, report = runs[name]
        visited = cfg.n_vectors - (0 if cfg.nonneg else 1)
        sweeps = len(report.trace)
        for key in ("updated", "tie_skips", "solver_stalls", "stalled", "degenerate"):
            assert len(getattr(report, key)) == sweeps, key
        for k in range(sweeps):
            assert report.tie_skips[k] + report.solver_stalls[k] == report.stalled[k]
            assert report.updated[k] + report.stalled[k] + report.degenerate[k] == visited


@pytest.mark.slow
class TestHighRedundancyQualitative:
    def test_15x120_dynamics(self):
        # High-redundancy runs plateau, escape once past the flat window,
        # and land well under the 0.37 mark within 110 sweeps.
        cfg = DesignConfig(m=15, n_vectors=120, sweeps=110, seed=1)
        frame, rep = run(cfg)
        assert rep.escape_sweeps
        assert rep.escape_sweeps[0] >= 10
        assert mutual_coherence(frame) <= 0.37
        assert rep.trace[0] < rep.initial_coherence
