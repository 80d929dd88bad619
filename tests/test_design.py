"""Driver-level behaviour: initialization, trust radii, single sweeps,
escape scheduling, and full runs on small frames."""

import numpy as np
import pytest

from incoframes import (
    DegenerateVector,
    DesignConfig,
    Frame,
    InvalidInput,
    choose_radius,
    initialize,
    make_simplex_etf,
    mutual_coherence,
    random_unit_frame,
    run,
    sweep,
)


def run_in(m, n, seed, sweeps=2):
    cfg = DesignConfig(m=m, n_vectors=n, sweeps=sweeps, seed=seed)
    frame, _ = run(cfg)
    return frame


class TestConfigValidation:
    def test_bad_dimensions(self):
        with pytest.raises(InvalidInput):
            DesignConfig(m=1, n_vectors=4)
        with pytest.raises(InvalidInput):
            DesignConfig(m=6, n_vectors=5)

    def test_bad_knobs(self):
        with pytest.raises(InvalidInput):
            DesignConfig(m=4, n_vectors=8, sweeps=-1)
        with pytest.raises(InvalidInput):
            DesignConfig(m=4, n_vectors=8, eps_stop=0.0)

class TestInitialization:
    def test_raw_gaussian_coherence_level(self):
        # Column-normalized Gaussian (15,30) frames have a stable average
        # peak correlation around 0.726; an independent reference for the
        # pre-refinement stage recorded in SweepReport.raw_coherence.
        mus = [mutual_coherence(random_unit_frame(15, 30, s)) for s in range(100)]
        assert abs(float(np.mean(mus)) - 0.7264) < 0.03

    def test_refined_start_coherence_level(self):
        # The polar refinement drops (64,128) starts to roughly 0.36.
        mus = [mutual_coherence(initialize(DesignConfig(m=64, n_vectors=128, seed=s))) for s in range(20)]
        assert abs(float(np.mean(mus)) - 0.3606) < 0.05

    def test_unit_norms(self):
        for f in (random_unit_frame(7, 19, 3), initialize(DesignConfig(m=7, n_vectors=19, seed=3))):
            norms = np.linalg.norm(f.vectors, axis=0)
            assert np.abs(norms - 1.0).max() < 1e-10

    def test_deterministic(self):
        a = initialize(DesignConfig(m=9, n_vectors=21, seed=11))
        b = initialize(DesignConfig(m=9, n_vectors=21, seed=11))
        c = initialize(DesignConfig(m=9, n_vectors=21, seed=12))
        assert np.array_equal(a.vectors, b.vectors)
        assert not np.array_equal(a.vectors, c.vectors)

    def test_nonneg_start_is_entrywise_nonneg(self):
        f = initialize(DesignConfig(m=6, n_vectors=14, seed=4, nonneg=True))
        assert f.vectors.min() >= 0.0
        assert np.abs(np.linalg.norm(f.vectors, axis=0) - 1.0).max() < 1e-10


class TestChooseRadius:
    def test_matches_formula(self):
        frame = random_unit_frame(8, 20, seed=5)
        v = frame.vectors
        for i in (0, 7, 19):
            corr = np.abs(v.T @ v[:, i])
            corr[i] = -1.0
            gmax = float(corr.max())
            want = (1.0 - 1e-4) * (1.0 - gmax * gmax)
            assert abs(choose_radius(frame, i) - want) < 1e-15

    def test_custom_slack(self):
        frame = random_unit_frame(4, 9, seed=6)
        t1 = choose_radius(frame, 2, slack=1e-4)
        t2 = choose_radius(frame, 2, slack=0.05)
        assert t2 < t1
        with pytest.raises(InvalidInput):
            choose_radius(frame, 2, slack=0.0)
        with pytest.raises(InvalidInput):
            choose_radius(frame, 2, slack=0.5)

    def test_duplicate_vector_rejected(self):
        v = random_unit_frame(5, 10, seed=7).vectors.copy()
        v[:, 3] = v[:, 8]
        with pytest.raises(DegenerateVector):
            choose_radius(Frame(v), 3)
        with pytest.raises(DegenerateVector):
            choose_radius(Frame(v), 8)


class TestSweep:
    def test_input_frame_untouched_and_first_vector_fixed(self):
        frame = initialize(DesignConfig(m=7, n_vectors=18, seed=12))
        before = frame.vectors.copy()
        cfg = DesignConfig(m=7, n_vectors=18, seed=12)
        new, stats = sweep(frame, cfg, np.random.default_rng(0))
        assert np.array_equal(frame.vectors, before)
        # Vector 0 is the anchor: a sweep may flip its sign but never moves it.
        assert abs(abs(float(new.vectors[:, 0] @ before[:, 0])) - 1.0) < 1e-12
        assert stats.updated > 0

    def test_every_vector_lands_in_one_bucket(self):
        frame = initialize(DesignConfig(m=6, n_vectors=16, seed=13))
        cfg = DesignConfig(m=6, n_vectors=16, seed=13)
        _, stats = sweep(frame, cfg, np.random.default_rng(1))
        assert stats.updated + stats.stalled + stats.degenerate == 15

    def test_single_sweep_does_not_increase_coherence(self):
        # Each accepted update cannot raise the peak correlation of the
        # touched column beyond the old one plus solver noise.
        frame = initialize(DesignConfig(m=8, n_vectors=20, seed=14))
        cfg = DesignConfig(m=8, n_vectors=20, seed=14)
        new, _ = sweep(frame, cfg, np.random.default_rng(2))
        assert mutual_coherence(new) <= mutual_coherence(frame) + 1e-9

    def test_dimension_mismatch(self):
        frame = random_unit_frame(5, 10, seed=15)
        with pytest.raises(InvalidInput):
            sweep(frame, DesignConfig(m=6, n_vectors=10), np.random.default_rng(0))

    def test_nonneg_sweep_keeps_entries_nonneg_and_moves_vector_zero(self):
        cfg = DesignConfig(m=6, n_vectors=18, seed=16, nonneg=True)
        frame = initialize(cfg)
        new, stats = sweep(frame, cfg, np.random.default_rng(3))
        assert new.vectors.min() >= 0.0
        assert stats.updated > 0
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

    def test_caller_initial_frame(self):
        start = run_in(6, 14, seed=21, sweeps=1)
        cfg = DesignConfig(m=6, n_vectors=14, sweeps=3, seed=21)
        _, rep = run(cfg, initial=start)
        mu0 = mutual_coherence(start)
        assert rep.raw_coherence == pytest.approx(mu0, abs=1e-15)
        assert rep.initial_coherence == pytest.approx(mu0, abs=1e-15)
        with pytest.raises(InvalidInput):
            run(DesignConfig(m=7, n_vectors=14), initial=start)

    def test_nonneg_run(self):
        cfg = DesignConfig(m=6, n_vectors=18, sweeps=8, seed=22, nonneg=True)
        frame, rep = run(cfg)
        assert frame.vectors.min() >= 0.0
        assert mutual_coherence(frame) < rep.initial_coherence
        assert rep.escape_sweeps == []


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
