"""Matching pursuit, compressed-sensing benchmark, and rotation adaptation."""

import itertools

import numpy as np
import pytest

import incoframes.sparse
from incoframes import (
    AdaptationRun,
    CsExperiment,
    DesignConfig,
    Frame,
    InvalidInput,
    adapt_dictionary,
    frame_metrics,
    make_planted_dataset,
    mutual_coherence,
    omp,
    random_sensing_frame,
    run,
    run_cs_experiment,
)
from incoframes.frames import unit_columns


@pytest.fixture(scope="module")
def designed_20x40():
    frame, _ = run(DesignConfig(m=20, n_vectors=40, sweeps=60, seed=7))
    return frame


def rank_2_in_r3(seed=0):
    """Six unit atoms spanning a plane of R^3, and a target off that plane."""
    rng = np.random.default_rng(seed)
    d = unit_columns(rng.standard_normal((3, 2)) @ rng.standard_normal((2, 6)))
    return d, rng.standard_normal(3)


@pytest.fixture(scope="module")
def designed_8x16():
    frame, _ = run(DesignConfig(m=8, n_vectors=16, sweeps=40, seed=3))
    return frame


class TestOmp:
    def test_exact_recovery_on_orthonormal_basis(self):
        rng = np.random.default_rng(0)
        d = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        a = np.zeros(10)
        a[[2, 5, 9]] = [1.5, -0.7, 0.3]
        sup, coef = omp(d, d @ a, 3)
        assert sorted(sup.tolist()) == [2, 5, 9]
        rec = np.zeros(10)
        rec[sup] = coef
        assert np.abs(rec - a).max() < 1e-12

    def test_brute_force_agreement_below_coherence_cap(self, designed_20x40):
        # Incoherent dictionary with cap >= 3: a 3-sparse synthesis is the
        # unique exact representation, the greedy pursuit must find it, and
        # exhaustive search over all supports must agree.
        d = designed_20x40.vectors
        assert frame_metrics(designed_20x40).sparsity_cap >= 3
        rng = np.random.default_rng(4)
        for _ in range(5):
            support = np.sort(rng.choice(40, size=3, replace=False))
            a = np.zeros(40)
            a[support] = rng.standard_normal(3) + np.sign(rng.standard_normal(3))
            y = d @ a
            sup_hat, coef = omp(d, y, 3)
            assert sorted(sup_hat.tolist()) == support.tolist()
            best = None
            for cand in itertools.combinations(range(40), 3):
                x, *_ = np.linalg.lstsq(d[:, cand], y, rcond=None)
                res = float(np.linalg.norm(y - d[:, cand] @ x))
                if best is None or res < best[0]:
                    best = (res, cand)
            assert best[0] < 1e-10
            assert list(best[1]) == support.tolist()
            rec = np.zeros(40)
            rec[sup_hat] = coef
            assert np.abs(rec - a).max() < 1e-10

    def test_correlation_ties_go_to_lowest_index(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        d = np.column_stack([e1, e1, e2])
        sup, _ = omp(d, e1, 2)
        assert sup.tolist() == [0]  # duplicate at index 1 never enters

    def test_zero_sparsity(self):
        d = unit_columns(np.random.default_rng(1).standard_normal((6, 9)))
        sup, coef = omp(d, np.ones(6), 0)
        assert sup.size == 0 and coef.size == 0

    def test_early_stop_on_exact_fit(self):
        rng = np.random.default_rng(2)
        d = unit_columns(rng.standard_normal((8, 12)))
        y = 0.9 * d[:, 4]
        sup, coef = omp(d, y, 5)
        assert sup.tolist() == [4]
        assert abs(coef[0] - 0.9) < 1e-12

    def test_rank_deficient_selection_stops_the_pursuit(self):
        d, y = rank_2_in_r3()
        sup, coef = omp(d, y, 3)
        assert len(sup) == 2
        residual = y - d[:, sup] @ coef
        assert np.abs(d.T @ residual).max() < 1e-14
        # The third pick is a new atom: the pursuit stopped because adding it
        # made the selection rank deficient, not because it was picked twice.
        assert int(np.argmax(np.abs(d.T @ residual))) not in sup.tolist()

    def test_input_validation(self):
        d = unit_columns(np.random.default_rng(3).standard_normal((5, 8)))
        with pytest.raises(InvalidInput):
            omp(d, np.ones(4), 2)
        with pytest.raises(InvalidInput):
            omp(d, np.ones(5), 6)
        with pytest.raises(InvalidInput):
            omp(d, np.full(5, np.nan), 2)
        with pytest.raises(InvalidInput):
            omp(np.ones(5), np.ones(5), 1)


def _planted(noise):
    frame = random_sensing_frame(8, 16, seed=6)
    return frame.vectors, make_planted_dataset(frame, 3, 40, noise, seed=6)[0]


def _zero_column():
    d, y = _planted(0.01)
    y[:, [0, 7]] = 0.0
    return d, y


def _rank_deficient():
    d, y = rank_2_in_r3()
    extra = np.random.default_rng(1).standard_normal((3, 9))
    return d, np.column_stack([y, d[:, :2] @ [0.5, -1.0], extra])


def _parallel_atoms():
    # Atoms that are multiples of one vector tie up to roundoff.
    rng = np.random.default_rng(2)
    d = unit_columns(np.outer(rng.standard_normal(5), rng.standard_normal(9)))
    return d, rng.standard_normal((5, 12))


def _cs_stack():
    # One normalized F D per target, as compressed-sensing trials pursue them.
    rng = np.random.default_rng(3)
    f_mat = random_sensing_frame(8, 16, seed=3).vectors
    d = np.array([unit_columns(f_mat @ unit_columns(rng.standard_normal((16, 24))))
                  for _ in range(11)])
    a = np.zeros((11, 24))
    for t in range(11):
        a[t, rng.choice(24, size=3, replace=False)] = rng.standard_normal(3)
    return d, np.einsum("tmk,tk->mt", d, a)


def omp_reference(d, y, s):
    """The per-signal pursuit: one lstsq refit on the whole selection per step."""
    support, coef, residual = [], np.zeros(0), y.copy()
    for _ in range(s):
        if float(np.linalg.norm(residual)) < 1e-12:
            break
        j = int(np.argmax(np.abs(d.T @ residual)))
        if j in support:
            break
        x, _, rank, _ = np.linalg.lstsq(d[:, support + [j]], y, rcond=None)
        if rank <= len(support):
            break
        support.append(j)
        coef = x
        residual = y - d[:, support] @ coef
    return np.asarray(support, dtype=int), coef


class TestSparseCodes:
    @pytest.mark.parametrize(
        "make",
        [lambda: _planted(0.01), lambda: _planted(0.0), _zero_column, _rank_deficient,
         _parallel_atoms, _cs_stack],
        ids=["planted", "noiseless", "zero-column", "rank-deficient", "parallel-atoms",
             "cs-stack"],
    )
    def test_matches_per_column_omp(self, make):
        d, y = make()
        m = d.shape[-2]
        for s in sorted({0, 1, min(4, m), m}):
            supports, coefs = omp(d, y, s)
            assert len(supports) == len(coefs) == y.shape[1]
            for j in range(y.shape[1]):
                d_j = d[j] if d.ndim == 3 else d
                sup, coef = omp_reference(d_j, y[:, j], s)
                assert np.array_equal(supports[j], sup), (s, j)
                assert np.abs(coefs[j] - coef).max(initial=0.0) <= 1e-12 * np.abs(coef).max(
                    initial=0.0), (s, j)
                # The 1-D form is the same pursuit: column j's pair, bit for bit.
                one_sup, one_coef = omp(d_j, y[:, j], s)
                assert np.array_equal(one_sup, supports[j])
                assert np.array_equal(one_coef, coefs[j])

    def test_one_stacked_pursuit_per_pass(self, monkeypatch):
        """A 256-sample coding pass and one chunk of CS trials each make one
        ``omp`` call and at most s stacked ``least_squares`` calls."""
        counts = {"omp": 0, "least_squares": 0}

        def counted(name):
            fn = getattr(incoframes.sparse, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(incoframes.sparse, name, call)

        counted("omp")
        counted("least_squares")
        frame = random_sensing_frame(8, 16, seed=6)
        y, _, _ = make_planted_dataset(frame, 3, 256, 0.01, seed=6)
        adapt_dictionary(y, frame, 4, 0)
        assert counts["omp"] == 1 and 1 <= counts["least_squares"] <= 4
        counts.update(omp=0, least_squares=0)
        exp = CsExperiment(n_signal=20, n_atoms=30, sparsity=3, trials=8, seed=2)
        run_cs_experiment(exp, random_sensing_frame(8, 20, seed=5))
        assert counts["omp"] == 1 and 1 <= counts["least_squares"] <= 3


class TestCsExperiment:
    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            CsExperiment(n_signal=1, n_atoms=5, sparsity=1, trials=10)
        with pytest.raises(InvalidInput):
            CsExperiment(n_signal=10, n_atoms=5, sparsity=1, trials=10)
        with pytest.raises(InvalidInput):
            CsExperiment(n_signal=10, n_atoms=20, sparsity=11, trials=10)
        with pytest.raises(InvalidInput):
            CsExperiment(n_signal=10, n_atoms=20, sparsity=2, trials=0)
        with pytest.raises(InvalidInput):
            CsExperiment(n_signal=10, n_atoms=20, sparsity=2, trials=10, seed=-1)
        base = dict(n_signal=12, n_atoms=18, sparsity=2, trials=3, seed=1)
        for bad in [
            dict(n_signal=12.0), dict(n_atoms=18.5), dict(sparsity=2.5), dict(trials=3.0),
            dict(trials=True), dict(seed=1.5), dict(seed="1"), dict(seed=True),
        ]:
            with pytest.raises(InvalidInput, match="must be an integer"):
                CsExperiment(**{**base, **bad})

    def test_deterministic_for_fixed_seed(self):
        exp = CsExperiment(n_signal=20, n_atoms=30, sparsity=2, trials=40, seed=11)
        sensing = random_sensing_frame(8, 20, seed=5)
        r1 = run_cs_experiment(exp, sensing)
        r2 = run_cs_experiment(exp, sensing)
        assert np.array_equal(r1.errors, r2.errors)
        assert r1.mean_error == r2.mean_error
        assert r1.support_rate == r2.support_rate
        assert set(r1.quantiles) == {"q25", "q50", "q75"}
        assert r1.quantiles["q25"] <= r1.quantiles["q50"] <= r1.quantiles["q75"]

    def test_zero_sparsity_degenerate(self):
        exp = CsExperiment(n_signal=20, n_atoms=30, sparsity=0, trials=15, seed=1)
        res = run_cs_experiment(exp, random_sensing_frame(8, 20, seed=5))
        # Nothing to recover: the general trial loop reports exact recovery.
        assert np.array_equal(res.errors, np.zeros(15))
        assert res.mean_error == 0.0
        assert res.quantiles == {"q25": 0.0, "q50": 0.0, "q75": 0.0}
        assert res.support_rate == 1.0

    def test_designed_sensing_beats_random(self, designed_20x40):
        exp = CsExperiment(n_signal=40, n_atoms=60, sparsity=3, trials=1000, seed=5)
        designed = run_cs_experiment(exp, designed_20x40)
        random = run_cs_experiment(exp, random_sensing_frame(20, 40, seed=123))
        assert designed.sensing_coherence < random.sensing_coherence
        assert designed.mean_error < random.mean_error
        assert designed.support_rate >= random.support_rate

    @pytest.mark.parametrize("s, m, trials", [(3, 8, 37), (0, 6, 5), (6, 6, 11)])
    def test_matches_a_per_trial_reference(self, s, m, trials):
        # Each trial drawn, pursued on its own and scored with 1-D dot
        # products, as a loop would: the stacked scoring must agree bit for bit.
        n, m_atoms = 20, 30
        sensing = random_sensing_frame(m, n, seed=s)
        f_mat = sensing.vectors
        errors, exact = [], 0
        for child in np.random.SeedSequence(8).spawn(trials):
            rng = np.random.default_rng(child)
            d = unit_columns(rng.standard_normal((n, m_atoms)))
            support = rng.choice(m_atoms, size=s, replace=False)
            a = np.zeros(m_atoms)
            a[support] = rng.standard_normal(s)
            phi = f_mat @ d
            scale = np.linalg.norm(phi, axis=0)
            scale[scale < 1e-300] = 1.0
            sup_hat, coef = omp(phi / scale, f_mat @ (d @ a), s)
            a_hat = np.zeros(m_atoms)
            a_hat[sup_hat] = coef / scale[sup_hat]
            denom = float(a @ a)
            errors.append(float((a - a_hat) @ (a - a_hat)) / denom if denom > 0.0 else 0.0)
            exact += set(sup_hat.tolist()) == set(support.tolist())
        res = run_cs_experiment(CsExperiment(n, m_atoms, s, trials, seed=8), sensing)
        assert np.array_equal(res.errors, errors)
        assert res.support_rate == exact / trials

    def test_trials_do_not_depend_on_their_chunk(self):
        # Spawned seeds are index-stable, so the first five trials draw alike.
        sensing = random_sensing_frame(8, 20, seed=5)
        few = run_cs_experiment(CsExperiment(20, 30, 3, trials=5, seed=4), sensing)
        many = run_cs_experiment(CsExperiment(20, 30, 3, trials=37, seed=4), sensing)
        assert np.array_equal(few.errors, many.errors[:5])
        assert few.errors.max() > 0.0

    def test_dimension_mismatch(self):
        exp = CsExperiment(n_signal=20, n_atoms=30, sparsity=2, trials=5)
        with pytest.raises(InvalidInput):
            run_cs_experiment(exp, random_sensing_frame(8, 19, seed=0))
        with pytest.raises(InvalidInput):
            run_cs_experiment(exp, np.eye(8))


class TestAdaptation:
    def test_rotation_is_orthogonal_and_consistent(self, designed_8x16):
        y, _, _ = make_planted_dataset(designed_8x16, s=2, n_samples=60, noise=0.0, seed=9)
        res = adapt_dictionary(y, designed_8x16, s=2, iterations=10)
        eye_err = np.abs(res.rotation.T @ res.rotation - np.eye(8)).max()
        assert eye_err < 1e-12
        rebuilt = res.rotation @ designed_8x16.vectors
        assert np.abs(res.adapted.vectors - rebuilt).max() < 1e-12

    def test_coherence_preserved_to_machine_precision(self, designed_8x16):
        y, _, _ = make_planted_dataset(designed_8x16, s=2, n_samples=60, noise=0.02, seed=10)
        res = adapt_dictionary(y, designed_8x16, s=2, iterations=20)
        drift = abs(mutual_coherence(res.adapted) - mutual_coherence(designed_8x16))
        assert drift <= 1e-12

    def test_planted_error_decreases(self, designed_8x16):
        y, _, _ = make_planted_dataset(designed_8x16, s=2, n_samples=60, noise=0.0, seed=9)
        res = adapt_dictionary(y, designed_8x16, s=2, iterations=25)
        assert res.error_trace[-1] < res.error_trace[0] - 0.05
        assert len(res.error_trace) == 26

    def test_zero_iterations(self, designed_8x16):
        y, _, _ = make_planted_dataset(designed_8x16, s=2, n_samples=20, noise=0.0, seed=3)
        res = adapt_dictionary(y, designed_8x16, s=2, iterations=0)
        assert len(res.error_trace) == 1
        assert np.array_equal(res.adapted.vectors, designed_8x16.vectors)
        assert np.array_equal(res.rotation, np.eye(8))

    def test_rank_deficient_rounds_stay_rotations(self):
        # Every sample is a multiple of one atom, so Y X^T F^T has rank 1 in
        # every round and its SVD has zero singular directions.
        frame = random_sensing_frame(4, 8, seed=5)
        y = np.outer(frame.vectors[:, 3], [1.0, -2.0, 0.5, 3.0, -0.25])
        res = adapt_dictionary(y, frame, s=1, iterations=3)
        assert res.rank_deficient_steps == [1, 2, 3]
        assert np.abs(res.rotation.T @ res.rotation - np.eye(4)).max() < 1e-12
        assert abs(mutual_coherence(res.adapted) - mutual_coherence(frame)) <= 1e-10

    def test_input_validation(self, designed_8x16):
        with pytest.raises(InvalidInput):
            adapt_dictionary(np.ones((7, 5)), designed_8x16, 2, 3)
        for s in (-1, 9):
            with pytest.raises(InvalidInput):
                adapt_dictionary(np.ones((8, 5)), designed_8x16, s, 3)
        with pytest.raises(InvalidInput):
            adapt_dictionary(np.zeros((8, 5)), designed_8x16, 2, 3)
        with pytest.raises(InvalidInput):
            adapt_dictionary(np.ones((8, 5)), designed_8x16, 2, -1)
        bad = np.ones((8, 5))
        bad[0, 0] = np.inf
        with pytest.raises(InvalidInput):
            adapt_dictionary(bad, designed_8x16, 2, 3)


class TestPlantedDataset:
    def test_noiseless_reconstruction_and_determinism(self, designed_8x16):
        y1, q1, x1 = make_planted_dataset(designed_8x16, s=3, n_samples=12, noise=0.0, seed=21)
        y2, q2, x2 = make_planted_dataset(designed_8x16, s=3, n_samples=12, noise=0.0, seed=21)
        assert np.array_equal(y1, y2) and np.array_equal(q1, q2) and np.array_equal(x1, x2)
        assert np.abs(y1 - q1 @ designed_8x16.vectors @ x1).max() == 0.0
        assert np.abs(q1.T @ q1 - np.eye(8)).max() < 1e-12
        assert ((x1 != 0).sum(axis=0) <= 3).all()

    def test_noise_scale(self, designed_8x16):
        y0, q, x = make_planted_dataset(designed_8x16, s=2, n_samples=30, noise=0.0, seed=8)
        y1, q1, x1 = make_planted_dataset(designed_8x16, s=2, n_samples=30, noise=0.05, seed=8)
        assert np.array_equal(q, q1) and np.array_equal(x, x1)
        dev = y1 - y0
        assert 0.0 < np.abs(dev).max() < 0.05 * 6.0

    def test_validation(self, designed_8x16):
        with pytest.raises(InvalidInput):
            make_planted_dataset(designed_8x16, s=2, n_samples=0, noise=0.0, seed=1)
        with pytest.raises(InvalidInput):
            make_planted_dataset(designed_8x16, s=99, n_samples=5, noise=0.0, seed=1)
        with pytest.raises(InvalidInput):
            make_planted_dataset(designed_8x16, s=2, n_samples=5, noise=0.0, seed=-1)

    @pytest.mark.parametrize("noise", [-0.5, np.nan, np.inf])
    def test_noise_must_be_finite_and_nonnegative(self, designed_8x16, noise):
        with pytest.raises(InvalidInput):
            make_planted_dataset(designed_8x16, s=2, n_samples=5, noise=noise, seed=1)
