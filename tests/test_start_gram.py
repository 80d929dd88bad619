"""A run measures each start frame once: one Gram per distinct matrix."""

import pytest

import incoframes.design
from incoframes import DesignConfig, run


@pytest.mark.parametrize(
    "start, grams",
    [("seeded signed", 2), ("seeded nonneg", 1), ("caller's frame", 1)],
)
def test_one_gram_per_start(monkeypatch, start, grams):
    # A signed seeded run measures the raw draw and its polished start; a
    # nonneg run starts from the raw matrix itself, and so does a caller's frame.
    cfg = DesignConfig(m=6, n_vectors=10, sweeps=0, seed=3, nonneg=start == "seeded nonneg")
    initial = run(cfg)[0] if start == "caller's frame" else None
    real = incoframes.design.correlations
    calls = []

    def counted(v):
        calls.append(v.shape)
        return real(v)

    monkeypatch.setattr(incoframes.design, "correlations", counted)
    frame, report = run(cfg, initial)
    assert len(calls) == grams
    if grams == 1:
        assert report.raw_coherence == report.initial_coherence
    monkeypatch.undo()
    assert frame.vectors.tobytes() == run(cfg, initial)[0].vectors.tobytes()
