"""The public namespace: every exported name resolves, none is listed twice,
and the list itself is pinned, so a new export is a visible change. Every
name the benchmark's tracer swaps resolves too, and still gets called."""

import importlib
import inspect
import subprocess
import sys
import tomllib
import types
from pathlib import Path

import incoframes
import incoframes.cli
import incoframes.design
import incoframes.frames
import incoframes.linalg
import incoframes.minimax
import incoframes.sparse

PUBLIC = [
    "AdaptationRun",
    "CsExperiment",
    "CsResult",
    "DegenerateVector",
    "DesignConfig",
    "EtfCertificate",
    "Frame",
    "FrameFormatError",
    "FrameMetrics",
    "InvalidInput",
    "KktResiduals",
    "NumericsFailure",
    "RankDeficient",
    "SolverStall",
    "SubproblemSolution",
    "SweepReport",
    "TrustSubproblem",
    "__version__",
    "adapt_dictionary",
    "certify_etf",
    "extract_patches",
    "frame_metrics",
    "kkt_residuals",
    "load_patch_matrix",
    "make_planted_dataset",
    "make_simplex_etf",
    "mutual_coherence",
    "omp",
    "random_sensing_frame",
    "read_frame",
    "run",
    "run_cs_experiment",
    "solve_subproblem",
    "subproblem",
    "welch_bound",
    "write_correlation_profile",
    "write_cs_table",
    "write_error_trace",
    "write_frame",
    "write_line_chart",
    "write_manifest",
]


def test_all_names_resolve_once():
    names = incoframes.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(incoframes, name)]
    assert missing == []


def test_public_names_are_pinned():
    assert len(PUBLIC) == 41
    assert sorted(incoframes.__all__) == PUBLIC


def test_version_matches_pyproject():
    # The version is written twice: in the package metadata and in the module.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == incoframes.__version__


def test_one_path_per_job():
    # ``run`` drives every sweep; ``correlations`` forms every Gram matrix,
    # ``frame_metrics`` computes every metric and ``omp`` does every pursuit.
    for module, name in [
        (incoframes.design, "sweep"),
        (incoframes.design, "SweepStats"),
        (incoframes.frames, "average_coherence"),
        (incoframes.frames, "frame_potential"),
        (incoframes.sparse, "_sparse_codes"),
        # One solver: the interior-point loop and its kernels are gone.
        (incoframes.minimax, "_step_length"),
        (incoframes.minimax, "_MAX_ITER"),
        (incoframes.cli, "_load_lapack"),
        # The fork map serves only the CLI, and ``svd`` returns a plain triple.
        (incoframes.design, "_fork_map"),
        (incoframes.design, "_share"),
        (incoframes.linalg, "SvdResult"),
        # ``run`` gets every start from ``_start``; ``sweeps=0`` is the seeded start.
        (incoframes.design, "initialize"),
        (incoframes.design, "_initial_matrix"),
        # ``cs-bench`` picks each sensing frame inside its one ``measure``.
        (incoframes.cli, "_sensing_for"),
    ]:
        assert not hasattr(incoframes, name), name
        assert not hasattr(module, name), name
    for name in ("os", "pickle", "signal", "threading"):
        assert not hasattr(incoframes.design, name), name
    # Nothing stored that another field already says, or that has one value.
    assert not hasattr(incoframes.SolverStall("stalled"), "reason")
    assert "iterations" not in incoframes.AdaptationRun.__dataclass_fields__
    assert list(inspect.signature(incoframes.linalg._as_matrix).parameters) == ["a"]
    assert not hasattr(incoframes.Frame, "gram")
    assert "gap" not in incoframes.SubproblemSolution.__dataclass_fields__
    # One certificate decides an answer: no flag beside the residuals.
    assert "converged" not in incoframes.SubproblemSolution.__dataclass_fields__
    # The solver's tolerance and iteration cap are constants, not knobs.
    assert list(inspect.signature(incoframes.solve_subproblem).parameters) == ["problem"]
    assert "extra" not in inspect.signature(incoframes.write_frame).parameters


def test_solve_loads_neither_optimize_nor_linalg():
    # A solve loads scipy's compiled NNLS and no other scipy module, not even
    # scipy's package: importing scipy.optimize would cost about 0.5 s and
    # 20 MB, and scipy.linalg about 0.2 s and 30 MB.
    code = (
        "import sys, incoframes\n"
        "frame = incoframes.make_simplex_etf(3)\n"
        "incoframes.solve_subproblem(incoframes.subproblem(frame, 0))\n"
        "incoframes.run(incoframes.DesignConfig(m=3, n_vectors=5, sweeps=1, nonneg=True))\n"
        "print(*sorted(name for name in sys.modules if name.startswith('scipy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["scipy.optimize._slsqplib"]


def _bench_tracing():
    """``bench/tracing.py`` as a module, read without writing a bytecode cache."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    module = types.ModuleType("bench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_names_resolve():
    # The benchmark's tracer swaps these attributes; a refactor that renames
    # one fails here, not only in a traced benchmark run.
    for module_name, attr, _ in _bench_tracing().WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), attr


def test_traced_sparse_run_fires_its_spans():
    tracer = _bench_tracing().Tracer(incoframes.SolverStall)
    frame = incoframes.random_sensing_frame(6, 12, seed=1)
    y, _, _ = incoframes.make_planted_dataset(frame, 2, 16, 0.01, seed=1)
    with tracer.installed():
        incoframes.run_cs_experiment(incoframes.CsExperiment(12, 18, 2, trials=3, seed=1), frame)
        incoframes.adapt_dictionary(y, frame, 2, 1)
    assert {"sparse.omp", "linalg.least_squares", "linalg.svd"} <= tracer.names()


def test_traced_design_run_fires_its_spans():
    # A solver change that stops certifying, or a span that no longer
    # fires, fails here before it can fail a traced benchmark run.
    tracing = _bench_tracing()
    tracer = tracing.Tracer(incoframes.SolverStall)
    with tracer.installed():
        incoframes.run(incoframes.DesignConfig(m=5, n_vectors=10, sweeps=3, seed=1))
    assert {
        "minimax.solve_subproblem",
        "minimax.TrustSubproblem",
        "frames.frame_metrics",
        "linalg.unit_polar",
    } <= tracer.names()
    assert tracer.solves
    for _, _, _, iterations, worst, _ in tracer.solves:
        assert isinstance(iterations, int) and iterations >= 0
        assert worst is not None and worst <= 1e-7
    assert tracing.kkt_violations(tracer.solves) == 0
