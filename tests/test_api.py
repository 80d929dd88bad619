"""The public namespace: every exported name resolves, none is listed twice,
and the list itself is pinned, so a new export is a visible change."""

import inspect
import subprocess
import sys

import incoframes
import incoframes.design
import incoframes.frames

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
    "initialize",
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
    assert len(PUBLIC) == 42
    assert sorted(incoframes.__all__) == PUBLIC


def test_one_path_per_job():
    # ``run`` drives every sweep; ``correlations`` forms every Gram matrix and
    # ``frame_metrics`` computes every metric.
    for module, name in [
        (incoframes.design, "sweep"),
        (incoframes.design, "SweepStats"),
        (incoframes.frames, "average_coherence"),
        (incoframes.frames, "frame_potential"),
    ]:
        assert not hasattr(incoframes, name), name
        assert not hasattr(module, name), name
    assert not hasattr(incoframes.Frame, "gram")
    # The solver's tolerance and iteration cap are constants, not knobs.
    assert list(inspect.signature(incoframes.solve_subproblem).parameters) == ["problem"]
    assert "extra" not in inspect.signature(incoframes.write_frame).parameters


def test_import_loads_no_lapack():
    # scipy.linalg costs about 30 MB and 0.2 s; the first solve loads it, not the import.
    code = (
        "import sys, incoframes\n"
        "print('scipy.linalg' in sys.modules)\n"
        "frame = incoframes.make_simplex_etf(3)\n"
        "incoframes.solve_subproblem(incoframes.subproblem(frame, 0))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "True"]
