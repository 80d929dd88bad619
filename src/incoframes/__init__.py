"""Incoherent unit-norm frame design and applications.

The package builds frames whose worst pairwise correlation is pushed toward
the Welch bound by solving one small convex trust-region subproblem per
vector per sweep, certifies the solutions through their optimality
conditions, and applies the frames to sparse recovery and to
coherence-preserving dictionary adaptation.
"""
from ._version import __version__
from .design import (
    DesignConfig,
    SweepReport,
    initialize,
    run,
    subproblem,
)
from .errors import (
    DegenerateVector,
    FrameFormatError,
    InvalidInput,
    NumericsFailure,
    RankDeficient,
    SolverStall,
)
from .frameio import (
    extract_patches,
    load_patch_matrix,
    read_frame,
    write_correlation_profile,
    write_cs_table,
    write_error_trace,
    write_frame,
    write_line_chart,
    write_manifest,
)
from .frames import (
    EtfCertificate,
    Frame,
    FrameMetrics,
    certify_etf,
    frame_metrics,
    make_simplex_etf,
    mutual_coherence,
    welch_bound,
)
from .minimax import (
    KktResiduals,
    SubproblemSolution,
    TrustSubproblem,
    kkt_residuals,
    solve_subproblem,
)
from .sparse import (
    AdaptationRun,
    CsExperiment,
    CsResult,
    adapt_dictionary,
    make_planted_dataset,
    omp,
    random_sensing_frame,
    run_cs_experiment,
)

__all__ = [
    "__version__",
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
