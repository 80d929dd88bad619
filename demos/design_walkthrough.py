"""
Designing an incoherent frame, step by step
===========================================

Builds a (15, 30) frame from a seeded random start and watches the
coherence fall sweep by sweep. Run it from anywhere; outputs land in
./demo_output/.
"""

from pathlib import Path

import numpy as np

from incoframes import (
    DesignConfig,
    mutual_coherence,
    run,
    welch_bound,
    write_frame,
    write_line_chart,
)

out = Path("demo_output")
out.mkdir(exist_ok=True)

m, n, sweeps, seed = 15, 30, 120, 1
cfg = DesignConfig(m=m, n_vectors=n, sweeps=sweeps, seed=seed)

# The starting point: a column-normalized Gaussian matrix, then its
# orthonormal polar factor renormalized. The refinement alone removes
# a big chunk of the coherence before any optimization happens, and the
# report keeps both coherences.
frame, report = run(cfg)
print(f"raw Gaussian coherence     : {report.raw_coherence:.4f}")
print(f"after polar refinement     : {report.initial_coherence:.4f}")
print(f"best over {len(report.trace)} sweeps       : {mutual_coherence(frame):.4f}")
print(f"Welch bound                : {welch_bound(m, n):.4f}")
print(f"average |corr| of the best : {report.final_metrics.mu_avg:.4f}")

# Escape steps fire whenever three consecutive sweeps stop making
# progress; each one retightens the frame and costs a little coherence
# that later sweeps win back with interest.
for k, mu in zip(report.escape_sweeps, report.escape_coherence):
    print(f"  escape after sweep {k:3d}: coherence jumped to {mu:.4f}")

write_frame(out / "walkthrough.frame", frame, seed=seed)

xs = list(range(1, len(report.trace) + 1))
write_line_chart(
    out / "walkthrough_trace.svg",
    [("coherence", xs, report.trace)],
    xlabel="sweep",
    ylabel="mutual coherence",
    title=f"(15, 30) design run, seed {seed}",
)
print(f"frame and trace chart written to {out}/")
