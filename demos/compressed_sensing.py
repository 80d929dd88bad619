"""
Designed sensing frames against the random baseline
===================================================

Sparse recovery through y = F D a: the dictionary D is random every
trial, the sensing frame F is either designed for low coherence or a
random Gaussian draw. Shared seeds mean both see identical signals.
"""

from pathlib import Path

from incoframes import (
    CsExperiment,
    DesignConfig,
    random_sensing_frame,
    run,
    run_cs_experiment,
    write_cs_table,
    write_line_chart,
)

out = Path("demo_output")
out.mkdir(exist_ok=True)

n_signal, n_atoms, sparsity, trials = 40, 60, 3, 300
rows = []
series = {"designed": [], "random": []}
m_values = [12, 16, 20]

for m in m_values:
    designed, _ = run(DesignConfig(m=m, n_vectors=n_signal, sweeps=60, seed=0))
    baseline = random_sensing_frame(m, n_signal, seed=[0, m])
    exp = CsExperiment(
        n_signal=n_signal, n_atoms=n_atoms, sparsity=sparsity, trials=trials, seed=0
    )
    res_d = run_cs_experiment(exp, designed)
    res_r = run_cs_experiment(exp, baseline)
    rows += [(m, "designed-fresh", res_d), (m, "random-gaussian", res_r)]
    series["designed"].append(res_d.mean_error)
    series["random"].append(res_r.mean_error)
    print(
        f"m={m:2d}  designed: mu {res_d.sensing_coherence:.3f} err {res_d.mean_error:.4f}"
        f"   random: mu {res_r.sensing_coherence:.3f} err {res_r.mean_error:.4f}"
    )

write_cs_table(out / "cs_demo.csv", rows)
write_line_chart(
    out / "cs_demo.svg",
    [
        ("designed", [float(m) for m in m_values], series["designed"]),
        ("random", [float(m) for m in m_values], series["random"]),
    ],
    xlabel="measurements m",
    ylabel="mean relative error",
    title=f"recovery error, N={n_signal}, M={n_atoms}, s={sparsity}",
)
print(f"\ntable and chart written to {out}/")
print("with too few measurements both frames fail alike; past that floor")
print("the designed frame recovers with a clear margin")
