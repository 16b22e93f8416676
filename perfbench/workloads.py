"""The benchmark's workloads: one synth -> design -> train -> analyze pipeline each.

Why each workload exists is recorded in BENCHMARK.json and the README.

Each workload is the argument lists of the four ``currikit`` commands plus
the work they must do, which the output checks compare against. The workload
seed is passed to ``synth --seed`` only; every other command sees just the
generated files.
"""

from __future__ import annotations

from dataclasses import dataclass

# Iterations of a paper-scale run (``--scale 1``); see currikit.schedule.
PAPER_ITERATIONS = 700_000


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple[str, ...]
    features: str
    train: tuple[str, ...]
    # (baseline, curriculum) run files handed to analyze, or None.
    analyze_runs: tuple[str, str] | None
    n_samples: int
    n_runs: int
    steps: int
    # Strategy runs write run_*.json; the noisy-fraction sweep does not.
    sweep: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="design-wide",
            synth=("--categories", "4", "--per-category", "1000", "--dim", "64"),
            features="features.bin",
            train=("--strategies", "A,D,D_kmeans", "--seeds", "1", "--scale", "0.001",
                   "--topk", "3"),
            analyze_runs=("run_ModelA_s1.json", "run_ModelD_s1.json"),
            n_samples=4000,
            n_runs=3,
            steps=3 * 700,
        ),
        Workload(
            name="mlp-sweep",
            synth=("--categories", "20", "--per-category", "300", "--dim", "64",
                   "--format", "csv"),
            features="features.csv",
            train=("--noisy-fraction", "0,50,100", "--seeds", "1..2", "--arch", "mlp",
                   "--hidden-dim", "128", "--batch-size", "256", "--scale", "0.0005"),
            analyze_runs=None,
            n_samples=6000,
            n_runs=6,
            steps=6 * 350,
            sweep=True,
        ),
    )
}


def commands(w: Workload, seed: int, inputs: str) -> dict[str, list[str]]:
    """The four command lines, with outputs to the working directory.

    `inputs` is the absolute directory synth wrote to; the other commands
    read from it and write to ``.``, so their stdout and output bytes do not
    depend on where a repetition runs.
    """
    features = f"{inputs}/{w.features}"
    truth = f"{inputs}/truth.csv"
    analyze = ["analyze", "--curriculum", "curriculum.json", "--reference", truth,
               "--out-dir", "."]
    if w.analyze_runs:
        analyze += ["--baseline-run", w.analyze_runs[0], "--curriculum-run", w.analyze_runs[1]]
    return {
        "synth": ["synth", "--out-dir", ".", "--seed", str(seed), *w.synth],
        "design": ["design", "--features", features, "--out-dir", "."],
        "train": ["train", "--features", features, "--truth", truth, "--out-dir", ".", *w.train],
        "analyze": analyze,
    }
