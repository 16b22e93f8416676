"""Output checks for one pipeline repetition.

Two kinds of check feed the benchmark's failure count:

* invariants that hold for any workload seed, read from the output files
  with the standard library only (never through currikit itself);
* byte identity: every repetition of a workload and seed, traced or not,
  must leave the same bytes, and on the default seed those bytes must match
  the digests recorded in ``digests.json`` for the same numeric environment.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import Workload

STAGES = ("synth", "design", "train", "analyze")


def digest_outputs(out_dir: Path, stdouts: dict[str, str]) -> dict[str, str]:
    """sha256 of every output file and of each command's stdout."""
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }
    for stage, text in stdouts.items():
        digests[f"stdout.{stage}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def _rate(x) -> bool:
    return x is None or (isinstance(x, (int, float)) and 0.0 <= x <= 1.0)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_synth(w: Workload, out_dir: Path) -> list[str]:
    """The truth file lists every generated sample once."""
    with open(out_dir / "truth.csv", newline="") as fh:
        ids = [row["id"] for row in csv.DictReader(fh)]
    if len(ids) != w.n_samples or len(set(ids)) != len(ids):
        return [f"truth.csv lists {len(ids)} samples, expected {w.n_samples} distinct"]
    return []


def check_design(w: Workload, out_dir: Path) -> list[str]:
    """Sample count, level range, and per-category mean distance-to-center
    rising with the level."""
    doc = json.loads((out_dir / "curriculum.json").read_text())
    n_subsets = doc["params"]["n_subsets"]
    errors = []
    total = 0
    for cat in doc["categories"]:
        sums = [0.0] * n_subsets
        counts = [0] * n_subsets
        for s in cat["samples"]:
            level = s["level"]
            if not 0 <= level < n_subsets or not _finite(s["dist"]):
                errors.append(f"category {cat['category_id']}: bad sample {s}")
                continue
            sums[level] += s["dist"]
            counts[level] += 1
        total += len(cat["samples"])
        means = [sums[k] / counts[k] for k in range(n_subsets) if counts[k]]
        if any(a >= b for a, b in zip(means, means[1:])):
            errors.append(f"category {cat['category_id']}: mean distance does not rise "
                          f"with level: {means}")
    if total != w.n_samples:
        errors.append(f"curriculum covers {total} samples, expected {w.n_samples}")
    return errors


def check_train(w: Workload, out_dir: Path) -> tuple[list[str], int]:
    """Run count, steps and value ranges; returns (errors, SGD steps run)."""
    errors = []
    name = "sweep_metrics.csv" if w.sweep else "metrics.csv"
    last_iteration: dict[tuple[str, str], int] = {}
    with open(out_dir / name, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["strategy"], row["seed"])
            last_iteration[key] = max(last_iteration.get(key, 0), int(row["iteration"]))
            loss, top1, topk = (float(row[k]) for k in ("train_loss", "top1", "topk"))
            if not (_finite(loss) and loss >= 0 and _rate(top1) and _rate(topk) and topk <= top1):
                errors.append(f"{name}: value out of range in {row}")
    if len(last_iteration) != w.n_runs:
        errors.append(f"{name} has {len(last_iteration)} runs, expected {w.n_runs}")
    steps = sum(last_iteration.values())
    if steps != w.steps:
        errors.append(f"{name} reports {steps} steps, expected {w.steps}")
    if not w.sweep:
        run_files = sorted(out_dir.glob("run_*.json"))
        summary = json.loads((out_dir / "summary.json").read_text())
        if len(run_files) != w.n_runs or sum(r["runs"] for r in summary.values()) != w.n_runs:
            errors.append(f"{len(run_files)} run files, expected {w.n_runs}")
        for path in run_files:
            run = json.loads(path.read_text())
            values = [run["final_top1"], run["final_topk"],
                      *run["per_category_top1"], *run["per_category_topk"]]
            if not all(_rate(v) for v in values):
                errors.append(f"{path.name}: error or accuracy out of [0, 1]")
    return errors, steps


def check_analyze(w: Workload, out_dir: Path) -> list[str]:
    """Audit subset sizes sum to N; rates lie in [0, 1]."""
    doc = json.loads((out_dir / "audit.json").read_text())
    errors = []
    sizes = sum(s["size"] for s in doc["subset_rates"])
    if sizes != w.n_samples:
        errors.append(f"audit subset sizes sum to {sizes}, expected {w.n_samples}")
    if not all(_rate(s["rate"]) for s in doc["subset_rates"]) or not _rate(doc["overall_rate"]):
        errors.append("audit rate out of [0, 1]")
    if w.analyze_runs and not (out_dir / "rate_bins.csv").is_file():
        errors.append("rate_bins.csv missing")
    return errors


def check_stage(stage: str, w: Workload, out_dir: Path) -> tuple[list[str], int]:
    """Invariant errors after `stage` ran in `out_dir`, and the steps it ran."""
    try:
        if stage == "synth":
            return check_synth(w, out_dir), 0
        if stage == "design":
            return check_design(w, out_dir), 0
        if stage == "train":
            return check_train(w, out_dir)
        return check_analyze(w, out_dir), 0
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{stage} outputs unreadable: {exc!r}"], 0
