"""Self-test of the benchmark: run with ``python3 perfbench/selftest.py``
(or ``python -m pytest perfbench/selftest.py``) from the root of a checkout.

It checks that a renamed or removed trace target costs zero calls and a
warning rather than a crash, that targets are wrapped in every namespace
that imported them, and that a traced run of each workload records calls in
the layer the workload was chosen to stress. It takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WRAP_CHECK = r"""
import contextlib, io, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import currikit.cli
import currikit.curriculum, currikit.density
import trace_cli

rec = trace_cli.Recorder()
err = io.StringIO()
with contextlib.redirect_stderr(err):
    missing = trace_cli.install(rec, (
        ("currikit.density", "distance_matrix", "density.distance_matrix",
         trace_cli._count_pair_work),
        ("currikit.density", "no_such_function", "density.ghost", None),
        ("currikit.no_such_module", "f", "ghost.module", None),
    ))
assert missing == ["currikit.density.no_such_function", "currikit.no_such_module.f"], missing
assert "no_such_function not found" in err.getvalue(), err.getvalue()
assert rec.spans["density.ghost"]["calls"] == 0
assert currikit.curriculum.distance_matrix is currikit.density.distance_matrix
assert currikit.density.distance_matrix.__wrapped__ is not None
currikit.curriculum.distance_matrix(np.zeros((5, 3)))
assert rec.spans["density.distance_matrix"]["calls"] == 1
assert rec.counters["density.pair_ops_computed"] == 5 * 5 * 3
print("ok")
"""

# Per workload: layer counts that must be non-zero on every seed.
TARGET_LAYERS = {
    "design-wide": ("density.calls", "density.pair_ops_computed", "curriculum.designs",
                    "curriculum.kmeans_baseline_s", "schedule.batches", "experiments.runs"),
    "mlp-sweep": ("trainer.steps", "schedule.redistributions", "data.bytes_read",
                  "experiments.runs"),
}


def test_wrappers_survive_missing_targets():
    proc = subprocess.run(
        [sys.executable, "-c", WRAP_CHECK, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def _traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_each_workload_exercises_its_layer():
    for workload, layers in TARGET_LAYERS.items():
        result = _traced_run(workload)
        assert result["correct"] and result["failed"] == 0, result
        metrics = result["metrics"]
        for name in layers:
            assert metrics[name]["value"] > 0, f"{workload}: {name} recorded no calls"


if __name__ == "__main__":
    for test in (test_wrappers_survive_missing_targets, test_each_workload_exercises_its_layer):
        test()
        print(f"{test.__name__}: ok")
