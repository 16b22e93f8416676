"""Run one currikit command with timing spans around its layers' public functions.

Usage: python trace_cli.py TRACE_JSON COMMAND [ARGS...]

The package is imported from PYTHONPATH. Every function in TARGETS is
wrapped by identity in each loaded ``currikit`` namespace, so a function
reached through another module's import (``distance_matrix`` through
``currikit.curriculum``, ``design_curriculum`` through ``cli`` and
``experiments``) is timed wherever it is called from. Then ``currikit`` runs
as ``__main__``, as ``python -m currikit`` would. Spans and counters are
kept in memory and written to TRACE_JSON when the command ends; the
command's own output files, stdout and exit code are unchanged.

A target that no longer exists is reported with a warning on stderr and
records zero calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import os
import runpy
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Spans whose individual durations are kept for percentiles.
KEEP_DURATIONS = ("schedule.next_batch", "trainer.loss_and_grads", "trainer.train")


def _count_pair_work(counters, args, kwargs, result):
    n, d = np.shape(args[0] if args else kwargs["features"])
    counters["density.pair_ops_computed"] += n * n * d
    counters["density.matrix_bytes_computed"] += 8 * n * n


def _count_drawn(counters, args, kwargs, result):
    counters["schedule.samples_drawn"] += len(result.indices)


def _count_read(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["data.bytes_read"] += os.path.getsize(path)


def _count_written(counters, args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    counters["data.bytes_written"] += len(data)


# (module, qualified name, span name, counter hook or None)
TARGETS = (
    ("currikit.density", "distance_matrix", "density.distance_matrix", _count_pair_work),
    ("currikit.density", "cutoff_dc", "density.cutoff_dc", None),
    ("currikit.density", "local_density", "density.local_density", None),
    ("currikit.density", "delta_and_center", "density.delta_and_center", None),
    ("currikit.curriculum", "design_curriculum", "curriculum.design", None),
    ("currikit.curriculum", "partition_category", "curriculum.partition_category", None),
    ("currikit.curriculum", "design_curriculum_kmeans_baseline", "curriculum.kmeans_baseline", None),
    ("currikit.curriculum", "save_curriculum", "curriculum.save", None),
    ("currikit.curriculum", "load_curriculum", "curriculum.load", None),
    ("currikit.schedule", "CurriculumSampler.next_batch", "schedule.next_batch", _count_drawn),
    ("currikit.trainer", "ClassifierModel.loss_and_grads", "trainer.loss_and_grads", None),
    ("currikit.trainer", "train", "trainer.train", None),
    ("currikit.trainer", "evaluate", "trainer.evaluate", None),
    ("currikit.trainer", "holdout_split", "trainer.holdout_split", None),
    ("currikit.experiments", "build_strategy", "experiments.build_strategy", None),
    ("currikit.data", "generate_synthetic", "data.generate_synthetic", None),
    ("currikit.data", "save_features", "data.save_features", None),
    ("currikit.data", "load_features", "data.load_features", _count_read),
    ("currikit.data", "load_truth", "data.load_truth", _count_read),
    ("currikit.fileio", "atomic_write_bytes", "fileio.atomic_write", _count_written),
    ("currikit.analysis", "subset_noise_rates", "analysis.subset_noise_rates", None),
    ("currikit.analysis", "category_correct_rates", "analysis.category_correct_rates", None),
    ("currikit.analysis", "rate_interval_report", "analysis.rate_interval_report", None),
)


class Recorder:
    """Aggregates nested spans: calls, total, self and top-level time per name."""

    def __init__(self):
        self._open: list[float] = []  # time covered by children of each open span
        self.spans: dict[str, dict] = {}
        self.durations: dict[str, list[float]] = {name: [] for name in KEEP_DURATIONS}
        self.counters: dict[str, int] = defaultdict(int)

    def stats(self, name: str) -> dict:
        """The aggregate of span `name`, created at zero."""
        return self.spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0})

    def wrap(self, name: str, fn, count=None):
        stats = self.stats(name)
        durations = self.durations.get(name)
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = open_spans.pop()
                stats["calls"] += 1
                stats["total_s"] += elapsed
                stats["self_s"] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
                else:
                    stats["top_s"] += elapsed
                if durations is not None:
                    durations.append(elapsed)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced


def _resolve(module_name: str, qualname: str):
    """(owner, attribute) of a target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def install(recorder: Recorder, targets=TARGETS) -> list[str]:
    """Wrap every target in place; returns the targets that were not found."""
    missing = []
    for module_name, qualname, span, count in targets:
        recorder.stats(span)
        found = _resolve(module_name, qualname)
        if found is None:
            missing.append(f"{module_name}.{qualname}")
            print(f"perfbench: warning: {module_name}.{qualname} not found; "
                  f"{span} records zero calls", file=sys.stderr)
            continue
        owner, attr = found
        original = getattr(owner, attr)
        wrapped = recorder.wrap(span, original, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "currikit" or mod_name.startswith("currikit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing


class _CountingHandler(logging.StreamHandler):
    """Counts warnings and prints them as logging's last-resort handler does."""

    def __init__(self, recorder: Recorder, counter: str):
        super().__init__(sys.stderr)
        self.setLevel(logging.WARNING)
        self.recorder = recorder
        self.counter = counter

    def emit(self, record):
        self.recorder.counters[self.counter] += 1
        super().emit(record)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def main(argv: list[str]) -> None:
    trace_path, cli_args = argv[0], argv[1:]
    import currikit
    import currikit.cli  # noqa: F401  (loads every module the commands use)

    recorder = Recorder()
    missing = install(recorder)
    logging.getLogger("currikit.schedule").addHandler(
        _CountingHandler(recorder, "schedule.redistributions"))
    sys.argv = ["currikit", *cli_args]
    try:
        runpy.run_module("currikit", run_name="__main__", alter_sys=True)
    finally:
        doc = {
            "currikit_file": os.path.realpath(currikit.__file__),
            "missing": missing,
            "spans": recorder.spans,
            "counters": recorder.counters,
            "percentiles_us": {
                name: {"p50": 1e6 * _percentile(d, 50), "p99": 1e6 * _percentile(d, 99),
                       "n": len(d)}
                for name, d in recorder.durations.items()
            },
        }
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
