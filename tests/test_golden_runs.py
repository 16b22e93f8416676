"""Golden runs: the exact bytes of two small training runs.

Each test trains on a fixed synthetic split and compares the sha256 of the
run's JSON text (``RunMetrics.to_dict()`` written as the ``train`` command
writes it) with a recorded digest, so any drift in sampling, the SGD step,
evaluation or the loss shows here, not only in the benchmark's digests. The
digests were recorded with numpy 2.4.6 and OpenBLAS 0.3.31 on x86_64;
another numeric build may round differently, so the comparison runs only
there.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from currikit.curriculum import CurriculumParams
from currikit.data import SynthConfig, generate_synthetic
from currikit.experiments import CurriculumCache, build_strategy, run_grid
from currikit.trainer import holdout_split, train

pytestmark = pytest.mark.skipif(
    (np.__version__, platform.machine()) != ("2.4.6", "x86_64"),
    reason="golden digests were recorded with numpy 2.4.6 on x86_64",
)


def _digest(metrics) -> str:
    text = json.dumps(metrics.to_dict(), indent=1, sort_keys=False, allow_nan=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def split():
    fs, truth = generate_synthetic(SynthConfig(
        n_categories=8, per_category=60, n_features=12, clean_frac=0.55,
        cross_frac=0.25, uniform_frac=0.20, blob_sigma=2.0, seed=7))
    fs_train, _, fs_test = holdout_split(fs, truth, 0.2, 7)
    return fs_train, fs_test


def test_linear_model_d_run(split):
    fs_train, fs_test = split
    cache = CurriculumCache(fs_train, CurriculumParams(seed=7))
    cd, schedule = build_strategy("ModelD", cache, 32, 0.0003)
    _, metrics = train("ModelD", fs_train, fs_test, cd, schedule, 3, eval_every=40)
    assert _digest(metrics) == (
        "b9f2eeb98821d6ce4dac08420987da205f249bdd4e06eb7e36c4f181d7bd560b")


def test_mlp_noisy_fraction_sweep_runs(split):
    # Fraction 0 empties the highly-noisy pool (its picks move to level 1);
    # fraction 0.5 masks half of it out.
    fs_train, fs_test = split
    fractions = [0.0, 0.5]
    runs = run_grid(
        ["ModelD"], [2], fs_train, fs_test, CurriculumParams(seed=7), fractions=fractions,
        batch_size=32, scale=0.0003, arch="mlp", hidden_dim=16, topk=3)
    assert [(f, _digest(m)) for f, (m, _) in zip(fractions, runs, strict=True)] == [
        (0.0, "98ebb83dd1fd0f513cd51142fdf69f52c04d662ea4ed2abe98ea368538407a79"),
        (0.5, "8c531edc7f89623b892584542030d6a3363fbbbf35e677b8e45d21683c174c7f"),
    ]
