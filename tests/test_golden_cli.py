"""Golden CLI runs: the exact bytes ``synth --format csv``, ``design``, every
``train`` mode and ``analyze`` with runs write.

Each test runs ``synth``, and most then ``design`` or ``train``, in-process
through ``main`` on a small synthetic dataset and compares the sha256 of every
file the last command wrote, and of its stdout, with recorded digests. Any drift
in the run loop, the file names, the CSV and JSON writers or the summary
tables shows here, not only in the benchmark's digests. The digests were recorded with numpy
2.4.6 and OpenBLAS 0.3.31 on x86_64; another numeric build may round
differently, so the comparison runs only there. Each mode runs as if on one
and on two usable cores, so serially and with two worker processes, against
the same digests.
"""

import hashlib
import platform

import numpy as np
import pytest

from currikit import experiments
from currikit.cli import main

pytestmark = pytest.mark.skipif(
    (np.__version__, platform.machine()) != ("2.4.6", "x86_64"),
    reason="golden digests were recorded with numpy 2.4.6 on x86_64",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


CORES = pytest.mark.parametrize("cores", [1, 2])


def _train_digests(tmp_path, monkeypatch, capsys, cores, synth, train):
    """sha256 of each file `train` writes under out/, and of its stdout,
    with `cores` usable cores."""
    monkeypatch.setattr(experiments, "_usable_cores", lambda: cores)
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out-dir", ".", *synth]) == 0
    capsys.readouterr()
    assert main(["train", "--out-dir", "out", "--truth", "truth.csv", *train]) == 0
    files = {p.name: _sha(p.read_bytes()) for p in sorted((tmp_path / "out").iterdir())}
    return files, _sha(capsys.readouterr().out.encode())


@CORES
def test_all_strategies_with_batch_log(tmp_path, monkeypatch, capsys, cores):
    files, stdout = _train_digests(
        tmp_path, monkeypatch, capsys, cores,
        ["--categories", "5", "--per-category", "40", "--dim", "8", "--seed", "3"],
        ["--features", "features.bin", "--strategies", "A,B,C,D,D_kmeans",
         "--seeds", "0,1", "--batch-log", "--scale", "0.0003", "--batch-size", "32",
         "--topk", "3"],
    )
    assert files == ALL_STRATEGIES_FILES
    assert stdout == ALL_STRATEGIES_STDOUT


@CORES
def test_mlp_noisy_fraction_sweep(tmp_path, monkeypatch, capsys, cores):
    files, stdout = _train_digests(
        tmp_path, monkeypatch, capsys, cores,
        ["--categories", "6", "--per-category", "30", "--dim", "10", "--seed", "4",
         "--format", "csv"],
        ["--features", "features.csv", "--noisy-fraction", "0,50,100", "--seeds", "1..2",
         "--arch", "mlp", "--hidden-dim", "16", "--batch-size", "32", "--scale", "0.0003",
         "--topk", "3"],
    )
    assert files == SWEEP_FILES
    assert stdout == SWEEP_STDOUT


DESIGN_SYNTH = ["--categories", "6", "--per-category", "40", "--dim", "8", "--seed", "2"]


def _design(tmp_path, monkeypatch, capsys, cores):
    """Run `synth` and `design` in tmp_path with `cores` usable cores and
    return design's stdout."""
    monkeypatch.setattr(experiments, "_usable_cores", lambda: cores)
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out-dir", ".", *DESIGN_SYNTH]) == 0
    capsys.readouterr()
    assert main(["design", "--features", "features.bin", "--out-dir", "design"]) == 0
    return capsys.readouterr().out


@CORES
def test_design(tmp_path, monkeypatch, capsys, cores):
    stdout = _design(tmp_path, monkeypatch, capsys, cores)
    assert _sha((tmp_path / "design" / "curriculum.json").read_bytes()) == DESIGN_CURRICULUM
    assert _sha(stdout.encode()) == DESIGN_STDOUT


@CORES
def test_analyze_with_runs(tmp_path, monkeypatch, capsys, cores):
    _design(tmp_path, monkeypatch, capsys, cores)
    assert main(["train", "--features", "features.bin", "--truth", "truth.csv",
                 "--strategies", "A,D", "--scale", "0.0003", "--batch-size", "32",
                 "--topk", "3", "--out-dir", "runs"]) == 0
    capsys.readouterr()
    assert main(["analyze", "--curriculum", "design/curriculum.json",
                 "--reference", "truth.csv", "--baseline-run", "runs/run_ModelA_s0.json",
                 "--curriculum-run", "runs/run_ModelD_s0.json", "--out-dir", "audit"]) == 0
    files = {p.name: _sha(p.read_bytes()) for p in sorted((tmp_path / "audit").iterdir())}
    assert files == ANALYZE_FILES
    assert _sha(capsys.readouterr().out.encode()) == ANALYZE_STDOUT


def test_synth_csv(tmp_path, monkeypatch, capsys):
    # Seed 7 draws one feature below 1e-4 (-9.3200324e-05), a value numpy's
    # str conversion prints in scientific notation; the file holds it
    # positionally, as -0.000093200324.
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out-dir", ".", "--format", "csv", "--categories", "4",
                 "--per-category", "60", "--dim", "16", "--seed", "7"]) == 0
    files = {p.name: _sha(p.read_bytes()) for p in sorted(tmp_path.iterdir())}
    assert files == SYNTH_CSV_FILES
    assert _sha(capsys.readouterr().out.encode()) == SYNTH_CSV_STDOUT


def test_synth_csv_outside_exact_path(tmp_path, monkeypatch, capsys):
    # Blobs of sigma 3e7 and a uniform box 1000 sigmas wide: 1,072 of the
    # 1,280 cells lie at or above 2**23, past the csv writer's integer path,
    # and are printed one by one. Recorded before that path existed.
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out-dir", ".", "--format", "csv", "--categories", "4",
                 "--per-category", "40", "--dim", "8", "--seed", "5", "--blob-sigma", "3e7",
                 "--box-margin", "1000"]) == 0
    files = {p.name: _sha(p.read_bytes()) for p in sorted(tmp_path.iterdir())}
    assert files == SYNTH_CSV_WIDE_FILES
    assert _sha(capsys.readouterr().out.encode()) == SYNTH_CSV_WIDE_STDOUT


DESIGN_CURRICULUM = (
    "7c2013643e800e1c109057a067883caeccd2b167d8fcca222908ac18365d3238")
DESIGN_STDOUT = (
    "d725775b0b34eaed2a5bbcda660d4d52048fc1497183b67b61a7012209a0aa62")
ANALYZE_FILES = {
    "audit.json":
        "9ab12d96c148a1d6783f9373d8f155964b46179f7d2875d131eeff23fb3cf93d",
    "rate_bins.csv":
        "b1b6fbfd1574a26d4e85ca9a7c07ea446b245d41451fd271850920e1fc8f20d8",
}
ANALYZE_STDOUT = (
    "3d86f4c7add06804836a0e30e3dfe81926e8fd341b9fb5f7489faa606181f380")
SYNTH_CSV_WIDE_FILES = {
    "features.csv":
        "d94b0bf613af48eb1c47fd70daf2e830bcbc03d8c8dc61d059d86b124b5cafbd",
    "truth.csv":
        "8503ef3438b1405a0251c0cd2b926f5020f232f756185018741a70082484c191",
}
SYNTH_CSV_WIDE_STDOUT = (
    "b13bdc7c8dae7008966814b7e7a2b2cfe3c0e30ffae879d0efc214276a30a14d")
SYNTH_CSV_FILES = {
    "features.csv":
        "ff1ce62d7f50dc397107c7642b3989ba1b172e1bb43db045ecdb7799c1a249d2",
    "truth.csv":
        "c7b07b192d221abe01e191ca1c56a430cd7f67ce169639611f510e1df513d1be",
}
SYNTH_CSV_STDOUT = (
    "445273e995cc517e46b5c2a882c95ca7b55c2f1b59b30f316ed8a27a4b611f60")
ALL_STRATEGIES_FILES = {
    "batches_ModelA_s0.csv":
        "d0384218d99fc62f52b9ebd5916134febadeea413d484ef932e550b14280f028",
    "batches_ModelA_s1.csv":
        "827521cb8f33c14ad2c2ddd259e45109bee6ae12acf735774e21fb10e7a30565",
    "batches_ModelB_s0.csv":
        "16b92cbfb710659ac4f5c616f297133c70853cd5ad531687b4b8fd91e714b6d8",
    "batches_ModelB_s1.csv":
        "16b92cbfb710659ac4f5c616f297133c70853cd5ad531687b4b8fd91e714b6d8",
    "batches_ModelC_s0.csv":
        "48f3ac5c5a527968e397d98943f87dc85e9897ba81a8c003ff0ca0345e567350",
    "batches_ModelC_s1.csv":
        "48f3ac5c5a527968e397d98943f87dc85e9897ba81a8c003ff0ca0345e567350",
    "batches_ModelD_kmeans_s0.csv":
        "ece97a34e8dc10125f051699ca4b46ebabcfdc3373ec481b14a6263d57586f3a",
    "batches_ModelD_kmeans_s1.csv":
        "ece97a34e8dc10125f051699ca4b46ebabcfdc3373ec481b14a6263d57586f3a",
    "batches_ModelD_s0.csv":
        "ece97a34e8dc10125f051699ca4b46ebabcfdc3373ec481b14a6263d57586f3a",
    "batches_ModelD_s1.csv":
        "ece97a34e8dc10125f051699ca4b46ebabcfdc3373ec481b14a6263d57586f3a",
    "metrics.csv":
        "3900ac0d38e6960e863d976fc78964948bc36137ded3f730497db11e53075b8c",
    "run_ModelA_s0.json":
        "319b686e2c7e23d5ff9e8d6eb5f41273e75fec8066f3400e2e17ac61dbc629fe",
    "run_ModelA_s1.json":
        "4fb94fd9f02e50b0a21c38332f30a9f000e74dd5603d07232508e167856b9e05",
    "run_ModelB_s0.json":
        "2a31bb5d30c5639b865d4b41c8166c31543d4906a4698b86cdfd4e7e04fe5568",
    "run_ModelB_s1.json":
        "b3ab9bfc2b98553505b3c05335db40b76a909c196f262a925ccb0973caf649f9",
    "run_ModelC_s0.json":
        "fd2180e10252159ef81c73c86a130088c2fbd57b735f51a65dc8589db6653e4d",
    "run_ModelC_s1.json":
        "d533eb36bee530e230536487d580ffbb5030ad7471652e1e318548ef4cbe2fbb",
    "run_ModelD_kmeans_s0.json":
        "23724429716571c8e1f50fcdb6ac2f5dd54f0de58ffed3cc8cb7b682a6c7c835",
    "run_ModelD_kmeans_s1.json":
        "2b2ab9d3d00128b9b13821291de1b385e74b2fb732d7c52bbdbb890967987447",
    "run_ModelD_s0.json":
        "189b8b775e2e782377e3c495ee2f746dfb721b5b05a6fbb8d323cc703cd03630",
    "run_ModelD_s1.json":
        "0d67772909c3f46ea75ea78f999943c817b2636d40bda7d8ef1257a3e2d5b8a9",
    "summary.json":
        "d9c1a819347f470ffaa93e8aafec670a7bd60dc88afecad575c40a0ac0c2796b",
}
ALL_STRATEGIES_STDOUT = (
    "a5ba842ebbcaaad3c9ddf2da1c2a4a81320d07e3dcfa09918639a6e1a7760e30")
SWEEP_FILES = {
    "sweep_metrics.csv":
        "ba65c5e2d7b37b68d2357c8e0462ec9ed8231b96c62f97caa593fe55201360b2",
    "sweep_summary.json":
        "62ba1dad9da72986bf3443d36c54e508e734366adbabd89a9bdc627fb80e1603",
}
SWEEP_STDOUT = (
    "c1cad57c9c911f58e890f8705564cb1aae198fb65600419c5d5c4e22911a5eee")
