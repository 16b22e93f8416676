import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import currikit
from currikit import density, experiments
from currikit.cli import main
from currikit.schedule import default_schedule
from cli_support import cli_env, run_cli


SYNTH = ["synth", "--categories", "5", "--per-category", "30", "--dim", "8",
         "--blob-sigma", "2.0", "--seed", "3"]
TRAIN = ["train", "--features", "features.bin", "--truth", "truth.csv",
         "--scale", "0.0005", "--batch-size", "16", "--seeds", "0"]


@pytest.fixture()
def workspace(tmp_path):
    result = run_cli(SYNTH + ["--out-dir", "."], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    return tmp_path


class TestSynth:
    def test_writes_files(self, workspace):
        assert (workspace / "features.bin").exists()
        assert (workspace / "truth.csv").exists()

    def test_rerun_byte_identical(self, workspace, tmp_path):
        second = tmp_path / "again"
        second.mkdir()
        r = run_cli(SYNTH + ["--out-dir", "."], cwd=second)
        assert r.returncode == 0, r.stderr
        assert (workspace / "features.bin").read_bytes() == (second / "features.bin").read_bytes()
        assert (workspace / "truth.csv").read_bytes() == (second / "truth.csv").read_bytes()

    def test_bad_fractions_exit_1(self, tmp_path):
        result = run_cli(["synth", "--clean-frac", "0.9", "--cross-frac", "0.9",
                          "--uniform-frac", "0.1", "--out-dir", "."], cwd=tmp_path)
        assert result.returncode == 1, result.stderr
        assert "currikit: error: noise fractions" in result.stderr


class TestDesign:
    def test_design_and_rerun(self, workspace):
        args = ["design", "--features", "features.bin", "--out-dir", "."]
        r1 = run_cli(args, cwd=workspace)
        assert r1.returncode == 0, r1.stderr
        first = (workspace / "curriculum.json").read_bytes()
        r2 = run_cli(args, cwd=workspace)
        assert r2.returncode == 0
        assert (workspace / "curriculum.json").read_bytes() == first
        assert "clean" in r1.stdout and "highly_noisy" in r1.stdout

    def test_two_subset_variant(self, workspace):
        r = run_cli(["design", "--features", "features.bin", "--subsets", "2",
                     "--out-dir", ".", "--out-name", "two.json"], cwd=workspace)
        assert r.returncode == 0, r.stderr
        doc = json.loads((workspace / "two.json").read_text())
        assert doc["params"]["n_subsets"] == 2
        levels = {s["level"] for cat in doc["categories"] for s in cat["samples"]}
        assert levels <= {0, 1}

    def test_k_percent_reads_back(self, workspace):
        # At 9 significant digits 99.9999999999 would be written as 100,
        # which analyze rejects as outside (0, 100).
        r = run_cli(["design", "--features", "features.bin", "--k-percent", "99.9999999999",
                     "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        assert '"k_percent": 99.9999999999,' in (workspace / "curriculum.json").read_text()
        r = run_cli(["analyze", "--curriculum", "curriculum.json", "--reference", "truth.csv",
                     "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr

    def test_kmeans_method(self, workspace):
        r = run_cli(["design", "--features", "features.bin", "--method", "kmeans",
                     "--out-dir", ".", "--out-name", "km.json"], cwd=workspace)
        assert r.returncode == 0, r.stderr

    def test_missing_file_exit_1(self, tmp_path):
        r = run_cli(["design", "--features", "nope.bin", "--out-dir", "."], cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert "currikit: error:" in r.stderr and "nope.bin" in r.stderr


class TestTrain:
    def test_runs_and_reruns_identically(self, workspace):
        args = TRAIN + ["--strategies", "A,D", "--out-dir", "."]
        r1 = run_cli(args, cwd=workspace)
        assert r1.returncode == 0, r1.stderr
        for name in ("metrics.csv", "summary.json", "run_ModelA_s0.json", "run_ModelD_s0.json"):
            assert (workspace / name).exists()
        blobs = {n: (workspace / n).read_bytes()
                 for n in ("metrics.csv", "summary.json", "run_ModelD_s0.json")}
        r2 = run_cli(args, cwd=workspace)
        assert r2.returncode == 0
        for name, blob in blobs.items():
            assert (workspace / name).read_bytes() == blob
        summary = json.loads((workspace / "summary.json").read_text())
        assert set(summary) == {"ModelA", "ModelD"}

    def test_unknown_strategy_exit_2(self, workspace):
        r = run_cli(TRAIN + ["--strategies", "Nope", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 2, r.stderr
        assert "currikit: error: unknown strategy" in r.stderr

    def test_noisy_fraction_sweep(self, workspace):
        r = run_cli(TRAIN + ["--noisy-fraction", "0,50,100", "--out-dir", "."],
                    cwd=workspace)
        assert r.returncode == 0, r.stderr
        table = json.loads((workspace / "sweep_summary.json").read_text())
        assert set(table) == {"0", "0.5", "1"}

    def test_batch_log_csv(self, workspace):
        r = run_cli(TRAIN + ["--strategies", "B", "--batch-log", "--out-dir", "."],
                    cwd=workspace)
        assert r.returncode == 0, r.stderr
        lines = (workspace / "batches_ModelB_s0.csv").read_text().splitlines()
        assert lines[0] == "iteration,level_counts,weights"
        assert lines[1] == "0,16;0;0,1.0;0.5;0.5"

    def test_sweep_batch_log(self, workspace):
        r = run_cli(TRAIN + ["--noisy-fraction", "0,100", "--batch-log", "--out-dir", "."],
                    cwd=workspace)
        assert r.returncode == 0, r.stderr
        assert not list(workspace.glob("run_*.json"))
        stage2 = sum(s.iterations for s in default_schedule(16, 0.0005)[:2])

        def level2_picks(name):
            """(in stage 2, level-2 count) per logged batch."""
            rows = [row.split(",") for row in (workspace / name).read_text().splitlines()[1:]]
            return [(int(it) >= stage2, int(counts.split(";")[2])) for it, counts, _ in rows]

        none_kept = level2_picks("batches_ModelD_hn0_s0.csv")
        all_kept = level2_picks("batches_ModelD_hn1_s0.csv")
        assert len(none_kept) == len(all_kept) > stage2
        assert not any(count for _, count in none_kept)
        assert not any(count for in_stage2, count in all_kept if not in_stage2)
        assert any(count for in_stage2, count in all_kept if in_stage2)

    def test_misaligned_truth_exit_1(self, workspace):
        truth = workspace / "truth.csv"
        lines = truth.read_text().splitlines(keepends=True)
        lines[3], lines[4] = lines[4], lines[3]  # swap data rows 2 and 3
        truth.write_text("".join(lines))
        r = run_cli(TRAIN + ["--strategies", "A", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert "currikit: error:" in r.stderr and "row 2" in r.stderr
        assert lines[3].split(",")[0] in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("flag, extra, message", [
        ("--hidden-dim", ["--arch", "mlp"], "hidden_dim must be at least 1"),
        ("--topk", [], "topk must be at least 1"),
    ], ids=["hidden-dim", "topk"])
    def test_zero_size_flag_exit_1(self, workspace, flag, extra, message):
        r = run_cli(TRAIN + ["--strategies", "A", flag, "0", *extra, "--out-dir", "."],
                    cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert f"currikit: error: {message}" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("percents", ["12.3456,12.34564", "50,50"])
    def test_fractions_sharing_a_run_tag_exit_1(self, workspace, percents):
        r = run_cli(TRAIN + ["--noisy-fraction", percents, "--out-dir", "out"],
                    cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert "currikit: error: fractions" in r.stderr
        assert "each fraction needs its own tag" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workspace / "out").exists()

    def test_worker_error_exit_1(self, workspace, monkeypatch, capfd):
        # capfd also captures what the forked workers write to stderr.
        def failing_train(tag, *args, **kwargs):
            raise ValueError(f"{tag} cannot train")

        monkeypatch.setattr(experiments, "train", failing_train)
        monkeypatch.setattr(experiments, "_usable_cores", lambda: 2)
        monkeypatch.chdir(workspace)
        assert main(TRAIN + ["--strategies", "A,D", "--out-dir", "."]) == 1
        err = capfd.readouterr().err
        assert "currikit: error: ModelA cannot train" in err
        assert "Traceback" not in err

    def test_seed_ranges(self):
        from currikit.cli import _seed_list

        assert _seed_list("1..4") == [1, 2, 3, 4]
        assert _seed_list("3,5, 9") == [3, 5, 9]


class TestAnalyze:
    def test_audit_outputs(self, workspace):
        r = run_cli(["design", "--features", "features.bin", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        r = run_cli(TRAIN + ["--strategies", "A,D", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        r = run_cli(["analyze", "--curriculum", "curriculum.json",
                     "--reference", "truth.csv",
                     "--baseline-run", "run_ModelA_s0.json",
                     "--curriculum-run", "run_ModelD_s0.json",
                     "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        audit = json.loads((workspace / "audit.json").read_text())
        assert len(audit["subset_rates"]) == 3
        assert len(audit["correct_rate_histogram"]) == 10
        bins = (workspace / "rate_bins.csv").read_text().splitlines()
        assert bins[0] == "bin_lo,bin_hi,categories,mean_topk_gain"
        assert len(bins) == 11
        first = (workspace / "audit.json").read_bytes()
        r = run_cli(["analyze", "--curriculum", "curriculum.json",
                     "--reference", "truth.csv",
                     "--baseline-run", "run_ModelA_s0.json",
                     "--curriculum-run", "run_ModelD_s0.json",
                     "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        assert (workspace / "audit.json").read_bytes() == first

    def test_rates_only_without_runs(self, workspace):
        r = run_cli(["design", "--features", "features.bin", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        r = run_cli(["analyze", "--curriculum", "curriculum.json",
                     "--reference", "truth.csv", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        audit = json.loads((workspace / "audit.json").read_text())
        assert audit["correct_rate_histogram"] is None


MALFORMED_CURRICULA = {
    "not_an_object": lambda text: "[1, 2]\n",
    "missing_params": lambda text: '{"version": 1}\n',
    "wrong_type": lambda text: text.replace('"n_subsets": 3', '"n_subsets": "3"', 1),
    "boolean_version": lambda text: text.replace('"version": 1', '"version": true', 1),
    "level_out_of_range": lambda text: text.replace('"level": 0', '"level": 3', 1),
}


class TestMalformedInputs:
    @pytest.mark.parametrize("case", sorted(MALFORMED_CURRICULA))
    def test_malformed_curriculum_exit_1(self, workspace, case):
        r = run_cli(["design", "--features", "features.bin", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        path = workspace / "curriculum.json"
        text = path.read_text()
        bad = MALFORMED_CURRICULA[case](text)
        assert bad != text
        path.write_text(bad)
        r = run_cli(["analyze", "--curriculum", "curriculum.json",
                     "--reference", "truth.csv", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert "currikit: error:" in r.stderr
        assert "Traceback" not in r.stderr

    def test_malformed_run_file_exit_1(self, workspace):
        r = run_cli(["design", "--features", "features.bin", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        (workspace / "bad_run.json").write_text("{}\n")
        r = run_cli(["analyze", "--curriculum", "curriculum.json",
                     "--reference", "truth.csv", "--baseline-run", "bad_run.json",
                     "--curriculum-run", "bad_run.json", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert "currikit: error:" in r.stderr and "bad_run.json" in r.stderr
        assert "Traceback" not in r.stderr

    def test_reference_row_missing_label_exit_1(self, workspace):
        r = run_cli(["design", "--features", "features.bin", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        first_id = (workspace / "truth.csv").read_text().splitlines()[1].split(",")[0]
        (workspace / "ref.csv").write_text(f"id,predicted_label\n{first_id},1\ns9\n")
        r = run_cli(["analyze", "--curriculum", "curriculum.json",
                     "--reference", "ref.csv", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert "currikit: error: row 1 has 1 cells, expected 2" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_non_integer_label_exit_1(self, workspace, command):
        lines = (workspace / "truth.csv").read_text().splitlines(keepends=True)
        sid, _, kind = lines[3].split(",")
        lines[3] = f"{sid},zz,{kind}"  # data row 2
        (workspace / "truth.csv").write_text("".join(lines))
        if command == "train":
            args = TRAIN + ["--strategies", "A", "--out-dir", "."]
        else:
            r = run_cli(["design", "--features", "features.bin", "--out-dir", "."],
                        cwd=workspace)
            assert r.returncode == 0, r.stderr
            args = ["analyze", "--curriculum", "curriculum.json",
                    "--reference", "truth.csv", "--out-dir", "."]
        r = run_cli(args, cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert "currikit: error: truth.csv: row 2: label 'zz' is not an integer" in r.stderr
        assert "Traceback" not in r.stderr


class TestResourceLimits:
    @pytest.mark.parametrize("command", [
        ["design", "--features", "features.bin", "--out-dir", "."],
        TRAIN + ["--strategies", "D", "--out-dir", "."],
    ], ids=["design", "train"])
    def test_matrix_over_budget_exit_1(self, workspace, monkeypatch, capsys, command):
        # Synth categories hold 30 samples, about 25 after the test holdout.
        monkeypatch.setattr(density, "MAX_MATRIX_BYTES", 8 * 10 * 10)
        monkeypatch.chdir(workspace)
        assert main(command) == 1
        err = capsys.readouterr().err
        assert re.search(r"currikit: error: a category of \d+ samples needs \d+ bytes", err)
        assert "budget of 800 bytes" in err


class TestConfigAndEnv:
    def test_config_file_sets_defaults_flags_win(self, tmp_path):
        (tmp_path / "run.cfg").write_text("per_category = 20\nseed = 9\n")
        r = run_cli(["synth", "--config", "run.cfg", "--seed", "3",
                     "--categories", "4", "--out-dir", "."], cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert "80 samples" in r.stdout  # 4 categories x 20 from config
        with_flag = (tmp_path / "features.bin").read_bytes()
        r2 = run_cli(["synth", "--seed", "3", "--categories", "4",
                      "--per-category", "20", "--out-dir", "."], cwd=tmp_path)
        assert r2.returncode == 0
        assert (tmp_path / "features.bin").read_bytes() == with_flag

    def test_unknown_config_key_exit_2(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("nonsense = 1\n")
        r = run_cli(["synth", "--config", "bad.cfg", "--out-dir", "."], cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "currikit: error: unknown config keys: nonsense" in r.stderr

    def test_out_dir_env_override(self, tmp_path):
        target = tmp_path / "from-env"
        r = run_cli(SYNTH, cwd=tmp_path, env={"CURRIKIT_OUT": str(target)})
        assert r.returncode == 0, r.stderr
        assert (target / "features.bin").exists()


def test_child_imports_the_tested_currikit(tmp_path):
    r = subprocess.run(
        [sys.executable, "-c", "import currikit; print(currikit.__file__)"],
        cwd=tmp_path, env=cli_env(), capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert Path(r.stdout.strip()).resolve() == Path(currikit.__file__).resolve()


def test_cli_import_loads_no_scipy(tmp_path):
    # Every command is a fresh process; importing scipy would cost more than
    # anything it computes here.
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, currikit.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        cwd=tmp_path, env=cli_env(), capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
