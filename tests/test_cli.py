import json
import os
import re
import resource
import shutil
import struct
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


    @pytest.mark.parametrize("flag, value, message", [
        ("--blob-sigma", "nan", "blob_sigma must be finite, got nan"),
        ("--blob-sigma", "inf", "blob_sigma must be finite, got inf"),
        ("--box-margin", "nan", "box_margin_sigmas must be finite, got nan"),
        ("--box-margin", "inf", "box_margin_sigmas must be finite, got inf"),
        ("--box-margin", "1e308", "box_margin_sigmas * blob_sigma = 1e+308 * 2.0 makes the "
                                  "uniform-noise box infinitely wide"),
        ("--uniform-frac", "nan", "uniform_frac must be finite, got nan"),
        ("--clean-frac", "nan", "clean_frac must be finite, got nan"),
    ])
    def test_non_finite_option_exit_1(self, tmp_path, flag, value, message):
        r = run_cli(["synth", "--categories", "3", "--per-category", "20", "--dim", "4",
                     flag, value, "--out-dir", "out"], cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert r.stderr == f"currikit: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("options", [
        ["--box-margin", "1e300"],
        ["--blob-sigma", "1e300"],
        # The box fits float32; the blob's Gaussian tail does not.
        ["--blob-sigma", "3e38", "--box-margin", "1"],
        ["--blob-sigma", "1e308", "--box-margin", "1e-300"],
    ])
    def test_features_past_float32_exit_1(self, tmp_path, options):
        r = run_cli(["synth", "--categories", "3", "--per-category", "20", "--dim", "4",
                     *options, "--out-dir", "out"], cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert re.fullmatch(r"currikit: error: [^\n]*box_margin_sigmas[^\n]*\n", r.stderr)
        assert "blob_sigma" in r.stderr and "float32's range" in r.stderr
        assert not (tmp_path / "out").exists()

    def test_box_margin_inside_float32_writes(self, tmp_path):
        r = run_cli(["synth", "--categories", "3", "--per-category", "20", "--dim", "4",
                     "--box-margin", "1e38", "--out-dir", "out"], cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
        assert (tmp_path / "out" / "features.bin").is_file()


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

    @pytest.mark.parametrize("extra", [
        ["--strategies", "A,B,C,D"],
        ["--noisy-fraction", "0,100"],  # fraction 0 moves stage 2's level-2 picks
    ], ids=["grid", "sweep"])
    def test_batch_log_changes_nothing_else(self, workspace, extra):
        seen = []
        for log in ([], ["--batch-log"]):
            r = run_cli(TRAIN + extra + ["--seeds", "0,1", *log, "--out-dir", "out"],
                        cwd=workspace)
            assert r.returncode == 0, r.stderr
            out = workspace / "out"
            seen.append(({f.name: f.read_bytes() for f in sorted(out.iterdir())
                          if not f.name.startswith("batches_")}, r.stdout, r.stderr))
            assert any(out.glob("batches_*.csv")) == bool(log)
            shutil.rmtree(out)
        assert seen[0] == seen[1]
        assert len(seen[0][0]) == (2 if extra[0] == "--noisy-fraction" else 10)

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

    @pytest.mark.parametrize("flag, entries, message", [
        ("--strategies", "D,D,A", "strategy 'ModelD' is listed twice"),
        ("--strategies", "D,ModelD", "strategy 'ModelD' is listed twice"),
        ("--seeds", "0,0", "seed 0 is listed twice"),
    ], ids=["strategies", "alias", "seeds"])
    def test_repeated_entry_exit_1(self, workspace, flag, entries, message):
        r = run_cli(TRAIN + [flag, entries, "--out-dir", "out"], cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert f"currikit: error: {message}" in r.stderr
        assert "Traceback" not in r.stderr
        assert r.stdout == ""
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("flag, what", [
        ("--strategies", "strategy"), ("--seeds", "seed"), ("--noisy-fraction", "fraction"),
    ], ids=["strategies", "seeds", "fractions"])
    def test_empty_list_exit_1(self, workspace, flag, what):
        r = run_cli(TRAIN + [flag, ",", "--out-dir", "out"], cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert f"currikit: error: at least one {what} is required" in r.stderr
        assert "Traceback" not in r.stderr
        assert r.stdout == ""
        assert not (workspace / "out").exists()

    def test_scale_leaving_a_stage_without_iterations_exit_1(self, workspace):
        # ModelD's stages 0 and 1 would get no iteration at this scale.
        r = run_cli(TRAIN + ["--scale", "1e-6", "--strategies", "B,D", "--topk", "3",
                             "--out-dir", "out"], cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert "currikit: error: scale 1e-06 leaves stage 0 with no iterations" in r.stderr
        assert "Traceback" not in r.stderr
        assert r.stdout == ""
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("flag, text, message", [
        ("--seeds", "1..", "--seeds '1..' is not a seed list; give a comma list such as "
                           "1,2,5 or an inclusive range such as 1..10"),
        ("--seeds", "a", "--seeds 'a' is not a seed list"),
        ("--noisy-fraction", "x", "--noisy-fraction 'x' is not a list of percentages; "
                                  "give a comma list such as 0,25,50,75,100"),
        ("--seeds", "2..1", "at least one seed is required"),
        ("--noisy-fraction", "0,150", "--noisy-fraction '0,150' holds 150; percentages lie "
                                      "in [0, 100]"),
        ("--noisy-fraction", "-5", "--noisy-fraction '-5' holds -5; percentages lie in [0, 100]"),
        ("--noisy-fraction", "nan", "--noisy-fraction 'nan' holds nan; percentages lie in "
                                    "[0, 100]"),
    ], ids=["open-range", "seed-word", "fraction-word", "empty-range", "fraction-over-100",
            "fraction-negative", "fraction-nan"])
    def test_malformed_list_exit_1(self, workspace, flag, text, message):
        r = run_cli(TRAIN + [flag, text, "--out-dir", "out"], cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert f"currikit: error: {message}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("text, seed", [
        ("-1", -1), ("0,-3", -3), ("-2..1", -2), ("1..-1", -1),
    ], ids=["single", "in-list", "range-start", "range-end"])
    def test_negative_seed_exit_1(self, workspace, text, seed):
        r = run_cli(TRAIN + [f"--seeds={text}", "--out-dir", "out"], cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert f"currikit: error: --seeds {text!r} holds the negative seed {seed};" in r.stderr
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
    def test_empty_category_prints_no_warning(self, workspace):
        r = run_cli(["design", "--features", "features.bin", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        doc = json.loads((workspace / "curriculum.json").read_text())
        doc["categories"][1]["samples"] = []
        (workspace / "curriculum.json").write_text(json.dumps(doc))
        r = run_cli(["analyze", "--curriculum", "curriculum.json",
                     "--reference", "truth.csv", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""

    def test_empty_category_in_no_bin(self, workspace):
        # A category with no samples has no correct rate, so the audit with
        # runs leaves it out of every bin and gain.
        r = run_cli(["design", "--features", "features.bin", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        r = run_cli(TRAIN + ["--strategies", "A,D", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        doc = json.loads((workspace / "curriculum.json").read_text())
        doc["categories"][2]["samples"] = []
        (workspace / "curriculum.json").write_text(json.dumps(doc))
        r = run_cli(["analyze", "--curriculum", "curriculum.json",
                     "--reference", "truth.csv",
                     "--baseline-run", "run_ModelA_s0.json",
                     "--curriculum-run", "run_ModelD_s0.json",
                     "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        assert r.stderr == ""
        audit = json.loads((workspace / "audit.json").read_text())
        with_samples = sum(1 for cat in doc["categories"] if cat["samples"])
        assert with_samples == len(doc["categories"]) - 1
        assert sum(audit["correct_rate_histogram"]) == with_samples

    @pytest.mark.parametrize("runs", [False, True], ids=["rates", "with-runs"])
    def test_curriculum_without_samples_exit_1(self, workspace, runs):
        r = run_cli(["design", "--features", "features.bin", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        doc = json.loads((workspace / "curriculum.json").read_text())
        for cat in doc["categories"]:
            cat["samples"] = []
        (workspace / "curriculum.json").write_text(json.dumps(doc))
        args = ["analyze", "--curriculum", "curriculum.json", "--reference", "truth.csv",
                "--out-dir", "out"]
        if runs:
            r = run_cli(TRAIN + ["--strategies", "A,D", "--out-dir", "."], cwd=workspace)
            assert r.returncode == 0, r.stderr
            args += ["--baseline-run", "run_ModelA_s0.json",
                     "--curriculum-run", "run_ModelD_s0.json"]
        r = run_cli(args, cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert r.stderr == ("currikit: error: the curriculum holds no samples; "
                            "there is nothing to audit\n")
        assert not (workspace / "out").exists()

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
    def test_no_clean_test_sample_exit_1(self, tmp_path):
        r = run_cli(["synth", "--categories", "3", "--per-category", "2", "--clean-frac", "1",
                     "--cross-frac", "0", "--uniform-frac", "0", "--out-dir", "."], cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(TRAIN[:5] + ["--out-dir", "out"], cwd=tmp_path)
        assert r.returncode == 1
        assert r.stderr == ("currikit: error: test_frac 0.2 holds out no clean sample, "
                            "so the test set would be empty\n")

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

    @pytest.mark.parametrize("bad, message", [
        (b'{"version": 1 "params": {}}',
         "malformed curriculum file: Expecting ',' delimiter: line 1 column 15 (char 14)"),
        (b'\xff{"version": 1}', "not UTF-8 text"),
    ], ids=["malformed", "not-utf-8"])
    def test_curriculum_error_names_the_file(self, workspace, bad, message):
        (workspace / "bad.json").write_bytes(bad)
        r = run_cli(["analyze", "--curriculum", "bad.json", "--reference", "truth.csv",
                     "--out-dir", "."], cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert r.stderr == f"currikit: error: bad.json: {message}\n"

    def test_csv_not_utf_8_exit_1(self, tmp_path):
        # The byte sits well past the decoder's first read of the file.
        rows = "".join(f"s{i},{i % 3},{i}.5\n" for i in range(20_000))
        (tmp_path / "f.csv").write_bytes(f"id,label,f0\n{rows}".encode() + b"\xff,0,1.0\n")
        r = run_cli(["design", "--features", "f.csv", "--out-dir", "."], cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert r.stderr == "currikit: error: f.csv: not UTF-8 text\n"

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

    @pytest.mark.parametrize("bad, message", [
        (b"\xff{}\n", "not UTF-8 text"),
        (b"[1, 2]\n", "malformed run file: TypeError: list indices must be integers or "
                      "slices, not str"),
    ], ids=["not-utf-8", "json-list"])
    def test_run_file_error_names_the_file(self, workspace, bad, message):
        r = run_cli(["design", "--features", "features.bin", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        (workspace / "bad.json").write_bytes(bad)
        r = run_cli(["analyze", "--curriculum", "curriculum.json", "--reference", "truth.csv",
                     "--baseline-run", "bad.json", "--curriculum-run", "bad.json",
                     "--out-dir", "."], cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert r.stderr == f"currikit: error: bad.json: {message}\n"

    def test_reference_row_missing_label_exit_1(self, workspace):
        r = run_cli(["design", "--features", "features.bin", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 0, r.stderr
        first_id = (workspace / "truth.csv").read_text().splitlines()[1].split(",")[0]
        (workspace / "ref.csv").write_text(f"id,predicted_label\n{first_id},1\ns9\n")
        r = run_cli(["analyze", "--curriculum", "curriculum.json",
                     "--reference", "ref.csv", "--out-dir", "."], cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert "currikit: error: ref.csv: row 1 has 1 cells, expected 2" in r.stderr
        assert "Traceback" not in r.stderr

    def test_binary_header_beyond_file_exit_1(self, tmp_path):
        # 29 bytes whose header claims 100000 records of 100000 floats: the
        # loader must not allocate the (N, d) matrix the header asks for.
        header = b"CRFS" + struct.pack("<IIII", 1, 100_000, 100_000, 1)
        (tmp_path / "big.bin").write_bytes(header + struct.pack("<I", 5) + b"cat00")
        r = run_cli(["design", "--features", "big.bin", "--out-dir", "."], cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert "currikit: error: big.bin: truncated file: N=100000 records at d=100000" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("label", [10**8, 2**70], ids=["1e8", "2^70"])
    def test_csv_label_beyond_rows_exit_1(self, tmp_path, label):
        # The csv format infers label + 1 categories: the loader must reject
        # the label before it names them, here within 1.5 GiB of address space.
        (tmp_path / "huge.csv").write_text(f"id,label,f0\na,0,1.0\nb,{label},2.0\n")
        limit = 3 << 29
        r = subprocess.run(
            [sys.executable, "-m", "currikit", "design", "--features", "huge.csv",
             "--out-dir", "."],
            cwd=tmp_path, env=cli_env(), capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert r.returncode == 1, r.stderr
        assert (f"currikit: error: huge.csv: label {label} needs {label + 1} categories, "
                "more than the 2 data rows and the limit of 65536") in r.stderr
        assert "Traceback" not in r.stderr

    def test_csv_all_negative_labels_exit_1(self, tmp_path):
        (tmp_path / "neg.csv").write_text("id,label,f0\na,-1,1.0\nb,-2,2.0\n")
        r = run_cli(["design", "--features", "neg.csv", "--out-dir", "."], cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert "currikit: error: neg.csv: label -1 at row 0 is negative" in r.stderr
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

    @pytest.mark.parametrize("args", [
        ["synth", "--seed", "-1"],
        ["design", "--features", "missing.bin", "--seed", "-3"],
        ["train", "--features", "missing.bin", "--truth", "missing.csv", "--split-seed", "-2"],
        ["train", "--features", "missing.bin", "--truth", "missing.csv", "--design-seed", "-4"],
    ], ids=["synth-seed", "design-seed", "train-split-seed", "train-design-seed"])
    def test_negative_seed_option_exit_1(self, tmp_path, monkeypatch, capsys, args):
        # Rejected before any work: the missing input files are never opened.
        monkeypatch.chdir(tmp_path)
        assert main(args + ["--out-dir", "out"]) == 1
        option = " ".join(args[-2:])
        err = capsys.readouterr().err
        assert err == f"currikit: error: {option} is negative; seeds are non-negative integers\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, code, message", [
        (["--seeds", "x"], 1, "--seeds 'x' is not a seed list; give a comma list such as "
                              "1,2,5 or an inclusive range such as 1..10"),
        (["--strategies", "Z"], 2, "unknown strategy 'Z'; choose from "
                                   + ", ".join(experiments.STRATEGY_TAGS)),
        (["--noisy-fraction", "150"], 1, "--noisy-fraction '150' holds 150; percentages lie "
                                         "in [0, 100]"),
    ], ids=["seeds", "strategies", "noisy-fraction"])
    def test_train_list_option_checked_before_files(self, tmp_path, option, code, message):
        # The missing feature file would be the error if it were opened first.
        r = run_cli(["train", "--features", "nope.bin", "--truth", "nope.csv", *option,
                     "--out-dir", "out"], cwd=tmp_path)
        assert r.returncode == code, r.stderr
        assert r.stderr.endswith(f"currikit: error: {message}\n"), r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reader", ["features", "truth", "reference"])
    def test_csv_cell_over_field_limit_exit_1(self, workspace, reader):
        # csv.field_size_limit() is 131072 characters by default; the csv
        # module raises csv.Error, which is no ValueError, past it.
        long_id = "x" * 200_000
        if reader == "features":
            (workspace / "big.csv").write_text(f"id,label,f0\n{long_id},0,1.0\n")
            args = ["design", "--features", "big.csv", "--out-dir", "."]
            where = "big.csv: row 0"
        elif reader == "truth":
            lines = (workspace / "truth.csv").read_text().splitlines(keepends=True)
            lines[2] = long_id + lines[2][lines[2].index(","):]  # data row 1
            (workspace / "truth.csv").write_text("".join(lines))
            args = TRAIN + ["--strategies", "A", "--out-dir", "."]
            where = "truth.csv: row 1"
        else:
            r = run_cli(["design", "--features", "features.bin", "--out-dir", "."],
                        cwd=workspace)
            assert r.returncode == 0, r.stderr
            (workspace / "ref.csv").write_text(f"id,predicted_label\ns0,1\n{long_id},1\n")
            args = ["analyze", "--curriculum", "curriculum.json",
                    "--reference", "ref.csv", "--out-dir", "."]
            where = "ref.csv: row 1"
        r = run_cli(args, cwd=workspace)
        assert r.returncode == 1, r.stderr
        assert f"currikit: error: {where}: field larger than field limit" in r.stderr
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


def _usable_cpus():
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@pytest.mark.skipif(len(_usable_cpus()) < 2, reason="needs two usable CPUs")
class TestCoreCounts:
    """A train command writes the same files, stdout and stderr when its
    process may use one CPU (runs train serially) and two (forked workers)."""

    @pytest.mark.parametrize("extra", [
        ["--strategies", "A,B,C,D"],
        ["--noisy-fraction", "0,100"],  # fraction 0 moves stage 2's level-2 picks
    ], ids=["grid", "sweep"])
    def test_one_and_two_cores_give_the_same_bytes(self, workspace, extra):
        seen = []
        for cpus in (_usable_cpus()[:1], _usable_cpus()[:2]):
            r = subprocess.run(
                [sys.executable, "-m", "currikit", *TRAIN, *extra, "--seeds", "0,1",
                 "--batch-log", "--out-dir", "out"],
                cwd=workspace, env=cli_env(), capture_output=True,
                preexec_fn=lambda: os.sched_setaffinity(0, cpus),
            )
            assert r.returncode == 0, r.stderr
            out = workspace / "out"
            seen.append(({f.name: f.read_bytes() for f in sorted(out.iterdir())},
                         r.stdout, r.stderr))
            shutil.rmtree(out)
        assert seen[0] == seen[1]
        if extra[0] == "--noisy-fraction":
            assert seen[0][2].count(b"level 2 subset is empty") == 2


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

    @pytest.mark.parametrize("value, logged", [("false", False), ("TRUE", True)])
    def test_config_switch_true_or_false(self, workspace, value, logged):
        (workspace / "run.cfg").write_text(f"batch-log = {value}\n")
        r = run_cli(TRAIN + ["--config", "run.cfg", "--strategies", "D", "--out-dir", "out"],
                    cwd=workspace)
        assert r.returncode == 0, r.stderr
        assert (workspace / "out" / "batches_ModelD_s0.csv").exists() == logged

    def test_config_switch_other_value_exit_2(self, workspace):
        (workspace / "run.cfg").write_text("batch-log = maybe\n")
        r = run_cli(TRAIN + ["--config", "run.cfg", "--out-dir", "out"], cwd=workspace)
        assert r.returncode == 2, r.stderr
        assert "currikit: error: config key batch_log = 'maybe' must be true or false" in r.stderr
        assert not (workspace / "out").exists()

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        (tmp_path / "run.cfg").write_text("# a comment line\nout-dir = runs#2\n")
        r = run_cli(SYNTH + ["--config", "run.cfg"], cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "runs#2" / "features.bin").exists()
        assert not (tmp_path / "runs").exists()

    def test_hash_after_whitespace_starts_a_comment(self, tmp_path):
        (tmp_path / "run.cfg").write_text("seed = 9  # note\nout-dir = a\t# tab\n")
        r = run_cli(["synth", "--config", "run.cfg", "--per-category", "20"], cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["synth", "--seed", "9", "--per-category", "20", "--out-dir", "b"],
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "a" / "features.bin").read_bytes() == \
            (tmp_path / "b" / "features.bin").read_bytes()

    @pytest.mark.parametrize("text, message", [
        (b"\xffseed = 3\n", "c.cfg: not UTF-8 text"),
        (b"seed = 3\nseed 4\n", "c.cfg:2: expected 'key = value'"),
    ], ids=["not-utf-8", "no-equals-sign"])
    def test_unreadable_config_exit_2(self, tmp_path, text, message):
        (tmp_path / "c.cfg").write_bytes(text)
        r = run_cli(["synth", "--config", "c.cfg", "--out-dir", "o"], cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert r.stderr == ("usage: currikit [-h] {synth,design,train,analyze} ...\n"
                            f"currikit: error: cannot read config file: {message}\n")
        assert not (tmp_path / "o").exists()

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


def test_each_command_imports_only_its_modules(tmp_path):
    # Start-up is most of a short command's time: synth and design must not
    # import the training and analysis modules, and no command imports scipy.
    script = (
        "import json, sys\n"
        "from currikit.cli import main\n"
        "seen = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0\n"
        "    seen.append(sorted(m for m in sys.modules\n"
        "                       if m.startswith('currikit.') or m.split('.')[0] == 'scipy'))\n"
        "print(json.dumps(seen))\n"
    )
    commands = [
        SYNTH + ["--out-dir", "."],
        ["design", "--features", "features.bin", "--out-dir", "."],
        TRAIN + ["--out-dir", "."],
        ["analyze", "--curriculum", "curriculum.json", "--reference", "truth.csv",
         "--out-dir", "."],
    ]
    r = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                       cwd=tmp_path, env=cli_env(), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    synth, design, _, analyze = map(set, json.loads(r.stdout.splitlines()[-1]))
    training = {f"currikit.{m}" for m in ("schedule", "trainer", "experiments", "analysis")}
    assert not synth & (training | {"currikit.curriculum", "currikit.density"}), synth
    assert not design & training, design
    assert {"currikit.curriculum", "currikit.density"} <= design
    assert not any(m.split(".")[0] == "scipy" for m in analyze)


def test_analyze_without_runs_loads_no_training_code(workspace):
    # A fresh process: the command before it in one process would leave its
    # modules loaded.
    r = run_cli(["design", "--features", "features.bin", "--out-dir", "."], cwd=workspace)
    assert r.returncode == 0, r.stderr
    script = (
        "import json, sys\n"
        "from currikit.cli import main\n"
        "assert main(['analyze', '--curriculum', 'curriculum.json',\n"
        "             '--reference', 'truth.csv', '--out-dir', '.']) == 0\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('currikit.')]))\n"
    )
    r = subprocess.run([sys.executable, "-c", script],
                       cwd=workspace, env=cli_env(), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded = set(json.loads(r.stdout.splitlines()[-1]))
    assert "currikit.analysis" in loaded
    assert not loaded & {f"currikit.{m}" for m in ("schedule", "trainer", "experiments")}, loaded
