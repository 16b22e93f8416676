"""The exact stdout, stderr and exit code of the CLI's help texts and usage errors.

Each command's parser gets its options only when that command is parsed,
so that a command imports no module it does not run. These cases pin what
that must not change: the top-level help, each command's help, the errors
for no command and for an unknown one, an invalid choice from each tuple
the options take their choices from, and a config key no option has. The
texts were recorded with CPython 3.11, whose argparse words them; other
versions word some of them differently, so the comparison runs only there.
"""

import sys

import pytest

from cli_support import run_cli

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the help and usage texts were recorded with CPython 3.11's argparse",
)

CASES = [
    pytest.param(["--help"], 0,
                 """\
usage: currikit [-h] {synth,design,train,analyze} ...

Design density-ranked curricula over noisy-label feature datasets and run
staged curriculum training.

positional arguments:
  {synth,design,train,analyze}
    synth               generate a planted-noise synthetic dataset
    design              design a curriculum over a feature file
    train               run training strategies over a dataset
    analyze             audit a curriculum against reference labels

options:
  -h, --help            show this help message and exit
""",
                 "",
                 id="help"),
    pytest.param(["synth", "--help"], 0,
                 """\
usage: currikit synth [-h] [--config CONFIG] [--out-dir OUT_DIR]
                      [--categories CATEGORIES] [--per-category PER_CATEGORY]
                      [--dim DIM] [--clean-frac CLEAN_FRAC]
                      [--cross-frac CROSS_FRAC] [--uniform-frac UNIFORM_FRAC]
                      [--blob-sigma BLOB_SIGMA] [--box-margin BOX_MARGIN]
                      [--seed SEED] [--format {binary,csv}]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value file pre-setting any option
  --out-dir OUT_DIR     output directory (default: $CURRIKIT_OUT or '.')
  --categories CATEGORIES
  --per-category PER_CATEGORY
  --dim DIM
  --clean-frac CLEAN_FRAC
  --cross-frac CROSS_FRAC
  --uniform-frac UNIFORM_FRAC
  --blob-sigma BLOB_SIGMA
  --box-margin BOX_MARGIN
                        uniform-noise box margin past the centers, in sigmas
  --seed SEED
  --format {binary,csv}
""",
                 "",
                 id="synth-help"),
    pytest.param(["design", "--help"], 0,
                 """\
usage: currikit design [-h] [--config CONFIG] [--out-dir OUT_DIR] --features
                       FEATURES [--format {binary,csv,auto}]
                       [--method {density,kmeans}] [--k-percent K_PERCENT]
                       [--subsets SUBSETS]
                       [--kmeans-max-iters KMEANS_MAX_ITERS] [--seed SEED]
                       [--out-name OUT_NAME]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value file pre-setting any option
  --out-dir OUT_DIR     output directory (default: $CURRIKIT_OUT or '.')
  --features FEATURES
  --format {binary,csv,auto}
  --method {density,kmeans}
  --k-percent K_PERCENT
  --subsets SUBSETS
  --kmeans-max-iters KMEANS_MAX_ITERS
  --seed SEED
  --out-name OUT_NAME
""",
                 "",
                 id="design-help"),
    pytest.param(["train", "--help"], 0,
                 """\
usage: currikit train [-h] [--config CONFIG] [--out-dir OUT_DIR] --features
                      FEATURES [--format {binary,csv,auto}] --truth TRUTH
                      [--strategies STRATEGIES] [--seeds SEEDS]
                      [--noisy-fraction NOISY_FRACTION]
                      [--batch-size BATCH_SIZE] [--scale SCALE]
                      [--arch {linear,mlp}] [--hidden-dim HIDDEN_DIM]
                      [--topk TOPK] [--test-frac TEST_FRAC]
                      [--split-seed SPLIT_SEED] [--design-seed DESIGN_SEED]
                      [--k-percent K_PERCENT]
                      [--kmeans-max-iters KMEANS_MAX_ITERS] [--batch-log]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value file pre-setting any option
  --out-dir OUT_DIR     output directory (default: $CURRIKIT_OUT or '.')
  --features FEATURES
  --format {binary,csv,auto}
  --truth TRUTH
  --strategies STRATEGIES
                        comma list from: A,B,C,D,D_kmeans (or full Model*
                        names)
  --seeds SEEDS         '1,2,3' or '1..10'
  --noisy-fraction NOISY_FRACTION
                        percent list (e.g. 0,25,50,75,100); runs the highly-
                        noisy-fraction sweep instead of --strategies
  --batch-size BATCH_SIZE
  --scale SCALE
  --arch {linear,mlp}
  --hidden-dim HIDDEN_DIM
  --topk TOPK
  --test-frac TEST_FRAC
  --split-seed SPLIT_SEED
  --design-seed DESIGN_SEED
  --k-percent K_PERCENT
  --kmeans-max-iters KMEANS_MAX_ITERS
  --batch-log           also write per-iteration batch composition CSVs
""",
                 "",
                 id="train-help"),
    pytest.param(["analyze", "--help"], 0,
                 """\
usage: currikit analyze [-h] [--config CONFIG] [--out-dir OUT_DIR]
                        --curriculum CURRICULUM --reference REFERENCE
                        [--baseline-run BASELINE_RUN]
                        [--curriculum-run CURRICULUM_RUN]

options:
  -h, --help            show this help message and exit
  --config CONFIG       key = value file pre-setting any option
  --out-dir OUT_DIR     output directory (default: $CURRIKIT_OUT or '.')
  --curriculum CURRICULUM
  --reference REFERENCE
                        truth CSV or id,predicted_label CSV
  --baseline-run BASELINE_RUN
                        run_*.json of the baseline strategy
  --curriculum-run CURRICULUM_RUN
                        run_*.json of the curriculum strategy
""",
                 "",
                 id="analyze-help"),
    pytest.param([], 2,
                 "",
                 """\
usage: currikit [-h] {synth,design,train,analyze} ...
currikit: error: the following arguments are required: command
""",
                 id="no-command"),
    pytest.param(["bogus"], 2,
                 "",
                 """\
usage: currikit [-h] {synth,design,train,analyze} ...
currikit: error: argument command: invalid choice: 'bogus' (choose from 'synth', 'design', 'train', 'analyze')
""",
                 id="unknown-command"),
    pytest.param(["design", "--method", "bogus"], 2,
                 "",
                 """\
usage: currikit design [-h] [--config CONFIG] [--out-dir OUT_DIR] --features
                       FEATURES [--format {binary,csv,auto}]
                       [--method {density,kmeans}] [--k-percent K_PERCENT]
                       [--subsets SUBSETS]
                       [--kmeans-max-iters KMEANS_MAX_ITERS] [--seed SEED]
                       [--out-name OUT_NAME]
currikit design: error: argument --method: invalid choice: 'bogus' (choose from 'density', 'kmeans')
""",
                 id="design-method"),
    pytest.param(["train", "--arch", "bogus"], 2,
                 "",
                 """\
usage: currikit train [-h] [--config CONFIG] [--out-dir OUT_DIR] --features
                      FEATURES [--format {binary,csv,auto}] --truth TRUTH
                      [--strategies STRATEGIES] [--seeds SEEDS]
                      [--noisy-fraction NOISY_FRACTION]
                      [--batch-size BATCH_SIZE] [--scale SCALE]
                      [--arch {linear,mlp}] [--hidden-dim HIDDEN_DIM]
                      [--topk TOPK] [--test-frac TEST_FRAC]
                      [--split-seed SPLIT_SEED] [--design-seed DESIGN_SEED]
                      [--k-percent K_PERCENT]
                      [--kmeans-max-iters KMEANS_MAX_ITERS] [--batch-log]
currikit train: error: argument --arch: invalid choice: 'bogus' (choose from 'linear', 'mlp')
""",
                 id="train-arch"),
    pytest.param(["synth", "--format", "bogus"], 2,
                 "",
                 """\
usage: currikit synth [-h] [--config CONFIG] [--out-dir OUT_DIR]
                      [--categories CATEGORIES] [--per-category PER_CATEGORY]
                      [--dim DIM] [--clean-frac CLEAN_FRAC]
                      [--cross-frac CROSS_FRAC] [--uniform-frac UNIFORM_FRAC]
                      [--blob-sigma BLOB_SIGMA] [--box-margin BOX_MARGIN]
                      [--seed SEED] [--format {binary,csv}]
currikit synth: error: argument --format: invalid choice: 'bogus' (choose from 'binary', 'csv')
""",
                 id="synth-format"),
    pytest.param(["synth", "--config", "bad.cfg"], 2,
                 "",
                 """\
usage: currikit [-h] {synth,design,train,analyze} ...
currikit: error: unknown config keys: nonsense
""",
                 id="config-unknown-key"),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", CASES)
def test_cli_bytes(tmp_path, argv, code, stdout, stderr):
    (tmp_path / "bad.cfg").write_text("nonsense = 1\n")
    r = run_cli(argv, cwd=tmp_path, env={"COLUMNS": "80"})
    assert (r.returncode, r.stdout, r.stderr) == (code, stdout, stderr)
