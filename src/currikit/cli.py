"""Command-line pipeline: synth -> design -> train -> analyze.

Every command is deterministic for a given config and seed, and all output
files are written atomically, so reruns produce byte-identical results. A
config file of ``key = value`` lines can pre-set any long option; explicit
flags win. The output directory may also be set through the CURRIKIT_OUT
environment variable (flags still win). Exit codes: 0 success, 1 runtime
failure, 2 usage error.

Each command imports only the modules it runs. A probe of the arguments
names the command and its --config file; only that command's parser gets
its options, some of which take their choices from those modules, and its
code imports the rest.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
from collections.abc import Iterable
from pathlib import Path
from typing import TYPE_CHECKING

from .data import (
    FORMATS,
    SynthConfig,
    _names_its_file,
    generate_synthetic,
    load_features,
    load_reference_labels,
    load_truth,
    save_features,
    save_truth,
)
from .fileio import atomic_write_text

if TYPE_CHECKING:
    from .trainer import RunMetrics

OUT_DIR_ENV = "CURRIKIT_OUT"


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()  # "#" after whitespace
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip().strip('"')
    return values


def _apply_config(parser: argparse.ArgumentParser, command: argparse.ArgumentParser,
                  path: str) -> None:
    """Pre-set `command`'s defaults from the config file at `path`; explicit
    flags win.

    String defaults are type-converted by argparse exactly like command-line
    values; a switch takes `true` or `false`.
    """
    try:
        overrides = _parse_config_file(path)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file: {exc}")
    unknown = sorted(set(overrides) - {a.dest for a in command._actions})
    if unknown:
        parser.error(f"unknown config keys: {', '.join(unknown)}")
    for a in command._actions:
        if isinstance(a, argparse._StoreTrueAction) and a.dest in overrides:
            value = overrides[a.dest]
            if value.lower() not in ("true", "false"):
                parser.error(f"config key {a.dest} = {value!r} must be true or false")
            overrides[a.dest] = value.lower() == "true"
    command.set_defaults(**overrides)


def _seed_list(text: str) -> list[int]:
    """Seeds as '1,2,5' or a '1..10' inclusive range."""
    try:
        if ".." in text:
            ends = [int(end) for end in text.split("..", 1)]
            seeds = list(range(ends[0], ends[1] + 1))
        else:
            seeds = ends = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--seeds {text!r} is not a seed list; give a comma list such as "
                         "1,2,5 or an inclusive range such as 1..10") from None
    negative = [seed for seed in ends if seed < 0]
    if negative:
        raise ValueError(f"--seeds {text!r} holds the negative seed {negative[0]}; seeds "
                         "are non-negative integers such as 1,2,5 or 1..10")
    return seeds


def _seed(value: int, option: str) -> int:
    if value < 0:
        raise ValueError(f"{option} {value} is negative; seeds are non-negative integers")
    return value


def _float_list(text: str) -> list[float]:
    try:
        percents = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--noisy-fraction {text!r} is not a list of percentages; give a "
                         "comma list such as 0,25,50,75,100") from None
    for p in percents:
        if not 0 <= p <= 100:
            raise ValueError(f"--noisy-fraction {text!r} holds {p:g}; percentages lie in [0, 100]")
    return percents


def _json_text(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=False, allow_nan=True) + "\n"


def _nan_to_none(x: float):
    return None if isinstance(x, float) and math.isnan(x) else x


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args: argparse.Namespace) -> int:
    seed = _seed(args.seed, "--seed")
    cfg = SynthConfig(
        n_categories=int(args.categories),
        per_category=int(args.per_category),
        n_features=int(args.dim),
        clean_frac=float(args.clean_frac),
        cross_frac=float(args.cross_frac),
        uniform_frac=float(args.uniform_frac),
        blob_sigma=float(args.blob_sigma),
        box_margin_sigmas=float(args.box_margin),
        seed=seed,
    )
    fs, truth = generate_synthetic(cfg)
    out_dir = Path(args.out_dir)
    features_path = out_dir / f"features.{ 'bin' if args.format == 'binary' else 'csv' }"
    truth_path = out_dir / "truth.csv"
    save_features(fs, features_path, args.format)
    save_truth(fs, truth, truth_path)
    print(f"wrote {features_path} ({fs.n_samples} samples, d={fs.n_features}, "
          f"C={fs.n_categories}) and {truth_path}")
    return 0


# ---------------------------------------------------------------------------
# design


def _load_features_arg(args: argparse.Namespace):
    fmt = args.format
    if fmt == "auto":
        fmt = "csv" if str(args.features).endswith(".csv") else "binary"
    return load_features(args.features, fmt)


def _cmd_design(args: argparse.Namespace) -> int:
    from .curriculum import CurriculumParams, design, level_name, save_curriculum

    seed = _seed(args.seed, "--seed")
    fs = _load_features_arg(args)
    params = CurriculumParams(
        k_percent=float(args.k_percent),
        n_subsets=int(args.subsets),
        kmeans_max_iters=int(args.kmeans_max_iters),
        seed=seed,
    )
    cd = design(fs, params, args.method)
    out = Path(args.out_dir) / args.out_name
    save_curriculum(cd, out)
    n_subsets = params.n_subsets
    header = ["category", "n"] + [level_name(s, n_subsets) for s in range(n_subsets)] + ["d_c"]
    print("  ".join(header))
    for st in cd.category_stats():
        row = [str(st.category_id), str(st.n)]
        row += [str(x) for x in st.subset_sizes]
        row.append(format(st.d_c, ".6g"))
        print("  ".join(row))
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# train


def _metrics_csv(runs: list[RunMetrics]) -> str:
    out = io.StringIO()
    out.write("strategy,seed,iteration,stage,train_loss,top1,topk\n")
    for m in runs:
        for p in m.points:
            out.write(
                f"{m.strategy},{m.seed},{p.iteration},{p.stage},"
                f"{p.train_loss!r},{p.test_top1!r},{p.test_topk!r}\n"
            )
    return out.getvalue()


def _batch_log_csv(batch_log: Iterable[tuple]) -> str:
    return "iteration,level_counts,weights\n" + "".join(
        f"{iteration},{';'.join(map(str, counts))},{';'.join(map(repr, weights))}\n"
        for iteration, _, counts, weights in batch_log)


def _run_file_tag(tag: str) -> str:
    return tag.replace("@", "_").replace("=", "").replace(".", "p")


def _cmd_train(args: argparse.Namespace) -> int:
    from .curriculum import CurriculumParams
    from .experiments import STRATEGY_TAGS, run_grid, summarize
    from .trainer import holdout_split

    split_seed = _seed(args.split_seed, "--split-seed")
    design_seed = _seed(args.design_seed, "--design-seed")
    seeds = _seed_list(args.seeds)
    if args.noisy_fraction:
        tags = ["ModelD"]
        fractions = [f / 100.0 for f in _float_list(args.noisy_fraction)]
    else:
        tags = [t.strip() for t in args.strategies.split(",") if t.strip()]
        alias = {t.removeprefix("Model"): t for t in STRATEGY_TAGS}
        tags = [alias.get(t, t) for t in tags]
        bad = [t for t in tags if t not in STRATEGY_TAGS]
        if bad:
            raise UsageError(f"unknown strategy {bad[0]!r}; choose from {', '.join(STRATEGY_TAGS)}")
        fractions = None
    fs = _load_features_arg(args)
    truth_ids, truth = load_truth(args.truth)
    if len(truth) != fs.n_samples:
        raise ValueError("truth file does not match the feature file")
    for row, (truth_id, feature_id) in enumerate(zip(truth_ids, fs.sample_ids)):
        if truth_id != feature_id:
            raise ValueError(
                f"truth file row {row} has id {truth_id!r} where the feature file "
                f"has {feature_id!r}; truth rows must list the feature ids in order"
            )
    fs_train, _, fs_test = holdout_split(fs, truth, args.test_frac, split_seed)
    params = CurriculumParams(
        k_percent=float(args.k_percent),
        kmeans_max_iters=int(args.kmeans_max_iters),
        seed=design_seed,
    )
    out_dir = Path(args.out_dir)
    runs: list[RunMetrics] = []
    for metrics, batch_log in run_grid(
        tags, seeds, fs_train, fs_test, params, fractions=fractions,
        batch_size=int(args.batch_size), scale=float(args.scale), arch=args.arch,
        hidden_dim=int(args.hidden_dim), topk=int(args.topk), batch_log=args.batch_log,
    ):
        runs.append(metrics)
        name = f"{_run_file_tag(metrics.strategy)}_s{metrics.seed}"
        if fractions is None:
            atomic_write_text(out_dir / f"run_{name}.json", _json_text(metrics.to_dict()))
        if batch_log is not None:
            atomic_write_text(out_dir / f"batches_{name}.csv", _batch_log_csv(batch_log))

    if fractions is not None:
        atomic_write_text(out_dir / "sweep_metrics.csv", _metrics_csv(runs))
        table = {
            f"{fraction:g}": {"mean_top1": row["mean_top1"], "mean_topk": row["mean_topk"]}
            for fraction, row in zip(fractions, summarize(runs).values(), strict=True)
        }
        atomic_write_text(out_dir / "sweep_summary.json", _json_text(table))
        print("fraction  mean_top1  mean_topk")
        for key, row in table.items():
            print(f"{key:>8}  {row['mean_top1']:.4f}     {row['mean_topk']:.4f}")
        print(f"wrote {out_dir / 'sweep_metrics.csv'} and {out_dir / 'sweep_summary.json'}")
        return 0

    atomic_write_text(out_dir / "metrics.csv", _metrics_csv(runs))
    summary = summarize(runs)
    atomic_write_text(out_dir / "summary.json", _json_text(summary))
    print("strategy        runs  mean_top1  std_top1  mean_topk  std_topk")
    for tag in tags:
        row = summary[tag]
        print(f"{tag:<14}  {row['runs']:>4}  {row['mean_top1']:.4f}     "
              f"{row['std_top1']:.4f}    {row['mean_topk']:.4f}     {row['std_topk']:.4f}")
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'summary.json'}")
    return 0


# ---------------------------------------------------------------------------
# analyze


@_names_its_file(ValueError)
def _load_run(path: str) -> RunMetrics:
    from .trainer import RunMetrics

    text = Path(path).read_text(encoding="utf-8")
    try:
        return RunMetrics.from_dict(json.loads(text))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed run file: {type(exc).__name__}: {exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import N_BINS, category_correct_rates, rate_interval_report, subset_noise_rates
    from .curriculum import level_name, load_curriculum

    cd = load_curriculum(args.curriculum)
    reference = load_reference_labels(args.reference)
    rates = subset_noise_rates(cd, reference)
    correct = category_correct_rates(cd, reference)
    doc = {
        "subset_rates": [
            {
                "level": s,
                "name": level_name(s, cd.n_subsets),
                "size": rates.sizes[s],
                "mislabeled": rates.mislabeled[s],
                "rate": _nan_to_none(rates.rates[s]),
            }
            for s in range(cd.n_subsets)
        ],
        "overall_rate": rates.overall_rate,
        "correct_rate_histogram": None,
        "interval_gains": None,
    }
    bins_csv = None
    if args.baseline_run and args.curriculum_run:
        baseline = _load_run(args.baseline_run)
        curriculum_run = _load_run(args.curriculum_run)
        audit = rate_interval_report(correct, baseline, curriculum_run)
        doc["correct_rate_histogram"] = list(audit.histogram)
        doc["interval_gains"] = [_nan_to_none(g) for g in audit.interval_gains]
        out = io.StringIO()
        out.write("bin_lo,bin_hi,categories,mean_topk_gain\n")
        for b in range(N_BINS):
            gain = audit.interval_gains[b]
            gain_txt = "" if math.isnan(gain) else repr(gain)
            out.write(f"{b / N_BINS!r},{(b + 1) / N_BINS!r},{audit.histogram[b]},{gain_txt}\n")
        bins_csv = out.getvalue()
    elif args.baseline_run or args.curriculum_run:
        raise ValueError("--baseline-run and --curriculum-run must be given together")
    out_dir = Path(args.out_dir)
    atomic_write_text(out_dir / "audit.json", _json_text(doc))
    if bins_csv is not None:
        atomic_write_text(out_dir / "rate_bins.csv", bins_csv)
    for s in range(cd.n_subsets):
        rate = rates.rates[s]
        rate_txt = "n/a" if math.isnan(rate) else f"{rate:.3f}"
        print(f"{level_name(s, cd.n_subsets):<13} size={rates.sizes[s]:<6} noise_rate={rate_txt}")
    print(f"overall noise rate: {rates.overall_rate:.3f}")
    print(f"wrote {out_dir / 'audit.json'}" + (" and rate_bins.csv" if bins_csv else ""))
    return 0


# ---------------------------------------------------------------------------
# parser


class UsageError(Exception):
    pass


def _synth_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--categories", type=int, default=10)
    p.add_argument("--per-category", type=int, default=200)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--clean-frac", type=float, default=0.60)
    p.add_argument("--cross-frac", type=float, default=0.25)
    p.add_argument("--uniform-frac", type=float, default=0.15)
    p.add_argument("--blob-sigma", type=float, default=2.0)
    p.add_argument("--box-margin", type=float, default=14.0,
                   help="uniform-noise box margin past the centers, in sigmas")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=FORMATS, default="binary")
    p.set_defaults(func=_cmd_synth)


def _design_options(p: argparse.ArgumentParser) -> None:
    from .curriculum import DESIGN_METHODS

    p.add_argument("--features", required=True)
    p.add_argument("--format", choices=FORMATS + ("auto",), default="auto")
    p.add_argument("--method", choices=DESIGN_METHODS, default="density")
    p.add_argument("--k-percent", type=float, default=60.0)
    p.add_argument("--subsets", type=int, default=3)
    p.add_argument("--kmeans-max-iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-name", default="curriculum.json")
    p.set_defaults(func=_cmd_design)


def _train_options(p: argparse.ArgumentParser) -> None:
    from .trainer import ARCHITECTURES

    p.add_argument("--features", required=True)
    p.add_argument("--format", choices=FORMATS + ("auto",), default="auto")
    p.add_argument("--truth", required=True)
    p.add_argument("--strategies", default="ModelA,ModelD",
                   help="comma list from: A,B,C,D,D_kmeans (or full Model* names)")
    p.add_argument("--seeds", default="0", help="'1,2,3' or '1..10'")
    p.add_argument("--noisy-fraction", default="",
                   help="percent list (e.g. 0,25,50,75,100); runs the "
                        "highly-noisy-fraction sweep instead of --strategies")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--scale", type=float, default=0.001)
    p.add_argument("--arch", choices=ARCHITECTURES, default="linear")
    p.add_argument("--hidden-dim", type=int, default=32)
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--test-frac", type=float, default=0.2)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--design-seed", type=int, default=0)
    p.add_argument("--k-percent", type=float, default=60.0)
    p.add_argument("--kmeans-max-iters", type=int, default=100)
    p.add_argument("--batch-log", action="store_true",
                   help="also write per-iteration batch composition CSVs")
    p.set_defaults(func=_cmd_train)


def _analyze_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--curriculum", required=True)
    p.add_argument("--reference", required=True,
                   help="truth CSV or id,predicted_label CSV")
    p.add_argument("--baseline-run", default="",
                   help="run_*.json of the baseline strategy")
    p.add_argument("--curriculum-run", default="",
                   help="run_*.json of the curriculum strategy")
    p.set_defaults(func=_cmd_analyze)


# name -> (help, function adding the command's own options)
_COMMANDS = {
    "synth": ("generate a planted-noise synthetic dataset", _synth_options),
    "design": ("design a curriculum over a feature file", _design_options),
    "train": ("run training strategies over a dataset", _train_options),
    "analyze": ("audit a curriculum against reference labels", _analyze_options),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("command", nargs="?")
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    parser = argparse.ArgumentParser(
        prog="currikit",
        description="Design density-ranked curricula over noisy-label feature "
                    "datasets and run staged curriculum training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, (text, _) in _COMMANDS.items()}
    if known.command in commands:
        # Every command is added first: a config error prints the usage line,
        # which lists them all.
        command = commands[known.command]
        command.add_argument("--config", help="key = value file pre-setting any option")
        command.add_argument("--out-dir", default=os.environ.get(OUT_DIR_ENV, "."),
                             help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
        _COMMANDS[known.command][1](command)
        if known.config:
            _apply_config(parser, command, known.config)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"currikit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
