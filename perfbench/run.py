#!/usr/bin/env python3
"""currikit benchmark: the four-command CLI pipeline, timed from outside.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload design-wide --seed 0 --seconds 55 --trace 0

For ``--seconds``, the benchmark repeats synth -> design -> train ->
analyze, one fresh ``python -m currikit`` process per command, in a new
directory each time, and checks every output. The workload seed goes to
``synth --seed``; the other commands read the files synth wrote. ``--trace
1`` follows each untraced repetition with a traced one (every command run
under trace_cli.py) and reports the per-layer metrics instead of the
end-to-end ones.

Children import the checkout's own ``src`` (absolute PYTHONPATH, asserted
through ``currikit.__file__``). Work files and a JSON result with the
environment go under ``.perfbench/`` in the checkout. The last line of
stdout is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import STAGES, check_stage, digest_outputs
from workloads import PAPER_ITERATIONS, WORKLOADS, Workload, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_CLI = HERE / "trace_cli.py"
DIGESTS = HERE / "digests.json"
# Synth-only runs before the first repetition.
EXTRA_SETUPS = 2
# A run must exit within 180 s; children are killed past this point.
HARD_LIMIT_S = 170.0

PROBE = r"""
import ctypes, glob, json, os, platform, sys
import numpy, currikit, currikit.cli
blas = {"config": None, "threads": None}
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
for path in libs:
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            cfg = getattr(lib, prefix + "get_config" + suffix, None)
            nth = getattr(lib, prefix + "get_num_threads" + suffix, None)
            if cfg is not None and nth is not None and blas["config"] is None:
                cfg.restype = ctypes.c_char_p
                blas = {"config": cfg().decode(), "threads": int(nth())}
if blas["config"] is None:
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas["config"] = "%s %s (build-time)" % (info.get("name"), info.get("openblas configuration", ""))
print(json.dumps({
    "currikit_file": os.path.realpath(currikit.__file__),
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas_config": blas["config"],
    "blas_threads": blas["threads"],
    "machine": platform.machine(),
}))
"""


@dataclass(frozen=True)
class Cmd:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str


class Runner:
    """Launches commands as direct children and keeps the failure tally."""

    def __init__(self, hard_deadline: float):
        self.env = {k: v for k, v in os.environ.items() if k != "CURRIKIT_OUT"}
        self.env["PYTHONPATH"] = str(SRC)
        # numpy asks for 2 MiB pages on large arrays; whether the host can
        # give them depends on other tenants' memory, which moves peak RSS.
        self.env["NUMPY_MADVISE_HUGEPAGE"] = "0"
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def launch(self, argv: list[str], cwd: Path, log_stem: Path) -> Cmd:
        """Run argv to completion; wall time, peak RSS via wait4, exit code, stdout."""
        timeout = max(1.0, self.hard_deadline - perf_counter())
        with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = Path(f"{log_stem}.out").read_text(errors="replace")
        return Cmd(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)
        print(f"perfbench: FAIL {what}", file=sys.stderr)


def probe_environment(runner: Runner, work: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=work, env=runner.env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode:
        raise SystemExit(f"perfbench: cannot import currikit from {SRC}:\n{proc.stderr}")
    env = json.loads(proc.stdout)
    if not Path(env["currikit_file"]).is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: children import {env['currikit_file']}, not {SRC}")
    env["nproc"] = os.cpu_count()
    env["child_env"] = {k: runner.env.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "NUMPY_MADVISE_HUGEPAGE")}
    return env


class Pipeline:
    """Runs one workload's commands and checks every output against the
    first repetition (and against the recorded digests on the default seed)."""

    def __init__(self, w: Workload, seed: int, runner: Runner, work: Path, recorded: dict | None):
        self.w = w
        self.seed = seed
        self.runner = runner
        self.work = work
        self.reference: dict[str, dict[str, str]] = dict(recorded or {})
        self.recorded = recorded is not None
        self.count = 0

    def _new_dir(self, tag: str) -> tuple[Path, Path]:
        self.count += 1
        base = self.work / f"{self.count:03d}-{tag}"
        (base / "out").mkdir(parents=True)
        (base / "log").mkdir()
        return base / "out", base / "log"

    def _run_stage(self, stage: str, argv: list[str], out: Path, log: Path,
                   trace: Path | None, before: dict[str, str]) -> tuple[Cmd | None, dict, int]:
        """One command plus its checks; (result or None on failure, digests, steps)."""
        self.runner.attempted += 1
        if trace is None:
            full = [sys.executable, "-m", "currikit", *argv]
        else:
            full = [sys.executable, str(TRACE_CLI), str(trace), *argv]
        cmd = self.runner.launch(full, out, log / stage)
        label = f"{self.w.name} seed {self.seed} {stage} in {out.parent.name}"
        if cmd.code != 0:
            err = (log / f"{stage}.err").read_text(errors="replace").strip().splitlines()
            self.runner.fail(f"{label}: exit {cmd.code}: {err[-1] if err else ''}")
            return None, before, 0
        errors, steps = check_stage(stage, self.w, out)
        after = digest_outputs(out, {stage: cmd.stdout})
        produced = {k: v for k, v in after.items() if before.get(k) != v}
        expected = self.reference.setdefault(stage, produced)
        if produced != expected:
            which = "recorded digests" if self.recorded else "the first repetition"
            diff = sorted(k for k in expected.keys() | produced.keys()
                          if expected.get(k) != produced.get(k))
            errors.append(f"outputs differ from {which}: {', '.join(diff)}")
        if errors:
            self.runner.fail(f"{label}: {'; '.join(errors)}")
            return None, after, steps
        return cmd, after, steps

    def run(self, stages: tuple[str, ...], traced: bool) -> dict | None:
        """Run `stages` in order in a fresh directory, synth writing the inputs
        the later commands read. Returns per-command results, trace files and
        SGD steps, or None if a command failed (the rest count as failed)."""
        out, log = self._new_dir("traced" if traced else "plain")
        argvs = commands(self.w, self.seed, str(out))
        cmds: dict[str, Cmd] = {}
        traces: dict[str, Path] = {}
        digests: dict[str, str] = {}
        steps = 0
        for i, stage in enumerate(stages):
            trace = log / f"{stage}.trace.json" if traced else None
            cmd, digests, n = self._run_stage(stage, argvs[stage], out, log, trace, digests)
            if cmd is None:
                self.runner.attempted += len(stages) - i - 1
                self.runner.failed += len(stages) - i - 1
                return None
            cmds[stage] = cmd
            steps += n
            if trace is not None:
                traces[stage] = trace
        return {"cmds": cmds, "traces": traces, "steps": steps}


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(w: Workload, setup: list[float], reps: list[dict], runner: Runner) -> dict:
    """Medians over repetitions, each with its sample count."""
    design = [r["cmds"]["design"].wall_s for r in reps]
    train = [r["cmds"]["train"].wall_s for r in reps]
    pipeline = [sum(r["cmds"][s].wall_s for s in STAGES[1:]) for r in reps]
    iters_per_s = [r["steps"] / x for r, x in zip(reps, train)]
    rss = [max(c.rss_mb for c in r["cmds"].values()) for r in reps]
    ips = _median(iters_per_s)
    return {
        "setup_s": (_median(setup), len(setup)),
        "design_s": (_median(design), len(reps)),
        "train_s": (_median(train), len(reps)),
        "pipeline_s": (_median(pipeline), len(reps)),
        "design_samples_per_s": (_median([w.n_samples / x for x in design]), len(reps)),
        "train_iters_per_s": (ips, len(reps)),
        "paper_run_projected_h": (PAPER_ITERATIONS / ips / 3600.0 if ips else 0.0, len(reps)),
        "peak_rss_mb": (_median(rss), len(reps)),
        "success_rate": (1.0 - runner.failed / max(1, runner.attempted), runner.attempted),
    }


def _layer_values(rep: dict, untraced_wall: float) -> dict[str, float]:
    """Per-layer values of one traced repetition (all four commands);
    `untraced_wall` is the wall time of the untraced repetition before it."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    pct: dict[str, dict] = {}
    for path in rep["traces"].values():
        doc = json.loads(path.read_text())
        if not Path(doc["currikit_file"]).is_relative_to(SRC.resolve()):
            raise SystemExit(f"perfbench: traced child imported {doc['currikit_file']}")
        for name in doc["missing"]:
            print(f"perfbench: warning: trace target {name} missing; zero calls", file=sys.stderr)
        for name, s in doc["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0})
            for k in acc:
                acc[k] += s[k]
        for name, n in doc["counters"].items():
            counters[name] = counters.get(name, 0) + n
        for name, p in doc["percentiles_us"].items():
            if p["n"]:
                pct[name] = p  # each span name is hit by one command only

    def total(name, key="total_s"):
        return spans.get(name, {}).get(key, 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def us(name, key):
        return pct.get(name, {}).get(key, 0.0)

    wall = sum(c.wall_s for c in rep["cmds"].values())
    covered = sum(s["top_s"] for s in spans.values())
    return {
        "density.distance_matrix_s": total("density.distance_matrix"),
        "density.cutoff_dc_s": total("density.cutoff_dc"),
        "density.local_density_s": total("density.local_density"),
        "density.delta_and_center_s": total("density.delta_and_center"),
        "density.calls": calls("density.distance_matrix"),
        "density.pair_ops_computed": counters.get("density.pair_ops_computed", 0),
        "density.matrix_bytes_computed": counters.get("density.matrix_bytes_computed", 0),
        "schedule.next_batch_s": total("schedule.next_batch"),
        "schedule.next_batch_us_p50": us("schedule.next_batch", "p50"),
        "schedule.next_batch_us_p99": us("schedule.next_batch", "p99"),
        "schedule.batches": calls("schedule.next_batch"),
        "schedule.samples_drawn": counters.get("schedule.samples_drawn", 0),
        "schedule.redistributions": counters.get("schedule.redistributions", 0),
        "trainer.loss_and_grads_s": total("trainer.loss_and_grads"),
        "trainer.loss_and_grads_us_p50": us("trainer.loss_and_grads", "p50"),
        "trainer.loss_and_grads_us_p99": us("trainer.loss_and_grads", "p99"),
        "trainer.steps": calls("trainer.loss_and_grads"),
        "trainer.train_self_s": total("trainer.train", "self_s"),
        "trainer.evaluate_s": total("trainer.evaluate"),
        "trainer.evals": calls("trainer.evaluate"),
        "trainer.holdout_split_s": total("trainer.holdout_split"),
        "experiments.runs": calls("trainer.train"),
        "experiments.run_s_p50": us("trainer.train", "p50") / 1e6,
        "experiments.build_strategy_s": total("experiments.build_strategy"),
        "data.generate_synthetic_s": total("data.generate_synthetic"),
        "data.save_features_s": total("data.save_features"),
        "data.load_features_s": total("data.load_features"),
        "data.load_truth_s": total("data.load_truth"),
        "data.bytes_read": counters.get("data.bytes_read", 0),
        "data.bytes_written": counters.get("data.bytes_written", 0),
        "fileio.atomic_write_s": total("fileio.atomic_write"),
        "curriculum.design_self_s": total("curriculum.design", "self_s"),
        "curriculum.partition_category_s": total("curriculum.partition_category"),
        "curriculum.kmeans_baseline_s": total("curriculum.kmeans_baseline"),
        "curriculum.save_s": total("curriculum.save"),
        "curriculum.load_s": total("curriculum.load"),
        "curriculum.designs": calls("curriculum.design") + calls("curriculum.kmeans_baseline"),
        "analysis.subset_noise_rates_s": total("analysis.subset_noise_rates"),
        "analysis.category_correct_rates_s": total("analysis.category_correct_rates"),
        "analysis.rate_interval_report_s": total("analysis.rate_interval_report"),
        "cli.self_s": wall - covered,
        "trace.coverage_frac": covered / wall,
        "trace.overhead_frac": wall / untraced_wall - 1.0,
    }


def command_shares(rep: dict) -> dict[str, dict[str, float]]:
    """Per traced command: each span's total time as a share of the command's wall time."""
    shares = {}
    for stage, path in rep["traces"].items():
        wall = rep["cmds"][stage].wall_s
        spans = json.loads(path.read_text())["spans"]
        shares[stage] = {name: round(s["total_s"] / wall, 4)
                         for name, s in spans.items() if s["calls"]}
    return shares


def per_layer(reps: list[dict], traced: list[dict], runner: Runner) -> dict:
    """Medians over traced repetitions; overhead against the untraced one run
    just before each."""
    samples = [_layer_values(t, sum(c.wall_s for c in r["cmds"].values()))
               for r, t in zip(reps, traced)]
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                runner.fail(f"computed count {name} differs between traced repetitions: {values}")
            out[name] = (values[0], len(values))
        else:
            out[name] = (_median(values), len(values))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's output digests in {DIGESTS.name} "
                             "(default seed only)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the running child is killed and reaped, work files removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "currikit" / "__init__.py").is_file():
        print(f"perfbench: no currikit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or spec["run_seconds"]
    w = WORKLOADS[args.workload]
    started = perf_counter()
    runner = Runner(started + HARD_LIMIT_S)
    state = ROOT / ".perfbench"
    (state / "results").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{w.name}-", dir=state))
    try:
        env = probe_environment(runner, work)
        fingerprint = {k: env[k] for k in ("python", "numpy", "blas_config", "machine")}
        recorded = None
        digests_doc = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        entry = digests_doc.get(w.name)
        digest_check = "not recorded"
        if args.seed == 0 and entry and not args.record_digests:
            if entry["environment"] == fingerprint:
                recorded, digest_check = entry["stages"], "checked"
            else:
                digest_check = "skipped: recorded under another numeric environment"
        pipeline = Pipeline(w, args.seed, runner, work, recorded)

        # Synth also opens every repetition, so set-up is sampled across the run.
        setup_runs = [pipeline.run(("synth",), traced=False) for _ in range(EXTRA_SETUPS)]
        reps: list[dict] = []
        traced: list[dict] = []
        measure_start = perf_counter()
        loop_times: list[float] = []
        while all(setup_runs):
            t0 = perf_counter()
            rep = pipeline.run(STAGES, traced=False)
            trep = pipeline.run(STAGES, traced=True) if args.trace else None
            if rep is None or (args.trace and trep is None):
                break
            reps.append(rep)
            if trep is not None:
                traced.append(trep)
            loop_times.append(perf_counter() - t0)
            if perf_counter() - measure_start + _median(loop_times) > seconds:
                break
        measured_s = perf_counter() - measure_start

        setup = [r["cmds"]["synth"].wall_s for r in setup_runs + reps if r]
        if reps and (traced or not args.trace):
            metrics = (per_layer(reps, traced, runner) if args.trace
                       else end_to_end(w, setup, reps, runner))
            unknown = [m["name"] for m in wanted if m["name"] not in metrics]
            if unknown:
                raise SystemExit(f"perfbench: BENCHMARK.json names metrics run.py does not compute: {unknown}")
        else:
            metrics = {}
        correct = runner.failed == 0 and bool(reps)
        if args.record_digests and correct and args.seed == 0:
            digests_doc[w.name] = {"environment": fingerprint, "stages": pipeline.reference}
            DIGESTS.write_text(json.dumps(digests_doc, indent=1, sort_keys=True) + "\n")
            digest_check = "recorded"

        result_metrics = {}
        print(f"workload {w.name} (seed {args.seed}, trace {args.trace}): "
              f"{len(reps)} repetitions in {measured_s:.1f} s; digests {digest_check}")
        for m in wanted:
            value, n = metrics.get(m["name"], (0.0, 0))
            result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<36} {value:>14.6g} {m['unit']:<6} median of n={n}")
        print(f"  error_rate {runner.failed}/{runner.attempted} commands")
        result = {"correct": correct, "attempted": runner.attempted,
                  "failed": runner.failed, "metrics": result_metrics}
        result_file = state / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
        result_file.write_text(json.dumps({
            "workload": w.name, "seed": args.seed, "trace": args.trace, "seconds": seconds,
            "environment": env, "digest_check": digest_check,
            "repetitions": len(reps), "errors": runner.errors,
            "commands": [{s: {"wall_s": c.wall_s, "rss_mb": c.rss_mb}
                          for s, c in r["cmds"].items()} for r in setup_runs + reps + traced if r],
            "metrics": {k: {"median": v, "n": n} for k, (v, n) in metrics.items()},
            "traced_shares": [command_shares(t) for t in traced],
            "result": result,
        }, indent=1) + "\n")
        print(f"  result file {result_file.relative_to(ROOT)}")
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
