#!/usr/bin/env python3
"""Run every committed experiment spec in smoke mode and diff its
stdout against the committed golden (stdlib only).

The ctest labelled `golden` runs this script, so every CI job that
runs ctest does. For each experiments/*.json it launches the fp_bench
driver with the spec's own `smoke.args` (each spec declares how to
shrink itself to CI scale), validates the emitted Chrome trace with
validate_trace.py when the spec sets `smoke.trace`, and compares the
run's stdout byte for byte with experiments/golden/<name>.txt. The
sweep-example spec is also run under each knob-flag set in
FLAG_SETS, against experiments/golden/sweep-example.<tag>.txt.
Finally it checks coverage: every spec file ran, and every registered
scenario (fp_bench --list-scenarios) is exercised by at least one
committed spec.

Runs execute concurrently, up to the CPU count; stdout does not
depend on that, nor on any spec's --jobs. The report gives each run's
wall seconds and, at the end, the suite's wall seconds and the sum
over its runs; neither enters the golden comparison.

    tools/run_experiments.py                       # all specs
    tools/run_experiments.py --only fig10,smoke    # subset
    tools/run_experiments.py --bench build/bench/fp_bench
    tools/run_experiments.py --update-golden       # reseed goldens

A reseed must be deliberate: list each changed golden and the reason
in CHANGES.md, as for tools/bench_baseline.py --update.

Exit status 0 when every run was clean and matched its golden; 1 with
a per-run report (unified diff on a mismatch) otherwise.
"""

import argparse
import concurrent.futures
import difflib
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Knob-flag sets pinned on the sweep-example spec: tag -> flags, run
# as `sweep-example --quick --jobs=1 --csv <flags>`.
FLAG_SETS = {
    "net": ["--backend=net", "--net-latency-us=20", "--net-gbps=5",
            "--net-window=4"],
    "shards": ["--shards=2", "--shard-window=8"],
    "faults": ["--fault-loss-rate=0.01", "--fault-error-rate=0.01",
               "--fault-seed=7"],
    "spike": ["--fault-spike-us=500"],
    "outage-retry": ["--fault-outage=100:200", "--retry-timeout-us=50",
                     "--retry-max=3", "--retry-backoff=5:50"],
    "backoff": ["--retry-backoff=5"],
    "batched": ["--policy=batched", "--batch-size=4"],
    "traditional": ["--policy=traditional"],
}


def fail(msg):
    sys.exit(f"run_experiments: FAIL: {msg}")


def spec_files(exp_dir):
    if not os.path.isdir(exp_dir):
        fail(f"experiments directory '{exp_dir}' not found")
    return sorted(
        os.path.join(exp_dir, f)
        for f in os.listdir(exp_dir)
        if f.endswith(".json"))


def plan(paths):
    """One (golden name, spec path, args, validate trace) per run."""
    runs = []
    for path in paths:
        with open(path) as f:
            spec = json.load(f)
        name = spec.get("name", os.path.basename(path))
        smoke = spec.get("smoke", {})
        args = list(smoke.get("args", []))
        want_trace = bool(smoke.get("trace", True))
        if want_trace:
            # All sweep points share one --trace-out file; concurrent
            # writers would interleave and corrupt it, so
            # trace-validated runs are pinned to a single job.
            args = [a for a in args if not a.startswith("--jobs")]
            args.append("--jobs=1")
        runs.append((name, path, args, want_trace))
        if name == "sweep-example":
            for tag, flags in FLAG_SETS.items():
                runs.append((f"{name}.{tag}", path,
                             ["--quick", "--jobs=1", "--csv"] + flags,
                             False))
    return runs


def execute(bench, run, workdir):
    """Run one spec; returns (report lines, stdout or None, wall
    seconds of the fp_bench run)."""
    name, path, args, want_trace = run
    cmd = [bench, path] + args
    trace_path = os.path.join(workdir, f"{name}.trace.json")
    if want_trace:
        cmd.append(f"--trace-out={trace_path}")

    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    seconds = time.monotonic() - start
    report = [f"run_experiments: {name} ({seconds:.2f} s): "
              f"{' '.join(cmd)}"]
    if proc.returncode != 0:
        report += [proc.stderr + proc.stdout,
                   f"run_experiments: {name}: exit {proc.returncode}"]
        return report, None, seconds
    if not proc.stdout.strip():
        report.append(f"run_experiments: {name}: produced no stdout")
        return report, None, seconds

    if want_trace:
        if not os.path.exists(trace_path):
            report.append(f"run_experiments: {name}: no trace written "
                          f"(smoke.trace is true but --trace-out "
                          f"produced nothing)")
            return report, None, seconds
        check = subprocess.run(
            [sys.executable, os.path.join(HERE, "validate_trace.py"),
             "--trace", trace_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        if check.returncode != 0:
            report += [check.stdout,
                       f"run_experiments: {name}: trace validation "
                       f"failed"]
            return report, None, seconds
    return report, proc.stdout, seconds


def golden(name, stdout, golden_dir, update):
    """Compare (or with @p update, rewrite) one golden; report lines
    on a mismatch, empty when it matched."""
    path = os.path.join(golden_dir, f"{name}.txt")
    if update:
        os.makedirs(golden_dir, exist_ok=True)
        with open(path, "w") as f:
            f.write(stdout)
        return []
    if not os.path.exists(path):
        return [f"run_experiments: {name}: no golden {path} "
                f"(create it with --update-golden)"]
    with open(path) as f:
        want = f.read()
    if stdout == want:
        return []
    diff = difflib.unified_diff(
        want.splitlines(keepends=True),
        stdout.splitlines(keepends=True),
        fromfile=path, tofile=f"{name} (this run)")
    return ["".join(diff).rstrip("\n"),
            f"run_experiments: {name}: stdout differs from its golden"]


def coverage(bench, paths):
    """Every registered scenario must be exercised by some spec."""
    out = subprocess.run([bench, "--list-scenarios"],
                         stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail("fp_bench --list-scenarios failed")
    scenarios = set(out.stdout.split())
    covered = set()
    for path in paths:
        with open(path) as f:
            spec = json.load(f)
        covered.add(spec.get("scenario", spec.get("name")))
    missing = sorted(scenarios - covered)
    if missing:
        fail(f"scenarios with no committed spec: {', '.join(missing)}"
             f" (add experiments/<name>.json or drop the scenario)")
    print(f"run_experiments: coverage OK "
          f"({len(scenarios)} scenarios, {len(paths)} specs)")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench",
                    default=os.path.join(ROOT, "build", "bench",
                                         "fp_bench"),
                    help="fp_bench binary (default: build/bench/)")
    ap.add_argument("--experiments",
                    default=os.path.join(ROOT, "experiments"),
                    help="spec directory (default: experiments/); "
                         "goldens live in its golden/ subdirectory")
    ap.add_argument("--only",
                    help="comma-separated spec names to run")
    ap.add_argument("--keep-going", action="store_true",
                    help="run every spec even after a failure")
    ap.add_argument("--update-golden", action="store_true",
                    help="rewrite the goldens from this run's stdout "
                         "instead of comparing")
    args = ap.parse_args()

    if not os.path.exists(args.bench):
        fail(f"bench binary '{args.bench}' not found (build first)")

    paths = spec_files(args.experiments)
    if args.only:
        wanted = set(args.only.split(","))
        paths = [p for p in paths
                 if os.path.splitext(os.path.basename(p))[0]
                 in wanted]
        if not paths:
            fail(f"--only matched no specs in {args.experiments}")
    golden_dir = os.path.join(args.experiments, "golden")

    failures = []
    runs = plan(paths)
    run_seconds = 0.0
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="fp_experiments.") as wd, \
            concurrent.futures.ThreadPoolExecutor(
                max_workers=os.cpu_count() or 1) as pool:
        futures = [pool.submit(execute, args.bench, run, wd)
                   for run in runs]
        # Report in plan order; without --keep-going the first
        # failure cancels every run not yet started.
        for run, future in zip(runs, futures):
            if future.cancelled():
                continue
            report, stdout, seconds = future.result()
            run_seconds += seconds
            mismatch = [] if stdout is None else golden(
                run[0], stdout, golden_dir, args.update_golden)
            print("\n".join(report + mismatch), flush=True)
            if stdout is None or mismatch:
                failures.append(run[0])
                if not args.keep_going:
                    pool.shutdown(cancel_futures=True)
    print(f"run_experiments: suite took {time.monotonic() - start:.2f} s "
          f"of wall time; its runs took {run_seconds:.2f} s in sum "
          f"(up to {os.cpu_count() or 1} at once)", flush=True)

    if failures:
        fail(f"{len(failures)} run(s) failed: {', '.join(failures)}")
    if not args.only:
        coverage(args.bench, paths)
    verb = "rewrote" if args.update_golden else "matched"
    print(f"run_experiments: OK ({len(paths)} specs, {len(runs)} runs "
          f"{verb} their goldens)")


if __name__ == "__main__":
    main()
