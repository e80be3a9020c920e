#!/usr/bin/env python3
"""Measure a change against its parent in alternating pairs of runs
(stdlib only).

Each pair runs one workload once in the parent checkout and once in
this checkout (the change),

    python3 bench/perf/run.py --workload W --seed S --seconds T

with T the run_seconds of BENCHMARK.json, alternating which side
goes first, so that drift in the host's speed falls on both sides
alike. The parent checkout is any other tree of the repository, for
example one made with `git clone`; each side builds its own fp_perf
under its .bench_build/.

Pair i of every workload becomes set i of a BENCH JSON per side,
OUT/parent.json and OUT/change.json, and the tool then runs

    python3 bench/perf/run.py --compare OUT/parent.json OUT/change.json

in this checkout, which prints each metric's medians, quartiles,
pairs won and verdict. A run that fails (non-zero exit, an incorrect
result or failed > 0) is reported, and the tool then exits 1;
otherwise it exits with the comparison's status.

    tools/ab_pairs.py --parent ../parent --workload kv_secure
    tools/ab_pairs.py --parent ../parent --workload kv_secure \\
        --seed 2 --pairs 3 --out seed2
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]


def run(checkout, workload, seed):
    """One run.py process; returns (ok, BENCH JSON entry or None)."""
    cmd = [sys.executable, "bench/perf/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, stdin=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"ab_pairs: {checkout}: {' '.join(cmd)} exited "
              f"{proc.returncode} without a result", file=sys.stderr)
        return False, None
    ok = proc.returncode == 0 and doc["correct"] and doc["failed"] == 0
    if not ok:
        print(f"ab_pairs: {checkout}: {workload} seed {seed} FAILED: "
              f"exit {proc.returncode}, correct {doc['correct']}, "
              f"failed {doc['failed']} of {doc['attempted']}",
              file=sys.stderr)
    metrics = {name: m["value"] for name, m in doc["metrics"].items()}
    metrics["failed_frac"] = doc["failed"] / max(doc["attempted"], 1)
    return ok, {"correct": doc["correct"], "attempted": doc["attempted"],
                "failed": doc["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in SPEC["workloads"]],
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", default=str(ROOT / ".bench_build" / "ab_pairs"),
                    help="directory for parent.json and change.json")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    sides = {"parent": Path(args.parent).resolve(), "change": ROOT}
    if not (sides["parent"] / "bench" / "perf" / "run.py").is_file():
        ap.error(f"--parent {sides['parent']} has no bench/perf/run.py")

    all_ok = True
    sets = {side: [{} for _ in range(args.pairs)] for side in sides}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            for side in order:
                ok, entry = run(sides[side], workload, args.seed)
                all_ok &= ok
                if entry is None:
                    return 1
                sets[side][i][workload] = entry
            print(f"ab_pairs: {workload} pair {i + 1}/{args.pairs} "
                  f"({order[0]} first)", file=sys.stderr)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for side, path in sides.items():
        (out / f"{side}.json").write_text(json.dumps({
            "schema": "forkpath-perf-v1", "checkout": str(path),
            "seed": args.seed, "seconds": RUN_SECONDS,
            "sets": sets[side]}, indent=1) + "\n")
    sys.stdout.flush()
    status = subprocess.run(
        [sys.executable, "bench/perf/run.py", "--compare",
         str(out / "parent.json"), str(out / "change.json")],
        cwd=ROOT, stdin=subprocess.DEVNULL).returncode
    if not all_ok:
        print("ab_pairs: a run failed", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
