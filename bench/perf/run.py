#!/usr/bin/env python3
"""Host-performance benchmark of the Fork Path ORAM simulator.

Builds bench/perf (always Release) into .bench_build/perf, then runs
the fp_perf workloads one after another, each in its own
single-threaded process.

  python3 bench/perf/run.py                     # one set of every workload
  python3 bench/perf/run.py --sets 2 --traced   # two sets plus per-layer runs
  python3 bench/perf/run.py --quick             # 1/50 size, twice, must agree
  python3 bench/perf/run.py --compare BASE.json NEW.json
  python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Every form prints "metric workload value unit" lines and exits non-zero
when a correctness check fails. Suite runs write a BENCH JSON (default
.bench_build/perf/BENCH_perf.json) stamped with host information.

The --workload form runs one workload and prints, as the last line of
stdout, {"correct", "attempted", "failed", "metrics"} with every
BENCHMARK.json end_to_end metric (--trace 0) or per_layer metric
(--trace 1). See bench/perf/README.md for what each metric means.
"""

import argparse
import csv
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "perf"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Simulated metrics: deterministic for a seed, so any change is a
# change in simulated behaviour, not noise.
EXACT = ("sim_time_ms", "sim_llc_latency_ns", "path_len",
         "mem_bytes_per_req")
# Printed and recorded, but not part of BENCHMARK.json.
EXTRA = {
    "failed_frac": ("ratio", "lower"),
    "op_p99_us": ("us", "lower"),
    "op_p999_us": ("us", "lower"),
    "op_samples": ("count", None),
    "chunks": ("count", None),
    "run_s": ("s", "lower"),
    "reps": ("count", None),
    "setup_samples": ("count", None),
    "run_s_traced": ("s", "lower"),
    "run_s_untraced": ("s", "lower"),
}
# Rows of bench_components (the repository's micro suite) reported as
# components.<row>_ns, with "/" mapped to "_".
COMPONENTS = ("event_queue_churn_1k", "stash_evict/200",
              "label_queue_select/64", "mac_insert_extract",
              "speck_encrypt_64B", "merkle_update_slice", "plb_lookup",
              "dram_transaction", "net_transaction", "path_oram_access/18")
SHARES = ("core.request.self_share", "core.complete.self_share",
          "mem.access.self_share", "sim.other.self_share")
QUICK_SCALE = 50
PROC_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources (src/) not found; "
                         "run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1)),
                  "--target", "fp_perf", "bench_components"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(log: {log})")


def run_process(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          stdin=subprocess.DEVNULL,
                          timeout=PROC_TIMEOUT_S)
    return proc.returncode, proc.stdout


def fp_perf(*args):
    code, out = run_process([str(BUILD / "fp_perf"), *args])
    lines = out.strip().splitlines()
    if code not in (0, 3) or not lines:
        raise BenchError(f"fp_perf {' '.join(args)} exited {code}")
    return json.loads(lines[-1])


def components():
    code, out = run_process([str(BUILD / "bench_components"), "--csv",
                             "--jobs=1"])
    if code:
        raise BenchError(f"bench_components exited {code}")
    rows = {row[0]: row for row in csv.reader(out.splitlines()) if row}
    missing = [c for c in COMPONENTS if c not in rows]
    if missing:
        raise BenchError(f"bench_components lacks rows {missing}")
    return {f"components.{c.replace('/', '_')}_ns": float(rows[c][1])
            for c in COMPONENTS}


def run_workload(name, seed, seconds, scale=1, traced=False):
    """One fp_perf process: untraced, or traced plus the micro suite."""
    common = [name, f"--seed={seed}", f"--scale={scale}"]
    if traced:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        doc = fp_perf("trace", *common,
                      f"--trace-out={traces / f'{name}-seed{seed}.json'}")
        doc["metrics"].update(components())
        share_sum = sum(doc["metrics"][s] for s in SHARES)
        if abs(share_sum - 1.0) > 0.01:
            doc["correct"] = False
            doc["errors"].append(f"self shares sum to {share_sum}")
    else:
        doc = fp_perf("run", *common, f"--seconds={seconds}")
    doc["metrics"]["failed_frac"] = doc["failed"] / max(doc["attempted"], 1)
    for err in doc["errors"]:
        print(f"run.py: {name}: {err}", file=sys.stderr)
    return doc


def unit(metric):
    if metric in METRICS:
        return METRICS[metric]["unit"]
    return EXTRA.get(metric, ("", None))[0]


def print_metrics(name, metrics):
    for metric, value in metrics.items():
        print(f"{metric} {name} {value!r} {unit(metric)}")


def one_workload(args):
    build()
    doc = run_workload(args.workload, args.seed, args.seconds,
                       traced=args.trace == 1)
    wanted = SPEC["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in doc["metrics"]]
    if missing:
        raise BenchError(f"fp_perf did not report {missing}")
    print_metrics(args.workload, doc["metrics"])
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": doc["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if doc["correct"] else 1


def host_info():
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and ":" in key:
            cache[key.split(":")[0]] = value

    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=30, stdin=subprocess.DEVNULL)
        except (OSError, subprocess.SubprocessError):
            return None
        lines = out.stdout.splitlines()
        return lines[0].strip() if out.returncode == 0 and lines else None

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"),
                                "--version"]),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "git_sha": first_line(["git", "-C", str(ROOT), "rev-parse",
                               "HEAD"]),
        "python": platform.python_version(),
    }


def entry(doc):
    return {k: doc[k] for k in ("correct", "attempted", "failed",
                                "metrics")}


def suite(args):
    build()
    ok = True
    sets = []
    for _ in range(args.sets):
        results = {}
        for name in WORKLOADS:
            doc = run_workload(name, args.seed, args.seconds)
            results[name] = entry(doc)
            ok &= doc["correct"]
            print_metrics(name, doc["metrics"])
            if args.traced:
                tdoc = run_workload(name, args.seed, args.seconds,
                                    traced=True)
                results[name]["traced"] = entry(tdoc)
                ok &= tdoc["correct"]
                print_metrics(name, tdoc["metrics"])
            sys.stdout.flush()
        sets.append(results)
    out = Path(args.out) if args.out else BUILD / "BENCH_perf.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "schema": "forkpath-perf-v1",
        "host": host_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": args.traced,
        "sets": sets,
    }, indent=1) + "\n")
    print(f"run.py: wrote {out}", file=sys.stderr)
    return 0 if ok else 1


def quick(args):
    build()
    ok = True
    for name in WORKLOADS:
        runs = [run_workload(name, args.seed, 0, scale=QUICK_SCALE)
                for _ in range(2)]
        print_metrics(name, runs[0]["metrics"])
        sims = [json.dumps({m: r["metrics"][m] for m in EXACT})
                for r in runs]
        if sims[0] != sims[1]:
            print(f"run.py: {name}: simulated metrics differ between "
                  f"runs:\n  {sims[0]}\n  {sims[1]}", file=sys.stderr)
            ok = False
        ok &= all(r["correct"] for r in runs)
    print(f"quick: {'ok' if ok else 'FAILED'}", file=sys.stderr)
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def judge(metric, base, new):
    """Verdict for one metric on one workload (choosing-metrics, s. 8).

    A gain needs at least ten pairs of runs; fewer can still show a
    regression or an unresolved spread."""
    meta = METRICS.get(metric)
    better = meta["better"] if meta else EXTRA[metric][1]
    bound = meta.get("bound") if meta else None
    sign = 1 if better == "lower" else -1
    b1, bmed, b3 = quartiles(base)
    nmed = statistics.median(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    win = wins / len(pairs)
    if metric in EXACT and set(base) == set(new):
        return win, "identical"
    if metric == "failed_frac":
        return win, "REGRESSION" if nmed > bmed else "within bound"
    worse = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    spread = (b3 - b1) / abs(bmed) if bmed else 0.0
    enough = len(pairs) >= 10
    gained = (enough and win >= 0.9 and sign * (nmed - bmed) < 0
              and abs(nmed - bmed) > b3 - b1)
    if enough and all(sign * (n - b) < 0 for n in new for b in base):
        verdict = "better"
    elif bound is None:
        verdict = "better" if gained else "-"
    elif spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    else:
        verdict = "better" if gained else "within bound"
    if metric in EXACT:
        verdict += " (simulated change)"
    return win, verdict


def compare(base_path, new_path):
    docs = [json.loads(Path(p).read_text()) for p in (base_path, new_path)]

    def values(doc, name, metric):
        out = []
        for s in doc["sets"]:
            e = s.get(name, {})
            metrics = {**e.get("metrics", {}),
                       **e.get("traced", {}).get("metrics", {})}
            if metric in metrics:
                out.append(metrics[metric])
        return out

    regressions = 0
    print(f"{'workload':<17} {'metric':<36} {'base median [q1, q3]':>38} "
          f"{'new median [q1, q3]':>38} {'change':>8} {'win':>5}  verdict")
    for name in WORKLOADS:
        for metric in [*METRICS, "failed_frac"]:
            base, new = (values(d, name, metric) for d in docs)
            if not base or not new:
                continue
            win, verdict = judge(metric, base, new)
            regressions += verdict.startswith("REGRESSION")
            cells = []
            for v in (base, new):
                q1, med, q3 = quartiles(v)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            bmed = statistics.median(base)
            change = ((statistics.median(new) - bmed) / abs(bmed) * 100
                      if bmed else 0.0)
            print(f"{name:<17} {metric:<36} {cells[0]:>38} {cells[1]:>38} "
                  f"{change:>+7.2f}% {win:>5.2f}  {verdict}")
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload and print the result line")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: per-layer (1) or end-to-end (0)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="time budget of the repeated timed phase")
    ap.add_argument("--sets", type=int, default=1,
                    help="run every workload this many times")
    ap.add_argument("--traced", action="store_true",
                    help="also run each workload traced (per-layer)")
    ap.add_argument("--quick", action="store_true",
                    help="1/50 size, twice; simulated metrics must agree")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two BENCH JSON files")
    ap.add_argument("--out", help="BENCH JSON path for suite runs")
    args = ap.parse_args()
    if args.sets < 1 or args.seconds < 0:
        ap.error("--sets must be >= 1 and --seconds >= 0")
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload:
            return one_workload(args)
        if args.quick:
            return quick(args)
        return suite(args)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
