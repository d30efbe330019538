#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

One workload (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload stream_sessions --seed 1 \
        --seconds 45 --trace 0

Every BENCHMARK.json workload, with each metric printed by name and unit
beside the workload's output digest (exits non-zero when an output check
fails):

    python3 perfbench/run.py --all [--seed 1] [--seconds 45] [--trace 0]

Compare two saved outputs of single runs (refused when the host or build
identity differs):

    python3 perfbench/run.py --compare parent.out change.out

The program is built from the sources next to this directory into
.bench_build/perfbench (Release). A run splits --seconds over PROCESSES
fresh processes of the benchmark binary, each reporting the median of
every value over its repetitions, and reports per metric the mean over the
processes (setup_s: the median). On small shared hosts a process runs at
one of a few speed levels for most of its life, 10-40% apart, set by what
shares its cores; the median of a few processes jumps between levels,
while the mean of many moves with the share of processes at each. The
last line of stdout is the result object {"correct", "attempted",
"failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "mtd_perfbench"
SCRATCH = ".bench_scratch"
# Processes per run. persist_analyze repetitions take about 2 s and a
# process runs at least three of them, so it gets the fewest.
# expand_ndjson is not a BENCHMARK.json workload (perfbench/README.md says
# why) but still runs on its own; bound by the engine's one consumer
# thread, its speed is that of whichever core the consumer lands on, so it
# gets the most processes.
PROCESSES = {"stream_sessions": 6, "expand_ndjson": 12,
             "persist_analyze": 5}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark; False on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target", "mtd_perfbench",
              "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(step))
            return False
    return True


def run_binary(args, stderr=None, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary once; returns (exit code, stdout lines)."""
    done = subprocess.run([str(BINARY), "--scratch", SCRATCH] + args,
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr,
                          text=True, timeout=timeout, check=False)
    return done.returncode, done.stdout.splitlines()


def check_result(lines, trace):
    """The result line carries exactly the BENCHMARK.json metrics of its
    mode, each with its unit. Returns (info, result); raises ValueError or
    KeyError on a malformed output."""
    if len(lines) < 2:
        raise ValueError("no result printed")
    info = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    wanted = spec()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        raise ValueError(f"metrics/units differ from BENCHMARK.json: "
                         f"missing {sorted(set(units) - set(got))}, "
                         f"extra {sorted(set(got) - set(units))}")
    return info, result


def measure(workload, seed, seconds, trace, extra=(), stderr=None):
    """One run: PROCESSES[workload] binary runs splitting seconds, combined.
    Returns (exit code, info, result); info and result are None when a
    process crashed or printed a malformed result."""
    processes = PROCESSES.get(workload, 1)
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            f"{seconds / processes:g}", "--trace", str(trace)] + list(extra)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    runs = []
    for _ in range(processes):
        left = deadline - time.monotonic()
        if left <= 0:
            log("run exceeded its time limit")
            return 1, None, None
        code, lines = run_binary(args, stderr=stderr, timeout=left)
        if code not in (0, 1):
            log(f"benchmark exited with {code}")
            return code, None, None
        try:
            runs.append(check_result(lines, trace == 1))
        except (ValueError, KeyError) as e:
            log(f"malformed result: {e}")
            return 1, None, None

    infos = [info for info, _ in runs]
    results = [result for _, result in runs]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    # Every process must produce the same output and run on the same
    # host and build; each agreement is one more check.
    for key in ("output_digest", "identity"):
        attempted += 1
        if any(info[key] != infos[0][key] for info in infos):
            failed += 1
            log(f"{key} differs between processes")
    metrics = {
        name: {"value": (statistics.median if name == "setup_s" else
                         statistics.fmean)(
                   [r["metrics"][name]["value"] for r in results]),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()}
    info = {"workload": workload, "seed": seed, "trace": trace,
            "identity": infos[0]["identity"],
            "scratch_fs": infos[0]["scratch_fs"], "processes": processes,
            "repetitions": [i["repetitions"] for i in infos],
            "traced_repetitions": [i["traced_repetitions"] for i in infos],
            "output_digest": infos[0]["output_digest"],
            "failed_ratio": failed / attempted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return (0 if failed == 0 else 1), info, result


def single(args):
    code, info, result = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
    if result is None:
        return code
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result), flush=True)
    return code


def run_all(args):
    seconds = args.seconds or spec()["run_seconds"]
    worst = 0
    identity = None
    for workload in [w["name"] for w in spec()["workloads"]]:
        code, info, result = measure(workload, args.seed, seconds, args.trace)
        if result is None:
            log(f"{workload}: no result (exit {code})")
            worst = max(worst, 1)
            continue
        identity = info["identity"]
        print(f"== {workload}  output_digest {info['output_digest']}  "
              f"checks {result['attempted'] - result['failed']}/"
              f"{result['attempted']} passed  failed_ratio "
              f"{info['failed_ratio']}  scratch fs {info['scratch_fs']}")
        for name, m in result["metrics"].items():
            print(f"   {name:40s} {m['value']:>22.6f} {m['unit']}")
        if code != 0:
            worst = max(worst, 1)
    if identity is not None:
        print("identity: " + json.dumps(identity))
    if worst != 0:
        print("FAILED: an output check failed or a run broke (see above)")
    return worst


def load_run(path):
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def compare(args):
    (a_info, a), (b_info, b) = (load_run(args.compare[0]),
                                load_run(args.compare[1]))
    if a_info["identity"] != b_info["identity"]:
        log("refusing to compare: host/build identity differs\n  "
            + json.dumps(a_info["identity"]) + "\n  "
            + json.dumps(b_info["identity"]))
        return 2
    if (a_info["workload"], a_info["trace"]) != (b_info["workload"],
                                                 b_info["trace"]):
        log("refusing to compare different workloads or modes")
        return 2
    same = a_info["output_digest"] == b_info["output_digest"]
    print(f"{a_info['workload']}: output digest "
          f"{'identical' if same else 'DIFFERS'} "
          f"({a_info['output_digest']} vs {b_info['output_digest']})")
    for name, m in a["metrics"].items():
        va, vb = m["value"], b["metrics"][name]["value"]
        ratio = vb / va if va else float("nan")
        print(f"   {name:40s} {va:>18.6f} {vb:>18.6f} {ratio:8.4f}x "
              f"{m['unit']}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="OUTPUT")
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if not build():
        return 1
    if args.all:
        return run_all(args)
    if not args.workload or args.seconds is None:
        parser.error("--workload and --seconds are required (or --all)")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
