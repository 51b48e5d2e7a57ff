#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
runs one workload single-threaded and prints the result object as the last
line of stdout. Exits nonzero, without a result, when the build fails or
the product sources are missing; exits nonzero after the result when a
reduction was wrong or a simulated metric differs from an earlier run of
the same binary and seed (ledger in .bench_out/sim_ledger.json).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "pfar_perfbench")
WORKLOADS = ("bulk_allreduce", "service_stream", "training_replay", "plan_scale")
# Deterministic outputs: they must repeat exactly for one binary and seed.
SIMULATED = ("sim_cycles", "bw_vs_optimal", "jobs_per_kcycle",
             "job_p50_cycles", "job_p99_cycles", "epoch_cycles",
             "overlap_efficiency")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no product sources next to perfbench/ (src/ missing)")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pfar_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def digest(paths):
    h = hashlib.sha256()
    for base in paths:
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_ledger(result, workload, seed):
    """Flags simulated metrics that differ from an earlier run of the same
    binary and seed. Returns the list of differing metric names."""
    with open(BINARY, "rb") as f:
        key = "%s/%s/%d" % (hashlib.sha256(f.read()).hexdigest()[:16],
                            workload, seed)
    path = os.path.join(OUT, "sim_ledger.json")
    ledger = {}
    if os.path.isfile(path):
        with open(path) as f:
            ledger = json.load(f)
    now = {name: result["metrics"][name]["value"] for name in SIMULATED}
    before = ledger.get(key)
    if before is None:
        ledger[key] = now
        with open(path + ".tmp", "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
        return []
    return [name for name in SIMULATED if before.get(name) != now[name]]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, PFAR_THREADS="1")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--git-sha", git_sha(),
           "--src-digest", digest([os.path.join(ROOT, "src"), HERE])]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: no result from the benchmark (exit %d)"
            % done.returncode)
        return 1

    want = expected_metrics(bool(args.trace))
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            got != want:
        log("perfbench: result does not match BENCHMARK.json: %s"
            % sorted(set(want) ^ set(got)))
        return 1
    if not args.trace:
        differing = check_ledger(result, args.workload, args.seed)
        if differing:
            log("PROBLEM: simulated metrics differ from an earlier run of "
                "this binary and seed: %s" % ", ".join(differing))
            result["correct"] = False
            result["failed"] += 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if done.returncode != 0:
        return done.returncode
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
