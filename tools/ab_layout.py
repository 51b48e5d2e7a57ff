#!/usr/bin/env python3
"""Compares two revisions' perfbench host time across code layouts.

    python3 tools/ab_layout.py --base REV --change REV --workdir DIR \\
        [--layouts 0,1,32] [--pairs 5] \\
        [--workloads bulk_allreduce,service_stream,training_replay]

Code layout alone moves a calibrated host_s by several percent
(docs/simulation_engine.md, "Source layout"), so one build per side cannot
tell a small change from a layout shift. For each layout N this builds both
revisions' perfbench with CXXFLAGS=-falign-functions=N at the first
configure (N = 0: no flag, the compiler's default; cycle_loop.cpp keeps
its own -falign-functions=64), each in its own checkout under DIR, which
must lie outside the repository. REV is any git revision, extracted with
`git archive`; WORKTREE copies the working tree's tracked and untracked,
not ignored, files instead.

Within a layout it runs perfbench/run.py in alternating pairs (base first
on even pairs, change first on odd ones) for the run length BENCHMARK.json
sets (run_seconds); both runs of pair p use seed 1 + p (1 is run.py's
default). Per workload it prints each layout's median host_s, setup_s and
peak_rss_mb per side, the median over layouts, and the spread: every
layout's change/base ratio and the quartiles of the per-pair ratios.
host_raw_cpu_s, the same time before it is divided by the reference
kernel's, is reported beside them: free of the kernel's layout, but not of
the machine's speed. It also prints both sides'
cycle-loop fingerprints (tools/loop_fingerprint.py) and the 64-byte offset
of calib_kernel(), the reference kernel host_s is divided by, and flags a
layout whose two offsets differ. Exits 1 if a run fails or a simulated
metric differs between the sides for one seed. perfbench/ itself is only
read, never changed.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINT = os.path.join(ROOT, "tools", "loop_fingerprint.py")
LOOP_OBJECT = os.path.join(".bench_build", "perfbench", "pfar", "simnet",
                           "CMakeFiles", "pfar_simnet.dir", "cycle_loop.cpp.o")
BINARY = os.path.join(".bench_build", "perfbench", "pfar_perfbench")
SIMULATED = ("sim_cycles", "bw_vs_optimal", "jobs_per_kcycle",
             "job_p50_cycles", "job_p99_cycles", "epoch_cycles",
             "overlap_efficiency")
MEASURED = ("host_s", "setup_s", "peak_rss_mb", "host_raw_cpu_s")
SEED_BASE = 1  # pair p runs seed SEED_BASE + p; 1 is run.py's default


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args, binary=False):
    done = subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE)
    return done.stdout if binary else done.stdout.decode()


def checkout(rev, dest):
    """Extracts `rev` (or the working tree for WORKTREE) into `dest`."""
    os.makedirs(dest)
    if rev == "WORKTREE":
        listed = git("ls-files", "-z", "--cached", "--others",
                     "--exclude-standard").split("\0")
        for rel in filter(None, listed):
            src = os.path.join(ROOT, rel)
            if not os.path.isfile(src):
                continue  # deleted but still in the index
            os.makedirs(os.path.dirname(os.path.join(dest, rel)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))
        return
    data = git("archive", "--format=tar", rev, binary=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def run_perfbench(tree, workload, seed, seconds, cxxflags):
    """One perfbench run in `tree`; returns its metrics {name: value}."""
    env = dict(os.environ, CXXFLAGS=cxxflags)
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=tree)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(done.stderr[-2000:])
        raise SystemExit("ab_layout: perfbench failed in %s (%s, seed %d)"
                         % (tree, workload, seed))
    metrics = {k: v["value"]
               for k, v in json.loads(lines[-1])["metrics"].items()}
    for line in lines[:-1]:
        if line.startswith('{"calibration"'):
            calibration = json.loads(line)["calibration"]
            metrics["host_raw_cpu_s"] = calibration["host_raw_cpu_s"]
    return metrics


def fingerprint(tree):
    done = subprocess.run(
        [sys.executable, FINGERPRINT, os.path.join(tree, LOOP_OBJECT),
         "--binary", os.path.join(tree, BINARY)],
        stdout=subprocess.PIPE, text=True, check=True)
    return done.stdout


def calib_offset(tree):
    """calib_kernel()'s address mod 64 in the perfbench binary."""
    out = subprocess.run(["nm", "-C", os.path.join(tree, BINARY)],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    for line in out.splitlines():
        if line.endswith("calib_kernel()"):
            return int(line.split()[0], 16) % 64
    raise SystemExit("ab_layout: no calib_kernel() in " + tree)


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0])
    q = statistics.quantiles(xs, n=4)
    return (q[0], q[2])


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--layouts", default="0,1,32",
                        help="comma-separated -falign-functions values; "
                             "0 = the compiler's default")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--workloads",
                        default="bulk_allreduce,service_stream,"
                                "training_replay")
    args = parser.parse_args()
    layouts = [int(x) for x in args.layouts.split(",")]
    workloads = args.workloads.split(",")
    if args.pairs < 1 or not layouts or min(layouts) < 0:
        parser.error("need --pairs >= 1 and layouts >= 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    workdir = os.path.abspath(args.workdir)
    if os.path.commonpath([workdir, ROOT]) == ROOT:
        parser.error("--workdir must lie outside the repository")

    sides = ("base", "change")
    revs = {"base": args.base, "change": args.change}
    trees = {}
    for n in layouts:
        for side in sides:
            tree = os.path.join(workdir, "%s-align%d" % (side, n))
            if os.path.exists(tree):
                shutil.rmtree(tree)
            checkout(revs[side], tree)
            trees[side, n] = tree

    # samples[workload][layout][side][metric] -> per-pair values
    samples = {w: {n: {s: {m: [] for m in MEASURED} for s in sides}
                   for n in layouts} for w in workloads}
    mismatches = []
    for n in layouts:
        flags = "-falign-functions=%d" % n if n > 0 else ""
        log("layout %s: building and running %d pairs"
            % (flags or "default", args.pairs))
        for p in range(args.pairs):
            seed = SEED_BASE + p
            order = sides if p % 2 == 0 else sides[::-1]
            for w in workloads:
                got = {s: run_perfbench(trees[s, n], w, seed, seconds, flags)
                       for s in order}
                for s in sides:
                    for m in MEASURED:
                        samples[w][n][s][m].append(got[s][m])
                differing = [m for m in SIMULATED
                             if got["base"][m] != got["change"][m]]
                if differing:
                    mismatches.append("%s seed %d: %s" %
                                      (w, seed, ", ".join(differing)))

    print("base %s vs change %s: %d layouts x %d pairs, %d s runs"
          % (args.base, args.change, len(layouts), args.pairs, seconds))
    print()
    print("Cycle-loop fingerprints and calib_kernel() offsets")
    first = {}
    for n in layouts:
        offsets = {s: calib_offset(trees[s, n]) for s in sides}
        flag = "" if offsets["base"] == offsets["change"] else \
            "   DIFFERENT: calibrated host_s/setup_s shift with layout"
        print("  align %d: calib_kernel() offset base %d, change %d%s"
              % (n, offsets["base"], offsets["change"], flag))
        for s in sides:
            table = fingerprint(trees[s, n])
            if s in first and table == first[s]:
                print("  align %d %s: fingerprint as at align %d"
                      % (n, s, layouts[0]))
                continue
            first.setdefault(s, table)
            print("  align %d %s:" % (n, s))
            for line in table.splitlines():
                print("    " + line)
    print()
    for w in workloads:
        print(w)
        for m in MEASURED:
            per_layout = {}
            ratios = []
            for n in layouts:
                med = {s: statistics.median(samples[w][n][s][m])
                       for s in sides}
                per_layout[n] = med
                ratios += [c / b for b, c in zip(samples[w][n]["base"][m],
                                                 samples[w][n]["change"][m])]
                print("  %-14s align %-3d base %.6g  change %.6g  (%+.1f%%)"
                      % (m, n, med["base"], med["change"],
                         100 * (med["change"] / med["base"] - 1)))
            base = statistics.median(v["base"] for v in per_layout.values())
            change = statistics.median(
                v["change"] for v in per_layout.values())
            spread = [v["change"] / v["base"] - 1 for v in per_layout.values()]
            q1, q3 = quartiles(ratios)
            print("  %-14s median over layouts: base %.6g  change %.6g  "
                  "(%+.1f%%); layouts %+.1f%% .. %+.1f%%; pair ratios "
                  "IQR %.3f .. %.3f, change lower in %d/%d"
                  % (m, base, change, 100 * (change / base - 1),
                     100 * min(spread), 100 * max(spread), q1, q3,
                     sum(r < 1 for r in ratios), len(ratios)))
        print()
    if mismatches:
        print("SIMULATED METRICS DIFFER:")
        for line in mismatches:
            print("  " + line)
        return 1
    print("simulated metrics identical per seed on every run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
