#!/usr/bin/env python3
"""Bench-regression gate: compare a current BENCH_*.json against a committed
baseline (bench/baselines/).

Three classes of fields, checked differently:

  * deterministic fields -- pure functions of the simulated/planned system,
    identical on every machine: `correct`, `alg1_bw`, `sim_bw`,
    `efficiency` per point, and the plan-cache hit/miss counters. Any
    mismatch is a hard failure (the benchmark's *result* changed, not its
    speed).
  * ratio medians -- machine-local speedup ratios (`speedup_cold`,
    `speedup_warm`, `speedup_sweep10`). The median across the q grid must
    stay within --tolerance (default +/-20%) of the baseline median.
    Ratios divide out absolute machine speed, so this catches "the fast
    path stopped being fast" without pinning wall clocks.
  * wall-clock fields -- `*_ms` absolutes. Machine-dependent; only checked
    when --wall-tolerance is given (e.g. 3.0 = current may be up to 3x the
    baseline). Per-point medians cover only the points whose baseline
    value is at least WALL_FLOOR_MS.

Exit status: 0 ok, 1 regression, 2 usage/input error.

Usage:
  check_bench_regression.py --baseline bench/baselines/BENCH_construction.json \
      --current BENCH_construction.json [--tolerance 0.2] [--wall-tolerance 3.0]
"""

import argparse
import json
import statistics
import sys

RATIO_FIELDS = ("speedup_cold", "speedup_warm", "speedup_sweep10")
# Service-throughput fields are deterministic too: integer virtual-cycle
# arithmetic over simulator results, identical on every machine and thread
# count (docs/service_layer.md, "Determinism").
EXACT_POINT_FIELDS = ("alg1_bw", "sim_bw", "efficiency",
                      "jobs_per_kcycle", "p50_cycles", "p99_cycles",
                      "makespan_cycles", "utilization", "completed",
                      "rejected", "batches", "coalesced_jobs",
                      # Congested-allreduce bench: background traffic and
                      # the adaptation loop are integer-rational / fixed
                      # float-op-order constructs, deterministic on every
                      # machine (docs/congestion_adaptation.md).
                      "static_bw", "adaptive_bw", "win",
                      "hot_links", "replanned_trees", "probe_cycles",
                      # Training-replay bench: BSP virtual-cycle arithmetic
                      # over deterministic collective runs, bit-identical
                      # on every machine (docs/training_replay.md).
                      "time_to_epoch", "overlap_eff", "exposed_comm_cycles",
                      "comm_wall_cycles", "comm_busy_cycles",
                      "total_flits", "buckets", "slow_permille")
WALL_POINT_FIELDS = ("wall_ms", "seed_ms", "cold_ms", "warm_ms")
WALL_TOP_FIELDS = ("total_wall_ms",)
# Per-point wall medians skip points whose baseline value is below this
# many milliseconds: such a point times thread start-up and timer
# resolution, not the bench's work. In the flow sweep the q <= 27 points
# take 0.0-3.4 ms while a 4-thread run's pool start-up alone costs about
# 1 ms; its q >= 81 points (172 ms and more) time the flow tier itself.
WALL_FLOOR_MS = 20.0
# Relative slack for "exact" floats: they are deterministic but printed
# with %.4f, so allow one unit in the last printed place.
EXACT_REL = 1e-3

failures = []


def fail(msg):
    failures.append(msg)


def point_key(point):
    """Identity of a bench point within its grid.

    The simulation engine is part of the identity: a flow-tier point and a
    cycle-tier point at the same (q, solution, m) are different measurements
    with different accuracy contracts, so they are never compared to each
    other. Points without an "engine" field (pre-engine baselines, and
    benches that do not run the simulator) key on the grid alone.
    """
    return tuple(point.get(k)
                 for k in ("engine", "q", "solution", "m", "policy", "load",
                           "jobs", "pattern", "overlap", "straggler")
                 if k in point)


def match_points(base, cur):
    cur_by_key = {point_key(p): p for p in cur.get("points", [])}
    pairs = []
    for bp in base.get("points", []):
        cp = cur_by_key.get(point_key(bp))
        if cp is None:
            fail(f"point {point_key(bp)} missing from current run")
            continue
        pairs.append((bp, cp))
    return pairs


def check_exact(pairs):
    for bp, cp in pairs:
        key = point_key(bp)
        if "correct" in bp:
            if cp.get("correct") is not True:
                fail(f"point {key}: correct={cp.get('correct')} (hard fail)")
            if bp.get("correct") is not True:
                fail(f"baseline point {key}: correct={bp.get('correct')} "
                     "(bad baseline)")
        for field in EXACT_POINT_FIELDS:
            if field not in bp:
                continue
            b, c = bp[field], cp.get(field)
            if c is None:
                fail(f"point {key}: field {field} missing from current run")
                continue
            if isinstance(b, int) and isinstance(c, int):
                # Integer fields (virtual cycles, flit/job counts) are
                # bit-deterministic: any drift is a hard failure, however
                # small relative to the magnitude.
                if b != c:
                    fail(f"point {key}: deterministic field {field} changed "
                         f"{b} -> {c}")
                continue
            scale = max(abs(b), abs(c), 1e-12)
            if abs(b - c) / scale > EXACT_REL:
                fail(f"point {key}: deterministic field {field} changed "
                     f"{b} -> {c}")


def check_cache(base, cur):
    bcache, ccache = base.get("cache"), cur.get("cache")
    if bcache is None:
        return
    if ccache is None:
        fail("cache counters missing from current run")
        return
    for field, bval in bcache.items():
        cval = ccache.get(field)
        if cval != bval:
            fail(f"cache counter {field} changed {bval} -> {cval} "
                 "(deterministic, hard fail)")


def median_of(points, field):
    values = [p[field] for p in points if field in p]
    return statistics.median(values) if values else None


def check_ratio_medians(base, cur, tolerance):
    for field in RATIO_FIELDS:
        bmed = median_of(base.get("points", []), field)
        cmed = median_of(cur.get("points", []), field)
        if bmed is None:
            continue
        if cmed is None:
            fail(f"ratio field {field} missing from current run")
            continue
        if bmed <= 0:
            continue
        ratio = cmed / bmed
        if ratio < 1.0 - tolerance or ratio > 1.0 + tolerance:
            fail(f"median {field} drifted {bmed:.2f} -> {cmed:.2f} "
                 f"({ratio:.2f}x, tolerance +/-{tolerance:.0%})")


def check_wall(base, cur, pairs, wall_tolerance):
    if wall_tolerance is None:
        return
    for field in WALL_TOP_FIELDS:
        if field in base and field in cur and base[field] > 0:
            if cur[field] > base[field] * wall_tolerance:
                fail(f"{field} {base[field]:.1f} -> {cur[field]:.1f} ms "
                     f"(over {wall_tolerance}x baseline)")
    for field in WALL_POINT_FIELDS:
        kept = [(bp[field], cp[field]) for bp, cp in pairs
                if field in bp and field in cp and bp[field] >= WALL_FLOOR_MS]
        if not kept:
            continue
        bmed = statistics.median(b for b, _ in kept)
        cmed = statistics.median(c for _, c in kept)
        if cmed > bmed * wall_tolerance:
            fail(f"median {field} {bmed:.1f} -> {cmed:.1f} ms "
                 f"(over {wall_tolerance}x baseline)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--tolerance", type=float, default=0.2,
                    help="relative band for ratio medians (default 0.2)")
    ap.add_argument("--wall-tolerance", type=float, default=None,
                    help="max current/baseline factor for wall-clock "
                         "fields; unchecked if omitted")
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            base = json.load(f)
        with open(args.current) as f:
            cur = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_regression: {e}", file=sys.stderr)
        return 2

    pairs = match_points(base, cur)
    check_exact(pairs)
    check_cache(base, cur)
    check_ratio_medians(base, cur, args.tolerance)
    check_wall(base, cur, pairs, args.wall_tolerance)

    if failures:
        print(f"FAIL {args.current} vs {args.baseline}:")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    print(f"OK {args.current} vs {args.baseline} "
          f"({len(pairs)} points, tolerance +/-{args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
