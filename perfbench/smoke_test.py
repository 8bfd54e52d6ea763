#!/usr/bin/env python3
"""Smoke test of the repository benchmark, at a short length.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json with --quick (short simulations,
small job sets) and checks that:
  1. an untraced run emits exactly the end-to-end metrics and a traced
     run exactly the per-layer metrics, each with its declared unit,
     every run is correct with at least one attempted operation, and
     the metrics of layers a workload does not exercise read 0 while
     the workloads that exercise them report a nonzero value (and
     icache.prefetches is nonzero everywhere);
  2. two invocations with one seed print equal digests and equal
     simulated counts;
  3. traced and untraced runs print equal digests (tracing from
     outside never changes results).
Exits 0 when every check holds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7

# Metrics scoped to the workloads whose layers they measure; they read
# 0 on every other workload.
SCOPED = {
    "sim.pool.job_s_p50": {"campaign", "fuzz"},
    "sim.pool.job_s_p90": {"campaign", "fuzz"},
    "sim.pool.job_samples": {"campaign", "fuzz"},
    "sim.pool.busy_share": {"campaign", "fuzz"},
    "sim.store.answer_ms": {"campaign"},
    "sim.cache.lookup_ms": {"campaign"},
    "sim.cache.insert_ms": {"campaign"},
    "sim.journal.append_ms": {"campaign"},
    "sim.cache.misses": {"campaign"},
    "check.overhead": {"fuzz"},
}

# Metrics that read nonzero on every workload: each attributed job
# runs an I-cache prefetcher (the default next-line one; fuzz picks a
# sampled case that has one).
NONZERO = ["icache.prefetches"]

# Simulated counts: exact, so they repeat run to run.
EXACT = [
    "mem.l1i_mpki", "mem.l1d_mpki", "mem.l2_mpki", "tlb.itlb_mpki",
    "tlb.istlb_mpki", "tlb.dstlb_mpki", "tlb.pb_hits", "tlb.pb_hit_ratio",
    "vm.walks", "vm.refs_per_walk", "core.prefetch_walks", "core.accuracy",
    "core.coverage", "icache.prefetches", "sim.cache.hits",
    "sim.cache.misses", "sim.snapshot_bytes", "check.mismatches",
]


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--quick"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.exit("FAIL %s trace=%d exited %d:\n%s" %
                 (workload, trace, done.returncode, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = [l for l in lines if l.startswith("digest ")]
    return result, digest


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def check(cond, what):
        if not cond:
            problems.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        untraced, d0 = run(w, 0)
        traced, d1 = run(w, 1)
        again, d2 = run(w, 1)
        for trace, res, declared in ((0, untraced, spec["end_to_end"]),
                                     (1, traced, spec["per_layer"])):
            tag = "%s trace=%d" % (w, trace)
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result keys")
            check(res["correct"] is True and res["failed"] == 0,
                  tag + ": not correct")
            check(res["attempted"] >= 1, tag + ": nothing attempted")
            names = [m["name"] for m in declared]
            check(sorted(res["metrics"]) == sorted(names),
                  tag + ": metric names differ from BENCHMARK.json")
            for m in declared:
                got = res["metrics"].get(m["name"], {})
                check(got.get("unit") == m["unit"],
                      "%s: %s unit %r" % (tag, m["name"], got.get("unit")))
        for name, scope in SCOPED.items():
            value = traced["metrics"][name]["value"]
            check((value != 0) == (w in scope),
                  "%s: %s = %r" % (w, name, value))
        for name in NONZERO:
            check(traced["metrics"][name]["value"] != 0,
                  "%s: %s reads 0" % (w, name))
        check(len(d0) == 1 and d0 == d1,
              w + ": traced and untraced digests differ")
        check(d1 == d2, w + ": digests differ between invocations")
        for name in EXACT:
            check(traced["metrics"][name] == again["metrics"][name],
                  "%s: %s differs between invocations" % (w, name))
        print("%s: checked (%s)" % (w, d0[0] if d0 else "no digest"))

    for p in problems:
        print("FAIL " + p)
    if problems:
        sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
