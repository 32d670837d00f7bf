#!/usr/bin/env python3
"""Checks on benchmark outputs that no plain cmp against a baseline covers.

    python3 tools/bench_check.py mem        # bench/out/BENCH_mem.json (bench_memstress)
    python3 tools/bench_check.py trace      # bench/out/BENCH_trace.json (bench_trace)
    python3 tools/bench_check.py baselines  # every bench/baseline/*.json
    python3 tools/bench_check.py perfbench <workload> <run.json>

`mem` and `trace` smoke-check host-timed benches, whose figures differ run to
run, so they get floors rather than a byte comparison. `baselines` checks that
each checked-in baseline is non-empty and parses; the virtual-time benches are
compared to those files byte for byte with cmp. `perfbench` reads the last
stdout line of `perfbench/run.py --workload <workload> --seed 1`, saved to
<run.json>: the run must be correct with no failed operation, and its virtual
metrics must equal bench/baseline/PERFBENCH_virtual.json exactly. The host
metrics beside them differ run to run and are not checked. Any --seconds
works: a run covers every sub-seed before it stops, and the virtual metrics
pool one repetition of each. Run it from the repository root, the working
directory the benches write bench/out/ under. Exit status 0 = every check
holds; otherwise the first failure is printed with the JSON it read.
"""

import glob
import json
import os
import sys


def load(path: str):
    with open(path) as f:
        return json.load(f)


def check(ok: bool, what: str, data=None) -> None:
    if not ok:
        shown = "" if data is None else "\n" + json.dumps(data, indent=1)
        sys.exit(f"FAIL: {what}{shown}")


def check_mem() -> None:
    m = load("bench/out/BENCH_mem.json")
    check(m["throughput_ops_per_sec"] > 0, "throughput_ops_per_sec > 0", m)
    check(m["pmm"]["speedup_98"] > 1.0, "pmm.speedup_98 > 1.0", m)
    check(m["kmalloc"]["hit_rate"] > 0.9, "kmalloc.hit_rate > 0.9", m)
    check(m["os_level"]["ok"] and m["os_level"]["oom_events"] == 0,
          "os_level.ok with 0 oom_events", m)
    print("bench_memstress smoke OK")


def check_trace() -> None:
    m = load("bench/out/BENCH_trace.json")
    # Sanitizer instrumentation (SANITIZE names it) skews both sides; the 5x
    # acceptance bar applies to the uninstrumented build.
    bar = 1.0 if os.environ.get("SANITIZE") else 5.0
    check(m["speedup_1core"] >= bar, f"speedup_1core >= {bar}", m)
    check(m["lockfree_events_per_sec"] > m["locked_events_per_sec"],
          "lock-free events/s > locked events/s", m)
    for t in range(1, 5):
        check(m["scaling"][f"threads_{t}"]["lockfree_events_per_sec"] > 0,
              f"scaling.threads_{t}.lockfree_events_per_sec > 0", m)
    print("bench_trace smoke OK")


def check_baselines() -> None:
    paths = sorted(glob.glob("bench/baseline/*.json"))
    check(bool(paths), "baseline artifacts exist under bench/baseline/")
    for p in paths:
        size = os.path.getsize(p)
        check(size > 0, f"{p} is non-empty")
        data = load(p)  # raises on corrupt JSON
        check(bool(data), f"{p} parses to a non-empty object", data)
        print(f"{p}: OK ({size} bytes)")


def check_perfbench(workload: str, run_path: str) -> None:
    with open(run_path) as f:
        lines = f.read().strip().splitlines()
    check(bool(lines), f"{run_path} holds perfbench's output")
    run = json.loads(lines[-1])
    check(run.get("correct") is True, f"{workload}: correct", run)
    check(run.get("failed") == 0, f"{workload}: 0 failed", run)
    want = load("bench/baseline/PERFBENCH_virtual.json")["workloads"][workload]
    for name, value in want.items():
        got = run["metrics"][name]["value"]
        check(got == value, f"{workload}: {name} {got!r} == baseline {value!r}", run)
    print(f"perfbench {workload}: virtual metrics match the baseline")


CHECKS = {"mem": check_mem, "trace": check_trace, "baselines": check_baselines,
          "perfbench": check_perfbench}
ARGS = {"perfbench": 2}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in CHECKS or \
            len(sys.argv) != 2 + ARGS.get(sys.argv[1], 0):
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(CHECKS)}}}"
                 " (perfbench takes <workload> <run.json>)")
    CHECKS[sys.argv[1]](*sys.argv[2:])
