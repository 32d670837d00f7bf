#!/usr/bin/env python3
"""Runs one benchmark workload on the vos simulator and prints its metrics.

    python3 perfbench/run.py --workload kv-http --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the perfbench binary
(perfbench.cc plus the simulator sources in src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset.

Repetitions. A run repeats the workload for --seconds, each repetition a
fresh process that builds, boots and sets up its own System and then runs a
fixed amount of seeded work. The run's seed expands into SUBSEEDS sub-seeds
(seed * SUBSEEDS + j) and the repetitions cycle through them: a workload's
virtual behaviour differs between inputs by more than any one input's
variation, so the virtual metrics pool the latencies and virtual time of one
repetition per sub-seed. Every later repetition of a sub-seed must reproduce
its virtual results exactly.

Clocks. Latency and ops_per_s are virtual time (the modelled Pi3). setup_s,
host_s and host_cpu_s are host time, as the median over all repetitions,
rescaled to a reference host speed: the host's speed drifts by up to 2x
within seconds, which repetition alone does not average out. perfbench times
probe kernels next to the work it measures: a sort before and after set-up,
and a two-thread handoff ping-pong between the measured slices (left out of
the measured time). setup_s is divided by sort_s / REF_SORT_S, host_s and
host_cpu_s by handoff_s / REF_HANDOFF_S; the references are the probes' times
on the 4-vCPU Xeon host the benchmark was defined on, at its fast steady
state. --trace 1 reports the raw host seconds and the speed too.

Pinning. The process, and so every simulator thread, is pinned to one host
CPU (the highest-numbered one it may use): tasks are token-serialized host
threads, so pinning costs no parallelism and removes thread-placement noise.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions of each sub-seed and prints the per-layer metrics (median
over traced repetitions) and the tracing overhead in host time. Spans of the
last traced repetition go to <build>/spans/<workload>-<seed>.jsonl.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}). The lines before it are a readable table.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kv-http", "kv-lossy", "fs-churn", "desktop")
SUBSEEDS = 8
REF_SORT_S = 0.0010      # sort probe on the reference host
REF_HANDOFF_S = 4.4e-6   # handoff probe round trip on the reference host
REP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "host_s": "s",
    "host_cpu_s": "s",
    "host_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "lat_p50_us": "us",
    "lat_p99_us": "us",
}


def layer_unit(name):
    if name == "machine.host_ns_per_vms":
        return "ns/ms"  # host nanoseconds per virtual millisecond
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".util", "_ratio", "_speed")) or "_per_" in name:
        return "ratio"
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures and builds perfbench; returns (binary or None, build dir)."""
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", HERE, "-B", out]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None, out
    return os.path.join(out, "perfbench"), out


def run_rep(binary, workload, subseed, traced, span_file):
    cmd = [binary, workload, str(subseed), "1" if traced else "0"]
    if traced:
        cmd.append(span_file)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "timed out after %d s" % REP_TIMEOUT_S}
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return {"error": "exit %d: %s" % (r.returncode, r.stderr.strip()[-500:])}
    try:
        rep = json.loads(lines[-1])
    except ValueError:
        return {"error": "unparsable output: " + lines[-1][:200]}
    rep["subseed"] = subseed
    return rep


def percentile(sorted_vals, p):
    """Linear between order statistics, as perfbench.cc computes it."""
    pos = p / 100 * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (pos - lo) * (sorted_vals[hi] - sorted_vals[lo])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    binary, out = build(os.getcwd())
    if binary is None:
        return 1

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    span_dir = os.path.join(out, "spans")
    os.makedirs(span_dir, exist_ok=True)
    span_file = os.path.join(span_dir, "%s-%d.jsonl" % (args.workload, args.seed))

    # Untraced repetitions cycle through the sub-seeds; with --trace 1 each is
    # followed by a traced repetition of the same sub-seed.
    plain, traced, errors = [], [], []
    deadline = time.monotonic() + args.seconds
    i = 0
    while len(errors) < 2:
        covered = len(plain) >= SUBSEEDS and (not args.trace or len(traced) >= SUBSEEDS)
        if covered and time.monotonic() >= deadline:
            break
        want_trace = bool(args.trace) and i % 2 == 1
        subseed = args.seed * SUBSEEDS + (i // (2 if args.trace else 1)) % SUBSEEDS
        rep = run_rep(binary, args.workload, subseed, want_trace, span_file)
        i += 1
        if "error" in rep:
            errors.append(rep["error"])
            log("perfbench: repetition failed: " + rep["error"])
            continue
        (traced if want_trace else plain).append(rep)

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed_ops"] + len(r["failed_checks"]) for r in reps) + len(errors)
    problems = list(errors)
    for r in reps:
        kind = "traced" if r["traced"] else "untraced"
        problems += ["%s (%s, sub-seed %d)" % (c, kind, r["subseed"]) for c in r["failed_checks"]]
        if r["failed_ops"]:
            problems.append("%d failed ops (%s, sub-seed %d)" % (r["failed_ops"], kind, r["subseed"]))

    # Determinism: every repetition of a sub-seed, traced or not, must
    # reproduce the first one's virtual results exactly.
    first = {}
    for r in reps:
        ref = first.setdefault(r["subseed"], r["virtual"])
        if r["virtual"] != ref:
            problems.append("virtual results differ between repetitions of sub-seed %d"
                            % r["subseed"])
            failed += 1
    ok = (len(first) == SUBSEEDS and all(v["lat_ns"] for v in first.values()) and
          bool(plain) and (bool(traced) or not args.trace))
    if not ok:
        problems.append("not every sub-seed produced latencies in every mode")
        failed += 1

    metrics, notes = {}, []
    if ok:
        lat = sorted(x for v in first.values() for x in v["lat_ns"])
        beyond = len(lat) - int(0.99 * len(lat))
        notes.append("latency samples %d (%d beyond p99) over %d sub-seeds"
                     % (len(lat), beyond, SUBSEEDS))
        host = {}
        for r in reps:
            r["setup_norm"] = r["setup_s"] / (r["probe"]["sort_s"] / REF_SORT_S)
            r["factor"] = r["probe"]["handoff_s"] / REF_HANDOFF_S
            r["host_norm"] = r["host_s"] / r["factor"]
            r["cpu_norm"] = r["host_cpu_s"] / r["factor"]
            log("rep sub-seed %d %s: host_s %.4f raw / %.3f = %.4f, setup_s %.4f"
                % (r["subseed"], "traced" if r["traced"] else "untraced", r["host_s"],
                   r["factor"], r["host_norm"], r["setup_norm"]))
        for name, key in (("setup_s", "setup_norm"), ("host_s", "host_norm"),
                          ("host_cpu_s", "cpu_norm"), ("host_rss_mb", "host_rss_mb")):
            host[name] = statistics.median(r[key] for r in plain)
        if args.trace:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
            metrics["machine.host_raw_s"] = statistics.median(r["host_s"] for r in traced)
            metrics["machine.host_speed"] = 1 / statistics.median(r["factor"] for r in traced)
            metrics["trace.overhead_s"] = (statistics.median(r["host_norm"] for r in traced) -
                                           host["host_s"])
        else:
            metrics.update(host)
            metrics["ops_per_s"] = len(lat) / (sum(v["v_ns"] for v in first.values()) / 1e9)
            metrics["lat_p50_us"] = percentile(lat, 50) / 1e3
            metrics["lat_p99_us"] = percentile(lat, 99) / 1e3
        notes.append("fail_frac %.6g, host speed %.3f of reference (median), raw host_s %.4f"
                     % (failed / max(1, attempted),
                        1 / statistics.median(r["factor"] for r in plain),
                        statistics.median(r["host_s"] for r in plain)))

    units = {name: END_TO_END_UNITS.get(name) or layer_unit(name) for name in metrics}
    print("perfbench %s seed %d: %d untraced + %d traced repetitions, pinned to host CPU %d"
          % (args.workload, args.seed, len(plain), len(traced), cpu))
    for n in notes:
        print("  " + n)
    for name, value in metrics.items():
        print("  %-36s %18.6f %s" % (name, value, units[name]))
    for p in problems:
        print("  CHECK FAILED: " + p)

    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
