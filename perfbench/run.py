#!/usr/bin/env python3
"""Host-cost benchmark of the V-System simulator.

Builds perfbench/bin/main.exe from source with dune, then runs one
workload for about --seconds seconds and prints every metric by name
and unit, followed, as the last line of standard output, by one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload ipc-soak --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics: repetitions, each in a fresh
process, until the time is spent; host times are medians over them,
exact counts must agree across them. --trace 1 reports the per-layer
metrics: untraced and traced repetitions side by side (their ratio is
the tracing overhead), the traced run's layer counters and route
spans, and the per-layer probes. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bin", "main.exe")
WORKLOADS = ("ipc-soak", "name-lookup", "name-churn")

# At least this many repetitions per run, so every host time is a median.
MIN_REPS = 3
# A run stops starting repetitions once this much time has gone, so
# that it always ends within three minutes.
HARD_STOP_S = 90.0
REP_TIMEOUT_S = 75

END_TO_END = [
    ("txn_per_cpu_s", "txn/s"),
    ("cpu_ns_per_event", "ns"),
    ("events_per_txn", "count"),
    ("minor_words_per_txn", "words"),
    ("promoted_words_per_txn", "words"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
    ("ok_ratio", "fraction"),
    ("sim_op_p50_ms", "sim_ms"),
    ("sim_op_p99_ms", "sim_ms"),
]
# Host times: medians over the repetitions.
MEDIAN = ("txn_per_cpu_s", "cpu_ns_per_event", "setup_s", "peak_heap_mb")
# Exact for one seed on one compiler: every repetition must agree.
EXACT = (
    "events_per_txn",
    "minor_words_per_txn",
    "promoted_words_per_txn",
    "sim_op_p50_ms",
    "sim_op_p99_ms",
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build():
    if not os.path.isdir(os.path.join(ROOT, "lib")):
        raise BenchError("no lib/ next to perfbench/: nothing to build")
    proc = subprocess.run(
        # The shared dune cache lives outside the checkout: keep it off.
        ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/bin/main.exe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        raise BenchError("build failed")


def call(args):
    proc = subprocess.run(
        [EXE] + args,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("main.exe %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rep(workload, seed, traced=False):
    args = ["rep", "--workload", workload, "--seed", str(seed)]
    return call(args + (["--traced"] if traced else []))


def repeat(seconds, started, one):
    """Call [one] until [seconds] have gone (at least MIN_REPS times)."""
    out = []
    while True:
        out.append(one())
        spent = time.monotonic() - started
        if len(out) >= MIN_REPS and spent >= seconds:
            return out
        if spent >= HARD_STOP_S:
            return out


def deterministic(reps, workload, seed):
    """Same seed, same exact figures in every repetition; a different
    seed, different inputs. Returns the list of problems found."""
    problems = []
    first = reps[0]
    for r in reps[1:]:
        if r["digest"] != first["digest"]:
            problems.append("input digest differs between repetitions")
        if r["events"] != first["events"] or r["failed"] != first["failed"]:
            problems.append("event or failure count differs between repetitions")
        for k in EXACT:
            if r["metrics"][k] != first["metrics"][k]:
                problems.append("%s differs between repetitions" % k)
    other = call(["digest", "--workload", workload, "--seed", str(seed + 1)])
    if other["digest"] == first["digest"]:
        problems.append("seeds %d and %d generate the same inputs" % (seed, seed + 1))
    return problems


def end_to_end(workload, seed, seconds):
    started = time.monotonic()
    reps = repeat(seconds, started, lambda: rep(workload, seed))
    problems = deterministic(reps, workload, seed)
    metrics = {}
    for k in MEDIAN:
        metrics[k] = statistics.median(r["metrics"][k] for r in reps)
    for k in EXACT:
        metrics[k] = reps[0]["metrics"][k]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics["ok_ratio"] = 1.0 - failed / attempted
    log("workload %s  seed %d  repetitions %d  ocaml %s  OCAMLRUNPARAM=%r"
        % (workload, seed, len(reps), reps[0]["ocaml"], reps[0]["ocamlrunparam"]))
    log("  %-24s %d" % ("txns per repetition", reps[0]["attempted"]))
    log("  %-24s %.6f" % ("failed_ratio", failed / attempted))
    log("  %-24s %.1f" % ("simulated ms per rep", reps[0]["sim_ms"]))
    for k in MEDIAN:
        vals = sorted(r["metrics"][k] for r in reps)
        log("  %-24s spread over repetitions: %.6g .. %.6g" % (k, vals[0], vals[-1]))
    out = {}
    for name, unit in END_TO_END:
        out[name] = {"value": metrics[name], "unit": unit}
        log("  %-24s %.6g %s" % (name, metrics[name], unit))
    return reps, failed, problems, out


def per_layer(workload, seed, seconds):
    started = time.monotonic()
    pairs = repeat(
        seconds,
        started,
        lambda: (rep(workload, seed), rep(workload, seed, traced=True)),
    )
    problems = deterministic([u for u, _ in pairs], workload, seed)
    for u, t in pairs:
        if t["events"] != u["events"]:
            problems.append("tracing changed the event count")
    probes = call(["probes"])
    untraced = statistics.median(u["metrics"]["txn_per_cpu_s"] for u, _ in pairs)
    traced = statistics.median(t["metrics"]["txn_per_cpu_s"] for _, t in pairs)
    metrics = dict(pairs[0][1]["layers"])
    metrics.update(probes)
    metrics["trace.overhead_pct"] = (untraced / traced - 1.0) * 100.0
    reps = [r for pair in pairs for r in pair]
    failed = sum(r["failed"] for r in reps)
    log("workload %s  seed %d  traced pairs %d  ocaml %s  OCAMLRUNPARAM=%r"
        % (workload, seed, len(pairs), reps[0]["ocaml"], reps[0]["ocamlrunparam"]))
    log("  txn_per_cpu_s untraced %.6g  traced %.6g" % (untraced, traced))
    out = {}
    for name in sorted(metrics):
        out[name] = {"value": metrics[name], "unit": unit_of(name)}
        log("  %-40s %.6g %s" % (name, metrics[name], unit_of(name)))
    return reps, failed, problems, out


def unit_of(name):
    if name.endswith("_ns") or name.endswith("_ns_iqr"):
        return "ns"
    if name.endswith("_words"):
        return "words"
    if name.endswith("_sim_ms"):
        return "sim_ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "fraction"
    if name.endswith("bytes_per_txn"):
        return "bytes"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    run = per_layer if args.trace else end_to_end
    reps, failed, problems, metrics = [], 0, [], {}
    try:
        build()
        for w in workloads:
            w_reps, w_failed, w_problems, w_metrics = run(w, args.seed, args.seconds)
            prefix = w + "." if args.workload == "all" else ""
            reps += w_reps
            failed += w_failed
            problems += w_problems
            metrics.update((prefix + k, v) for k, v in w_metrics.items())
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    for r in reps:
        for note in r["notes"]:
            log("  failure: %s" % note)
    for p in problems:
        log("  determinism: %s" % p)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
