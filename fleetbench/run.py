#!/usr/bin/env python3
"""Repeated-run fleet benchmark for the ERASMUS simulator.

Runs one workload for a fixed interval as reps on concurrent streams, each
rep a fresh `fleetbench rep` process that builds a ShardedFleetRunner,
runs it at one thread and reports host times plus its exact
simulation-derived outputs. A host-speed yardstick (`fleetbench
yardstick`) runs beside them for the whole interval. Prints a metric
table, then as its LAST stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

  python3 fleetbench/run.py --workload direct_roaming --seconds 55 --trace 0
  python3 fleetbench/run.py --all              # every workload, reference seeds
  python3 fleetbench/run.py --self-test        # the benchmark's own tests
  python3 fleetbench/run.py --write-references # regenerate references.json

Operations are collection rounds: `attempted` counts every round of every
rep, `failed` the rounds whose outputs differ from the reference for the
seed (a crashed or timed-out rep fails all its rounds). The reference is
the stored one in references.json when the seed has one, else the check
rep, run at two threads before timing starts. Every timed rep must also
reproduce the check rep's full metrics JSON byte for byte. --trace 0
reports the end-to-end metrics of BENCHMARK.json from untraced reps;
--trace 1 alternates untraced and traced reps and reports the per-layer
metrics. See README.md.
"""

import argparse
import itertools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "fleetbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
REFERENCES = os.path.join(HERE, "references.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009  # never used while the workloads were tuned
MIN_REPS = 3          # timed reps per run, unless the budget runs out
# Timed reps run as this many concurrent one-thread streams, one core each,
# next to the yardstick on a core of its own, leaving a core for everything
# else. A slow spell on one core then moves half the samples, not all.
STREAMS = max(1, min(2, (os.cpu_count() or 1) - 2))
# The check rep's thread count: the timed reps run at one thread, so this
# is what exercises the parallel paths and proves them thread-invariant.
CHECK_THREADS = min(2, os.cpu_count() or 1)
# The runner's phase profile, taken from the check rep: at one thread
# there is no barrier to wait at.
PHASE_LAYERS = ("obs.shard_work_ms", "obs.barrier_wait_ms",
                "obs.barrier_wait_share")
RUN_BUDGET_S = 170    # hard cap on one run after the build, all reps included


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "scenario",
                                       "sharded_runner.h")):
        raise BenchError("simulator sources (src/) not found next to "
                         "fleetbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build of %s failed" % target)
    return os.path.join(BUILD_DIR, target)


_live = set()          # rep processes still running
_live_lock = threading.Lock()
_stopping = threading.Event()


def run_rep(binary, workload, seed, timeout, threads=None, trace_out=None):
    """One rep in its own process; None when it crashes or times out."""
    cmd = [binary, "rep", workload, str(seed)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    with _live_lock:
        if _stopping.is_set():
            proc.kill()
        _live.add(proc)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("rep timed out: %s" % " ".join(cmd))
        return None
    finally:
        with _live_lock:
            _live.discard(proc)
    if proc.returncode != 0:
        log("rep failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
        return None
    rep = json.loads(out.strip().splitlines()[-1])
    rep["wall_s"] = time.monotonic() - start
    return rep


def stop_reps():
    """Kills every rep still running and waits for each to end."""
    _stopping.set()
    with _live_lock:
        procs = list(_live)
    for proc in procs:
        proc.kill()
    for proc in procs:
        proc.wait()


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def failed_rounds(rep, reference, rounds_expected):
    """Rounds of `rep` that differ from `reference` (all of them when the
    rep died or its exact counters or metrics JSON differ)."""
    if rep is None:
        return rounds_expected
    if rep["outputs"] != reference["outputs"]:
        return rounds_expected
    if "metrics_sha256" in reference and \
            rep["metrics_sha256"] != reference["metrics_sha256"]:
        return rounds_expected
    got, want = rep["rounds"], reference["rounds"]
    bad = sum(1 for i in range(rounds_expected)
              if i >= len(got) or i >= len(want) or got[i] != want[i])
    return bad


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps, yardstick_s):
    """Medians over the reps. The host's speed drifts by up to a quarter
    within minutes, so run times are also given in yardstick units:
    divided by the median yardstick block timed on another core during
    the same interval. The raw figures are reported per layer (host.*)."""
    setup_s = median([r["setup_s"] for r in reps])
    total_s = median([r["setup_s"] + r["run_s"] for r in reps])
    collections_per_s = median([r["collections"] / r["run_s"] for r in reps])
    return {
        "setup_s": setup_s,
        "total_rel": total_s / yardstick_s,
        "collections_per_yardstick": collections_per_s * yardstick_s,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "host.total_s": total_s,
        "host.collections_per_s": collections_per_s,
        "host.yardstick_ms": yardstick_s * 1e3,
    }


def per_layer(single, untraced, traced, yardstick_s):
    """Per-layer metrics: exact counters and the phase profile from the
    check rep, host-time layers as medians over the traced reps."""
    m = dict(single["outputs"])
    m.update(single["work"])
    for key in traced[0]["layers"]:
        m[key] = median([r["layers"][key] for r in traced])
    for key in PHASE_LAYERS:
        m[key] = single["layers"][key]
    collected = sum(r["reachable"] for r in single["rounds"])
    m["attest.flagged_share"] = (m.pop("attest.flagged") / collected
                                 if collected else 0.0)
    m["net.useful_offer_ratio"] = (m["net.delivered"] / m["net.offers"]
                                   if m["net.offers"] else 0.0)
    untraced_e2e = end_to_end(untraced, yardstick_s)
    for key in ("host.total_s", "host.collections_per_s", "host.yardstick_ms"):
        m[key] = untraced_e2e[key]
    untraced_total = untraced_e2e["host.total_s"]
    traced_total = end_to_end(traced, yardstick_s)["host.total_s"]
    m["trace.total_s_untraced"] = untraced_total
    m["trace.total_s_traced"] = traced_total
    m["trace.overhead_share"] = traced_total / untraced_total - 1.0
    return m


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (attempted, failed, e2e, layers)."""
    budget_end = time.monotonic() + RUN_BUDGET_S
    references = load_references().get(workload, {})
    stored = references.get(str(seed))

    # The check rep, at CHECK_THREADS: this seed's reference when none is
    # stored, the thread-count self-check otherwise. Also warms the file
    # cache.
    single = run_rep(binary, workload, seed, budget_end - time.monotonic(),
                     threads=CHECK_THREADS)
    if single is None:
        raise BenchError("the check rep of %s failed" % workload)
    rounds_expected = len(single["rounds"])
    reference = stored if stored is not None else single
    attempted = rounds_expected
    failed = failed_rounds(single, reference, rounds_expected)
    if failed:
        log("%s seed %d: check rep differs from the stored reference"
            % (workload, seed))
    # Every rep must reproduce the check rep's metrics JSON byte for byte.
    thread_check = {"outputs": reference["outputs"],
                    "rounds": reference["rounds"],
                    "metrics_sha256": single["metrics_sha256"]}

    # Timed reps, on STREAMS concurrent streams. Each stream starts a rep
    # (an untraced and a traced one with --trace 1) only if it should end
    # inside the interval.
    os.makedirs(TRACE_DIR, exist_ok=True)
    untraced, traced, durations = [], [], []
    lock = threading.Lock()
    trace_ids = itertools.count(1)
    deadline = time.monotonic() + seconds

    def stream():
        nonlocal attempted, failed
        while not _stopping.is_set():
            with lock:
                estimate = median(durations) * (2 if trace else 1)
                done = len(durations)
                batch = [None]
                if trace:
                    batch.append(os.path.join(
                        TRACE_DIR, "%s-seed%d-rep%d.json"
                        % (workload, seed, next(trace_ids))))
            now = time.monotonic()
            if done >= MIN_REPS and now + estimate > deadline:
                return
            if now + estimate > budget_end:
                log("%s: run budget of %d s spent after %d reps"
                    % (workload, RUN_BUDGET_S, done))
                return
            for trace_out in batch:
                rep = run_rep(binary, workload, seed,
                              budget_end - time.monotonic(),
                              trace_out=trace_out)
                bad = failed_rounds(rep, thread_check, rounds_expected)
                if rep is not None and bad:
                    log("%s seed %d: rep at %d threads differs from the "
                        "reference" % (workload, seed, rep["threads"]))
                with lock:
                    attempted += rounds_expected
                    failed += bad
                    if rep is not None:
                        durations.append(rep["wall_s"])
                        (traced if trace_out else untraced).append(rep)

    yardstick = subprocess.Popen(
        [binary, "yardstick", str(max(1, math.ceil(seconds)))],
        stdout=subprocess.PIPE, text=True)
    with _live_lock:
        _live.add(yardstick)
    threads = [threading.Thread(target=stream) for _ in range(STREAMS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    try:
        out, _ = yardstick.communicate(
            timeout=max(budget_end - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("the yardstick did not finish")
    if yardstick.returncode != 0:
        raise BenchError("the yardstick failed (exit %d)"
                         % yardstick.returncode)
    yardstick_s = median(json.loads(out.strip().splitlines()[-1])["block_s"])
    if yardstick_s <= 0.0:
        raise BenchError("the yardstick timed no block")
    if not untraced or (trace and not traced):
        raise BenchError("every timed rep of %s failed" % workload)

    e2e = end_to_end(untraced, yardstick_s)
    layers = per_layer(single, untraced, traced, yardstick_s) if trace else {}
    return attempted, failed, e2e, layers


def metric_entries(bench, kind, values):
    out = {}
    for spec in bench[kind]:
        name = spec["name"]
        if name not in values:
            raise BenchError("metric %s was not measured" % name)
        out[name] = {"value": values[name], "unit": spec["unit"]}
    return out


def print_table(title, entries):
    print(title)
    width = max(len(n) for n in entries)
    for name, entry in entries.items():
        print("  %-*s %16.6g %s" % (width, name, entry["value"],
                                    entry["unit"]))


def run_all(binary, bench, seconds):
    """Every workload on both reference seeds, every metric printed."""
    mismatches = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            attempted, failed, e2e, layers = run_workload(
                binary, workload, seed, seconds, trace=True)
            print("== %s seed %d: %d/%d rounds failed" %
                  (workload, seed, failed, attempted))
            print_table("end to end:", metric_entries(bench, "end_to_end",
                                                      e2e))
            print_table("per layer:", metric_entries(bench, "per_layer",
                                                     layers))
            mismatches += failed
    return 1 if mismatches else 0


def write_references(binary, bench):
    refs = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        refs[workload] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            rep = run_rep(binary, workload, seed, RUN_BUDGET_S, threads=1)
            if rep is None:
                raise BenchError("reference rep of %s failed" % workload)
            refs[workload][str(seed)] = {"rounds": rep["rounds"],
                                         "outputs": rep["outputs"]}
            log("reference %s seed %d" % (workload, seed))
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--write-references", action="store_true")
    args = parser.parse_args()

    try:
        with open(BENCHMARK) as f:
            bench = json.load(f)
        if args.self_test:
            return subprocess.run([build("fleetbench_test")]).returncode
        binary = build("fleetbench")
        if args.all:
            return run_all(binary, bench, args.seconds)
        if args.write_references:
            return write_references(binary, bench)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            raise BenchError("--workload must be one of %s" % ", ".join(names))
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")

        attempted, failed, e2e, layers = run_workload(
            binary, args.workload, args.seed, args.seconds, bool(args.trace))
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = metric_entries(bench, kind, layers if args.trace else e2e)
        print_table("%s seed %d (%s):" % (args.workload, args.seed,
                                          kind.replace("_", " ")), metrics)
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    except (BenchError, OSError, ValueError) as e:
        log("fleetbench: %s" % e)
        return 1
    finally:
        stop_reps()


if __name__ == "__main__":
    sys.exit(main())
