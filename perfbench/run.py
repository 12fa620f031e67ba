#!/usr/bin/env python3
"""Benchmark command for the asym-multicore sweep stack.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 0 --seconds 55 --trace 0

Builds the `perfbench` binary (release, from source), then either

* `--trace 0`: repeats the workload's timed phase, one fresh process per
  iteration, for about `--seconds` (at least MIN_ITERATIONS times),
  checks every iteration's outputs, and reports the median of each
  end-to-end metric; or
* `--trace 1`: makes one traced per-layer run and reports every
  per-layer metric, the tracing overhead and the unattributed time.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Every result set is also appended,
with its provenance, to `.perfbench-results.jsonl` in the repository
root. All scratch output lives in `.perfbench-work/` and is removed
before exit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".perfbench-work")
RESULTS = os.path.join(ROOT, ".perfbench-results.jsonl")
WORKLOADS = ("paper", "check", "scale-cold", "scale-warm")
MIN_ITERATIONS = 2
SETUP_SAMPLES = 40
# Every child must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    )
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        r = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if r.returncode != 0:
        die("build failed")
    return os.path.join(target, "release", "perfbench")


def child(binary, args):
    """Runs the binary once and returns its parsed last stdout line."""
    try:
        p = subprocess.run([binary] + args, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"{' '.join(args[:3])}: {e}")
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        die(f"{' '.join(args[:3])} exited {p.returncode}")
    return json.loads(lines[-1])


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def phase_args(workload, seed, work, expect):
    args = ["phase", "--workload", workload, "--seed", str(seed), "--work", work]
    if expect:
        args += ["--expect", expect]
    return args


def start_phase(binary, args, prep_s):
    """One phase process; its set-up is `prep_s` plus its start-up."""
    res = child(binary, args + ["--t0-ns", str(time.time_ns())])
    res["setup_s"] = prep_s + res["spawn_s"]
    return res


def iterations(binary, workload, seed, seconds, expect):
    """Repeats set-up and the timed phase for about `seconds` (at least
    MIN_ITERATIONS times): no iteration starts that would likely end
    past them. Set-up covers preparing the
    iteration's directories and the phase process's start-up. For
    scale-warm it also covers the cold fill of the cache (flushed to
    disk), which is done once: every warm phase reads the same cache.

    Returns the phases and the set-up samples: each phase's, plus
    SETUP_SAMPLES processes that stop after set-up, so that the median
    set-up time rests on enough samples to be steady."""
    it_dir = os.path.join(WORK, "iteration")
    cache = ["--cache", os.path.join(it_dir, "cache")] if workload.startswith("scale") else []
    fill_s = 0.0
    cold = None
    if workload == "scale-warm":
        start = time.perf_counter()
        fresh(it_dir)
        cold_dir = os.path.join(it_dir, "cold")
        cold = child(binary, phase_args("scale-cold", seed, cold_dir, expect) + cache)
        os.sync()
        fill_s = time.perf_counter() - start
        cache += ["--reference", cold_dir]

    def prepare():
        start = time.perf_counter()
        if workload != "scale-warm":
            fresh(it_dir)
        return fill_s + time.perf_counter() - start

    args = phase_args(workload, seed, os.path.join(it_dir, "run"), expect) + cache
    runs = []
    took = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        runs.append(start_phase(binary, args, prepare()))
        if workload == "scale-cold":
            # Clean-up is not timed; flush it so the next phase starts quiet.
            shutil.rmtree(it_dir, ignore_errors=True)
            os.sync()
        took.append(time.perf_counter() - began)
        # Start no iteration that would likely end past `seconds`.
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_ITERATIONS and elapsed + statistics.median(took) > seconds:
            break
    setups = [r["setup_s"] for r in runs]
    for _ in range(SETUP_SAMPLES):
        setups.append(start_phase(binary, args + ["--setup-only"], prepare())["setup_s"])
    if cold is not None and cold["failed"]:
        runs[0]["failed"] = max(runs[0]["failed"], cold["failed"])
        runs[0]["notes"] = ["cold fill: " + n for n in cold["notes"]] + runs[0]["notes"]
    shutil.rmtree(it_dir, ignore_errors=True)
    return runs, setups


def summarize(runs, setups):
    """Attempted and failed cells, check notes, and the median of every
    end-to-end metric over a run's iterations (set-up over `setups`)."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    notes = [n for r in runs for n in r["notes"]]
    # Every iteration ran the same inputs: its outputs must repeat exactly.
    for r in runs[1:]:
        for key in ("fold", "text_digest", "stable_digest", "cells"):
            if r[key] != runs[0][key]:
                failed += r["attempted"] - r["failed"]
                notes.append(f"{key} differs between iterations of one seed")
                break
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "cells_per_s": statistics.median(r["cells"] / r["wall_s"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(setups),
    }
    return attempted, failed, notes, values


def named_metrics(catalogue, values):
    """Every catalogued metric with its measured value and unit."""
    metrics = {}
    for m in catalogue:
        if values.get(m["name"]) is None:
            die(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return metrics


def provenance(fingerprint, fs):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "fingerprint": fingerprint,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "host_threads": 2,
        "cache_fs": fs,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0:
        die("--seed must be non-negative")

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = load_json(os.path.join(BENCH_DIR, "expected.json"))
    binary = build()
    expect = None
    if a.seed == expected["default_seed"]:
        d = expected["digests"][a.workload]
        expect = f"{d['fold']}:{d['text']}"

    fresh(WORK)
    try:
        if a.trace:
            res = child(binary, ["trace", "--workload", a.workload, "--seed", str(a.seed),
                                 "--work", os.path.join(WORK, "trace")]
                        + (["--expect", expect] if expect else []))
            attempted, failed, notes = res["attempted"], res["failed"], res["notes"]
            values = res["metrics"]
            first, detail = res, None
            catalogue = bench["per_layer"]
        else:
            runs, setups = iterations(binary, a.workload, a.seed, a.seconds, expect)
            attempted, failed, notes, values = summarize(runs, setups)
            first = runs[0]
            detail = [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "steps")}
                      for r in runs]
            catalogue = bench["end_to_end"]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if first.get("cache_fingerprint") not in (None, first["fingerprint"]):
        failed = attempted
        notes.append("cache entries carry a different code fingerprint")
    metrics = named_metrics(catalogue, values)
    prov = provenance(first["fingerprint"], first["fs"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(RESULTS, "a", encoding="utf-8") as f:
        f.write(json.dumps({"workload": a.workload, "seed": a.seed, "trace": a.trace,
                            "provenance": prov, "result": result, "iterations": detail,
                            "notes": notes[:20]}) + "\n")
    for n in notes[:20]:
        print(f"check failed: {n}")
    print("provenance: " + json.dumps(prov))
    for name, m in metrics.items():
        print(f"{a.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
