#!/usr/bin/env bash
# The repository's CI gate: formatting, lints, tests, the full
# concurrency-checker matrix, the committed figures and the sweep
# smokes. Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> asym_sweep extra_check_matrix --check --jobs 2 (concurrency checker over 9 configs x 8 workloads: the five trace analyses and the happens-before race and policy-lint pass must be clean)"
cargo run -q --release -p asym-bench --bin asym_sweep -- extra_check_matrix --check --jobs 2 > /dev/null

echo "==> results/*.txt regenerate byte-identically (every committed figure: asym_sweep <spec> --cache=off --jobs 2)"
# A change that moves a paper number re-commits the figure, so the move
# shows in review.
for committed in results/*.txt; do
  spec="$(basename "$committed" .txt)"
  cargo run -q --release -p asym-bench --bin asym_sweep -- "$spec" --cache=off --jobs 2 2> /dev/null \
    | cmp -s - "$committed" \
    || { echo "FAIL: results/$spec.txt differs from 'asym_sweep $spec --cache=off --jobs 2'"; exit 1; }
done

echo "==> BENCH_sweep.json regenerates (asym_sweep mini extra_dynamic extra_tournament --quick --cache=off --jobs 2, host-timing fields stripped)"
# Host timing and cache provenance vary run to run: the top-level
# wall_ms, cells_wall_ms, speedup and cache lines, and each cell's
# wall_ms and cached fields. Everything else must match the committed
# report byte for byte.
strip_volatile() {
  sed -E -e '/^  "(wall_ms|cells_wall_ms|speedup|cache)": /d' \
    -e 's/"wall_ms": [^,]*, //' -e 's/"cached": (true|false), //' "$1"
}
PIN_DIR="$(mktemp -d)"
cargo run -q --release -p asym-bench --bin asym_sweep -- mini extra_dynamic extra_tournament \
  --quick --cache=off --jobs 2 --json="$PIN_DIR/fresh.json" > /dev/null 2>&1
strip_volatile "$PIN_DIR/fresh.json" > "$PIN_DIR/fresh"
strip_volatile BENCH_sweep.json > "$PIN_DIR/committed"
if ! cmp -s "$PIN_DIR/fresh" "$PIN_DIR/committed"; then
  line="$({ cmp "$PIN_DIR/fresh" "$PIN_DIR/committed" || true; } | sed -E 's/.*line ([0-9]+).*/\1/')"
  echo "FAIL: BENCH_sweep.json differs from a fresh run, first at:"
  sed -n "${line}p" "$PIN_DIR/committed" | cut -c1-200
  exit 1
fi
rm -rf "$PIN_DIR"

echo "==> asym_sweep extra_fault_sweep --quick --check (faulted smoke sweep: classified, clean, deterministic, race- and lint-clean under faults)"
cargo run -q --release -p asym-bench --bin asym_sweep -- extra_fault_sweep --quick --check > /dev/null

echo "==> asym_sweep extra_absorption --quick --check (differential stock-vs-aware smoke: paired, panic-free, kills accounted, race- and lint-clean)"
cargo run -q --release -p asym-bench --bin asym_sweep -- extra_absorption --quick --check > /dev/null

echo "==> asym_profile (observability smoke: one SPECjbb cell + Perfetto export)"
cargo run -q --release -p asym-bench --bin asym_profile -- \
  --workload SPECjbb --config 2f-2s/4 --policy stock --seed 42 \
  --perfetto=ASYM_profile_trace.json > ASYM_profile.txt
for needle in "util" "fast idle while slow runnable" "migrations" "scheduler latency" "run quantum"; do
  grep -q "$needle" ASYM_profile.txt || { echo "FAIL: asym_profile report lacks '$needle'"; exit 1; }
done

echo "==> asym_diff (differential smoke: Apache stock vs asym-aware, same seed, twice)"
cargo run -q --release -p asym-bench --bin asym_diff -- \
  --workload Apache --config 4f-4s/8 --seed 1 \
  --perfetto=ASYM_diff_trace.json > ASYM_diff.txt
cargo run -q --release -p asym-bench --bin asym_diff -- \
  --workload Apache --config 4f-4s/8 --seed 1 > ASYM_diff_rerun.txt
cmp ASYM_diff.txt ASYM_diff_rerun.txt || { echo "FAIL: asym_diff report not byte-identical across invocations"; exit 1; }
grep -q "residual +0ns" ASYM_diff.txt || { echo "FAIL: asym_diff attribution does not tile the wall delta"; exit 1; }
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json
with open("ASYM_diff_trace.json") as f:
    trace = json.load(f)
ev = trace["traceEvents"]
assert ev, "diff Perfetto export has no traceEvents"
assert {e["ph"] for e in ev} <= {"M", "X", "i", "C", "s", "f"}, "unexpected event phase"
pids = {e["pid"] for e in ev if e["ph"] == "M" and e["name"] == "process_name"}
assert len(pids) == 16, f"expected 16 core processes (two 8-core runs), got {len(pids)}"
counters = {(e["pid"], e["name"]) for e in ev if e["ph"] == "C"}
for pid in pids:
    assert (pid, "speed_pmy") in counters, f"pid {pid} lacks a speed counter track"
    assert (pid, "runnable") in counters, f"pid {pid} lacks a runnable counter track"
starts = sorted(e["id"] for e in ev if e["ph"] == "s")
finishes = sorted(e["id"] for e in ev if e["ph"] == "f")
assert starts, "diff export has no flow events"
assert starts == finishes, "flow starts and finishes do not pair up"
print(f"   ASYM_diff_trace.json OK: {len(ev)} events, {len(pids)} core tracks, "
      f"{len(starts)} flow pairs")
EOF
fi
rm -f ASYM_diff_rerun.txt

echo "==> asym_profile / asym_diff outputs match their pinned SHA-256 digests (the Perfetto timeline recorder is unchanged)"
# The four outputs are build artefacts (the diff export alone is 34 MB),
# so their digests are what the repository pins.
sha256sum --check --quiet scripts/profile_outputs.sha256 \
  || { echo "FAIL: asym_profile/asym_diff output differs from scripts/profile_outputs.sha256"; exit 1; }

echo "==> asym_sweep mini --json=/nonexistent-dir/x.json (an unwritable report path fails before any cell runs)"
# The figure text is printed only after the sweep, so empty stdout shows
# the run stopped before it.
if SWEEP_OUT="$(cargo run -q --release -p asym-bench --bin asym_sweep -- mini --json=/nonexistent-dir/x.json)"; then
  echo "FAIL: asym_sweep accepted an unwritable --json path"; exit 1
fi
test -z "$SWEEP_OUT" || { echo "FAIL: asym_sweep ran the sweep before rejecting its --json path"; exit 1; }

echo "==> asym_sweep mini extra_dynamic extra_tournament extra_scale extra_soak --quick --check --jobs 2 --json (driver smoke + dynamic regimes + policy tournament + policy zoo x regimes + chaos soak + per-cell concurrency check)"
# The report goes to a temporary file: the committed BENCH_sweep.json
# comes from a different spec selection and must stay untouched.
SWEEP_JSON="$(mktemp)"
cargo run -q --release -p asym-bench --bin asym_sweep -- mini extra_dynamic extra_tournament extra_scale extra_soak --quick --check --jobs 2 --json="$SWEEP_JSON" > /dev/null

# The structured report must exist, be well-formed, contain no panicked
# or deadlocked cells, and carry finite per-cell profile metrics; the
# Perfetto export from the profile smoke must parse as trace-event JSON.
test -s "$SWEEP_JSON" || { echo "FAIL: sweep report missing or empty"; exit 1; }
if command -v python3 > /dev/null; then
  python3 - "$SWEEP_JSON" <<'EOF'
import json, math, sys
with open("ASYM_profile_trace.json") as f:
    trace = json.load(f)
assert trace.get("traceEvents"), "Perfetto export has no traceEvents"
assert {e["ph"] for e in trace["traceEvents"]} <= {"M", "X", "i", "C", "s", "f"}, "unexpected event phase"
assert any(e["ph"] == "C" for e in trace["traceEvents"]), "no counter track events"
print(f"   ASYM_profile_trace.json OK: {len(trace['traceEvents'])} trace events")

with open(sys.argv[1]) as f:
    report = json.load(f)
for field in ("name", "jobs", "wall_ms", "cells_wall_ms", "speedup", "memoized_cells", "cells"):
    assert field in report, f"missing field {field!r}"
assert report["cells"], "no cells in report"
assert report["total_violations"] == 0, f"--check found {report['total_violations']} violation(s)"
scale = [c for c in report["cells"] if c["workload"] == "micro-burst"]
assert scale, "no extra_scale cells in the checked sweep"
bad = [c for c in report["cells"] if c["class"] in ("panicked", "deadlock")]
assert not bad, f"{len(bad)} panicked/deadlocked cell(s): {bad[:3]}"
with_metrics = 0
# Liveness ratchet: a numeric metric that reads 0 in every cell shows
# nothing. The soak's hotplug and dynamic-environment campaigns keep
# `offline_ns` and `reranks` live.
live = {}
for c in report["cells"]:
    assert "memoized" in c, "cell lacks 'memoized' flag"
    m = c.get("metrics")
    if m is None:
        continue
    with_metrics += 1
    for field in ("kernels", "sim_ns", "busy_ns", "idle_ns", "offline_ns",
                  "utilization_pct", "fast_idle_slow_runnable_ns", "migrations",
                  "migration_wait_ns", "preemptions", "sync_wait_ns",
                  "speed_changes", "reranks",
                  "tracking_lag_ns", "sched_latency", "run_quantum"):
        assert field in m, f"cell metrics lack {field!r}"
        v = m[field]
        if isinstance(v, (int, float)):
            assert math.isfinite(v), f"non-finite metrics field {field!r}: {v}"
    assert "contended_acquires" not in m, "cell metrics still carry 'contended_acquires'"
    for field, v in m.items():
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            live[field] = live.get(field, False) or v != 0
    for hist in ("sched_latency", "run_quantum"):
        for field in ("count", "mean_ns", "max_ns", "p50_ns", "p99_ns", "p999_ns"):
            assert field in m[hist], f"{hist} lacks percentile key {field!r}"
assert with_metrics, "no cell carries profile metrics despite --json"
dead = sorted(k for k, moved in live.items() if not moved)
assert not dead, f"metrics keys 0 in every cell (dead): {dead}"

# The dynamic-environment cells must be present and actually disturbed:
# their regimes drive mid-run speed changes the kernel re-ranks against.
dynamic = [c for c in report["cells"] if c["spec"].startswith("dynamic/")]
assert dynamic, "no dynamic-environment cells in the sweep report"
env_changes = sum((c.get("metrics") or {}).get("speed_changes", 0) for c in dynamic)
assert env_changes > 0, "dynamic regimes produced no speed changes"
diffed = [c for c in dynamic if c.get("diff")]
assert diffed, "no differential cell carries diff attribution"
for c in diffed:
    for field in ("wall_delta_ns", "busy_delta_ns", "idle_delta_ns", "offline_delta_ns",
                  "fast_idle_delta_ns", "migrations_delta", "migration_wait_delta_ns",
                  "sync_wait_delta_ns", "sched_wait_delta_ns", "sched_p99_delta_ns",
                  "tracking_lag_delta_ns"):
        assert field in c["diff"], f"differential cell diff lacks {field!r}"
print(f"   dynamic cells OK: {len(dynamic)} cells ({len(diffed)} with diff attribution), "
      f"{env_changes} environmental speed changes")

# The policy tournament must field every registered policy, with every
# cell completed and lint-clean (the per-cell --check already failed the
# sweep on any violation; re-assert it structurally here).
REGISTRY = ["stock", "asym-aware", "vrt-fair", "static-prio",
            "speed-slice", "steal-aware", "temp-aware"]
tourn = [c for c in report["cells"] if c["spec"].startswith("tourn/")]
assert tourn, "no tournament cells in the sweep report"
by_policy = {}
for c in tourn:
    by_policy.setdefault(c["policy"], []).append(c)
missing = [p for p in REGISTRY if p not in by_policy]
assert not missing, f"tournament missing registered policies: {missing}"
for p, cells in sorted(by_policy.items()):
    incomplete = [c["spec"] for c in cells if c["class"] != "completed"]
    assert not incomplete, f"policy {p!r} has incomplete cells: {incomplete[:3]}"
    dirty = [c["spec"] for c in cells if c.get("violations")]
    assert not dirty, f"policy {p!r} has analysis violations: {dirty[:3]}"
print(f"   tournament cells OK: {len(tourn)} cells across "
      f"{len(by_policy)} policies, all completed and violation-free")

soak = [c for c in report["cells"] if c["spec"].startswith("soak/")]
assert soak, "no soak cells in the sweep report"
incomplete = [c["spec"] for c in soak if c["class"] != "completed"]
assert not incomplete, f"soak cells did not complete: {incomplete[:3]}"
print(f"   soak cells OK: {len(soak)} cells, all completed")
print(f"   sweep report OK: {len(report['cells'])} cells "
      f"({with_metrics} with metrics, {report['memoized_cells']} memoized), "
      f"{report['wall_ms']:.0f} ms wall, {report['cells_wall_ms']:.0f} ms "
      f"serial-equivalent, {report['speedup']:.2f}x on {report['jobs']} host threads")
EOF
else
  # Fallback structural greps when python3 is unavailable.
  grep -q '"cells": \[' "$SWEEP_JSON" || { echo "FAIL: malformed sweep report"; exit 1; }
  grep -q '"total_violations": 0,' "$SWEEP_JSON" || { echo "FAIL: --check found violations"; exit 1; }
  grep -q '"class": "panicked"' "$SWEEP_JSON" && { echo "FAIL: panicked cell in sweep"; exit 1; }
  grep -q '"class": "deadlock"' "$SWEEP_JSON" && { echo "FAIL: deadlocked cell in sweep"; exit 1; }
  echo "   sweep report OK (grep checks)"
fi
rm -f "$SWEEP_JSON"

echo "==> asym_sweep extra_scale --quick cache double-run (warm restore: >=90% hits, bit-identical cells)"
CACHE_DIR="$(mktemp -d)"
cargo run -q --release -p asym-bench --bin asym_sweep -- \
  extra_scale --quick --cache "$CACHE_DIR" --json=CACHE_cold.json > /dev/null
cargo run -q --release -p asym-bench --bin asym_sweep -- \
  extra_scale --quick --cache "$CACHE_DIR" --json=CACHE_warm.json > /dev/null
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json
cold = json.load(open("CACHE_cold.json"))
warm = json.load(open("CACHE_warm.json"))
stats = warm["cache"]
assert stats is not None, "warm run reports no cache stats despite --cache"
probes = stats["hits"] + stats["misses"]
assert probes > 0, "warm run probed no cells"
rate = stats["hits"] / probes
assert rate >= 0.9, f"warm hit rate {rate:.2%} below 90%: {stats}"
assert stats["invalidations"] == 0, f"warm run invalidated entries: {stats}"

def stable(report):
    cells = []
    for c in report["cells"]:
        c = dict(c)
        c.pop("wall_ms", None)   # host timing is volatile
        c.pop("cached", None)    # provenance differs cold vs warm
        cells.append(c)
    return cells

a, b = stable(cold), stable(warm)
assert a == b, "warm-cache cells are not bit-identical to the cold run"
print(f"   cell cache OK: {len(a)} cells, {stats['hits']} hits "
      f"({rate:.0%}), warm restore bit-identical")
EOF
else
  grep -q '"misses":0' CACHE_warm.json || { echo "FAIL: warm cache run missed"; exit 1; }
  grep -q '"invalidations":0' CACHE_warm.json || { echo "FAIL: warm cache run invalidated"; exit 1; }
  echo "   cell cache OK (grep checks)"
fi
rm -rf "$CACHE_DIR" CACHE_cold.json CACHE_warm.json

echo "==> perfbench builds against the workspace (the benchmark's import surface)"
cargo build -q --release --manifest-path perfbench/Cargo.toml

echo "CI OK"
