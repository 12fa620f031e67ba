//! Golden trace-hash regression test: every workload's kernel event
//! stream, on a small fault-free matrix of configurations and policies,
//! must hash exactly as recorded in `tests/golden_hashes.txt`. Any
//! scheduler, sync-primitive, or workload change that shifts even one
//! trace event shows up here as a per-cell diff instead of silently
//! altering published results. The same matrix pins the streamed
//! metrics profile fold to the buffered timeline replay.
//!
//! To re-bless after an intentional behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p asym-workloads --test golden_hashes
//! ```

use asym_core::{
    AsymConfig, CellRunner, ExperimentOptions, ExperimentPlan, RunSetup, SpecMode, Workload,
};
use asym_kernel::{capture_traces, fold_trace_hashes, SchedPolicy};
use asym_obs::{ProfileFold, RunProfile};
use asym_workloads::h264::H264;
use asym_workloads::japps::JAppServer;
use asym_workloads::pmake::Pmake;
use asym_workloads::specjbb::{GcKind, SpecJbb};
use asym_workloads::specomp::SpecOmp;
use asym_workloads::tpch::TpcH;
use asym_workloads::webserver::{Apache, LoadLevel, Zeus};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 42;

fn workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(JAppServer::new(320.0)),
        Box::new(SpecJbb::new(16).gc(GcKind::ConcurrentGenerational)),
        Box::new(Apache::new(LoadLevel::light())),
        Box::new(Zeus::new(LoadLevel::light())),
        Box::new(TpcH::power_run()),
        Box::new(H264::new()),
        Box::new(SpecOmp::new("swim").work_scale(0.5)),
        Box::new(Pmake::new()),
    ]
}

fn matrix() -> Vec<(AsymConfig, SchedPolicy, &'static str)> {
    vec![
        (AsymConfig::new(1, 3, 8), SchedPolicy::os_default(), "stock"),
        (
            AsymConfig::new(1, 3, 8),
            SchedPolicy::asymmetry_aware(),
            "aware",
        ),
        (AsymConfig::new(4, 0, 8), SchedPolicy::os_default(), "stock"),
        (
            AsymConfig::new(4, 0, 8),
            SchedPolicy::asymmetry_aware(),
            "aware",
        ),
        // One representative config per tournament policy, keyed by its
        // registry name, so every policy in the zoo is pinned by at
        // least one golden cell.
        (
            AsymConfig::new(1, 3, 8),
            SchedPolicy::vruntime_fair(),
            "vrt-fair",
        ),
        (
            AsymConfig::new(2, 2, 8),
            SchedPolicy::static_priority(),
            "static-prio",
        ),
        (
            AsymConfig::new(1, 3, 8),
            SchedPolicy::speed_slice(),
            "speed-slice",
        ),
        (
            AsymConfig::new(2, 2, 8),
            SchedPolicy::work_stealing(),
            "steal-aware",
        ),
        (
            AsymConfig::new(1, 3, 8),
            SchedPolicy::temperature_aware(),
            "temp-aware",
        ),
    ]
}

/// Folds the per-kernel stable hashes of one run into a single cell
/// hash — the same [`fold_trace_hashes`] the sweep engine's JSON sink
/// records, so golden hashes and `BENCH_sweep.json` trace hashes are
/// directly comparable.
fn cell_hash(w: &dyn Workload, setup: &RunSetup) -> u64 {
    let (_, traces) = capture_traces(|| w.run(setup));
    assert!(!traces.is_empty(), "{}: run created no kernels", w.name());
    fold_trace_hashes(&traces)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_hashes.txt")
}

fn render(cells: &[(String, u64)]) -> String {
    let mut out = String::from(
        "# Golden kernel-trace hashes (seed 42). Regenerate with\n\
         # UPDATE_GOLDEN=1 cargo test -p asym-workloads --test golden_hashes\n",
    );
    for (key, hash) in cells {
        writeln!(out, "{key} {hash:#018x}").unwrap();
    }
    out
}

#[test]
fn kernel_traces_match_golden_hashes() {
    let mut cells: Vec<(String, u64)> = Vec::new();
    for w in workloads() {
        for (config, policy, policy_name) in matrix() {
            let setup = RunSetup::new(config, policy, SEED);
            let key = format!("{}|{}|{}", w.name(), config, policy_name);
            cells.push((key, cell_hash(w.as_ref(), &setup)));
        }
    }

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, render(&cells)).expect("write golden file");
        eprintln!("golden hashes regenerated at {}", path.display());
        return;
    }

    let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let golden: Vec<(String, u64)> = recorded
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, hash) = l.rsplit_once(' ').expect("golden line: <key> <hash>");
            let hash = u64::from_str_radix(hash.trim_start_matches("0x"), 16)
                .unwrap_or_else(|e| panic!("bad hash in golden line {l:?}: {e}"));
            (key.to_string(), hash)
        })
        .collect();

    // Per-cell diff: name every mismatched, missing, and stale cell
    // rather than failing on the first one.
    let mut diff = String::new();
    for (key, hash) in &cells {
        match golden.iter().find(|(k, _)| k == key) {
            None => writeln!(diff, "  NEW cell not in golden file: {key}").unwrap(),
            Some((_, want)) if want != hash => writeln!(
                diff,
                "  MISMATCH {key}: golden {want:#018x}, current {hash:#018x}"
            )
            .unwrap(),
            Some(_) => {}
        }
    }
    for (key, _) in &golden {
        if !cells.iter().any(|(k, _)| k == key) {
            writeln!(diff, "  STALE golden cell no longer produced: {key}").unwrap();
        }
    }
    assert!(
        diff.is_empty(),
        "kernel traces diverged from golden hashes:\n{diff}\
         If the change is intentional, re-bless with UPDATE_GOLDEN=1."
    );
}

/// Asserts `a` and `b` agree in every public field: everywhere but the
/// Perfetto timeline, which only [`RunProfile::from_trace`] records.
fn assert_same_outside_timeline(key: &str, a: &RunProfile, b: &RunProfile) {
    macro_rules! same {
        ($($field:ident),+) => {$(
            assert_eq!(a.$field, b.$field, "{key}: `{}` differs", stringify!($field));
        )+};
    }
    same!(
        policy,
        outcome,
        duration,
        cores,
        threads,
        waits,
        fast_idle_slow_runnable,
        speed_changes,
        reranks,
        tracking_lag,
        sched_latency,
        run_quantum,
        preempt_quantum,
        preempt_step,
        preempt_yield,
        preempt_interrupt,
        steals
    );
}

/// The metrics fold the sweep engine streams ([`ProfileFold::new`])
/// must agree with the timeline replay ([`RunProfile::from_trace`]) on
/// every kernel of the golden matrix: equal metrics, equal profiles
/// outside the timeline, and per-core busy + idle + offline tiling the
/// run exactly.
#[test]
fn metrics_fold_matches_timeline_replay() {
    for w in workloads() {
        for (config, policy, policy_name) in matrix() {
            let setup = RunSetup::new(config, policy, SEED);
            let (_, traces) = capture_traces(|| w.run(&setup));
            for (k, trace) in traces.iter().enumerate() {
                let key = format!("{}|{}|{} kernel {k}", w.name(), config, policy_name);
                let replayed = RunProfile::from_trace(trace);
                let mut fold = ProfileFold::new(&trace.machine, trace.policy);
                trace.replay(&mut fold);
                let folded = fold.finish();
                assert_eq!(folded.metrics(), replayed.metrics(), "{key}: metrics");
                assert_same_outside_timeline(&key, &folded, &replayed);
                for c in &folded.cores {
                    assert_eq!(
                        c.busy + c.idle + c.offline,
                        folded.duration,
                        "{key}: core {} accounting does not tile the run",
                        c.core
                    );
                }
            }
        }
    }
}

/// Runs a 2-workload × 9-configuration mini-sweep through the cell
/// engine at `jobs` host threads and returns the rendered experiment
/// tables plus the per-cell trace hashes from the engine's report.
fn mini_sweep(jobs: usize) -> (String, Vec<Option<u64>>) {
    let h264 = H264::new();
    let pmake = Pmake::new();
    let nine = AsymConfig::standard_nine();
    let mut plan = ExperimentPlan::new("golden-mini");
    for w in [&h264 as &dyn Workload, &pmake as &dyn Workload] {
        plan.push(
            w.name(),
            w,
            &nine,
            SpecMode::Clean {
                policy: SchedPolicy::os_default(),
                options: ExperimentOptions::new(2),
            },
        );
    }
    let outcome = CellRunner::new(jobs).run(plan);
    let mut rendered = String::new();
    for r in &outcome.results {
        writeln!(rendered, "{}", r.clean()).unwrap();
    }
    let hashes = outcome.report.cells.iter().map(|c| c.trace_hash).collect();
    (rendered, hashes)
}

/// Runs H264 under every registered policy on one asymmetric config
/// through the cell engine at `jobs` host threads — the policy-zoo
/// analogue of [`mini_sweep`].
fn zoo_sweep(jobs: usize) -> (String, Vec<Option<u64>>) {
    let h264 = H264::new();
    let config = [AsymConfig::new(1, 3, 8)];
    let mut plan = ExperimentPlan::new("golden-zoo");
    for (name, policy) in SchedPolicy::registry() {
        plan.push(
            name,
            &h264,
            &config,
            SpecMode::Clean {
                policy,
                options: ExperimentOptions::new(2),
            },
        );
    }
    let outcome = CellRunner::new(jobs).run(plan);
    let mut rendered = String::new();
    for r in &outcome.results {
        writeln!(rendered, "{}", r.clean()).unwrap();
    }
    let hashes = outcome.report.cells.iter().map(|c| c.trace_hash).collect();
    (rendered, hashes)
}

/// Every registered policy must be jobs-independent through the cell
/// engine: identical per-cell trace hashes and rendered tables at
/// `--jobs 1` and `--jobs 4`.
#[test]
fn policy_zoo_sweep_is_identical_across_jobs() {
    let (serial_text, serial_hashes) = zoo_sweep(1);
    let (parallel_text, parallel_hashes) = zoo_sweep(4);
    // Two runs per policy (`ExperimentOptions::new(2)`) → two cells each.
    assert_eq!(
        serial_hashes.len(),
        2 * SchedPolicy::registry().len(),
        "two cells per registered policy"
    );
    assert!(
        serial_hashes.iter().all(|h| h.is_some()),
        "every clean cell must record a trace hash"
    );
    assert_eq!(
        serial_hashes, parallel_hashes,
        "per-cell trace hashes changed with host thread count"
    );
    assert_eq!(
        serial_text, parallel_text,
        "rendered output changed with host thread count"
    );
}

/// Host parallelism must be invisible in the results: the same plan at
/// `--jobs 1` and `--jobs 4` must render byte-identical tables and
/// record identical per-cell trace hashes.
#[test]
fn mini_sweep_is_identical_across_jobs() {
    let (serial_text, serial_hashes) = mini_sweep(1);
    let (parallel_text, parallel_hashes) = mini_sweep(4);
    assert!(
        serial_hashes.iter().all(|h| h.is_some()),
        "every clean cell must record a trace hash"
    );
    assert_eq!(
        serial_hashes, parallel_hashes,
        "per-cell trace hashes changed with host thread count"
    );
    assert_eq!(
        serial_text, parallel_text,
        "rendered output changed with host thread count"
    );
}
