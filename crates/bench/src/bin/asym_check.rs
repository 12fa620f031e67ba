//! `asym-check`: the concurrency checker driven over the full
//! experiment matrix.
//!
//! Default mode sweeps all nine machine configurations times all eight
//! paper workloads under the asymmetry-aware kernel policy, applying
//! every analysis in [`asym_analysis`] (lost-wakeup, fast-core-idle
//! invariant, offline-core liveness, forward progress, kill accounting,
//! determinism) to the captured kernel traces. Exits nonzero if any
//! violation is found.
//!
//! `--races` sweeps the same matrix through the happens-before engine
//! instead: FastTrack-style vector-clock race detection over the
//! workloads' `SharedRead`/`SharedWrite` annotations and the
//! scheduler-policy lints (stale speed ranking, re-rank hygiene,
//! fair-share starvation).
//!
//! `--fixtures` instead runs the seeded negative fixtures and verifies
//! each detector actually fires; here the exit code is nonzero if a
//! detector *fails* to fire.
//!
//! `--quick` restricts the sweep to a single asymmetric configuration
//! (1f-3s/8) — the CI smoke mode (`--races --quick` likewise).

use asym_analysis::fixtures::{
    downhill_steal, missed_signal, missing_rerank, offline_core_dispatch, readers_then_writer_race,
    rerank_thrash, stale_ranking_dispatch, stalled_run, swallowed_kill, unprotected_write_race,
    vruntime_starvation,
};
use asym_analysis::hb::{check_concurrency, happens_before};
use asym_analysis::{analyze_trace, check_workload, render_violations, KernelTrace, ViolationKind};
use asym_bench::paper_workloads;
use asym_core::{AsymConfig, RunSetup};
use asym_kernel::{capture_traces, SchedPolicy};
use std::process::ExitCode;

/// Runs one fixture's trace through the analyses and checks the
/// expected detector fired. Prints a PASS/FAIL line; returns success.
fn expect_fires(name: &str, trace: &KernelTrace, expected: ViolationKind) -> bool {
    let mut violations = analyze_trace(trace);
    violations.extend(check_concurrency(trace));
    let fired = violations.iter().any(|v| v.kind == expected);
    let status = if fired { "PASS" } else { "FAIL" };
    println!(
        "  [{status}] {name}: expected {expected}, analyses reported: {}",
        render_violations(&violations)
    );
    fired
}

fn run_fixtures() -> ExitCode {
    println!("asym-check --fixtures: seeded negative fixtures");
    let mut ok = true;
    ok &= expect_fires(
        "missed signal (block after the notify)",
        &missed_signal(),
        ViolationKind::LostWakeup,
    );
    ok &= expect_fires(
        "sleep-poll livelock (watchdog gives up)",
        &stalled_run(),
        ViolationKind::StalledRun,
    );
    ok &= expect_fires(
        "dispatch on hotplugged-off core (forged history)",
        &offline_core_dispatch(),
        ViolationKind::OfflineDispatch,
    );
    ok &= expect_fires(
        "kill without retirement (forged history)",
        &swallowed_kill(),
        ViolationKind::DroppedKill,
    );
    ok &= expect_fires(
        "unordered writes to one shared counter",
        &unprotected_write_race(),
        ViolationKind::DataRace,
    );
    ok &= expect_fires(
        "two unordered readers, then an unordered writer (cites the earlier read)",
        &readers_then_writer_race(),
        ViolationKind::DataRace,
    );
    ok &= expect_fires(
        "dispatch on stale speed ranking (forged re-rank)",
        &stale_ranking_dispatch(),
        ViolationKind::StaleRanking,
    );
    ok &= expect_fires(
        "ranking reorder without a Rerank record (forged history)",
        &missing_rerank(),
        ViolationKind::StaleRerank,
    );
    ok &= expect_fires(
        "ranking flapping ten times in a millisecond (forged history)",
        &rerank_thrash(),
        ViolationKind::RerankThrash,
    );
    ok &= expect_fires(
        "work stolen downhill off a faster busy core (forged history)",
        &downhill_steal(),
        ViolationKind::StaleRanking,
    );
    ok &= expect_fires(
        "vruntime thread starved past the bound (forged history)",
        &vruntime_starvation(),
        ViolationKind::Starvation,
    );
    if ok {
        println!("all detectors fire on their fixtures");
        ExitCode::SUCCESS
    } else {
        println!("FAILURE: at least one detector did not fire");
        ExitCode::FAILURE
    }
}

fn run_sweep(configs: &[AsymConfig]) -> ExitCode {
    let policy = SchedPolicy::asymmetry_aware();
    let workloads = paper_workloads();
    println!(
        "asym-check: {} configurations x {} workloads under {policy}",
        configs.len(),
        workloads.len()
    );
    let mut dirty = 0usize;
    let (mut kernels, mut events) = (0usize, 0usize);
    for w in &workloads {
        for config in configs {
            let setup = RunSetup::new(*config, policy, 0);
            let report = check_workload(w.as_ref(), &setup);
            kernels += report.kernels;
            events += report.events;
            if report.is_clean() {
                println!(
                    "  [ok] {} ({} kernels, {} events)",
                    report.label, report.kernels, report.events
                );
            } else {
                dirty += 1;
                println!(
                    "  [VIOLATION] {}: {}",
                    report.label,
                    render_violations(&report.violations)
                );
            }
        }
    }
    println!("analyzed {kernels} kernels / {events} trace events");
    if dirty == 0 {
        println!("all runs clean: no lost wakeups, fast-core idling,");
        println!("offline-core dispatch, stalls, dropped kills, or trace");
        println!("divergence across the matrix");
        ExitCode::SUCCESS
    } else {
        println!("FAILURE: {dirty} run(s) reported violations");
        ExitCode::FAILURE
    }
}

/// Sweeps `configs` x all paper workloads through the happens-before
/// engine: vector-clock data-race detection and the scheduler-policy
/// lints. Exits nonzero on any finding.
fn run_races(configs: &[AsymConfig]) -> ExitCode {
    let policy = SchedPolicy::asymmetry_aware();
    let workloads = paper_workloads();
    println!(
        "asym-check --races: {} configurations x {} workloads under {policy}",
        configs.len(),
        workloads.len()
    );
    let mut dirty = 0usize;
    let (mut kernels, mut events, mut edges) = (0usize, 0usize, 0usize);
    for w in &workloads {
        for config in configs {
            let setup = RunSetup::new(*config, policy, 0);
            let (_, traces) = capture_traces(|| w.run(&setup));
            let label = format!("{} @ {config}", w.name());
            let mut violations = Vec::new();
            let mut cell_edges = 0usize;
            for trace in &traces {
                cell_edges += happens_before(trace).edges.len();
                violations.extend(check_concurrency(trace));
            }
            kernels += traces.len();
            events += traces.iter().map(|t| t.num_records()).sum::<usize>();
            edges += cell_edges;
            if violations.is_empty() {
                println!(
                    "  [ok] {label} ({} kernels, {} hb edges)",
                    traces.len(),
                    cell_edges
                );
            } else {
                dirty += 1;
                println!("  [VIOLATION] {label}: {}", render_violations(&violations));
            }
        }
    }
    println!("analyzed {kernels} kernels / {events} trace events / {edges} happens-before edges");
    if dirty == 0 {
        println!("all runs race-free: every shared access is ordered by the");
        println!("happens-before relation, and the scheduler-policy lints");
        println!("(speed ranking, re-rank hygiene, starvation) are clean");
        ExitCode::SUCCESS
    } else {
        println!("FAILURE: {dirty} run(s) reported violations");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let configs = if quick {
        vec![AsymConfig::new(1, 3, 8)]
    } else {
        AsymConfig::standard_nine().to_vec()
    };
    let unknown = args
        .iter()
        .find(|a| !matches!(a.as_str(), "--fixtures" | "--races" | "--quick"));
    if let Some(other) = unknown {
        eprintln!("usage: asym-check [--fixtures | --races] [--quick]");
        eprintln!("unknown argument: {other}");
        return ExitCode::FAILURE;
    }
    if args.iter().any(|a| a == "--fixtures") {
        run_fixtures()
    } else if args.iter().any(|a| a == "--races") {
        run_races(&configs)
    } else {
        run_sweep(&configs)
    }
}
