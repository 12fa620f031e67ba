//! Regressions for the dynamic-environment sweep axes and the driver's
//! failure-signaling exit codes.
//!
//! * A differential plan whose disturbed legs carry continuous
//!   environment plans must produce bit-identical outcomes, trace
//!   hashes, and per-cell profile metrics whatever the host thread
//!   count (`--jobs 1` vs `--jobs 4`).
//! * The `asym_sweep` binary must exit non-zero when given bad input or
//!   when a run-level step fails, and zero on its clean checker smoke
//!   path — CI relies on those codes.

use asym_bench::concurrency_check;
use asym_core::{AsymConfig, CellRunner, ExperimentPlan, ResilientOptions, SpecMode};
use asym_sim::{EnvironmentPlan, EnvironmentProfile, SimDuration};
use asym_workloads::h264::H264;
use asym_workloads::pmake::Pmake;
use std::process::Command;

/// A small dynamic differential plan: two fast workloads under each of
/// the three dynamic regimes, disturbed legs only.
fn dynamic_plan<'a>(h264: &'a H264, pmake: &'a Pmake) -> ExperimentPlan<'a> {
    let horizon = SimDuration::from_secs(2);
    let regimes = [
        ("dvfs", EnvironmentProfile::dvfs(horizon)),
        ("thermal", EnvironmentProfile::thermal(horizon)),
        ("co-tenant", EnvironmentProfile::co_tenant(horizon)),
    ];
    let configs = [AsymConfig::new(1, 3, 8)];
    let mut plan = ExperimentPlan::new("dynamic-regression");
    for (name, profile) in regimes {
        let opts = ResilientOptions::new(1)
            .watchdog(SimDuration::from_secs(5))
            .sim_time_budget(SimDuration::from_secs(120))
            .retries(1)
            .environment_planner(move |setup| {
                EnvironmentPlan::generate(setup.seed, setup.config.num_cores() as usize, &profile)
            });
        plan.push(
            format!("dyn/{name}/h264"),
            h264,
            &configs,
            SpecMode::Differential {
                options: opts.clone(),
            },
        );
        plan.push(
            format!("dyn/{name}/pmake"),
            pmake,
            &configs,
            SpecMode::Differential { options: opts },
        );
    }
    plan
}

#[test]
fn dynamic_environment_cells_are_identical_across_jobs() {
    let (h264, pmake) = (H264::new(), Pmake::new());
    let serial = CellRunner::new(1)
        .with_metrics(true)
        .run(dynamic_plan(&h264, &pmake));
    let pooled = CellRunner::new(4)
        .with_metrics(true)
        .run(dynamic_plan(&h264, &pmake));
    assert_eq!(serial.report.cells.len(), pooled.report.cells.len());
    for (a, b) in serial.report.cells.iter().zip(pooled.report.cells.iter()) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.trace_hash, b.trace_hash, "{}: trace diverged", a.spec);
        assert_eq!(a.class, b.class);
        assert_eq!(a.metrics, b.metrics, "{}: metrics diverged", a.spec);
    }
    assert_eq!(serial.results.len(), pooled.results.len());
    assert_eq!(serial.results, pooled.results);
    // The environments actually reached the kernels: the disturbed legs
    // recorded speed changes and the aware legs re-ranked somewhere.
    let total: u64 = serial
        .report
        .cells
        .iter()
        .filter_map(|c| c.metrics.as_ref())
        .map(|m| m.speed_changes)
        .sum();
    assert!(total > 0, "no environmental speed changes in any cell");
}

#[test]
fn forged_trace_fails_the_engine_trace_check() {
    // The same check `asym_sweep --check` installs: a forged trace with
    // a ranking reorder and no Rerank record must produce findings —
    // the driver turns any finding into a non-zero exit.
    let trace = asym_analysis::fixtures::missing_rerank();
    let mut fold = concurrency_check()(&trace.machine, trace.policy, 0);
    trace.replay(&mut *fold);
    let findings = fold.findings();
    assert!(
        findings.iter().any(|f| f.contains("stale-rerank")),
        "expected a stale-rerank finding, got {findings:?}"
    );
}

#[test]
fn sweep_binary_exits_nonzero_on_bad_input() {
    let out = Command::new(env!("CARGO_BIN_EXE_asym_sweep"))
        .arg("no-such-spec")
        .output()
        .expect("spawn asym_sweep");
    assert!(!out.status.success(), "unknown spec must fail the sweep");

    let out = Command::new(env!("CARGO_BIN_EXE_asym_sweep"))
        .arg("--jobs=zero")
        .output()
        .expect("spawn asym_sweep");
    assert!(!out.status.success(), "bad --jobs must fail the sweep");
}

#[test]
fn sweep_binary_exits_nonzero_when_report_write_fails() {
    // A full mini run that only fails at the end: the JSON report path
    // is unwritable, and that failure must surface in the exit code.
    let out = Command::new(env!("CARGO_BIN_EXE_asym_sweep"))
        .args([
            "mini",
            "--quick",
            "--cache=off",
            "--json=/dev/null/nope/report.json",
        ])
        .output()
        .expect("spawn asym_sweep");
    assert!(
        !out.status.success(),
        "failed report write must fail the sweep"
    );
}

#[test]
fn check_binary_exit_codes() {
    let out = Command::new(env!("CARGO_BIN_EXE_asym_sweep"))
        .args(["extra_check_matrix", "--bogus"])
        .output()
        .expect("spawn asym_sweep");
    assert!(!out.status.success(), "unknown flag must fail the checker");

    // The concurrency checker's CI entry point: the eight paper
    // workloads on 1f-3s/8, the five trace analyses as a section check
    // and the happens-before suite from `--check`, all clean.
    let out = Command::new(env!("CARGO_BIN_EXE_asym_sweep"))
        .args(["extra_check_matrix", "--quick", "--check", "--cache=off"])
        .output()
        .expect("spawn asym_sweep");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "extra_check_matrix --quick --check failed:\n{stdout}{stderr}"
    );
    assert!(
        stdout.contains("over 8 cell(s): 0 violation(s)\n"),
        "section check:\n{stdout}"
    );
    assert_eq!(
        stdout.matches(" 1/1\n").count(),
        8,
        "completed cells:\n{stdout}"
    );
    assert!(
        stderr.contains("--check: all 8 cell(s) race- and lint-clean"),
        "runner check:\n{stderr}"
    );
}
