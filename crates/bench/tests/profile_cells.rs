//! `asym_sweep --profile` re-runs a sweep cell through the engine's own
//! execution path with timeline profiles. These tests hold it to its
//! references:
//!
//! * a clean cell's report and Perfetto export equal a direct timeline
//!   capture of the same [`RunSetup`];
//! * a retried resilient cell is profiled on its final attempt, the one
//!   the sweep reported;
//! * a differential cell's four legs reproduce the sweep's per-cell diff
//!   attribution and trace hash.

use asym_core::{AsymConfig, CellRunner, ExperimentPlan, ResilientOptions, RunClass, SpecMode};
use asym_core::{RunSetup, Workload};
use asym_kernel::{capture_stream, SchedPolicy, TraceHashFold};
use asym_obs::{perfetto_trace, DiffAttribution, ProfileFold, ProfileMetrics, RunProfile};
use asym_sim::{FaultPlan, FaultProfile, SimDuration};
use asym_workloads::h264::H264;
use asym_workloads::specjbb::{GcKind, SpecJbb};
use std::process::Command;

/// The first attempt's sim-time budget in the retried cell: about a
/// third of H.264's run on 2f-2s/4, so the ladder doubles it twice.
const BUDGET: SimDuration = SimDuration::from_millis(400);

/// One section of `workload` on 2f-2s/4, one run, in `mode`.
fn one_cell_plan<'w>(workload: &'w dyn Workload, mode: SpecMode) -> ExperimentPlan<'w> {
    let mut plan = ExperimentPlan::new("profile-test");
    plan.push(
        "profile-test/cell",
        workload,
        &[AsymConfig::new(2, 2, 4)],
        mode,
    );
    plan
}

#[test]
fn clean_cell_profile_matches_a_direct_capture() {
    // The cell `table1/jbb-stock:2f-2s/4:0` is configuration 3 of the
    // nine, slot 0: seed 3000.
    let workload = SpecJbb::new(16).gc(GcKind::ConcurrentGenerational);
    let setup = RunSetup::new(AsymConfig::new(2, 2, 4), SchedPolicy::os_default(), 3000);
    let (result, folds) = capture_stream(ProfileFold::with_timeline, || workload.run(&setup));
    let profiles: Vec<RunProfile> = folds.into_iter().map(ProfileFold::finish).collect();
    let mut expected = format!(
        "primary metric: {:.1} {} over {} kernel(s)\n\n",
        result.value,
        workload.unit(),
        profiles.len()
    );
    for (k, p) in profiles.iter().enumerate() {
        if profiles.len() > 1 {
            expected += &format!("--- kernel {k} ---\n");
        }
        expected += &p.to_string();
    }

    let trace = std::env::temp_dir().join(format!("profile-cells-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_asym_sweep"))
        .arg("table1")
        .arg("--profile=table1/jbb-stock:2f-2s/4:0")
        .arg(format!("--perfetto={}", trace.display()))
        .output()
        .expect("asym_sweep runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let (header, report) = stdout.split_once('\n').expect("a header line");
    assert_eq!(
        header,
        "asym_sweep --profile=table1/jbb-stock:2f-2s/4:0: SPECjbb on 2f-2s/4 under stock, seed 3000"
    );
    assert_eq!(report, expected);
    let json = std::fs::read_to_string(&trace).expect("Perfetto export written");
    std::fs::remove_file(&trace).expect("cleanup");
    assert!(json == perfetto_trace(&profiles), "Perfetto export differs");
}

#[test]
fn retried_cell_is_profiled_on_its_final_attempt() {
    let workload = H264::new();
    let mode = || SpecMode::Resilient {
        policy: SchedPolicy::os_default(),
        options: ResilientOptions::new(1).retries(3).sim_time_budget(BUDGET),
    };
    let report = CellRunner::new(1)
        .run(one_cell_plan(&workload, mode()))
        .report;
    let cell = &report.cells[0];
    assert!(cell.attempts >= 2, "the budget must cut the first attempt");
    assert_eq!(cell.class, RunClass::Completed);

    let runs = one_cell_plan(&workload, mode()).profile_cell(0);
    let [run] = &runs[..] else {
        panic!("a resilient cell profiles one run, got {}", runs.len())
    };
    assert_eq!(run.leg, None);
    assert_eq!(
        (run.record.attempts, run.record.class, run.record.value),
        (cell.attempts, cell.class, cell.value)
    );
    assert_eq!(run.trace_hash, cell.trace_hash, "not the reported attempt");
    let longest = run.profiles.iter().map(|p| p.duration).max();
    assert!(
        longest > Some(BUDGET),
        "the first attempt's budget cut the profiled run"
    );
}

#[test]
fn differential_legs_reproduce_the_cell_diff() {
    let workload = H264::new();
    let options = ResilientOptions::new(1)
        .watchdog(SimDuration::from_secs(5))
        .sim_time_budget(SimDuration::from_secs(120))
        .retries(1)
        .fault_planner(|setup| {
            let profile = FaultProfile::with_kills(SimDuration::from_secs(2), 2);
            FaultPlan::generate(setup.seed, setup.config.num_cores() as usize, &profile)
        });
    let mode = || SpecMode::Differential {
        options: options.clone(),
    };
    let report = CellRunner::new(1)
        .run(one_cell_plan(&workload, mode()))
        .report;
    let cell = &report.cells[0];
    let reported = cell.diff.expect("both faulted legs produced metrics");

    let runs = one_cell_plan(&workload, mode()).profile_cell(0);
    let legs: Vec<_> = runs.iter().map(|r| r.leg).collect();
    let names = [
        "stock-clean",
        "stock-faulted",
        "aware-clean",
        "aware-faulted",
    ];
    assert_eq!(legs, names.map(Some));
    let merged = |leg: usize| {
        let mut m = ProfileMetrics::new();
        for p in &runs[leg].profiles {
            m.merge(&p.metrics());
        }
        m
    };
    assert_eq!(
        DiffAttribution::from_metrics(&merged(1), &merged(3)),
        reported
    );
    let mut hash = TraceHashFold::new();
    for run in &runs {
        hash.push(run.trace_hash.expect("no leg panicked"));
    }
    assert_eq!(Some(hash.finish()), cell.trace_hash);
}
