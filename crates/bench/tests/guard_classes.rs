//! A run its guard cuts short is classified, never panicked: every paper
//! workload, run as a resilient cell with a sim-time budget far below
//! its runtime and no retries, must come back `TimeLimit`, so the retry
//! ladder's budget doubling (and a differential leg's escalation) sees
//! what actually happened.

use asym_bench::{registry, SweepContext};
use asym_core::{run_spec, AsymConfig, ResilientOptions, RunClass, SpecMode, Workload};
use asym_kernel::SchedPolicy;
use asym_sim::SimDuration;

/// The eight paper workloads, in the order the `fig10` spec sweeps them.
fn paper_workloads() -> Vec<Box<dyn Workload>> {
    let fig10 = registry()
        .into_iter()
        .find(|s| s.name == "fig10")
        .expect("fig10 is registered");
    (fig10.build)(&SweepContext { quick: false })
        .sections
        .into_iter()
        .map(|s| s.workload)
        .collect()
}

#[test]
fn budget_cut_runs_are_classed_time_limit() {
    let configs = [AsymConfig::new(1, 3, 8)];
    let misclassed: Vec<String> = paper_workloads()
        .iter()
        .filter_map(|w| {
            let options = ResilientOptions::new(1)
                .retries(0)
                .sim_time_budget(SimDuration::from_millis(1));
            let policy = SchedPolicy::os_default();
            let r = run_spec(
                w.as_ref(),
                &configs,
                SpecMode::Resilient { policy, options },
            );
            let classes: Vec<RunClass> = r.records().map(|rec| rec.class).collect();
            (classes != [RunClass::TimeLimit]).then(|| format!("{}: {classes:?}", w.name()))
        })
        .collect();
    assert!(
        misclassed.is_empty(),
        "not classed TimeLimit: {misclassed:?}"
    );
}
