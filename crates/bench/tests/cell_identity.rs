//! One definition of "the same cell": the engine reuses a cell within a
//! plan exactly when its content address (the on-disk cache key)
//! matches an earlier cell's. These tests pin how many cells the
//! registered plans share, without running any of them.

use asym_bench::{registry, SweepContext};
use asym_core::ExperimentPlan;

/// Builds the full-mode plan of the named registry specs, merged as
/// `asym_sweep` merges them, and counts the cells `memo_targets` would
/// reuse.
fn duplicates(names: &[&str]) -> usize {
    let specs = registry();
    let ctx = SweepContext { quick: false };
    let defs: Vec<_> = names
        .iter()
        .map(|name| {
            let spec = specs
                .iter()
                .find(|s| s.name == *name)
                .unwrap_or_else(|| panic!("no spec named {name}"));
            (spec.build)(&ctx)
        })
        .collect();
    let mut plan = ExperimentPlan::new(names.join("+"));
    for s in defs.iter().flat_map(|d| &d.sections) {
        plan.push(
            s.label.as_str(),
            s.workload.as_ref(),
            &s.configs,
            s.mode.clone(),
        );
    }
    plan.memo_targets().iter().filter(|t| t.is_some()).count()
}

#[test]
fn figure_plans_share_659_cells() {
    let figures = [
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "table1",
        "extra_asym_degree",
        "extra_duty_sweep",
        "extra_tpch_bimodal",
    ];
    assert_eq!(duplicates(&figures), 659);
}

#[test]
fn scale_plan_shares_no_cells() {
    assert_eq!(duplicates(&["extra_scale"]), 0);
}
