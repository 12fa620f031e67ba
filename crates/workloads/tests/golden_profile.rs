//! Golden run-profile regression test: the full rendered [`RunProfile`]
//! of one seeded SPECjbb cell — per-core utilization, fast-idle time,
//! migration counts, per-thread residency, sync waits, and both
//! scheduler histograms — must match `tests/golden_profile.txt` byte
//! for byte. Where `golden_hashes` pins the raw event streams, this
//! pins the derived observability layer on top of them: a change in
//! either the kernel's behaviour or the profile accounting shows up as
//! a readable diff of the report itself.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p asym-workloads --test golden_profile
//! ```

use asym_core::{
    AsymConfig, CellRunner, ExperimentOptions, ExperimentPlan, RunSetup, SpecMode, Workload,
};
use asym_kernel::{capture_stream, SchedPolicy};
use asym_obs::{ProfileFold, ProfileMetrics, RunProfile};
use asym_workloads::specjbb::{GcKind, SpecJbb};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 42;

/// The pinned cell: the acceptance scenario from the observability
/// issue — SPECjbb with the concurrent collector on the half-speed
/// four-processor configuration under the stock policy.
fn pinned_cell() -> (SpecJbb, AsymConfig, SchedPolicy) {
    (
        SpecJbb::new(16).gc(GcKind::ConcurrentGenerational),
        AsymConfig::new(2, 2, 4),
        SchedPolicy::os_default(),
    )
}

fn rendered_profile() -> String {
    let (w, config, policy) = pinned_cell();
    let setup = RunSetup::new(config, policy, SEED);
    let (_, folds) = capture_stream(ProfileFold::with_timeline, || w.run(&setup));
    let profiles: Vec<RunProfile> = folds.into_iter().map(ProfileFold::finish).collect();
    assert!(!profiles.is_empty(), "run produced no kernel traces");
    let mut out = String::from(
        "# Golden rendered RunProfile: SPECjbb (concurrent GC) on 2f-2s/4,\n\
         # stock policy, seed 42. Regenerate with\n\
         # UPDATE_GOLDEN=1 cargo test -p asym-workloads --test golden_profile\n",
    );
    for p in &profiles {
        write!(out, "{p}").unwrap();
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_profile.txt")
}

#[test]
fn rendered_profile_matches_golden() {
    let current = rendered_profile();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &current).expect("write golden file");
        eprintln!("golden profile regenerated at {}", path.display());
        return;
    }
    let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        recorded, current,
        "rendered profile diverged from tests/golden_profile.txt; \
         if the change is intentional, re-bless with UPDATE_GOLDEN=1."
    );
}

/// Runs the pinned cell through the sweep engine with metrics enabled
/// at `jobs` host threads and returns the attached [`ProfileMetrics`].
fn engine_metrics(jobs: usize) -> Vec<Option<ProfileMetrics>> {
    let (w, config, policy) = pinned_cell();
    let mut plan = ExperimentPlan::new("golden-profile");
    plan.push(
        w.name(),
        &w,
        &[config],
        SpecMode::Clean {
            policy,
            options: ExperimentOptions::new(2).base_seed(SEED),
        },
    );
    let outcome = CellRunner::new(jobs).with_metrics(true).run(plan);
    outcome
        .report
        .cells
        .iter()
        .map(|c| c.metrics.as_deref().cloned())
        .collect()
}

/// The per-cell metrics the sweep JSON embeds must be present and
/// byte-identical whether the engine ran serially or on four host
/// threads — the profile layer inherits the engine's determinism
/// contract.
#[test]
fn engine_metrics_identical_across_jobs() {
    let serial = engine_metrics(1);
    let parallel = engine_metrics(4);
    assert!(
        serial.iter().all(|m| m.is_some()),
        "every clean cell must attach metrics when requested"
    );
    assert_eq!(
        serial, parallel,
        "per-cell profile metrics changed with host thread count"
    );
    for m in serial.into_iter().flatten() {
        assert!(serial_json_is_finite(&m));
    }
}

/// All numeric fields in the JSON encoding are plain integers or
/// fixed-decimal renderings — nothing NaN/inf can appear.
fn serial_json_is_finite(m: &ProfileMetrics) -> bool {
    let json = m.to_json();
    !json.contains("NaN") && !json.contains("inf") && !json.is_empty()
}
