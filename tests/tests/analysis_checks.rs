//! Regression tests for the `asym-analysis` concurrency checker:
//! every planted bug is caught, and every real workload is clean.

use asym_analysis::fixtures::missed_signal;
use asym_analysis::{analyze_trace, check_workload, render_violations, ViolationKind};
use asym_core::{AsymConfig, RunSetup, Workload};
use asym_kernel::SchedPolicy;
use asym_workloads::h264::H264;
use asym_workloads::japps::JAppServer;
use asym_workloads::pmake::Pmake;
use asym_workloads::specjbb::{GcKind, SpecJbb};
use asym_workloads::specomp::SpecOmp;
use asym_workloads::tpch::TpcH;
use asym_workloads::webserver::{Apache, LoadLevel, Zeus};

#[test]
fn missed_signal_fixture_trips_lost_wakeup() {
    let violations = analyze_trace(&missed_signal());
    assert!(
        violations
            .iter()
            .any(|v| v.kind == ViolationKind::LostWakeup),
        "lost-wakeup detector missed the missed-signal bug: {}",
        render_violations(&violations)
    );
}

#[test]
fn all_workloads_clean_on_asymmetric_config() {
    // Every paper workload on the most lopsided eight-core machine,
    // under the asymmetry-aware kernel: all six analyses must come
    // back clean (including the fast-core-idle invariant and the
    // same-seed trace-hash equality check).
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(JAppServer::new(320.0)),
        Box::new(SpecJbb::new(16).gc(GcKind::ConcurrentGenerational)),
        Box::new(Apache::new(LoadLevel::light())),
        Box::new(Zeus::new(LoadLevel::light())),
        Box::new(TpcH::power_run()),
        Box::new(H264::new()),
        Box::new(SpecOmp::new("swim").work_scale(0.5)),
        Box::new(Pmake::new()),
    ];
    let setup = RunSetup::new(AsymConfig::new(1, 3, 8), SchedPolicy::asymmetry_aware(), 0);
    for w in &workloads {
        let report = check_workload(w.as_ref(), &setup);
        assert!(report.events > 0, "{}: empty trace", report.label);
        assert!(
            report.is_clean(),
            "{}: {}",
            report.label,
            render_violations(&report.violations)
        );
    }
}
