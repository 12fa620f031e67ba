//! Regression test for the `asym-analysis` concurrency checker: every
//! real workload is clean. The planted bugs each detector must catch
//! are pinned in `asym_analysis::fixtures`' own tests.

use asym_analysis::{render_violations, AnalysisFold};
use asym_core::{AsymConfig, RunSetup, Workload};
use asym_kernel::{
    capture_stream, RunOutcome, SchedPolicy, TraceConsumer, TraceEvent, TraceHasher,
};
use asym_sim::{MachineSpec, SimTime};
use asym_workloads::h264::H264;
use asym_workloads::japps::JAppServer;
use asym_workloads::pmake::Pmake;
use asym_workloads::specjbb::{GcKind, SpecJbb};
use asym_workloads::specomp::SpecOmp;
use asym_workloads::tpch::TpcH;
use asym_workloads::webserver::{Apache, LoadLevel, Zeus};

/// One kernel's stream, folded through the five trace analyses and the
/// stable trace hash at once.
struct Checked {
    analyses: AnalysisFold,
    hash: TraceHasher,
    events: usize,
}

impl Checked {
    fn new(machine: &MachineSpec, policy: SchedPolicy) -> Self {
        Checked {
            analyses: AnalysisFold::new(machine, policy),
            hash: TraceHasher::new(),
            events: 0,
        }
    }
}

impl TraceConsumer for Checked {
    fn on_event(&mut self, time: SimTime, event: &TraceEvent) {
        self.analyses.on_event(time, event);
        self.hash.on_event(time, event);
        self.events += 1;
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>, budget_exhausted: bool) {
        self.analyses.on_close(outcome, budget_exhausted);
        self.hash.on_close(outcome, budget_exhausted);
    }
}

#[test]
fn all_workloads_clean_on_asymmetric_config() {
    // Every paper workload on the most lopsided eight-core machine,
    // under the asymmetry-aware kernel: the five streamed analyses must
    // come back clean (including the fast-core-idle invariant), and a
    // same-seed rerun must hash every kernel's trace identically.
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
        let label = format!("{} @ {}", w.name(), setup.config);
        let (_, first) = capture_stream(Checked::new, || w.run(&setup));
        let (_, second) = capture_stream(Checked::new, || w.run(&setup));
        let hashes = |kernels: &[Checked]| kernels.iter().map(|k| k.hash.finish()).collect();
        let (a, b): (Vec<u64>, Vec<u64>) = (hashes(&first), hashes(&second));
        assert_eq!(a, b, "{label}: same-seed rerun traces differ");
        assert!(
            first.iter().map(|k| k.events).sum::<usize>() > 0,
            "{label}: empty trace"
        );
        let violations: Vec<_> = first
            .into_iter()
            .flat_map(|k| k.analyses.finish())
            .collect();
        assert!(
            violations.is_empty(),
            "{label}: {}",
            render_violations(&violations)
        );
    }
}
