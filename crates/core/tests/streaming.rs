//! The engine folds every kernel's live event stream and never buffers
//! a trace. These tests hold its per-cell summaries against an
//! out-of-engine reference: each cell re-run under `capture_traces`,
//! hashed with `fold_trace_hashes` and profiled with
//! `metrics_of_traces`.

use asym_core::{
    AsymConfig, CellRunner, CheckFold, Direction, ExperimentOptions, ExperimentPlan,
    ResilientOptions, RunClass, RunResult, RunSetup, SpecMode, SweepReport, TraceCheck, Workload,
};
use asym_kernel::{
    capture_traces, fold_trace_hashes, with_run_guard, FnThread, Kernel, RunGuard, SchedPolicy,
    SpawnOptions, Step, TraceConsumer, TraceEvent,
};
use asym_obs::{metrics_of_traces, ProfileMetrics};
use asym_sim::{Cycles, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A workload that spawns one kernel of three bursty threads. Value and
/// extras depend on the seed, so every cell is distinguishable.
struct KernelBursts;

impl Workload for KernelBursts {
    fn name(&self) -> &str {
        "kernel-bursts"
    }
    fn unit(&self) -> &str {
        "ops/s"
    }
    fn direction(&self) -> Direction {
        Direction::HigherIsBetter
    }
    fn run(&self, setup: &RunSetup) -> RunResult {
        let mut k = Kernel::new(setup.config.machine(), setup.policy, setup.seed);
        for t in 0..3u64 {
            let mut bursts = 2 + (setup.seed + t) % 3;
            k.spawn(
                FnThread::new("w", move |_cx| {
                    if bursts == 0 {
                        Step::Done
                    } else {
                        bursts -= 1;
                        Step::Compute(Cycles::from_millis_at_full_speed(0.05))
                    }
                }),
                SpawnOptions::new(),
            );
        }
        k.run();
        RunResult::new(1000.0 + setup.seed as f64).with_extra("seed", setup.seed as f64)
    }
}

/// The configurations of the aware spec.
fn aware_configs() -> [AsymConfig; 2] {
    [AsymConfig::new(1, 3, 8), AsymConfig::new(2, 2, 8)]
}

/// The configuration of the stock spec.
fn stock_config() -> AsymConfig {
    AsymConfig::new(1, 3, 8)
}

/// Two specs of two runs each: two configurations under the aware
/// policy (clean, or resilient when `resilient_first`), then one
/// resilient configuration under the stock policy. `section` becomes
/// the section check of every resilient spec.
fn plan(
    w: &KernelBursts,
    resilient_first: bool,
    section: Option<TraceCheck>,
) -> ExperimentPlan<'_> {
    let mut options = ResilientOptions::new(2);
    options.check = section;
    let aware = SchedPolicy::asymmetry_aware();
    let first = if resilient_first {
        SpecMode::Resilient {
            policy: aware,
            options: options.clone(),
        }
    } else {
        SpecMode::Clean {
            policy: aware,
            options: ExperimentOptions::new(2),
        }
    };
    let mut plan = ExperimentPlan::new("kernel");
    plan.push("aware", w, &aware_configs(), first);
    plan.push(
        "stock",
        w,
        &[stock_config()],
        SpecMode::Resilient {
            policy: SchedPolicy::os_default(),
            options,
        },
    );
    plan
}

/// Class, value, trace hash and metrics JSON of one cell.
type Facts = (RunClass, Option<f64>, Option<u64>, String);

/// The stable per-cell fields two equivalent runs must agree on.
fn cell_facts(report: &SweepReport) -> Vec<Facts> {
    report
        .cells
        .iter()
        .map(|c| {
            (
                c.class,
                c.value,
                c.trace_hash,
                c.metrics
                    .as_ref()
                    .map(ProfileMetrics::to_json)
                    .unwrap_or_default(),
            )
        })
        .collect()
}

/// Every cell of [`plan`] re-run under buffered capture — guarded like
/// the engine's resilient attempts when `guarded` — with its facts and
/// extras derived from the captured traces.
fn reference(w: &KernelBursts, guarded: bool) -> Vec<(Facts, RunResult)> {
    let aware = SchedPolicy::asymmetry_aware();
    let mut cells = Vec::new();
    for (j, config) in aware_configs().into_iter().enumerate() {
        for i in 0..2 {
            cells.push((RunSetup::new(config, aware, j as u64 * 1000 + i), guarded));
        }
    }
    for i in 0..2 {
        let setup = RunSetup::new(stock_config(), SchedPolicy::os_default(), i);
        cells.push((setup, true));
    }
    cells
        .into_iter()
        .map(|(setup, guarded)| {
            let (result, traces) = capture_traces(|| {
                if guarded {
                    with_run_guard(RunGuard::new(), || w.run(&setup))
                } else {
                    w.run(&setup)
                }
            });
            let facts = (
                RunClass::Completed,
                Some(result.value),
                Some(fold_trace_hashes(&traces)),
                metrics_of_traces(&traces).to_json(),
            );
            (facts, result)
        })
        .collect()
}

/// A check fold that finds nothing and counts the folds closed.
struct Counting(Arc<AtomicUsize>);

impl TraceConsumer for Counting {
    fn on_event(&mut self, _time: SimTime, _event: &TraceEvent) {}
}

impl CheckFold for Counting {
    fn findings(self: Box<Self>) -> Vec<String> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Vec::new()
    }
}

/// A trace check that finds nothing and adds every kernel's closed fold
/// to `closed`.
fn counting_check(closed: &Arc<AtomicUsize>) -> TraceCheck {
    let closed = Arc::clone(closed);
    Arc::new(move |_, _, _| Box::new(Counting(Arc::clone(&closed))))
}

#[test]
fn streamed_equals_buffered_byte_exactly() {
    let w = KernelBursts;
    // Every hash, class, value, metrics record and extra of the
    // streamed resilient cells matches the buffered reference.
    let streamed = CellRunner::new(1)
        .with_metrics(true)
        .run(plan(&w, true, None));
    let expected = reference(&w, true);
    let facts: Vec<Facts> = expected.iter().map(|(f, _)| f.clone()).collect();
    assert_eq!(cell_facts(&streamed.report), facts);
    let records = streamed
        .results
        .iter()
        .flat_map(|r| &r.resilient().outcomes)
        .flat_map(|o| &o.records);
    for (record, (_, result)) in records.zip(&expected) {
        assert_eq!(record.value, Some(result.value));
        assert_eq!(record.extras, result.extras, "records keep their extras");
    }
    // An unguarded clean cell streams the same events as its resilient
    // twin, and as its own buffered reference.
    let clean = CellRunner::new(1)
        .with_metrics(true)
        .run(plan(&w, false, None));
    assert_eq!(cell_facts(&clean.report), cell_facts(&streamed.report));
    let unguarded: Vec<Facts> = reference(&w, false).into_iter().map(|(f, _)| f).collect();
    assert_eq!(cell_facts(&clean.report), unguarded);
    // The workload really produced kernels and events.
    let m = streamed.report.cells[0]
        .metrics
        .as_ref()
        .expect("metrics attached");
    assert_eq!(m.kernels, 1);
    assert!(m.busy_ns > 0);
    // Checks stream too, and leave every result as it was: a runner
    // check alone, and a runner check beside a section check, which
    // both see every kernel.
    let (runner_closed, section_closed) = (Arc::default(), Arc::default());
    let checked = CellRunner::new(1)
        .with_metrics(true)
        .with_trace_check(counting_check(&runner_closed))
        .run(plan(&w, false, None));
    assert_eq!(cell_facts(&clean.report), cell_facts(&checked.report));
    runner_closed.store(0, Ordering::Relaxed);
    let both = CellRunner::new(1)
        .with_metrics(true)
        .with_trace_check(counting_check(&runner_closed))
        .run(plan(&w, true, Some(counting_check(&section_closed))));
    assert_eq!(cell_facts(&both.report), facts);
    assert_eq!(runner_closed.load(Ordering::Relaxed), 6);
    assert_eq!(section_closed.load(Ordering::Relaxed), 6);
}
