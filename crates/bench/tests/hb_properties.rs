//! Properties of the happens-before engine over real workload traces,
//! plus determinism of the engine-integrated trace check.
//!
//! * The happens-before relation must be acyclic and consistent with
//!   trace timestamps on every clean run of the full experiment matrix
//!   (all nine configurations × all eight paper workloads).
//! * The violations a [`CellRunner`] trace check reports must be
//!   byte-identical whatever the host thread count, and equal to
//!   `check_concurrency` over the buffered traces of the same cell.
//! * A [`ViolationLog`] section check streamed through the engine counts
//!   exactly what `analyze_trace` finds in the buffered traces of every
//!   attempt, failed attempts included.

use asym_analysis::hb::{check_concurrency, happens_before};
use asym_analysis::{analyze_trace, ViolationLog};
use asym_bench::{concurrency_check, registry, SweepContext};
use asym_core::{
    AsymConfig, CellRunner, Direction, ExperimentOptions, ExperimentPlan, ResilientOptions,
    RunClass, RunResult, RunSetup, SpecMode, TraceCheck, Workload,
};
use asym_kernel::{
    capture_traces, with_run_guard, FnThread, Kernel, RunGuard, RunOutcome, SchedPolicy,
    SpawnOptions, Step, ThreadCx,
};
use asym_sim::{Cycles, FaultPlan, FaultProfile, SimDuration};
use asym_sync::SimShared;

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

/// The HB relation of every trace of every (workload, config) cell is a
/// DAG consistent with time: every edge points from an earlier record
/// index to a strictly later one, and never backwards in simulated
/// time. Clean runs must also be free of data races. Every cell runs
/// seed 0, and the totals pin that traced matrix.
#[test]
fn hb_relation_is_acyclic_and_time_consistent_across_matrix() {
    let policy = SchedPolicy::asymmetry_aware();
    let (mut kernels, mut events, mut edges) = (0usize, 0usize, 0usize);
    for w in paper_workloads() {
        for config in AsymConfig::standard_nine() {
            let setup = RunSetup::new(config, policy, 0);
            let (_, traces) = capture_traces(|| w.run(&setup));
            let label = format!("{} @ {config}", w.name());
            assert!(!traces.is_empty(), "{label}: no kernels captured");
            for trace in &traces {
                let analysis = happens_before(trace);
                kernels += 1;
                events += trace.num_records();
                edges += analysis.edges.len();
                let records = trace.records_vec();
                assert!(
                    !analysis.edges.is_empty(),
                    "{label}: no happens-before edges at all"
                );
                for e in &analysis.edges {
                    // src < dst makes any cycle impossible: the relation
                    // is a sub-order of the record index order.
                    assert!(
                        e.src < e.dst,
                        "{label}: edge {:?} #{}->#{} points backwards",
                        e.kind,
                        e.src,
                        e.dst
                    );
                    let (t_src, t_dst) = (records[e.src].time, records[e.dst].time);
                    assert!(
                        t_src <= t_dst,
                        "{label}: edge {:?} #{}->#{} goes back in time ({:?} > {:?})",
                        e.kind,
                        e.src,
                        e.dst,
                        t_src,
                        t_dst
                    );
                }
                assert!(
                    analysis.races.is_empty(),
                    "{label}: clean run reported races: {:?}",
                    analysis.races
                );
            }
        }
    }
    assert_eq!((kernels, events, edges), (72, 11_262_562, 4_755_243));
}

/// The quick happens-before pass — the eight paper workloads on the
/// 1f-3s/8 smoke cell, seed 0 — is race- and lint-clean and keeps its
/// pinned kernel, event and edge totals.
#[test]
fn races_quick_prints_pinned_totals() {
    let policy = SchedPolicy::asymmetry_aware();
    let config = AsymConfig::new(1, 3, 8);
    let (mut kernels, mut events, mut edges) = (0usize, 0usize, 0usize);
    for w in paper_workloads() {
        let setup = RunSetup::new(config, policy, 0);
        let (_, traces) = capture_traces(|| w.run(&setup));
        for trace in &traces {
            let violations = check_concurrency(trace);
            assert!(
                violations.is_empty(),
                "{} @ {config}: {violations:?}",
                w.name()
            );
            kernels += 1;
            events += trace.num_records();
            edges += happens_before(trace).edges.len();
        }
    }
    assert_eq!((kernels, events, edges), (8, 1_063_229, 447_848));
}

/// A deliberately racy workload: two threads increment one [`SimShared`]
/// counter with unsynchronized read-then-write sequences, so every run
/// produces data-race findings for the engine's trace check to report.
struct Racy;

impl Workload for Racy {
    fn name(&self) -> &str {
        "racy"
    }
    fn unit(&self) -> &str {
        "ops"
    }
    fn direction(&self) -> Direction {
        Direction::HigherIsBetter
    }
    fn run(&self, setup: &RunSetup) -> RunResult {
        let mut k = Kernel::new(setup.config.machine(), setup.policy, setup.seed);
        let counter = SimShared::new(&mut k, "racy.counter", 0u64);
        for i in 0..2 {
            let c = counter.clone();
            let mut left = 3u32;
            k.spawn(
                FnThread::new(format!("racer{i}"), move |cx| {
                    if left == 0 {
                        return Step::Done;
                    }
                    left -= 1;
                    let v = c.read(cx, |c| *c);
                    c.write(cx, |c| *c = v + 1);
                    Step::Compute(Cycles::new(1_000))
                }),
                SpawnOptions::new(),
            );
        }
        k.run();
        RunResult::new(counter.peek(|c| *c) as f64)
    }
}

/// Satellite invariant: the violation lists the engine's trace check
/// attaches to each cell are sorted, deduplicated, and byte-identical
/// between `--jobs 1` and `--jobs 4`.
#[test]
fn trace_check_violations_are_deterministic_across_jobs() {
    let racy = Racy;
    let configs = [AsymConfig::new(2, 0, 1), AsymConfig::new(1, 1, 8)];
    let run = |jobs: usize| {
        let mut plan = ExperimentPlan::new("race-determinism");
        plan.push(
            "racy",
            &racy,
            &configs,
            SpecMode::Clean {
                policy: SchedPolicy::os_default(),
                options: ExperimentOptions::new(2),
            },
        );
        CellRunner::new(jobs)
            .with_trace_check(concurrency_check())
            .run(plan)
    };
    let serial = run(1);
    let parallel = run(4);
    let violations = |o: &asym_core::PlanOutcome| {
        o.report
            .cells
            .iter()
            .map(|c| c.violations.clone())
            .collect::<Vec<_>>()
    };
    let (sv, pv) = (violations(&serial), violations(&parallel));
    assert_eq!(sv, pv, "violations must not depend on --jobs");
    assert!(
        sv.iter().all(|cell| !cell.is_empty()),
        "every racy cell must report at least one finding: {sv:?}"
    );
    for cell in &sv {
        let mut sorted = cell.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(
            *cell, sorted,
            "per-cell violations must arrive sorted and deduplicated"
        );
    }
    assert!(
        sv.iter()
            .flatten()
            .all(|v| v.contains("data-race") && v.contains("racy.counter")),
        "findings should be data races on racy.counter: {sv:?}"
    );
    // The JSON sink carries the findings verbatim.
    let json = serial.report.to_json();
    assert!(json.contains("\"violations\": [\"[data-race]"));
    assert!(json.contains("\"total_violations\": "));
}

/// The streamed check is the buffered one: a checked runner's per-cell
/// findings on the racy workload equal `check_concurrency` over
/// `capture_traces` of the same cell — for clean cells, for resilient
/// (guarded) cells, at `--jobs 1` and `--jobs 4`, and beside a section
/// check (a resilient option, so that plan runs its first half
/// resilient too).
#[test]
fn streamed_check_equals_check_concurrency_over_buffered_traces() {
    let racy = Racy;
    let configs = [
        AsymConfig::new(2, 0, 1),
        AsymConfig::new(1, 1, 8),
        AsymConfig::new(1, 3, 4),
    ];
    let (clean_policy, resilient_policy) =
        (SchedPolicy::os_default(), SchedPolicy::asymmetry_aware());
    let plan = |section: Option<TraceCheck>| {
        let mut resilient = ResilientOptions::new(2);
        resilient.check = section;
        let first = if resilient.check.is_some() {
            SpecMode::Resilient {
                policy: clean_policy,
                options: resilient.clone(),
            }
        } else {
            SpecMode::Clean {
                policy: clean_policy,
                options: ExperimentOptions::new(2),
            }
        };
        let mut plan = ExperimentPlan::new("streamed-vs-buffered");
        plan.push("clean", &racy, &configs, first);
        plan.push(
            "resilient",
            &racy,
            &configs,
            SpecMode::Resilient {
                policy: resilient_policy,
                options: resilient,
            },
        );
        plan
    };
    // The reference: every cell re-run under buffered capture (guarded,
    // like the engine's resilient attempts) and checked post hoc.
    let mut expected = Vec::new();
    for (policy, guarded) in [(clean_policy, false), (resilient_policy, true)] {
        for (j, &config) in configs.iter().enumerate() {
            for i in 0..2 {
                let setup = RunSetup::new(config, policy, j as u64 * 1000 + i);
                let (_, traces) = capture_traces(|| {
                    if guarded {
                        with_run_guard(RunGuard::new(), || racy.run(&setup))
                    } else {
                        racy.run(&setup)
                    }
                });
                let found: Vec<String> = traces
                    .iter()
                    .flat_map(check_concurrency)
                    .map(|v| v.to_string())
                    .collect();
                assert!(!found.is_empty(), "the racy cell {setup:?} must race");
                expected.push(found);
            }
        }
    }
    let log = ViolationLog::new();
    for (jobs, section) in [(1, None), (4, None), (2, Some(log.check()))] {
        let sectioned = section.is_some();
        let outcome = CellRunner::new(jobs)
            .with_trace_check(concurrency_check())
            .run(plan(section));
        let got: Vec<Vec<String>> = outcome
            .report
            .cells
            .iter()
            .map(|c| c.violations.clone())
            .collect();
        assert_eq!(got, expected, "--jobs {jobs}, section check: {sectioned}");
    }
    // The section check saw the racy cells too: races are not its
    // business, so it found nothing.
    assert_eq!(log.count(), 0);
}

/// A producer that notifies a bare kernel wait queue once and a
/// consumer that blocks on it once, each after a seed-dependent compute
/// burst. When the notify comes first it wakes nobody and the consumer
/// blocks forever: the run deadlocks with a lost wakeup. When the block
/// comes first the notify wakes it and the run completes. A planned
/// kill of the producer wedges the consumer without a lost wakeup.
struct MissedSignal;

impl Workload for MissedSignal {
    fn name(&self) -> &str {
        "missed-signal"
    }
    fn unit(&self) -> &str {
        "s"
    }
    fn direction(&self) -> Direction {
        Direction::LowerIsBetter
    }
    fn run(&self, setup: &RunSetup) -> RunResult {
        let mut k = Kernel::new(setup.config.machine(), setup.policy, setup.seed);
        let wait = k.create_wait_queue();
        let burst = |cx: &mut ThreadCx<'_>| Cycles::new(cx.rng().range(10_000, 4_000_000));
        let mut computed = false;
        k.spawn(
            FnThread::new("producer", move |cx| {
                if computed {
                    cx.notify_one(wait);
                    return Step::Done;
                }
                computed = true;
                Step::Compute(burst(cx))
            }),
            SpawnOptions::new(),
        );
        let mut phase = 0u8;
        k.spawn(
            FnThread::new("consumer", move |cx| {
                phase += 1;
                match phase {
                    1 => Step::Compute(burst(cx)),
                    2 => Step::Block(wait),
                    _ => Step::Done,
                }
            }),
            SpawnOptions::new(),
        );
        k.run();
        RunResult::new(k.now().as_secs_f64())
    }
}

fn hotplug_plan(setup: &RunSetup) -> FaultPlan {
    let horizon = SimDuration::from_millis(4);
    let profile = FaultProfile::hotplug_and_throttle(horizon);
    FaultPlan::generate(setup.seed, setup.config.num_cores() as usize, &profile)
}

fn kill_plan(setup: &RunSetup) -> FaultPlan {
    let horizon = SimDuration::from_millis(4);
    let profile = FaultProfile::with_kills(horizon, 1);
    FaultPlan::generate(setup.seed, setup.config.num_cores() as usize, &profile)
}

/// The streamed section check counts what the buffered analyses find:
/// a [`ViolationLog`] on resilient hotplug/throttle and kill cells of
/// the missed-signal workload, at `--jobs 1` and `--jobs 4`, counts
/// exactly the `analyze_trace` findings over `capture_traces` of the
/// same attempts — the reference replays the retry ladder, so failed
/// attempts count too.
#[test]
fn violation_log_counts_what_analyze_trace_finds_in_every_attempt() {
    const RETRIES: u32 = 2;
    let w = MissedSignal;
    let configs = [AsymConfig::new(1, 1, 8), AsymConfig::new(2, 2, 4)];
    let planners: [fn(&RunSetup) -> FaultPlan; 2] = [hotplug_plan, kill_plan];
    let policy = SchedPolicy::asymmetry_aware();
    let plan = |log: &ViolationLog| {
        let mut plan = ExperimentPlan::new("violation-log");
        for (label, planner) in ["hotplug", "kills"].into_iter().zip(planners) {
            let options = ResilientOptions::new(4)
                .retries(RETRIES)
                .fault_planner(planner)
                .trace_check(log.check());
            plan.push(label, &w, &configs, SpecMode::Resilient { policy, options });
        }
        plan
    };
    // The reference: every cell's attempts re-run under buffered
    // capture. Without a budget or watchdog an attempt either completes
    // or deadlocks, and a deadlock retries on a reseeded plan.
    let (mut expected, mut failed_attempts) = (0usize, 0usize);
    let mut cells = Vec::new();
    for planner in planners {
        for (j, &config) in configs.iter().enumerate() {
            for i in 0..4 {
                let mut setup = RunSetup::new(config, policy, j as u64 * 1000 + i);
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    let guard = RunGuard::new().fault_plan(planner(&setup));
                    let (_, traces) = capture_traces(|| with_run_guard(guard, || w.run(&setup)));
                    expected += traces.iter().map(|t| analyze_trace(t).len()).sum::<usize>();
                    let deadlocked = traces
                        .iter()
                        .any(|t| matches!(t.outcome, Some(RunOutcome::Deadlock(_))));
                    if !deadlocked || attempts > RETRIES {
                        let class = if deadlocked {
                            RunClass::Deadlock
                        } else {
                            RunClass::Completed
                        };
                        cells.push((class, attempts));
                        break;
                    }
                    failed_attempts += 1;
                    setup = RunSetup::new(config, policy, setup.seed + 7919);
                }
            }
        }
    }
    assert!(
        failed_attempts > 0,
        "no attempt failed: the test is vacuous"
    );
    for jobs in [1, 4] {
        let log = ViolationLog::new();
        let outcome = CellRunner::new(jobs).run(plan(&log));
        let got: Vec<(RunClass, u32)> = outcome
            .report
            .cells
            .iter()
            .map(|c| (c.class, c.attempts))
            .collect();
        assert_eq!(
            got, cells,
            "--jobs {jobs}: the reference replays the ladder"
        );
        assert_eq!(log.count(), expected, "--jobs {jobs}");
        // The section check's findings stay its own.
        assert_eq!(outcome.report.total_violations(), 0);
    }
    assert!(expected > 0, "the missed-signal cells must show findings");
}
