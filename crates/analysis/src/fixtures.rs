//! Seeded negative fixtures: small simulated programs with planted
//! concurrency bugs, used to prove each detector actually fires.
//!
//! Each fixture runs a real [`Kernel`] under
//! [`capture_traces`] and returns the
//! captured [`KernelTrace`] for analysis.

use asym_kernel::{
    capture_traces, FnThread, Kernel, KernelTrace, SchedPolicy, SpawnOptions, Step, ThreadId,
    TraceEvent, TraceRecord, WakeReason,
};
use asym_sim::{CoreId, CoreMask, Cycles, MachineSpec, SimDuration, SimTime, Speed};
use asym_sync::SimShared;

fn capture_one(f: impl FnOnce()) -> KernelTrace {
    let ((), mut traces) = capture_traces(f);
    assert_eq!(traces.len(), 1, "fixture builds exactly one kernel");
    traces.remove(0)
}

/// The classic missed-signal bug on a bare kernel wait queue: the
/// producer notifies the queue at time ~0, while nobody waits on it yet;
/// the consumer computes 2 ms and then blocks on the queue *without
/// checking whether the event it waits for already happened*. The
/// notification is gone — the consumer blocks forever and the run
/// deadlocks.
pub fn missed_signal() -> KernelTrace {
    capture_one(missed_signal_run)
}

fn missed_signal_run() {
    let machine = MachineSpec::symmetric(2, Speed::FULL);
    let mut k = Kernel::new(machine, SchedPolicy::os_default(), 3);
    let wait = k.create_wait_queue();
    k.spawn(
        FnThread::new("producer", move |cx| {
            cx.notify_one(wait);
            Step::Done
        }),
        SpawnOptions::new(),
    );
    let mut computed = false;
    k.spawn(
        FnThread::new("consumer", move |_cx| {
            if computed {
                // BUG: blocks without checking that the producer's
                // notification already happened.
                return Step::Block(wait);
            }
            computed = true;
            Step::Compute(Cycles::from_millis_at_full_speed(2.0))
        }),
        SpawnOptions::new(),
    );
    k.run();
}

/// A sleep-polling livelock: one thread naps 100 µs forever, retiring
/// no work, while time marches on. The kernel's watchdog (armed at
/// 5 ms) gives up and ends the run [`Stalled`](asym_kernel::RunOutcome::Stalled) —
/// the forward-progress checker must flag the trace.
pub fn stalled_run() -> KernelTrace {
    capture_one(stalled_run_run)
}

fn stalled_run_run() {
    let machine = MachineSpec::symmetric(2, Speed::FULL);
    let mut k = Kernel::new(machine, SchedPolicy::os_default(), 4);
    k.set_watchdog(SimDuration::from_millis(5));
    k.spawn(
        FnThread::new("poller", |_cx| {
            // BUG: polls by sleeping instead of blocking on a wait
            // queue; nothing ever gets done.
            Step::Sleep(SimDuration::from_micros(100))
        }),
        SpawnOptions::new(),
    );
    k.run();
}

/// A forged trace in which a thread is dispatched on a core *after* a
/// hotplug fault took that core offline. The real kernel never does
/// this — `fault_core_offline` migrates everything before returning —
/// so the history is rewritten by hand on top of a genuinely captured
/// trace (keeping the machine/policy metadata authentic), exactly like
/// the hand-built fast-core-idle trace in the unit tests.
pub fn offline_core_dispatch() -> KernelTrace {
    let machine = MachineSpec::symmetric(2, Speed::FULL);
    let (mut trace, tids) = forged_base(machine, SchedPolicy::os_default(), 5, &["w"]);
    let tid = tids[0];
    trace.set_records(vec![
        at(0, spawn(tid, 1)),
        at(1, TraceEvent::CoreOffline { core: CoreId(1) }),
        // BUG (planted): the scheduler keeps using the dead core.
        at(2, dispatch(tid, 1)),
    ]);
    trace
}

/// A forged trace in which a fault-injected kill is silently swallowed:
/// the `ThreadKilled` record is there but the `Done` that retires the
/// victim never follows. The real kernel always emits the pair together
/// (that is what `threads_killed` and the workloads' `lost_workers`
/// extras hang off), so the history is rewritten by hand on top of a
/// genuinely captured trace, like [`offline_core_dispatch`].
pub fn swallowed_kill() -> KernelTrace {
    let machine = MachineSpec::symmetric(2, Speed::FULL);
    let (mut trace, tids) = forged_base(machine, SchedPolicy::os_default(), 6, &["w"]);
    let tid = tids[0];
    trace.set_records(vec![
        at(0, spawn(tid, 0)),
        at(1, dispatch(tid, 0)),
        // BUG (planted): the kill lands but no Done retires the victim —
        // the thread just vanishes from the books.
        at(2, TraceEvent::ThreadKilled { tid }),
    ]);
    trace
}

/// Captures a run of trivial threads named `names` on `machine` under
/// `policy` and returns the trace plus their thread ids, ready for
/// history rewriting: the forged fixtures keep the machine and policy
/// metadata of a genuinely captured trace.
fn forged_base(
    machine: MachineSpec,
    policy: SchedPolicy,
    seed: u64,
    names: &[&str],
) -> (KernelTrace, Vec<ThreadId>) {
    let trace = capture_one(|| {
        let mut k = Kernel::new(machine, policy, seed);
        for &name in names {
            k.spawn(FnThread::new(name, |_cx| Step::Done), SpawnOptions::new());
        }
        k.run();
    });
    let tids = trace
        .records()
        .filter_map(|r| match r.event {
            TraceEvent::Spawn { tid, .. } => Some(tid),
            _ => None,
        })
        .collect();
    (trace, tids)
}

/// The aware-policy base of the ranking fixtures: one worker on a
/// 1-fast/1-slow machine.
fn forged_aware_base() -> (KernelTrace, ThreadId) {
    let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
    let (trace, tids) = forged_base(machine, SchedPolicy::asymmetry_aware(), 10, &["w"]);
    (trace, tids[0])
}

/// A forged record `ms` milliseconds into the run.
fn at(ms: u64, event: TraceEvent) -> TraceRecord {
    TraceRecord {
        time: SimTime::ZERO + SimDuration::from_millis(ms),
        event,
    }
}

/// `tid` spawned onto `core`, eligible everywhere.
fn spawn(tid: ThreadId, core: usize) -> TraceEvent {
    TraceEvent::Spawn {
        tid,
        core: CoreId(core),
        affinity: CoreMask::ALL,
        parent: None,
    }
}

fn dispatch(tid: ThreadId, core: usize) -> TraceEvent {
    TraceEvent::Dispatch {
        tid,
        core: CoreId(core),
    }
}

fn quantum_preempt(tid: ThreadId, core: usize) -> TraceEvent {
    TraceEvent::Preempt {
        tid,
        core: CoreId(core),
        reason: asym_kernel::PreemptReason::Quantum,
    }
}

/// Two workers increment the same [`SimShared`] word as a plain
/// read-then-write with **no** synchronization between them: the
/// canonical unprotected-write data race. The run itself completes fine
/// (the simulation is single-OS-thread deterministic, so the race never
/// corrupts anything) — only the happens-before analysis can see that
/// the accesses are unordered.
pub fn unprotected_write_race() -> KernelTrace {
    capture_one(unprotected_write_race_run)
}

fn unprotected_write_race_run() {
    let machine = MachineSpec::symmetric(2, Speed::FULL);
    let mut k = Kernel::new(machine, SchedPolicy::os_default(), 8);
    let counter: SimShared<u64> = SimShared::new(&mut k, "fixture.counter", 0);
    for name in ["w1", "w2"] {
        let counter = counter.clone();
        let mut done = false;
        k.spawn(
            FnThread::new(name, move |cx| {
                if done {
                    return Step::Done;
                }
                done = true;
                // BUG: an unprotected read-modify-write, racing the
                // other worker's identical accesses.
                let v = counter.read(cx, |c| *c);
                counter.write(cx, |c| *c = v + 1);
                Step::Compute(Cycles::from_micros_at_full_speed(10.0))
            }),
            SpawnOptions::new(),
        );
    }
    k.run();
}

/// Two readers and, a millisecond later, a writer touch one
/// [`SimShared`] word with no synchronization at all. The reads do not
/// conflict with each other, but the write races *both*; the report
/// must cite the earlier read (the lowest record index), so the witness
/// is the same in every process whatever order the detector keeps the
/// reads in.
pub fn readers_then_writer_race() -> KernelTrace {
    capture_one(readers_then_writer_race_run)
}

fn readers_then_writer_race_run() {
    let machine = MachineSpec::symmetric(3, Speed::FULL);
    let mut k = Kernel::new(machine, SchedPolicy::os_default(), 13);
    let word: SimShared<u64> = SimShared::new(&mut k, "fixture.word", 0);
    for name in ["r1", "r2"] {
        let word = word.clone();
        let mut done = false;
        k.spawn(
            FnThread::new(name, move |cx| {
                if done {
                    return Step::Done;
                }
                done = true;
                word.read(cx, |w| *w);
                Step::Compute(Cycles::from_micros_at_full_speed(10.0))
            }),
            SpawnOptions::new(),
        );
    }
    let mut phase = 0u8;
    k.spawn(
        FnThread::new("w", move |cx| {
            phase += 1;
            match phase {
                1 => Step::Sleep(SimDuration::from_millis(1)),
                2 => {
                    // BUG: a plain write nothing orders after the reads.
                    word.write(cx, |w| *w += 1);
                    Step::Compute(Cycles::from_micros_at_full_speed(10.0))
                }
                _ => Step::Done,
            }
        }),
        SpawnOptions::new(),
    );
    k.run();
}

/// A forged trace in which a fault re-ranks the cores (core 0 drops to
/// 1/8 speed, core 1 recovers to full) and a later wakeup still lands
/// the thread on core 0 — a dispatch consulting the **stale** speed
/// ranking. The real asymmetry-aware kernel re-ranks eagerly, so the
/// history is rewritten by hand on top of a genuinely captured
/// aware-policy trace (keeping the machine/policy metadata authentic),
/// like [`offline_core_dispatch`].
pub fn stale_ranking_dispatch() -> KernelTrace {
    let (mut trace, tid) = forged_aware_base();
    let speed = |core, speed| TraceEvent::SpeedChange {
        core: CoreId(core),
        speed,
    };
    trace.set_records(vec![
        at(0, spawn(tid, 0)),
        at(1, dispatch(tid, 0)),
        // The fault re-rank: core 0 collapses to 1/8, core 1 recovers.
        at(2, speed(0, Speed::fraction_of_full(8))),
        at(2, speed(1, Speed::FULL)),
        at(3, TraceEvent::Sleep { tid }),
        // BUG (planted): the wakeup placement still uses the old
        // ranking and parks the thread on the now-slow core 0 while the
        // now-fast core 1 sits idle.
        at(
            4,
            TraceEvent::Wakeup {
                tid,
                core: CoreId(0),
                reason: WakeReason::Timer,
            },
        ),
    ]);
    trace
}

/// A forged trace in which a `SpeedChange` reorders the online-core
/// speed ranking (the fast core collapses below the slow one, which
/// thereby overtakes it) but the kernel never emits the confirming
/// `Rerank` record — the bug class where a speed-change path skips the
/// re-rank announcement and every downstream consumer keeps acting on a
/// stale ranking. The run continues well past the staleness bound, so
/// the hygiene checker must flag it.
pub fn missing_rerank() -> KernelTrace {
    let (mut trace, tid) = forged_aware_base();
    trace.set_records(vec![
        at(0, spawn(tid, 0)),
        at(1, dispatch(tid, 0)),
        // BUG (planted): the ranking inverts — core 0 collapses below
        // the slow core — and no Rerank record ever follows.
        at(
            2,
            TraceEvent::SpeedChange {
                core: CoreId(0),
                speed: Speed::fraction_of_full(16),
            },
        ),
        at(8, TraceEvent::Done { tid }),
    ]);
    trace
}

/// A forged trace in which the speed ranking flaps: core 0 bounces
/// between full speed and below the slow core ten times inside one
/// millisecond, each flip dutifully announced with a `Rerank` — churn
/// the environment hysteresis (confirmation ticks plus a per-core
/// minimum apply interval) is supposed to make impossible. The hygiene
/// checker must report the thrash.
pub fn rerank_thrash() -> KernelTrace {
    let (mut trace, tid) = forged_aware_base();
    let mut records = vec![at(0, spawn(tid, 0)), at(1, dispatch(tid, 0))];
    for flip in 0..10u64 {
        let time =
            SimTime::ZERO + SimDuration::from_millis(2) + SimDuration::from_micros(100 * flip);
        let speed = if flip % 2 == 0 {
            // Below the slow core's 1/8: the ranking inverts.
            Speed::fraction_of_full(16)
        } else {
            Speed::FULL
        };
        let core = CoreId(0);
        records.push(TraceRecord {
            time,
            event: TraceEvent::SpeedChange { core, speed },
        });
        records.push(TraceRecord {
            time,
            event: TraceEvent::Rerank { core },
        });
    }
    records.push(at(4, TraceEvent::Done { tid }));
    trace.set_records(records);
    trace
}

/// A forged trace of a work-stealing balancer bolted onto the
/// asymmetry-aware contract: on a 2-fast/1-slow machine the stealer
/// takes a queued thread **from a faster busy core onto the slower idle
/// core** (the downhill steal, record #5), then keeps feeding the slow
/// core — the next wakeup lands there while both fast cores sit idle.
/// The stale-ranking lint must flag the placement: the steal-driven
/// queue state does not excuse ignoring the speed ranking. The trace
/// carries the aware policy metadata (the contract being linted); the
/// history is rewritten by hand like [`stale_ranking_dispatch`].
pub fn downhill_steal() -> KernelTrace {
    let machine = MachineSpec::asymmetric(2, 1, Speed::fraction_of_full(8));
    let policy = SchedPolicy::asymmetry_aware();
    let (mut trace, tids) = forged_base(machine, policy, 11, &["w", "v"]);
    let (w, v) = (tids[0], tids[1]);
    trace.set_records(vec![
        at(0, spawn(w, 0)),
        at(1, dispatch(w, 0)),
        at(1, spawn(v, 1)),
        at(2, dispatch(v, 1)),
        at(3, quantum_preempt(v, 1)),
        // BUG (planted): the stealer moves v from the fast busy core 1
        // onto the slow idle core 2.
        at(
            3,
            TraceEvent::Steal {
                tid: v,
                from: CoreId(1),
                to: CoreId(2),
            },
        ),
        at(4, TraceEvent::Sleep { tid: w }),
        // BUG (consequence): the next wakeup follows the stolen work to
        // the slow core while fast cores 0 and 1 are idle and eligible.
        at(
            5,
            TraceEvent::Wakeup {
                tid: w,
                core: CoreId(2),
                reason: WakeReason::Timer,
            },
        ),
    ]);
    trace
}

/// A forged vruntime-fair trace in which one thread starves: thread `a`
/// is spawned runnable on core 0 and then sits queued for 220 ms while
/// threads `b` and `c` are dispatched there 220 times between them —
/// far past the [`STARVATION_BOUND`](crate::hb::STARVATION_BOUND) and
/// [`STARVATION_MIN_BYPASSES`](crate::hb::STARVATION_MIN_BYPASSES)
/// limits. A real lowest-progress-first scheduler can never do this
/// (a waiting thread's progress never advances, so it wins the queue),
/// so the history is rewritten by hand like [`stale_ranking_dispatch`].
pub fn vruntime_starvation() -> KernelTrace {
    let machine = MachineSpec::symmetric(1, Speed::FULL);
    let policy = SchedPolicy::vruntime_fair();
    let (mut trace, tids) = forged_base(machine, policy, 12, &["a", "b", "c"]);
    let (a, b, c) = (tids[0], tids[1], tids[2]);
    let mut records: Vec<TraceRecord> = [a, b, c].map(|tid| at(0, spawn(tid, 0))).to_vec();
    // BUG (planted): 110 rounds of b/c round-robin, never once picking
    // the equally-runnable a.
    for round in 0..110u64 {
        for (slot, tid) in [(0, b), (1, c)] {
            records.push(at(2 * round + slot, dispatch(tid, 0)));
            records.push(at(2 * round + slot + 1, quantum_preempt(tid, 0)));
        }
    }
    trace.set_records(records);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ViolationKind;
    use asym_kernel::{capture_stream, RunOutcome};

    #[test]
    fn fixtures_have_expected_outcomes() {
        assert!(matches!(
            missed_signal().outcome,
            Some(RunOutcome::Deadlock(1))
        ));
    }

    #[test]
    fn missed_signal_trace_contains_empty_signal() {
        let trace = missed_signal();
        assert!(trace
            .records()
            .any(|r| matches!(r.event, TraceEvent::Signal { woken: 0, .. })));
    }

    #[test]
    fn stalled_fixture_ends_stalled() {
        assert_eq!(stalled_run().outcome, Some(RunOutcome::Stalled));
    }

    #[test]
    fn traces_tag_wakeup_and_preempt_reasons() {
        use asym_kernel::{PreemptReason, WakeReason};
        // Timer wakeups: the stalled poller sleeps and is rearmed by
        // its timer, never by a signal.
        assert!(stalled_run().records().any(|r| matches!(
            r.event,
            TraceEvent::Wakeup {
                reason: WakeReason::Timer,
                ..
            }
        )));
        // Signal wakeups: a waiter blocks on a wait queue and a
        // second thread notifies it 2 ms later.
        let signalled = capture_one(|| {
            let mut k = Kernel::new(
                MachineSpec::symmetric(2, Speed::FULL),
                SchedPolicy::os_default(),
                3,
            );
            let wait = k.create_wait_queue();
            let mut blocked = false;
            k.spawn(
                FnThread::new("waiter", move |_cx| {
                    if blocked {
                        return Step::Done;
                    }
                    blocked = true;
                    Step::Block(wait)
                }),
                SpawnOptions::new(),
            );
            let mut computed = false;
            k.spawn(
                FnThread::new("notifier", move |cx| {
                    if computed {
                        cx.notify_one(wait);
                        return Step::Done;
                    }
                    computed = true;
                    Step::Compute(Cycles::from_millis_at_full_speed(2.0))
                }),
                SpawnOptions::new(),
            );
            k.run();
        });
        assert!(signalled.records().any(|r| matches!(
            r.event,
            TraceEvent::Wakeup {
                reason: WakeReason::Signal,
                ..
            }
        )));
        // Quantum-expiry markers: two multi-quantum compute threads
        // contending for a single core must be timesliced.
        let trace = capture_one(|| {
            let mut k = Kernel::new(
                MachineSpec::symmetric(1, Speed::FULL),
                SchedPolicy::os_default(),
                7,
            );
            for name in ["a", "b"] {
                let mut left = 3u32;
                k.spawn(
                    FnThread::new(name, move |_cx| {
                        if left == 0 {
                            Step::Done
                        } else {
                            left -= 1;
                            Step::Compute(Cycles::from_millis_at_full_speed(5.0))
                        }
                    }),
                    SpawnOptions::new(),
                );
            }
            k.run();
        });
        assert!(trace.records().any(|r| matches!(
            r.event,
            TraceEvent::Preempt {
                reason: PreemptReason::Quantum,
                ..
            }
        )));
    }

    #[test]
    fn swallowed_kill_fixture_has_a_kill_but_no_done() {
        let trace = swallowed_kill();
        assert!(trace
            .records()
            .any(|r| matches!(r.event, TraceEvent::ThreadKilled { .. })));
        assert!(!trace
            .records()
            .any(|r| matches!(r.event, TraceEvent::Done { .. })));
    }

    /// The exact rendered `check_concurrency` findings of every negative
    /// fixture the happens-before suite covers, pinned byte for byte.
    const GOLDEN: &[(&str, &[&str])] = &[
        (
            "unprotected_write_race",
            &[
                "[data-race] at 0.000000s: word 0 of obj0 ('fixture.counter'): write by tid0 at #4 (0.000000s) and read by tid1 at #6 (0.000000s) are unordered — no happens-before path connects the accesses [#4->#6]",
            ],
        ),
        (
            "readers_then_writer_race",
            &[
                "[data-race] at 0.001000s: word 0 of obj0 ('fixture.word'): read by tid0 at #4 (0.000000s) and write by tid2 at #13 (0.001000s) are unordered — no happens-before path connects the accesses [#4->#13]",
            ],
        ),
        (
            "stale_ranking_dispatch",
            &[
                "[stale-ranking] at 0.004000s: tid0 woken onto core0 (speed 0.125) at #5 while idle eligible core1 (speed 1.000) was faster under the ranking in force since SpeedChange at #3 — the placement ignored the current speed ranking [#3->#5]",
                "[stale-rerank] at 0.002000s: SpeedChange at #3 reordered the online-core speed ranking but no Rerank record for core1 followed within 0.001000s [#3]",
            ],
        ),
        (
            "missing_rerank",
            &[
                "[stale-rerank] at 0.002000s: SpeedChange at #2 reordered the online-core speed ranking but no Rerank record for core0 followed within 0.001000s [#2]",
            ],
        ),
        (
            "rerank_thrash",
            &[
                "[rerank-thrash] at 0.002800s: 9 re-ranks inside one 0.001000s window (since #3 at 0.002000s): hysteresis failed to damp the churn [#3->#19]",
            ],
        ),
        (
            "downhill_steal",
            &[
                "[stale-ranking] at 0.005000s: tid0 woken onto core2 (speed 0.125) at #7 while idle eligible core0 (speed 1.000) was faster under the machine's initial speed ranking — the placement ignored the current speed ranking [#7]",
            ],
        ),
        (
            "vruntime_starvation",
            &[
                "[starvation] at 0.220000s: thread 0 sat queued on core 0 for 0.220000s (bound 0.200000s) while 220 other dispatches ran there [#0->end]",
            ],
        ),
    ];

    fn golden(name: &str) -> Vec<String> {
        let (_, lines) = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .expect("fixture has pinned output");
        lines.iter().map(ToString::to_string).collect()
    }

    fn rendered(violations: Vec<crate::Violation>) -> Vec<String> {
        violations.iter().map(ToString::to_string).collect()
    }

    /// The exact `render_violations(&analyze_trace(..))` of every
    /// negative fixture, pinned byte for byte.
    const ANALYZED: &[(&str, &str)] = &[
        (
            "missed_signal",
            "1 lost-wakeup\n    - [lost-wakeup] at 0.002000s: tid1 blocked forever on wait0; the queue was signalled with no waiters before the block and never again after it",
        ),
        (
            "stalled_run",
            "1 stalled-run\n    - [stalled-run] at 0.004900s: the watchdog declared the run livelocked: time advanced but no work was retired for a full window",
        ),
        (
            "offline_core_dispatch",
            "2 offline-dispatch\n    - [offline-dispatch] at 0.001000s: tid0 left parked on offline core1\n    - [offline-dispatch] at 0.002000s: tid0 dispatched on offline core1",
        ),
        (
            "swallowed_kill",
            "1 dropped-kill\n    - [dropped-kill] at 0.002000s: tid0 was killed but never retired: no Done record follows the kill, so the victim was silently dropped from accounting",
        ),
        ("unprotected_write_race", "clean"),
        ("readers_then_writer_race", "clean"),
        ("stale_ranking_dispatch", "clean"),
        ("missing_rerank", "clean"),
        ("rerank_thrash", "clean"),
        (
            "downhill_steal",
            "2 fast-core-idle\n    - [fast-core-idle] at 0.003000s: core1 (speed 1.000) idle while tid1 sat queued on slower core2 (speed 0.125) under the asymmetry-aware policy\n    - [fast-core-idle] at 0.004000s: core0 (speed 1.000) idle while tid1 sat queued on slower core2 (speed 0.125) under the asymmetry-aware policy",
        ),
        ("vruntime_starvation", "clean"),
    ];

    /// The detector each negative fixture plants its bug for: the kind
    /// must be among the findings of `analyze_trace` and
    /// `check_concurrency` together.
    const EXPECTED: &[(&str, ViolationKind)] = &[
        ("missed_signal", ViolationKind::LostWakeup),
        ("stalled_run", ViolationKind::StalledRun),
        ("offline_core_dispatch", ViolationKind::OfflineDispatch),
        ("swallowed_kill", ViolationKind::DroppedKill),
        ("unprotected_write_race", ViolationKind::DataRace),
        ("readers_then_writer_race", ViolationKind::DataRace),
        ("stale_ranking_dispatch", ViolationKind::StaleRanking),
        ("missing_rerank", ViolationKind::StaleRerank),
        ("rerank_thrash", ViolationKind::RerankThrash),
        ("downhill_steal", ViolationKind::StaleRanking),
        ("vruntime_starvation", ViolationKind::Starvation),
    ];

    fn analyzed(name: &str) -> &'static str {
        ANALYZED
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, text)| *text)
            .expect("fixture has pinned analysis")
    }

    #[test]
    fn negative_fixtures_render_exactly_as_pinned() {
        use crate::hb::{check_concurrency, ConcurrencyFold};
        use asym_kernel::TraceConsumer;
        let fixtures = [
            ("unprotected_write_race", unprotected_write_race()),
            ("readers_then_writer_race", readers_then_writer_race()),
            ("stale_ranking_dispatch", stale_ranking_dispatch()),
            ("missing_rerank", missing_rerank()),
            ("rerank_thrash", rerank_thrash()),
            ("downhill_steal", downhill_steal()),
            ("vruntime_starvation", vruntime_starvation()),
        ];
        assert_eq!(fixtures.len(), GOLDEN.len());
        // `analyze_trace` of every fixture, the hand-built ones included.
        let all = all_fixtures();
        assert_eq!(all.len(), ANALYZED.len(), "every fixture is pinned");
        for (name, trace) in &all {
            let text = crate::render_violations(&crate::analyze_trace(trace));
            assert_eq!(text, analyzed(name), "{name} (analyze_trace)");
        }
        // Every fixture fires the detector it was planted for.
        assert_eq!(
            all.len(),
            EXPECTED.len(),
            "every fixture names its detector"
        );
        for ((name, trace), (expected_name, kind)) in all.iter().zip(EXPECTED) {
            assert_eq!(name, expected_name);
            let mut found = crate::analyze_trace(trace);
            found.extend(check_concurrency(trace));
            assert!(
                found.iter().any(|v| v.kind == *kind),
                "{name}: expected {kind}, found {}",
                crate::render_violations(&found)
            );
        }
        for (name, trace) in fixtures {
            // The replay wrapper over the buffered trace.
            assert_eq!(rendered(check_concurrency(&trace)), golden(name), "{name}");
            // The fold fed one record at a time, with the labels only
            // after the events: findings are rendered at finish.
            let mut fold = ConcurrencyFold::new(&trace.machine, trace.policy);
            for r in trace.records() {
                fold.on_event(r.time, &r.event);
            }
            for label in &trace.shared_labels {
                fold.on_shared_label(label);
            }
            assert_eq!(rendered(fold.finish()), golden(name), "{name} (fed)");
        }
        // The fixtures that are real runs also stream straight out of
        // the kernel, with no trace in between.
        let runs: [(&str, fn()); 2] = [
            ("unprotected_write_race", unprotected_write_race_run),
            ("readers_then_writer_race", readers_then_writer_race_run),
        ];
        for (name, run) in runs {
            let ((), folds) = capture_stream(ConcurrencyFold::new, run);
            assert_eq!(folds.len(), 1, "{name}: one kernel");
            let found = folds
                .into_iter()
                .flat_map(ConcurrencyFold::finish)
                .collect();
            assert_eq!(rendered(found), golden(name), "{name} (streamed)");
        }
        // The five analyses stream too: the run's outcome reaches the
        // lost-wakeup and forward-progress checks when the stream
        // closes.
        let runs: [(&str, fn()); 4] = [
            ("missed_signal", missed_signal_run),
            ("stalled_run", stalled_run_run),
            ("unprotected_write_race", unprotected_write_race_run),
            ("readers_then_writer_race", readers_then_writer_race_run),
        ];
        for (name, run) in runs {
            let ((), folds) = capture_stream(crate::AnalysisFold::new, run);
            assert_eq!(folds.len(), 1, "{name}: one kernel");
            let found: Vec<_> = folds
                .into_iter()
                .flat_map(crate::AnalysisFold::finish)
                .collect();
            let text = crate::render_violations(&found);
            assert_eq!(text, analyzed(name), "{name} (analysis streamed)");
        }
    }

    /// Every negative fixture, named.
    fn all_fixtures() -> Vec<(&'static str, KernelTrace)> {
        vec![
            ("missed_signal", missed_signal()),
            ("stalled_run", stalled_run()),
            ("offline_core_dispatch", offline_core_dispatch()),
            ("swallowed_kill", swallowed_kill()),
            ("unprotected_write_race", unprotected_write_race()),
            ("readers_then_writer_race", readers_then_writer_race()),
            ("stale_ranking_dispatch", stale_ranking_dispatch()),
            ("missing_rerank", missing_rerank()),
            ("rerank_thrash", rerank_thrash()),
            ("downhill_steal", downhill_steal()),
            ("vruntime_starvation", vruntime_starvation()),
        ]
    }

    #[test]
    fn race_fixture_fires_data_race_with_both_sites() {
        let trace = unprotected_write_race();
        let violations = crate::hb::check_concurrency(&trace);
        let v = violations
            .iter()
            .find(|v| v.kind == crate::ViolationKind::DataRace)
            .expect("unprotected write race must be detected");
        assert!(v.object.contains("fixture.counter"), "object: {}", v.object);
        let (a, b) = v
            .site
            .split_once("->")
            .expect("race diagnostics cite both access sites");
        assert!(a.starts_with('#') && b.starts_with('#'), "site: {}", v.site);
    }

    #[test]
    fn stale_ranking_fixture_fires_citing_rerank_and_placement() {
        let trace = stale_ranking_dispatch();
        let violations = crate::hb::check_concurrency(&trace);
        let v = violations
            .iter()
            .find(|v| v.kind == crate::ViolationKind::StaleRanking)
            .expect("stale-ranking dispatch must be detected");
        // Site cites the re-rank (record #3, the second SpeedChange) and
        // the offending wakeup placement (record #5).
        assert_eq!(v.site, "#3->#5", "message: {}", v.message);
        assert!(v.object.contains("core0"), "object: {}", v.object);
    }

    #[test]
    fn missing_rerank_fixture_fires_stale_rerank() {
        let trace = missing_rerank();
        let violations = crate::hb::check_concurrency(&trace);
        let v = violations
            .iter()
            .find(|v| v.kind == crate::ViolationKind::StaleRerank)
            .expect("unannounced re-rank must be detected");
        // The offending SpeedChange is record #2.
        assert_eq!(v.site, "#2", "message: {}", v.message);
        assert!(v.object.contains("core0"), "object: {}", v.object);
    }

    #[test]
    fn rerank_thrash_fixture_fires_thrash_and_not_staleness() {
        let trace = rerank_thrash();
        let violations = crate::hb::check_concurrency(&trace);
        assert!(
            violations
                .iter()
                .any(|v| v.kind == crate::ViolationKind::RerankThrash),
            "ranking churn must be detected: {violations:?}"
        );
        // Every flip was announced, so no staleness finding rides along.
        assert!(
            !violations
                .iter()
                .any(|v| v.kind == crate::ViolationKind::StaleRerank),
            "announced re-ranks misread as stale: {violations:?}"
        );
    }

    #[test]
    fn downhill_steal_fixture_fires_stale_ranking() {
        let trace = downhill_steal();
        // The narrative artifact is really there: a steal off a faster
        // busy core onto the slower idle core.
        assert!(trace.records().any(|r| matches!(
            r.event,
            TraceEvent::Steal {
                from: CoreId(1),
                to: CoreId(2),
                ..
            }
        )));
        let violations = crate::hb::check_concurrency(&trace);
        let v = violations
            .iter()
            .find(|v| v.kind == crate::ViolationKind::StaleRanking)
            .expect("downhill-steal placement must be detected");
        assert!(v.object.contains("core2"), "object: {}", v.object);
    }

    #[test]
    fn vruntime_starvation_fixture_fires_starvation_only() {
        let trace = vruntime_starvation();
        let violations = crate::hb::check_concurrency(&trace);
        let v = violations
            .iter()
            .find(|v| v.kind == crate::ViolationKind::Starvation)
            .expect("starved thread must be detected");
        assert!(v.object.contains("thread"), "object: {}", v.object);
        assert!(v.site.ends_with("->end"), "site: {}", v.site);
        // The vruntime policy is outside the asymmetry-aware lints'
        // scope, so starvation is the only finding.
        assert_eq!(violations.len(), 1, "unexpected extras: {violations:?}");
    }

    #[test]
    fn starvation_lint_ignores_non_vruntime_policies() {
        // The same starved history under the stock policy is out of the
        // fairness lint's scope: FIFO queues order by arrival, and the
        // priority policy starves by design.
        let mut trace = vruntime_starvation();
        trace.policy = SchedPolicy::os_default();
        assert!(crate::hb::check_starvation(&trace).is_empty());
    }

    #[test]
    fn pre_existing_fixtures_are_concurrency_clean() {
        for trace in [missed_signal(), stalled_run()] {
            assert_eq!(crate::hb::check_concurrency(&trace), Vec::new());
        }
    }

    #[test]
    fn real_dynamic_runs_pass_rerank_hygiene() {
        use asym_sim::{EnvironmentPlan, EnvironmentProfile, FaultPlan, FaultProfile};
        // A genuine kernel under both continuous dynamics and discrete
        // faults announces every re-rank and is hysteresis-damped: the
        // hygiene lint must find nothing.
        let horizon = SimDuration::from_millis(60);
        let env = EnvironmentPlan::generate(3, 4, &EnvironmentProfile::combined(horizon));
        let faults = FaultPlan::generate(3, 4, &FaultProfile::hotplug_and_throttle(horizon));
        let trace = capture_one(|| {
            let mut k = Kernel::new(
                MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(4)),
                SchedPolicy::asymmetry_aware(),
                3,
            );
            k.set_environment(&env);
            k.set_fault_plan(&faults);
            for t in 0..6 {
                let mut left = 10u32;
                k.spawn(
                    FnThread::new(format!("w{t}"), move |_cx| {
                        if left == 0 {
                            Step::Done
                        } else {
                            left -= 1;
                            Step::Compute(Cycles::from_millis_at_full_speed(1.0))
                        }
                    }),
                    SpawnOptions::new(),
                );
            }
            k.run();
        });
        assert!(trace
            .records()
            .any(|r| matches!(r.event, TraceEvent::Rerank { .. })));
        let found = crate::hb::check_rerank_hygiene(&trace);
        assert!(found.is_empty(), "unexpected: {found:?}");
    }

    #[test]
    fn offline_dispatch_fixture_contains_the_planted_bug() {
        let trace = offline_core_dispatch();
        let off = trace
            .records()
            .position(|r| matches!(r.event, TraceEvent::CoreOffline { .. }))
            .expect("fixture has a CoreOffline");
        assert!(trace.records_vec()[off + 1..].iter().any(|r| matches!(
            r.event,
            TraceEvent::Dispatch {
                core: CoreId(1),
                ..
            }
        )));
    }
}
