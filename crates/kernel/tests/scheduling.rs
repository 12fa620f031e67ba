//! Behavioural tests for the simulated kernel: dispatch, time slicing,
//! blocking, balancing, affinity, and the asymmetry-aware policy.

use asym_kernel::{
    FnThread, Kernel, RunOutcome, SchedPolicy, SpawnOptions, Step, ThreadBody, ThreadCx,
};
use asym_sim::{CoreId, CoreMask, Cycles, MachineSpec, SimDuration, SimTime, Speed};
use std::cell::RefCell;
use std::rc::Rc;

fn fast_machine(n: usize) -> MachineSpec {
    MachineSpec::symmetric(n, Speed::FULL)
}

/// A thread that computes a fixed amount of work in `bursts` equal steps.
fn compute_thread(total_ms: f64, bursts: u32) -> impl ThreadBody {
    let mut left = bursts;
    let per = Cycles::from_millis_at_full_speed(total_ms / f64::from(bursts));
    FnThread::new("compute", move |_cx: &mut ThreadCx<'_>| {
        if left == 0 {
            Step::Done
        } else {
            left -= 1;
            Step::Compute(per)
        }
    })
}

fn kernel_no_ctx(machine: MachineSpec, policy: SchedPolicy, seed: u64) -> Kernel {
    let mut k = Kernel::new(machine, policy, seed);
    k.set_context_switch(Cycles::ZERO);
    k
}

#[test]
fn single_thread_runtime_matches_work() {
    let mut k = kernel_no_ctx(fast_machine(1), SchedPolicy::os_default(), 1);
    k.spawn(compute_thread(10.0, 5), SpawnOptions::new());
    assert_eq!(k.run(), RunOutcome::AllDone);
    // 10 ms of work on one fast core takes exactly 10 ms.
    assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(10));
}

#[test]
fn slow_core_scales_runtime_by_speed() {
    let machine = MachineSpec::symmetric(1, Speed::fraction_of_full(8));
    let mut k = kernel_no_ctx(machine, SchedPolicy::os_default(), 1);
    k.spawn(compute_thread(10.0, 5), SpawnOptions::new());
    k.run();
    assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(80));
}

#[test]
fn two_threads_share_one_core_fairly() {
    let mut k = kernel_no_ctx(fast_machine(1), SchedPolicy::os_default(), 1);
    let a = k.spawn(compute_thread(10.0, 10), SpawnOptions::new());
    let b = k.spawn(compute_thread(10.0, 10), SpawnOptions::new());
    k.run();
    // Total 20 ms of work on one core.
    assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(20));
    // Round-robin: both get within one quantum of each other in CPU time.
    let ca = k.thread_stats(a).cpu_time;
    let cb = k.thread_stats(b).cpu_time;
    let diff = ca.max(cb) - ca.min(cb);
    assert!(
        diff <= SimDuration::from_millis(2),
        "unfair split: {ca} vs {cb}"
    );
}

#[test]
fn threads_spread_across_cores() {
    let mut k = kernel_no_ctx(fast_machine(4), SchedPolicy::os_default(), 7);
    for _ in 0..4 {
        k.spawn(compute_thread(10.0, 10), SpawnOptions::new());
    }
    k.run();
    // Perfect parallelism: 4 threads, 4 cores, 10 ms.
    assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(10));
    let loads: Vec<_> = (0..4)
        .map(|i| k.stats().core_busy[i].as_millis_f64())
        .collect();
    for l in loads {
        assert!((l - 10.0).abs() < 0.1, "core busy {l} != 10ms");
    }
}

#[test]
fn work_conservation_no_core_idles_with_queued_work() {
    // 8 threads on 4 cores: every core must stay busy until the end nears.
    let mut k = kernel_no_ctx(fast_machine(4), SchedPolicy::os_default(), 3);
    for _ in 0..8 {
        k.spawn(compute_thread(10.0, 10), SpawnOptions::new());
    }
    k.run();
    // 80 ms of work over 4 cores = 20 ms minimum; allow a whisker of
    // tail imbalance.
    let t = k.now().as_secs_f64();
    assert!((0.020..0.0215).contains(&t), "elapsed {t}");
}

#[test]
fn sleep_takes_thread_off_cpu() {
    let mut k = kernel_no_ctx(fast_machine(1), SchedPolicy::os_default(), 1);
    let mut phase = 0;
    k.spawn(
        FnThread::new("sleeper", move |_cx: &mut ThreadCx<'_>| {
            phase += 1;
            match phase {
                1 => Step::Sleep(SimDuration::from_millis(5)),
                2 => Step::Compute(Cycles::from_millis_at_full_speed(1.0)),
                _ => Step::Done,
            }
        }),
        SpawnOptions::new(),
    );
    k.run();
    assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(6));
}

#[test]
fn block_and_notify_roundtrip() {
    let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 1);
    let wait = k.create_wait_queue();
    let woken = Rc::new(RefCell::new(false));

    let w = woken.clone();
    let mut started = false;
    let waiter = k.spawn(
        FnThread::new("waiter", move |_cx: &mut ThreadCx<'_>| {
            if !started {
                started = true;
                return Step::Block(wait);
            }
            *w.borrow_mut() = true;
            Step::Done
        }),
        SpawnOptions::new(),
    );
    let mut phase = 0;
    k.spawn(
        FnThread::new("notifier", move |cx: &mut ThreadCx<'_>| {
            phase += 1;
            match phase {
                1 => Step::Sleep(SimDuration::from_millis(2)),
                2 => {
                    cx.notify_one(wait);
                    Step::Done
                }
                _ => unreachable!(),
            }
        }),
        SpawnOptions::new(),
    );
    assert_eq!(k.run(), RunOutcome::AllDone);
    assert!(*woken.borrow());
    // Waiter was blocked ~2ms.
    let blocked = k.thread_stats(waiter).blocked_time;
    assert!(blocked >= SimDuration::from_millis(1));
}

#[test]
fn deadlock_is_reported() {
    let mut k = kernel_no_ctx(fast_machine(1), SchedPolicy::os_default(), 1);
    let wait = k.create_wait_queue();
    k.spawn(
        FnThread::new("stuck", move |_cx: &mut ThreadCx<'_>| Step::Block(wait)),
        SpawnOptions::new(),
    );
    assert_eq!(k.run(), RunOutcome::Deadlock(1));
}

#[test]
fn time_limit_pauses_and_resumes() {
    let mut k = kernel_no_ctx(fast_machine(1), SchedPolicy::os_default(), 1);
    k.spawn(compute_thread(10.0, 10), SpawnOptions::new());
    let out = k.run_until(SimTime::ZERO + SimDuration::from_millis(4));
    assert_eq!(out, RunOutcome::TimeLimit);
    assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(4));
    assert_eq!(k.run(), RunOutcome::AllDone);
    assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(10));
}

#[test]
fn affinity_pins_thread_to_core() {
    let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
    let mut k = kernel_no_ctx(machine, SchedPolicy::os_default(), 1);
    let slow_only = CoreMask::single(CoreId(1));
    let t = k.spawn(
        compute_thread(8.0, 8),
        SpawnOptions::new().affinity(slow_only),
    );
    k.run();
    assert_eq!(k.thread_core(t), Some(CoreId(1)));
    // 8 ms of work at 1/8 speed = 64 ms even though a fast core idled.
    assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(64));
}

#[test]
fn asymmetry_aware_policy_keeps_fast_core_busy() {
    // One thread, machine 1f-1s/8. Spawn placement under the aware policy
    // must choose the fast core; runtime equals fast-core runtime.
    let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
    let mut k = kernel_no_ctx(machine, SchedPolicy::asymmetry_aware(), 9);
    k.spawn(compute_thread(10.0, 10), SpawnOptions::new());
    k.run();
    assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(10));
}

#[test]
fn asymmetry_aware_migrates_running_thread_to_idle_fast_core() {
    // Two threads on 1f-1s/8. One lands on the slow core. When the fast
    // core finishes its thread it must pull the running slow-core thread.
    let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
    let mut k = kernel_no_ctx(machine, SchedPolicy::asymmetry_aware(), 5);
    let a = k.spawn(compute_thread(10.0, 10), SpawnOptions::new());
    let b = k.spawn(compute_thread(10.0, 10), SpawnOptions::new());
    k.run();
    // Fast-only serial execution would take 20 ms; slow-core-only for the
    // second thread would take 80 ms. With migration the laggard finishes
    // far sooner than 80 ms, and the total is well under the slow bound.
    let t = k.now().as_secs_f64();
    assert!(t < 0.030, "migration failed, elapsed {t}s");
    let migs = k.thread_stats(a).migrations + k.thread_stats(b).migrations;
    assert!(migs >= 1, "expected at least one migration");
}

#[test]
fn stock_policy_leaves_thread_stranded_on_slow_core() {
    // The same scenario under the stock policy: the slow-core thread stays
    // put (the stock kernel never migrates a running thread), so the run
    // takes the full slow-core time.
    let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
    // Find a seed where initial placement puts one thread per core.
    let mut k = kernel_no_ctx(machine, SchedPolicy::os_default_deterministic(), 0);
    k.spawn(compute_thread(10.0, 10), SpawnOptions::new());
    k.spawn(compute_thread(10.0, 10), SpawnOptions::new());
    k.run();
    let t = k.now().as_secs_f64();
    assert!(
        t > 0.079,
        "stock policy should strand the slow thread: {t}s"
    );
}

#[test]
fn cache_hot_threads_are_not_idle_stolen() {
    // 3 threads, 2 fast cores: the stock scheduler's cache-hot test keeps
    // the doubled-up pair sharing one core (each preemption refreshes
    // their hotness), so the run takes the full 20 ms of the shared core
    // rather than the 15 ms a hot-blind work-stealer would achieve.
    let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 2);
    for _ in 0..3 {
        k.spawn(compute_thread(10.0, 10), SpawnOptions::new());
    }
    k.run();
    let t = k.now().as_secs_f64();
    assert!(
        (0.0195..0.021).contains(&t),
        "expected hot pair to share a core: {t}s"
    );
}

#[test]
fn cold_queued_thread_is_idle_stolen() {
    // Thread A computes for 20 ms on core 0. Thread B computes briefly,
    // sleeps 10 ms (going cache-cold), then wakes onto its previous core
    // (0, busy) — and because it is cold, the idle core 1 steals it.
    let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default_deterministic(), 1);
    let slow_start = k.spawn(compute_thread(20.0, 20), SpawnOptions::new());
    let mut phase = 0;
    let b = k.spawn(
        FnThread::new("napper", move |_cx: &mut ThreadCx<'_>| {
            phase += 1;
            match phase {
                1 => Step::Compute(Cycles::from_millis_at_full_speed(0.5)),
                2 => Step::Sleep(SimDuration::from_millis(10)),
                3 => Step::Compute(Cycles::from_millis_at_full_speed(5.0)),
                _ => Step::Done,
            }
        }),
        SpawnOptions::new(),
    );
    k.run();
    let _ = slow_start;
    // If B were stuck sharing core 0, it would finish near 10+2*5=20 ms;
    // stolen to the idle core it finishes by ~15.5 ms.
    let done = k.thread_stats(b).finished_at.expect("b finished");
    assert!(
        done.as_secs_f64() < 0.017,
        "cold thread should be stolen to the idle core: {done}"
    );
}

#[test]
fn migrations_are_counted() {
    let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 2);
    for _ in 0..3 {
        k.spawn(compute_thread(10.0, 10), SpawnOptions::new());
    }
    k.run();
    assert!(k.stats().dispatches > 0);
    assert!(k.stats().events > 0);
}

#[test]
fn identical_seeds_give_identical_runs() {
    let run = |seed: u64| -> (f64, u64) {
        let machine = MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(4));
        let mut k = Kernel::new(machine, SchedPolicy::os_default(), seed);
        for _ in 0..6 {
            k.spawn(compute_thread(5.0, 7), SpawnOptions::new());
        }
        k.run();
        (k.now().as_secs_f64(), k.stats().dispatches)
    };
    assert_eq!(run(42), run(42));
    // And different seeds may differ (placement lottery).
    let (t1, _) = run(1);
    let (t2, _) = run(2);
    // They can coincide, but at least determinism must hold; record both.
    let _ = (t1, t2);
}

#[test]
fn spawn_inside_thread_works() {
    let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 1);
    let done = Rc::new(RefCell::new(0u32));
    let d2 = done.clone();
    let mut spawned = false;
    k.spawn(
        FnThread::new("parent", move |cx: &mut ThreadCx<'_>| {
            if !spawned {
                spawned = true;
                let d = d2.clone();
                cx.spawn(
                    FnThread::new("child", move |_cx: &mut ThreadCx<'_>| {
                        *d.borrow_mut() += 1;
                        Step::Done
                    }),
                    SpawnOptions::new(),
                );
                return Step::Compute(Cycles::from_millis_at_full_speed(1.0));
            }
            Step::Done
        }),
        SpawnOptions::new(),
    );
    assert_eq!(k.run(), RunOutcome::AllDone);
    assert_eq!(*done.borrow(), 1);
}

#[test]
fn set_affinity_moves_running_thread() {
    let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
    let mut k = kernel_no_ctx(machine, SchedPolicy::os_default_deterministic(), 1);
    let t = k.spawn(compute_thread(10.0, 1), SpawnOptions::new());
    // Run briefly, then pin to the slow core mid-compute.
    k.run_until(SimTime::ZERO + SimDuration::from_millis(2));
    k.set_affinity(t, CoreMask::single(CoreId(1)));
    k.run();
    assert_eq!(k.thread_core(t), Some(CoreId(1)));
    // 2 ms done fast, 8 ms remaining at 1/8 = 64 ms → total ≈ 66 ms.
    let total = k.now().as_secs_f64();
    assert!((0.060..0.070).contains(&total), "elapsed {total}");
}

#[test]
fn notify_all_wakes_everyone() {
    let mut k = kernel_no_ctx(fast_machine(4), SchedPolicy::os_default(), 1);
    let wait = k.create_wait_queue();
    let woken = Rc::new(RefCell::new(0u32));
    for _ in 0..5 {
        let w = woken.clone();
        let mut blocked = false;
        k.spawn(
            FnThread::new("waiter", move |_cx: &mut ThreadCx<'_>| {
                if !blocked {
                    blocked = true;
                    return Step::Block(wait);
                }
                *w.borrow_mut() += 1;
                Step::Done
            }),
            SpawnOptions::new(),
        );
    }
    let mut phase = 0;
    k.spawn(
        FnThread::new("broadcaster", move |cx: &mut ThreadCx<'_>| {
            phase += 1;
            if phase == 1 {
                return Step::Sleep(SimDuration::from_millis(1));
            }
            assert_eq!(cx.waiter_count(wait), 5);
            assert_eq!(cx.notify_all(wait), 5);
            Step::Done
        }),
        SpawnOptions::new(),
    );
    assert_eq!(k.run(), RunOutcome::AllDone);
    assert_eq!(*woken.borrow(), 5);
}

#[test]
fn sync_wakeup_pulls_wakee_to_waker_core() {
    // Thread W runs pinned-by-stickiness on core 0; thread S blocks after
    // first running on core 1; core 1 then gets a long-running hog, so
    // when W wakes S, S should migrate to W's core (its own prev is busy
    // with someone else and W's core has room).
    let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default_deterministic(), 1);
    let wait = k.create_wait_queue();

    // S: compute briefly (establishing a home), then block, then compute.
    let mut phase_s = 0;
    let s = k.spawn(
        FnThread::new("sleeper", move |_cx: &mut ThreadCx<'_>| {
            phase_s += 1;
            match phase_s {
                1 => Step::Compute(Cycles::from_millis_at_full_speed(0.5)),
                2 => Step::Block(wait),
                3 => Step::Compute(Cycles::from_millis_at_full_speed(1.0)),
                _ => Step::Done,
            }
        }),
        SpawnOptions::new(),
    );
    // Hog: keeps S's home core busy so the sync-wakeup condition applies.
    let mut phase_h = 0;
    k.spawn(
        FnThread::new("hog", move |_cx: &mut ThreadCx<'_>| {
            phase_h += 1;
            if phase_h > 40 {
                Step::Done
            } else {
                Step::Compute(Cycles::from_millis_at_full_speed(1.0))
            }
        }),
        SpawnOptions::new(),
    );
    // W: waits 5 ms, then wakes S from its own core.
    let mut phase_w = 0;
    let w = k.spawn(
        FnThread::new("waker", move |cx: &mut ThreadCx<'_>| {
            phase_w += 1;
            match phase_w {
                1 => Step::Sleep(SimDuration::from_millis(5)),
                2 => {
                    cx.notify_one(wait);
                    Step::Compute(Cycles::from_millis_at_full_speed(0.2))
                }
                _ => Step::Done,
            }
        }),
        SpawnOptions::new(),
    );
    k.run();
    // Deterministic placement: S and hog share a home; after the sync
    // wakeup S finishes on the waker's core.
    let s_core = k.thread_core(s).expect("s ran");
    let w_core = k.thread_core(w).expect("w ran");
    assert_eq!(s_core, w_core, "sync wakeup should pull S to W's core");
}

#[test]
fn remote_wakeup_keeps_wakee_on_previous_core() {
    // Same shape as above, but the waker uses notify_one_remote: S stays
    // on its (busy) previous core — network arrivals carry no affinity.
    let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default_deterministic(), 1);
    let wait = k.create_wait_queue();
    let mut phase_s = 0;
    let s = k.spawn(
        FnThread::new("sleeper", move |_cx: &mut ThreadCx<'_>| {
            phase_s += 1;
            match phase_s {
                1 => Step::Compute(Cycles::from_millis_at_full_speed(0.5)),
                2 => Step::Block(wait),
                3 => Step::Compute(Cycles::from_millis_at_full_speed(0.5)),
                _ => Step::Done,
            }
        }),
        SpawnOptions::new(),
    );
    let s_home = {
        // Run until S has computed once so its home is set.
        k.run_until(SimTime::ZERO + SimDuration::from_millis(1));
        k.thread_core(s).expect("s ran")
    };
    let mut phase_w = 0;
    k.spawn(
        FnThread::new("remote-waker", move |cx: &mut ThreadCx<'_>| {
            phase_w += 1;
            match phase_w {
                1 => Step::Sleep(SimDuration::from_millis(2)),
                2 => {
                    cx.notify_one_remote(wait);
                    Step::Done
                }
                _ => unreachable!(),
            }
        }),
        SpawnOptions::new(),
    );
    k.run();
    assert_eq!(
        k.thread_core(s),
        Some(s_home),
        "remote wakeups are cache-affine to the wakee's own core"
    );
}

#[test]
fn fresh_threads_are_cold_and_spread_instantly() {
    // A parent on one core spawns children with default (exec-balanced)
    // placement: they land on distinct cores immediately, even though
    // the parent's core is busy.
    let mut k = kernel_no_ctx(fast_machine(4), SchedPolicy::os_default_deterministic(), 3);
    let mut spawned = false;
    k.spawn(
        FnThread::new("make", move |cx: &mut ThreadCx<'_>| {
            if !spawned {
                spawned = true;
                for i in 0..3 {
                    let mut left = 5;
                    cx.spawn(
                        FnThread::new(format!("cc{i}"), move |_cx: &mut ThreadCx<'_>| {
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
                return Step::Compute(Cycles::from_millis_at_full_speed(5.0));
            }
            Step::Done
        }),
        SpawnOptions::new(),
    );
    k.run();
    // 3 children x 5 ms in parallel with the 5 ms parent: everything can
    // finish by ~5 ms if the children spread; serialized it would be 20ms.
    let t = k.now().as_secs_f64();
    assert!(t < 0.007, "children failed to spread: {t}s");
}

#[test]
fn on_parent_core_children_start_at_home() {
    // With fork semantics the child starts on the parent's core and, being
    // behind the computing parent, finishes later than an exec-balanced
    // child would (cache-hot protection keeps it there briefly).
    let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default_deterministic(), 3);
    let child_core = Rc::new(RefCell::new(None));
    let cc = child_core.clone();
    let mut spawned = false;
    let parent = k.spawn(
        FnThread::new("parent", move |cx: &mut ThreadCx<'_>| {
            if !spawned {
                spawned = true;
                let cc = cc.clone();
                cx.spawn(
                    FnThread::new("child", move |cx2: &mut ThreadCx<'_>| {
                        if cc.borrow().is_none() {
                            *cc.borrow_mut() = Some(cx2.core());
                            return Step::Compute(Cycles::new(1000));
                        }
                        Step::Done
                    }),
                    SpawnOptions::new().on_parent_core(),
                );
                return Step::Compute(Cycles::from_millis_at_full_speed(0.5));
            }
            Step::Done
        }),
        SpawnOptions::new(),
    );
    k.run();
    assert_eq!(
        *child_core.borrow(),
        k.thread_core(parent),
        "forked child starts on the parent's core"
    );
}

#[test]
fn policies_keep_affinity_masks_sacred() {
    // Even the aggressive asymmetry-aware policy never migrates a pinned
    // thread.
    let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
    let mut k = kernel_no_ctx(machine, SchedPolicy::asymmetry_aware(), 1);
    let slow_only = CoreMask::single(CoreId(1));
    let t = k.spawn(
        compute_thread(4.0, 4),
        SpawnOptions::new().affinity(slow_only),
    );
    k.run();
    assert_eq!(k.thread_core(t), Some(CoreId(1)));
    // 4 ms at 1/8 speed = 32 ms, fast core idle throughout.
    assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(32));
}

#[test]
fn tracer_observes_full_thread_lifecycle() {
    use asym_kernel::TraceEvent;

    let (t, traces) = asym_kernel::capture_traces(|| {
        let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 1);
        let wait = k.create_wait_queue();
        let mut phase = 0;
        let t = k.spawn(
            FnThread::new("traced", move |_cx: &mut ThreadCx<'_>| {
                phase += 1;
                match phase {
                    1 => Step::Compute(Cycles::from_millis_at_full_speed(0.5)),
                    2 => Step::Block(wait),
                    _ => Step::Done,
                }
            }),
            SpawnOptions::new(),
        );
        let mut p2 = 0;
        k.spawn(
            FnThread::new("waker", move |cx: &mut ThreadCx<'_>| {
                p2 += 1;
                match p2 {
                    1 => Step::Sleep(SimDuration::from_millis(2)),
                    _ => {
                        cx.notify_one(wait);
                        Step::Done
                    }
                }
            }),
            SpawnOptions::new(),
        );
        k.run();
        t
    });
    let evs: Vec<TraceEvent> = traces[0].records().map(|r| r.event).collect();
    let dispatched = evs
        .iter()
        .any(|e| matches!(e, TraceEvent::Dispatch { tid, .. } if *tid == t));
    let blocked = evs
        .iter()
        .any(|e| matches!(e, TraceEvent::Block { tid, .. } if *tid == t));
    let woken = evs
        .iter()
        .any(|e| matches!(e, TraceEvent::Wakeup { tid, .. } if *tid == t));
    let done = evs
        .iter()
        .any(|e| matches!(e, TraceEvent::Done { tid } if *tid == t));
    assert!(
        dispatched && blocked && woken && done,
        "lifecycle gaps: {evs:?}"
    );
    // Ordering: block precedes wakeup precedes done for the traced thread.
    let pos = |pred: &dyn Fn(&TraceEvent) -> bool| evs.iter().position(pred).unwrap();
    let b = pos(&|e| matches!(e, TraceEvent::Block { tid, .. } if *tid == t));
    let w = pos(&|e| matches!(e, TraceEvent::Wakeup { tid, .. } if *tid == t));
    let d = pos(&|e| matches!(e, TraceEvent::Done { tid } if *tid == t));
    assert!(b < w && w < d);
}

// ----------------------------------------------------------------------
// Fault injection, graceful degradation, watchdog, and run guards
// ----------------------------------------------------------------------

#[test]
fn offline_core_migrates_work_and_run_completes() {
    use asym_kernel::TraceEvent;
    use asym_sim::{FaultKind, FaultPlan, SimTime};
    let ((), traces) = asym_kernel::capture_traces(|| {
        let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 11);
        let mut plan = FaultPlan::new();
        plan.inject(
            SimTime::ZERO + SimDuration::from_millis(2),
            FaultKind::CoreOffline { core: CoreId(1) },
        );
        plan.inject(
            SimTime::ZERO + SimDuration::from_millis(6),
            FaultKind::CoreOnline { core: CoreId(1) },
        );
        k.set_fault_plan(&plan);
        for _ in 0..4 {
            k.spawn(compute_thread(5.0, 5), SpawnOptions::new());
        }
        assert_eq!(k.run(), RunOutcome::AllDone);
        assert!(k.core_online(CoreId(1)));
        assert_eq!(k.stats().faults_injected, 2);
    });
    // No dispatch lands on core 1 while it is down.
    let mut down = false;
    for r in traces[0].records() {
        match r.event {
            TraceEvent::CoreOffline { core: CoreId(1) } => down = true,
            TraceEvent::CoreOnline { core: CoreId(1) } => down = false,
            TraceEvent::Dispatch { core, .. } => {
                assert!(!(down && core == CoreId(1)), "dispatch to offline core");
            }
            _ => {}
        }
    }
    assert!(traces[0]
        .records()
        .any(|r| matches!(r.event, TraceEvent::CoreOffline { .. })));
}

#[test]
fn never_offline_the_last_core() {
    use asym_sim::{FaultKind, FaultPlan, SimTime};
    let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 12);
    let mut plan = FaultPlan::new();
    let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    plan.inject(t(1), FaultKind::CoreOffline { core: CoreId(0) });
    plan.inject(t(2), FaultKind::CoreOffline { core: CoreId(1) });
    k.set_fault_plan(&plan);
    k.spawn(compute_thread(10.0, 5), SpawnOptions::new());
    assert_eq!(k.run(), RunOutcome::AllDone);
    // The second offline was refused: core 1 is still up.
    assert!(k.core_online(CoreId(1)));
    assert!(!k.core_online(CoreId(0)));
}

#[test]
fn throttle_reslices_in_flight_work() {
    use asym_sim::{FaultKind, FaultPlan, SimTime};
    let mut k = kernel_no_ctx(fast_machine(1), SchedPolicy::os_default(), 13);
    let mut plan = FaultPlan::new();
    plan.inject(
        SimTime::ZERO + SimDuration::from_millis(2),
        FaultKind::SetSpeed {
            core: CoreId(0),
            speed: Speed::fraction_of_full(8),
        },
    );
    k.set_fault_plan(&plan);
    k.spawn(compute_thread(10.0, 1), SpawnOptions::new());
    assert_eq!(k.run(), RunOutcome::AllDone);
    // 2 ms at full speed + 8 ms of work at 1/8 speed = 2 + 64 = 66 ms.
    let secs = k.now().as_secs_f64();
    assert!((0.0659..0.0661).contains(&secs), "finished at {secs}s");
    assert_eq!(k.machine().speed(CoreId(0)), Speed::fraction_of_full(8));
}

#[test]
fn kill_fault_removes_a_thread() {
    use asym_kernel::TraceEvent;
    use asym_sim::{FaultKind, FaultPlan, SimTime};
    let ((), traces) = asym_kernel::capture_traces(|| {
        let mut k = kernel_no_ctx(fast_machine(1), SchedPolicy::os_default(), 14);
        let mut plan = FaultPlan::new();
        plan.inject(
            SimTime::ZERO + SimDuration::from_millis(1),
            FaultKind::KillThread { victim: 0 },
        );
        k.set_fault_plan(&plan);
        k.spawn(compute_thread(10.0, 5), SpawnOptions::new());
        k.spawn(compute_thread(10.0, 5), SpawnOptions::new());
        assert_eq!(k.run(), RunOutcome::AllDone);
        assert_eq!(k.live_threads(), 0);
        // The survivor gets the whole core: total runtime is well under
        // the 20 ms a fair share would take.
        assert!(k.now().as_secs_f64() < 0.012);
    });
    let killed = traces[0]
        .records()
        .filter(|r| matches!(r.event, TraceEvent::ThreadKilled { .. }))
        .count();
    assert_eq!(killed, 1);
}

#[test]
fn watchdog_reports_sleep_poll_livelock_as_stalled() {
    let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 15);
    k.set_watchdog(SimDuration::from_millis(10));
    k.spawn(
        FnThread::new("poller", |_cx: &mut ThreadCx<'_>| {
            Step::Sleep(SimDuration::from_micros(50))
        }),
        SpawnOptions::new(),
    );
    assert_eq!(k.run(), RunOutcome::Stalled);
    // The watchdog bounded the spin to roughly one window.
    assert!(k.now().as_secs_f64() < 0.025);
    // Resuming re-arms the watchdog and stalls again.
    assert_eq!(k.run(), RunOutcome::Stalled);
}

#[test]
fn watchdog_stays_quiet_on_healthy_runs() {
    let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 16);
    k.set_watchdog(SimDuration::from_millis(2));
    for _ in 0..3 {
        k.spawn(compute_thread(20.0, 10), SpawnOptions::new());
    }
    assert_eq!(k.run(), RunOutcome::AllDone);
}

#[test]
fn sim_time_budget_truncates_unbounded_runs() {
    let mut k = kernel_no_ctx(fast_machine(1), SchedPolicy::os_default(), 17);
    k.set_sim_time_budget(SimDuration::from_millis(5));
    k.spawn(compute_thread(100.0, 10), SpawnOptions::new());
    assert_eq!(k.run(), RunOutcome::TimeLimit);
    assert_eq!(k.now(), SimTime::ZERO + SimDuration::from_millis(5));
}

#[test]
fn unschedulable_spawn_mask_is_widened_with_trace() {
    use asym_kernel::TraceEvent;
    let ((), traces) = asym_kernel::capture_traces(|| {
        let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 18);
        // Empty mask and a mask naming only a core this machine lacks.
        k.spawn(
            compute_thread(1.0, 1),
            SpawnOptions::new().affinity(CoreMask::from_cores(std::iter::empty())),
        );
        k.spawn(
            compute_thread(1.0, 1),
            SpawnOptions::new().affinity(CoreMask::single(CoreId(7))),
        );
        assert_eq!(k.run(), RunOutcome::AllDone);
        assert_eq!(k.stats().affinity_overrides, 2);
    });
    let overrides = traces[0]
        .records()
        .filter(|r| matches!(r.event, TraceEvent::AffinityOverride { .. }))
        .count();
    assert_eq!(overrides, 2);
}

#[test]
fn unschedulable_set_affinity_is_widened() {
    let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 19);
    let tid = k.spawn(compute_thread(5.0, 5), SpawnOptions::new());
    k.set_affinity(tid, CoreMask::single(CoreId(9)));
    assert_eq!(k.run(), RunOutcome::AllDone);
    assert_eq!(k.stats().affinity_overrides, 1);
}

#[test]
fn pinned_thread_survives_its_core_going_offline() {
    use asym_kernel::TraceEvent;
    use asym_sim::{FaultKind, FaultPlan, SimTime};
    let ((), traces) = asym_kernel::capture_traces(|| {
        let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 20);
        let mut plan = FaultPlan::new();
        plan.inject(
            SimTime::ZERO + SimDuration::from_millis(1),
            FaultKind::CoreOffline { core: CoreId(1) },
        );
        k.set_fault_plan(&plan);
        k.spawn(
            compute_thread(5.0, 5),
            SpawnOptions::new().affinity(CoreMask::single(CoreId(1))),
        );
        assert_eq!(k.run(), RunOutcome::AllDone);
    });
    // The pin was widened when core 1 vanished, and the thread finished
    // on core 0.
    assert!(traces[0]
        .records()
        .any(|r| matches!(r.event, TraceEvent::AffinityOverride { .. })));
}

#[test]
fn run_guard_applies_to_inner_kernels() {
    use asym_kernel::{with_run_guard, RunGuard};
    let outcome = with_run_guard(
        RunGuard::new().sim_time_budget(SimDuration::from_millis(3)),
        || {
            let mut k = kernel_no_ctx(fast_machine(1), SchedPolicy::os_default(), 21);
            k.spawn(compute_thread(50.0, 5), SpawnOptions::new());
            k.run()
        },
    );
    assert_eq!(outcome, RunOutcome::TimeLimit);
}

#[test]
fn same_seed_and_plan_produce_identical_trace_hashes() {
    use asym_kernel::{capture_traces, with_run_guard, RunGuard};
    use asym_sim::{FaultPlan, FaultProfile};
    let run = |seed: u64| {
        let profile = FaultProfile::hotplug_and_throttle(SimDuration::from_millis(50));
        let plan = FaultPlan::generate(seed, 4, &profile);
        let ((), traces) = capture_traces(|| {
            with_run_guard(RunGuard::new().fault_plan(plan), || {
                let mut k = kernel_no_ctx(fast_machine(4), SchedPolicy::asymmetry_aware(), seed);
                for _ in 0..6 {
                    k.spawn(compute_thread(8.0, 4), SpawnOptions::new());
                }
                assert_eq!(k.run(), RunOutcome::AllDone);
            })
        });
        traces[0].stable_hash()
    };
    assert_eq!(run(33), run(33));
    assert_ne!(run(33), run(34));
}

#[test]
fn thermal_environment_throttles_sustained_work() {
    use asym_kernel::TraceEvent;
    use asym_sim::{EnvironmentPlan, EnvironmentProfile};
    let plan = EnvironmentPlan::generate(
        1,
        1,
        &EnvironmentProfile::thermal(SimDuration::from_millis(100)),
    );
    let ((), traces) = asym_kernel::capture_traces(|| {
        let mut k = kernel_no_ctx(fast_machine(1), SchedPolicy::os_default(), 40);
        k.set_environment(&plan);
        k.spawn(compute_thread(30.0, 30), SpawnOptions::new());
        assert_eq!(k.run(), RunOutcome::AllDone);
        // Sustained busy work heats the core past the throttle cap, so
        // the environment must have slowed it at least once.
        assert!(k.stats().env_ticks > 0, "environment never ticked");
        assert!(
            k.stats().env_speed_changes >= 1,
            "thermal model never throttled: {:?}",
            k.stats()
        );
        // Throttling makes 30 ms of work take longer than 30 ms.
        assert!(k.now() > SimTime::ZERO + SimDuration::from_millis(30));
    });
    assert!(traces[0]
        .records()
        .any(|r| matches!(r.event, TraceEvent::SpeedChange { .. })));
}

#[test]
fn environment_hysteresis_bounds_apply_rate() {
    use asym_kernel::{TraceEvent, ENV_MIN_APPLY_INTERVAL};
    use asym_sim::{EnvironmentPlan, EnvironmentProfile};
    // DVFS + thermal together want frequent re-targets; the kernel must
    // space environment-driven speed changes on one core by at least the
    // minimum apply interval.
    let plan = EnvironmentPlan::generate(
        2,
        1,
        &EnvironmentProfile::combined(SimDuration::from_millis(100)),
    );
    let ((), traces) = asym_kernel::capture_traces(|| {
        let mut k = kernel_no_ctx(fast_machine(1), SchedPolicy::os_default(), 41);
        k.set_environment(&plan);
        // Alternate compute and sleep so DVFS and thermal both keep
        // re-targeting in opposite directions.
        let mut left = 40u32;
        k.spawn(
            FnThread::new("duty", move |_cx: &mut ThreadCx<'_>| {
                if left == 0 {
                    Step::Done
                } else {
                    left -= 1;
                    if left.is_multiple_of(2) {
                        Step::Compute(Cycles::from_millis_at_full_speed(1.0))
                    } else {
                        Step::Sleep(SimDuration::from_millis(2))
                    }
                }
            }),
            SpawnOptions::new(),
        );
        assert_eq!(k.run(), RunOutcome::AllDone);
    });
    // No fault plan: every SpeedChange in the trace is environmental.
    let times: Vec<SimTime> = traces[0]
        .records()
        .filter(|r| matches!(r.event, TraceEvent::SpeedChange { .. }))
        .map(|r| r.time)
        .collect();
    assert!(times.len() >= 2, "expected repeated re-targets: {times:?}");
    for pair in times.windows(2) {
        let gap = pair[1].duration_since(pair[0]);
        assert!(
            gap >= ENV_MIN_APPLY_INTERVAL,
            "speed changes {} apart, min is {}",
            gap,
            ENV_MIN_APPLY_INTERVAL
        );
    }
}

#[test]
fn ranking_change_emits_rerank_trace() {
    use asym_kernel::TraceEvent;
    use asym_sim::{FaultKind, FaultPlan};
    let ((), traces) = asym_kernel::capture_traces(|| {
        let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
        let mut k = kernel_no_ctx(machine, SchedPolicy::asymmetry_aware(), 42);
        let mut plan = FaultPlan::new();
        // Demote the fast core below the slow one: the speed ranking
        // inverts and the kernel must announce the re-rank.
        plan.inject(
            SimTime::ZERO + SimDuration::from_millis(2),
            FaultKind::SetSpeed {
                core: CoreId(0),
                speed: Speed::fraction_of_full(16),
            },
        );
        k.set_fault_plan(&plan);
        for _ in 0..2 {
            k.spawn(compute_thread(8.0, 8), SpawnOptions::new());
        }
        assert_eq!(k.run(), RunOutcome::AllDone);
        assert_eq!(k.stats().reranks, 1);
    });
    let reranks: Vec<_> = traces[0]
        .records()
        .filter_map(|r| match r.event {
            TraceEvent::Rerank { core } => Some(core),
            _ => None,
        })
        .collect();
    assert_eq!(reranks, vec![CoreId(0)]);
}

#[test]
fn equal_speed_change_does_not_rerank() {
    use asym_sim::{FaultKind, FaultPlan};
    let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
    let mut k = kernel_no_ctx(machine, SchedPolicy::asymmetry_aware(), 43);
    let mut plan = FaultPlan::new();
    // A throttle that leaves the fast core still fastest: the ranking is
    // unchanged, so no re-rank may be announced.
    plan.inject(
        SimTime::ZERO + SimDuration::from_millis(2),
        FaultKind::SetSpeed {
            core: CoreId(0),
            speed: Speed::fraction_of_full(2),
        },
    );
    k.set_fault_plan(&plan);
    for _ in 0..2 {
        k.spawn(compute_thread(8.0, 8), SpawnOptions::new());
    }
    assert_eq!(k.run(), RunOutcome::AllDone);
    assert_eq!(k.stats().reranks, 0);
}

#[test]
fn static_environment_is_a_no_op() {
    use asym_sim::{EnvironmentPlan, EnvironmentProfile};
    let hash_of = |env: bool| {
        let ((), traces) = asym_kernel::capture_traces(|| {
            let mut k = kernel_no_ctx(fast_machine(2), SchedPolicy::os_default(), 44);
            if env {
                let plan = EnvironmentPlan::generate(
                    9,
                    2,
                    &EnvironmentProfile::quiet(SimDuration::from_millis(50)),
                );
                k.set_environment(&plan);
            }
            for _ in 0..3 {
                k.spawn(compute_thread(5.0, 5), SpawnOptions::new());
            }
            assert_eq!(k.run(), RunOutcome::AllDone);
            assert_eq!(k.stats().env_ticks, 0);
        });
        traces[0].stable_hash()
    };
    // A quiet plan never schedules a tick, so the trace is bit-identical
    // to an unguarded run.
    assert_eq!(hash_of(true), hash_of(false));
}

#[test]
fn environment_runs_are_deterministic() {
    use asym_kernel::{capture_traces, with_run_guard, RunGuard};
    use asym_sim::{EnvironmentPlan, EnvironmentProfile};
    let run = |seed: u64| {
        let plan = EnvironmentPlan::generate(
            seed,
            4,
            &EnvironmentProfile::combined(SimDuration::from_millis(50)),
        );
        let ((), traces) = capture_traces(|| {
            with_run_guard(RunGuard::new().environment(plan), || {
                let mut k = kernel_no_ctx(fast_machine(4), SchedPolicy::asymmetry_aware(), seed);
                for _ in 0..6 {
                    k.spawn(compute_thread(8.0, 4), SpawnOptions::new());
                }
                assert_eq!(k.run(), RunOutcome::AllDone);
            })
        });
        traces[0].stable_hash()
    };
    assert_eq!(run(33), run(33));
    assert_ne!(run(33), run(35));
}

#[test]
fn environment_composes_with_faults() {
    use asym_kernel::{capture_traces, with_run_guard, RunGuard};
    use asym_sim::{EnvironmentPlan, EnvironmentProfile, FaultPlan, FaultProfile};
    // Continuous dynamics and discrete faults in the same run: the
    // kernel must degrade gracefully and still finish everything.
    let env = EnvironmentPlan::generate(
        5,
        4,
        &EnvironmentProfile::combined(SimDuration::from_millis(60)),
    );
    let faults = FaultPlan::generate(
        5,
        4,
        &FaultProfile::hotplug_and_throttle(SimDuration::from_millis(60)),
    );
    let ((), traces) = capture_traces(|| {
        let guard = RunGuard::new().environment(env).fault_plan(faults);
        with_run_guard(guard, || {
            let mut k = kernel_no_ctx(fast_machine(4), SchedPolicy::asymmetry_aware(), 5);
            for _ in 0..6 {
                k.spawn(compute_thread(10.0, 5), SpawnOptions::new());
            }
            assert_eq!(k.run(), RunOutcome::AllDone);
            assert!(k.stats().env_ticks > 0);
        })
    });
    assert!(traces[0].num_records() > 0);
}

// ----------------------------------------------------------------------
// Policy-conformance suite: shared invariants every policy registered in
// `SchedPolicy::registry()` must uphold. The suite iterates the registry,
// so a new policy cannot ship without passing it. Each run mixes compute,
// sleeping, blocking, a pinned thread, and an in-simulation fork, under a
// hotplug + throttle + kill fault plan and a thermal environment.
// ----------------------------------------------------------------------

/// Spawns the mixed conformance workload: four free compute threads, one
/// pinned compute thread, a compute/sleep alternator, a blocker, and a
/// waker that forks a child onto its own core.
fn spawn_conformance_mix(k: &mut Kernel) {
    for _ in 0..4 {
        k.spawn(compute_thread(5.0, 5), SpawnOptions::new());
    }
    // Pinned to core 2, which the fault plan never offlines: the mask is
    // never widened, so every dispatch of this thread must land there.
    k.spawn(
        compute_thread(4.0, 4),
        SpawnOptions::new().affinity(CoreMask::single(CoreId(2))),
    );
    let mut phase = 0;
    k.spawn(
        FnThread::new("alternator", move |_cx: &mut ThreadCx<'_>| {
            phase += 1;
            match phase {
                1 | 3 => Step::Compute(Cycles::from_millis_at_full_speed(1.0)),
                2 => Step::Sleep(SimDuration::from_millis(2)),
                _ => Step::Done,
            }
        }),
        SpawnOptions::new(),
    );
    let wait = k.create_wait_queue();
    let mut started = false;
    k.spawn(
        FnThread::new("waiter", move |_cx: &mut ThreadCx<'_>| {
            if !started {
                started = true;
                return Step::Block(wait);
            }
            Step::Done
        }),
        SpawnOptions::new(),
    );
    let mut wphase = 0;
    k.spawn(
        FnThread::new("waker", move |cx: &mut ThreadCx<'_>| {
            wphase += 1;
            match wphase {
                1 => Step::Sleep(SimDuration::from_millis(3)),
                2 => {
                    cx.notify_all(wait);
                    cx.spawn(compute_thread(2.0, 2), SpawnOptions::new().on_parent_core());
                    Step::Done
                }
                _ => unreachable!(),
            }
        }),
        SpawnOptions::new(),
    );
}

/// Runs the conformance mix under `policy` on a 2-fast/2-slow machine
/// with hotplug, throttle, and kill faults plus a thermal environment,
/// and returns the captured trace.
fn run_conformance_mix(policy: SchedPolicy, seed: u64) -> asym_kernel::KernelTrace {
    use asym_sim::{EnvironmentPlan, EnvironmentProfile, FaultKind, FaultPlan};
    let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    let mut plan = FaultPlan::new();
    plan.inject(t(2), FaultKind::CoreOffline { core: CoreId(1) });
    plan.inject(
        t(3),
        FaultKind::SetSpeed {
            core: CoreId(0),
            speed: Speed::fraction_of_full(2),
        },
    );
    plan.inject(t(4), FaultKind::KillThread { victim: 0 });
    plan.inject(t(6), FaultKind::CoreOnline { core: CoreId(1) });
    plan.inject(
        t(7),
        FaultKind::SetSpeed {
            core: CoreId(0),
            speed: Speed::FULL,
        },
    );
    let env = EnvironmentPlan::generate(
        seed,
        4,
        &EnvironmentProfile::thermal(SimDuration::from_millis(60)),
    );
    let ((), traces) = asym_kernel::capture_traces(|| {
        let machine = MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(4));
        let mut k = kernel_no_ctx(machine, policy, seed);
        k.set_fault_plan(&plan);
        k.set_environment(&env);
        spawn_conformance_mix(&mut k);
        assert_eq!(
            k.run(),
            RunOutcome::AllDone,
            "policy {policy} lost a runnable thread"
        );
    });
    traces.into_iter().next().expect("one kernel trace")
}

#[test]
fn conformance_no_dispatch_to_offline_core() {
    use asym_kernel::TraceEvent;
    for (name, policy) in SchedPolicy::registry() {
        let trace = run_conformance_mix(policy, 97);
        let mut online = vec![true; trace.machine.num_cores()];
        let mut saw_offline = false;
        for r in trace.records() {
            match r.event {
                TraceEvent::CoreOffline { core } => {
                    online[core.0] = false;
                    saw_offline = true;
                }
                TraceEvent::CoreOnline { core } => online[core.0] = true,
                TraceEvent::Dispatch { tid, core } => {
                    assert!(
                        online[core.0],
                        "{name}: dispatched {tid:?} to offline core {core:?}"
                    );
                }
                _ => {}
            }
        }
        assert!(saw_offline, "{name}: fault plan never offlined a core");
    }
}

#[test]
fn conformance_affinity_masks_respected() {
    use asym_kernel::TraceEvent;
    use std::collections::HashMap;
    for (name, policy) in SchedPolicy::registry() {
        let trace = run_conformance_mix(policy, 98);
        // Replay affinity state from the trace itself; `AffinityOverride`
        // legitimately widens a mask stranded by hotplug.
        let mut masks: HashMap<asym_kernel::ThreadId, CoreMask> = HashMap::new();
        let check = |masks: &HashMap<asym_kernel::ThreadId, CoreMask>,
                     tid: asym_kernel::ThreadId,
                     core: CoreId| {
            let mask = masks.get(&tid).expect("placement before spawn");
            assert!(
                mask.contains(core),
                "{name}: {tid:?} placed on {core:?} outside affinity {mask:?}"
            );
        };
        for r in trace.records() {
            match r.event {
                TraceEvent::Spawn {
                    tid,
                    core,
                    affinity,
                    ..
                } => {
                    masks.insert(tid, affinity);
                    check(&masks, tid, core);
                }
                TraceEvent::SetAffinity { tid, affinity }
                | TraceEvent::AffinityOverride { tid, affinity } => {
                    masks.insert(tid, affinity);
                }
                TraceEvent::Dispatch { tid, core } | TraceEvent::Wakeup { tid, core, .. } => {
                    check(&masks, tid, core);
                }
                TraceEvent::Steal { tid, to, .. } => check(&masks, tid, to),
                _ => {}
            }
        }
        // The pinned thread (core 2 is never offlined) must additionally
        // have run only on its pinned core, with no override recorded.
        let pinned = trace.records().find_map(|r| match r.event {
            TraceEvent::Spawn { tid, affinity, .. } if affinity == CoreMask::single(CoreId(2)) => {
                Some(tid)
            }
            _ => None,
        });
        let pinned = pinned.expect("pinned thread spawned");
        for r in trace.records() {
            match r.event {
                TraceEvent::Dispatch { tid, core } if tid == pinned => {
                    assert_eq!(core, CoreId(2), "{name}: pinned thread left its core");
                }
                TraceEvent::AffinityOverride { tid, .. } if tid == pinned => {
                    panic!("{name}: pinned thread's mask was widened");
                }
                _ => {}
            }
        }
    }
}

#[test]
fn conformance_no_lost_runnable_threads() {
    use asym_kernel::TraceEvent;
    use std::collections::HashSet;
    for (name, policy) in SchedPolicy::registry() {
        // `run_conformance_mix` already asserts `RunOutcome::AllDone`;
        // additionally every spawned thread must have exactly one Done.
        let trace = run_conformance_mix(policy, 99);
        let mut spawned = HashSet::new();
        let mut done = Vec::new();
        for r in trace.records() {
            match r.event {
                TraceEvent::Spawn { tid, .. } => {
                    spawned.insert(tid);
                }
                TraceEvent::Done { tid } => done.push(tid),
                _ => {}
            }
        }
        let mut unique = done.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(done.len(), unique.len(), "{name}: duplicate Done events");
        assert_eq!(
            unique.len(),
            spawned.len(),
            "{name}: {} spawned threads but {} finished",
            spawned.len(),
            unique.len()
        );
        assert!(unique.iter().all(|t| spawned.contains(t)));
    }
}

/// Per-thread state for the trace well-formedness replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ReplayState {
    Queued(CoreId),
    Running(CoreId),
    Blocked,
    Sleeping,
    Done,
}

#[test]
fn conformance_trace_events_well_formed() {
    use asym_kernel::TraceEvent;
    use std::collections::{HashMap, HashSet};
    for (name, policy) in SchedPolicy::registry() {
        let trace = run_conformance_mix(policy, 100);
        let mut state: HashMap<asym_kernel::ThreadId, ReplayState> = HashMap::new();
        let mut killed: HashSet<asym_kernel::ThreadId> = HashSet::new();
        for r in trace.records() {
            match r.event {
                TraceEvent::Spawn { tid, core, .. } => {
                    let prev = state.insert(tid, ReplayState::Queued(core));
                    assert!(prev.is_none(), "{name}: {tid:?} spawned twice");
                }
                TraceEvent::Dispatch { tid, core } => {
                    assert_eq!(
                        state.get(&tid),
                        Some(&ReplayState::Queued(core)),
                        "{name}: dispatch of {tid:?} not from {core:?}'s queue"
                    );
                    state.insert(tid, ReplayState::Running(core));
                }
                TraceEvent::Preempt { tid, core, .. } => {
                    assert_eq!(
                        state.get(&tid),
                        Some(&ReplayState::Running(core)),
                        "{name}: preempt of {tid:?} not running on {core:?}"
                    );
                    state.insert(tid, ReplayState::Queued(core));
                }
                TraceEvent::Steal { tid, from, to } => {
                    assert_eq!(
                        state.get(&tid),
                        Some(&ReplayState::Queued(from)),
                        "{name}: steal of {tid:?} not queued on {from:?}"
                    );
                    state.insert(tid, ReplayState::Queued(to));
                }
                TraceEvent::Block { tid, .. } => {
                    assert!(
                        matches!(state.get(&tid), Some(ReplayState::Running(_))),
                        "{name}: block of non-running {tid:?}"
                    );
                    state.insert(tid, ReplayState::Blocked);
                }
                TraceEvent::Sleep { tid } => {
                    assert!(
                        matches!(state.get(&tid), Some(ReplayState::Running(_))),
                        "{name}: sleep of non-running {tid:?}"
                    );
                    state.insert(tid, ReplayState::Sleeping);
                }
                TraceEvent::Wakeup { tid, core, .. } => {
                    assert!(
                        matches!(
                            state.get(&tid),
                            Some(ReplayState::Blocked | ReplayState::Sleeping)
                        ),
                        "{name}: wakeup of non-waiting {tid:?}"
                    );
                    state.insert(tid, ReplayState::Queued(core));
                }
                TraceEvent::ThreadKilled { tid } => {
                    killed.insert(tid);
                }
                TraceEvent::Done { tid } => {
                    let s = state.get(&tid).copied();
                    assert_ne!(s, Some(ReplayState::Done), "{name}: double Done {tid:?}");
                    if !killed.contains(&tid) {
                        assert!(
                            matches!(s, Some(ReplayState::Running(_))),
                            "{name}: {tid:?} finished while not running ({s:?})"
                        );
                    }
                    state.insert(tid, ReplayState::Done);
                }
                _ => {}
            }
        }
        for (tid, s) in &state {
            assert_eq!(
                *s,
                ReplayState::Done,
                "{name}: thread {tid} ended the run in state {s:?}"
            );
        }
    }
}

#[test]
fn conformance_same_seed_reruns_are_identical() {
    for (name, policy) in SchedPolicy::registry() {
        let a = run_conformance_mix(policy, 101).stable_hash();
        let b = run_conformance_mix(policy, 101).stable_hash();
        assert_eq!(a, b, "{name}: same-seed reruns diverged");
        if policy.random_tie_break() {
            // Only policies that actually draw from the seeded RNG are
            // required to diverge across seeds; the deterministic ones
            // may legitimately produce identical traces.
            let c = run_conformance_mix(policy, 102).stable_hash();
            assert_ne!(a, c, "{name}: different seeds produced identical traces");
        }
    }
}
