//! Behavioural tests for the synchronization primitives under simulated
//! scheduling.

use asym_kernel::{FnThread, Kernel, RunOutcome, SchedPolicy, SpawnOptions, Step};
use asym_sim::{Cycles, MachineSpec, SimDuration, Speed};
use asym_sync::{Arrival, SimBarrier, SimLatch, SimQueue, TryPop};
use std::cell::RefCell;
use std::rc::Rc;

fn kernel(cores: usize, seed: u64) -> Kernel {
    let mut k = Kernel::new(
        MachineSpec::symmetric(cores, Speed::FULL),
        SchedPolicy::os_default(),
        seed,
    );
    k.set_context_switch(Cycles::ZERO);
    k
}

#[test]
fn barrier_synchronizes_unequal_speeds() {
    // 4 threads on 2f-2s/8: the barrier must hold everyone until the
    // pinned slow threads arrive.
    let machine = MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(8));
    let mut k = Kernel::new(machine, SchedPolicy::os_default_deterministic(), 3);
    k.set_context_switch(Cycles::ZERO);
    let barrier = SimBarrier::new(&mut k, 4);
    let after = Rc::new(RefCell::new(Vec::new()));

    for i in 0..4usize {
        let b = barrier.clone();
        let after = after.clone();
        let mut phase = 0;
        let mut token = 0u64;
        k.spawn(
            FnThread::new(format!("omp{i}"), move |cx| loop {
                match phase {
                    0 => {
                        phase = 1;
                        return Step::Compute(Cycles::from_millis_at_full_speed(2.0));
                    }
                    1 => match b.arrive(cx) {
                        Arrival::Released => phase = 3,
                        Arrival::Wait { token: t, step } => {
                            token = t;
                            phase = 2;
                            return step;
                        }
                    },
                    2 => {
                        if !b.passed(token) {
                            return Step::Block(b.wait_id());
                        }
                        phase = 3;
                    }
                    _ => {
                        after.borrow_mut().push(cx.now());
                        return Step::Done;
                    }
                }
            }),
            SpawnOptions::new(),
        );
    }
    assert_eq!(k.run(), RunOutcome::AllDone);
    let times = after.borrow();
    assert_eq!(times.len(), 4);
    // Everyone crosses at (nearly) the same time, which is set by the
    // slowest participant (≥ 16 ms for a slow core doing 2 ms of work).
    let first = times.iter().min().unwrap();
    let last = times.iter().max().unwrap();
    assert!(last.as_secs_f64() >= 0.016);
    assert!(
        last.duration_since(*first) <= SimDuration::from_micros(100),
        "barrier spread too wide"
    );
    assert_eq!(barrier.crossings(), 1);
}

#[test]
fn queue_delivers_everything_once() {
    let mut k = kernel(4, 2);
    let q: SimQueue<u64> = SimQueue::new(&mut k);
    let seen = Rc::new(RefCell::new(Vec::new()));

    let tx = q.clone();
    let mut next = 0u64;
    k.spawn(
        FnThread::new("producer", move |cx| {
            if next == 100 {
                tx.close(cx);
                return Step::Done;
            }
            tx.push(cx, next);
            next += 1;
            Step::Compute(Cycles::new(5_000))
        }),
        SpawnOptions::new(),
    );
    for _ in 0..3 {
        let rx = q.clone();
        let seen = seen.clone();
        k.spawn(
            FnThread::new("consumer", move |cx| match rx.try_pop(cx) {
                TryPop::Item(v) => {
                    seen.borrow_mut().push(v);
                    Step::Compute(Cycles::new(20_000))
                }
                TryPop::Empty(step) => step,
                TryPop::Closed => Step::Done,
            }),
            SpawnOptions::new(),
        );
    }
    assert_eq!(k.run(), RunOutcome::AllDone);
    let mut got = seen.borrow().clone();
    got.sort_unstable();
    assert_eq!(got, (0..100).collect::<Vec<_>>());
    assert_eq!(q.pushed(), 100);
    assert_eq!(q.popped(), 100);
}

#[test]
fn latch_joins_workers() {
    let mut k = kernel(2, 8);
    let latch = SimLatch::new(&mut k, 3);
    let joined_at = Rc::new(RefCell::new(None));

    for _ in 0..3 {
        let l = latch.clone();
        let mut computed = false;
        k.spawn(
            FnThread::new("worker", move |cx| {
                if !computed {
                    computed = true;
                    return Step::Compute(Cycles::from_millis_at_full_speed(2.0));
                }
                l.count_down(cx);
                Step::Done
            }),
            SpawnOptions::new(),
        );
    }
    let l = latch.clone();
    let j = joined_at.clone();
    k.spawn(
        FnThread::new("parent", move |cx| match l.wait_step() {
            Ok(()) => {
                *j.borrow_mut() = Some(cx.now());
                Step::Done
            }
            Err(step) => step,
        }),
        SpawnOptions::new(),
    );
    assert_eq!(k.run(), RunOutcome::AllDone);
    assert!(latch.is_open());
    let t = joined_at.borrow().expect("parent joined");
    // Three 2 ms jobs on two cores: work conservation bounds the last
    // finish at ≥ 3 ms (6 ms of work over 2 cores).
    assert!(t.as_secs_f64() >= 0.003, "joined at {t}");
}

#[test]
fn closed_queue_drains_then_reports_closed() {
    let mut k = kernel(1, 1);
    let q: SimQueue<u8> = SimQueue::new(&mut k);
    let order = Rc::new(RefCell::new(Vec::new()));

    let tx = q.clone();
    let mut phase = 0;
    k.spawn(
        FnThread::new("producer", move |cx| {
            phase += 1;
            match phase {
                1 => {
                    tx.push(cx, 1);
                    tx.push(cx, 2);
                    tx.close(cx);
                    Step::Done
                }
                _ => unreachable!(),
            }
        }),
        SpawnOptions::new(),
    );
    let rx = q.clone();
    let order2 = order.clone();
    k.spawn(
        FnThread::new("consumer", move |cx| match rx.try_pop(cx) {
            TryPop::Item(v) => {
                order2.borrow_mut().push(v);
                Step::Compute(Cycles::new(100))
            }
            TryPop::Empty(step) => step,
            TryPop::Closed => Step::Done,
        }),
        SpawnOptions::new(),
    );
    assert_eq!(k.run(), RunOutcome::AllDone);
    assert_eq!(*order.borrow(), vec![1, 2]);
    assert!(q.is_closed());
}

#[test]
fn barrier_reuses_across_generations() {
    let mut k = kernel(2, 4);
    let barrier = SimBarrier::new(&mut k, 2);
    let rounds = 5u64;

    for i in 0..2usize {
        let b = barrier.clone();
        let mut round = 0u64;
        let mut waiting: Option<u64> = None;
        k.spawn(
            FnThread::new(format!("t{i}"), move |cx| loop {
                if let Some(token) = waiting {
                    if !b.passed(token) {
                        return Step::Block(b.wait_id());
                    }
                    waiting = None;
                    round += 1;
                }
                if round == rounds {
                    return Step::Done;
                }
                match b.arrive(cx) {
                    Arrival::Released => round += 1,
                    Arrival::Wait { token, step } => {
                        waiting = Some(token);
                        return step;
                    }
                }
            }),
            SpawnOptions::new(),
        );
    }
    assert_eq!(k.run(), RunOutcome::AllDone);
    assert_eq!(barrier.crossings(), rounds);
}
