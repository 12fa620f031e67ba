//! Randomized-but-seeded tests over the simulation substrate: work
//! conservation, loop-scheduler coverage, event and timer ordering,
//! configuration arithmetic, and determinism. Each test sweeps many deterministic cases
//! drawn from [`asym_sim::Rng`], so failures reproduce exactly.

use asym_core::{AsymConfig, Samples};
use asym_kernel::{FnThread, Kernel, RunOutcome, SchedPolicy, SpawnOptions, Step};
use asym_omp::{LoopSchedule, LoopState};
use asym_sim::{Cycles, EventKey, EventQueue, MachineSpec, Rng, SimTime, Speed};

/// Every iteration of a loop is dispensed exactly once, under any
/// schedule, trip count, and thread count.
#[test]
fn loop_scheduler_covers_every_iteration_exactly_once() {
    let mut gen = Rng::new(0xC0FFEE);
    for case in 0..64 {
        let iters = 1 + gen.below(5_000);
        let nthreads = 1 + gen.index(8);
        let chunk = 1 + gen.below(63);
        let schedule = match case % 3 {
            0 => LoopSchedule::Static,
            1 => LoopSchedule::Dynamic { chunk },
            _ => LoopSchedule::Guided { min_chunk: chunk },
        };
        let mut state = LoopState::new(schedule, iters, nthreads);
        let mut seen = vec![false; iters as usize];
        // Threads request chunks in random interleavings.
        let mut active: Vec<usize> = (0..nthreads).collect();
        while !active.is_empty() {
            let pick = gen.index(active.len());
            let rank = active[pick];
            match state.next_chunk(rank) {
                Some((start, len)) => {
                    for i in start..start + len {
                        assert!(!seen[i as usize], "iteration {i} dispensed twice");
                        seen[i as usize] = true;
                    }
                }
                None => {
                    active.swap_remove(pick);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "iteration never dispensed");
    }
}

/// Heap events and timers kept outside the queue under reserved keys,
/// merged by `(time, key)`, fire in nondecreasing time order with ties
/// in creation order, however the two kinds interleave and whenever they
/// are created — so a timer fires exactly where the same event, scheduled
/// when its key was reserved, would have.
#[test]
fn event_queue_orders_events_and_reserved_timers() {
    let mut gen = Rng::new(0xBEEF);
    for _case in 0..64 {
        let total = 1 + gen.index(200);
        let mut q = EventQueue::new();
        let mut timers: Vec<(SimTime, EventKey, usize)> = Vec::new();
        let (mut created, mut fired) = (0usize, 0usize);
        let mut last: Option<(u64, usize)> = None;
        while fired < total {
            // Create a few events or timers, none earlier than the last
            // one fired, as a simulation does between events.
            let now = last.map_or(0, |(t, _)| t);
            while created < total && (created == fired || gen.chance(0.6)) {
                let t = SimTime::from_nanos(now + gen.below(50));
                if gen.chance(0.4) {
                    timers.push((t, q.reserve_key(), created));
                } else {
                    q.schedule(t, created);
                }
                created += 1;
            }
            let timer = (0..timers.len()).min_by_key(|&i| (timers[i].0, timers[i].1));
            let (t, id) = match (timer, q.peek()) {
                (Some(i), Some(top)) if (timers[i].0, timers[i].1) < top => {
                    let (t, _, id) = timers.swap_remove(i);
                    (t, id)
                }
                (Some(i), None) => {
                    let (t, _, id) = timers.swap_remove(i);
                    (t, id)
                }
                _ => q.pop().expect("an event is pending"),
            };
            let now = (t.as_nanos(), id);
            if let Some(prev) = last {
                assert!(prev < now, "out of order: {prev:?} then {now:?}");
            }
            last = Some(now);
            fired += 1;
        }
        assert!(q.is_empty() && timers.is_empty());
    }
}

/// Simulated runtime never beats the work-conservation bound
/// (total work / total compute power) and never exceeds the
/// all-on-slowest-core bound, for any machine and thread mix.
#[test]
fn kernel_respects_work_conservation_bounds() {
    let mut gen = Rng::new(0xAB1DE);
    for _case in 0..40 {
        let fast = 1 + gen.below(3) as u32;
        let slow = gen.below(4) as u32;
        let scale = 2 + gen.below(7) as u32;
        let nthreads = 1 + gen.index(8);
        let bursts = 1 + gen.below(5) as u32;
        let seed = gen.next_u64();
        let config = AsymConfig::new(fast, slow, scale);
        let mut kernel = Kernel::new(config.machine(), SchedPolicy::os_default(), seed);
        kernel.set_context_switch(Cycles::ZERO);
        let per_thread_ms = 4.0;
        for _ in 0..nthreads {
            let mut left = bursts;
            let work = Cycles::from_millis_at_full_speed(per_thread_ms / f64::from(bursts));
            kernel.spawn(
                FnThread::new("w", move |_cx| {
                    if left == 0 {
                        Step::Done
                    } else {
                        left -= 1;
                        Step::Compute(work)
                    }
                }),
                SpawnOptions::new(),
            );
        }
        assert_eq!(kernel.run(), RunOutcome::AllDone);
        let elapsed = kernel.now().as_secs_f64();
        let total_work_s = nthreads as f64 * per_thread_ms / 1e3;
        let lower = total_work_s / config.compute_power();
        // A single thread cannot finish faster than its own work at full
        // speed either.
        let lower = lower.max(per_thread_ms / 1e3);
        let slowest = config.machine().min_speed().factor();
        let upper = total_work_s / slowest + 0.1;
        assert!(
            elapsed >= lower * 0.999,
            "beat physics: {elapsed} < {lower}"
        );
        assert!(elapsed <= upper, "lost work: {elapsed} > {upper}");
    }
}

/// The same seed gives bit-identical simulations; the kernel never
/// loses or invents CPU time.
#[test]
fn kernel_is_deterministic_and_accounts_cpu() {
    let mut gen = Rng::new(0xD17E);
    for _case in 0..24 {
        let seed = gen.next_u64();
        let nthreads = 1 + gen.index(6);
        let run = |seed: u64| {
            let machine = MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(4));
            let mut kernel = Kernel::new(machine, SchedPolicy::os_default(), seed);
            for _ in 0..nthreads {
                let mut left = 3u32;
                kernel.spawn(
                    FnThread::new("w", move |_cx| {
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
            kernel.run();
            let busy: f64 = kernel
                .stats()
                .core_busy
                .iter()
                .map(|d| d.as_secs_f64())
                .sum();
            (kernel.now(), kernel.stats().dispatches, busy)
        };
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        // Total busy time across cores can never exceed elapsed x cores.
        assert!(a.2 <= a.0.as_secs_f64() * 4.0 + 1e-9);
    }
}

/// Config labels round-trip through Display/FromStr, and compute
/// power matches the machine it builds.
#[test]
fn config_roundtrip_and_power() {
    for fast in 0u32..5 {
        for slow in 0u32..5 {
            for scale in 2u32..9 {
                if fast + slow == 0 {
                    continue;
                }
                let cfg = AsymConfig::new(fast, slow, scale);
                let parsed: AsymConfig = cfg.to_string().parse().unwrap();
                assert_eq!(parsed, cfg);
                let m = cfg.machine();
                assert!((m.total_compute_power() - cfg.compute_power()).abs() < 1e-12);
                assert_eq!(m.num_cores() as u32, cfg.num_cores());
            }
        }
    }
}

/// Sample statistics behave: mean within [min, max], CoV zero for
/// constant data, percentiles monotone.
#[test]
fn sample_statistics_invariants() {
    let mut gen = Rng::new(0x5A17);
    for _case in 0..64 {
        let n = 1 + gen.index(49);
        let values: Vec<f64> = (0..n).map(|_| 0.001 + gen.next_f64() * 1e6).collect();
        let s = Samples::new(values.clone());
        assert!(s.mean() >= s.min() - 1e-9 && s.mean() <= s.max() + 1e-9);
        assert!(s.percentile(0.0) <= s.percentile(50.0) + 1e-9);
        assert!(s.percentile(50.0) <= s.percentile(100.0) + 1e-9);
        let constant = Samples::new(vec![values[0]; values.len()]);
        assert!(constant.cov() < 1e-12);
    }
}
