//! Analytic oracles for the kernel's time slicing, and tie scenarios
//! pinned to their trace hashes.
//!
//! A lone compute thread is the simplest closed form the simulator must
//! match exactly: every quantum of length `q` on a core at speed `s`
//! retires `R = retired_over(s, q)` cycles, so `W` cycles finish after
//! `k` full quanta plus `duration_at(W − k·R)`, where `k` is the first
//! count whose remainder fits in one quantum. The tie scenarios put two
//! events at the same instant — a quantum boundary and a balance tick,
//! a quantum boundary and a sleeper's wakeup — where only the kernel's
//! `(time, key)` order decides what happens, and pin the resulting
//! traces.

use asym_core::AsymConfig;
use asym_kernel::{
    capture_traces, FnThread, Kernel, KernelStats, PolicyKind, RunOutcome, SchedPolicy,
    SpawnOptions, Step, DEFAULT_BALANCE_PERIOD, DEFAULT_QUANTUM,
};
use asym_sim::{CoreId, CoreMask, Cycles, MachineSpec, SimDuration, SimTime, Speed};

/// The lone thread's work: odd, and more than 100 quanta on every core
/// of the nine configurations under every policy (107.6 ms at full
/// speed, 860 ms at 1/8; speed-slice's 8 ms quanta still number 107).
const LONE_WORK: Cycles = Cycles::new(301_234_567);

/// The quantum `policy` gives a core running at `speed`: speed-slice
/// stretches it by `1/speed` (capped at eight quanta), every other
/// policy uses the kernel default.
fn quantum_for(policy: SchedPolicy, speed: Speed) -> SimDuration {
    if policy.kind() != PolicyKind::SpeedSlice {
        return DEFAULT_QUANTUM;
    }
    let base = DEFAULT_QUANTUM.as_nanos();
    let scaled = (base as f64 / speed.factor()).round() as u64;
    SimDuration::from_nanos(scaled.clamp(1, base * 8))
}

/// The closed form: `(k, finish)` for `work` cycles sliced into quanta
/// of `q` on a core at `speed`.
fn lone_thread_oracle(work: Cycles, speed: Speed, q: SimDuration) -> (u64, SimDuration) {
    let per_quantum = Cycles::new(u64::MAX).retired_over(speed, q);
    let mut left = work;
    let mut k = 0;
    while left.duration_at(speed) > q {
        left -= per_quantum;
        k += 1;
    }
    (k, q * k + left.duration_at(speed))
}

/// `KernelStats::events` of the lone-thread run, pinned per
/// configuration (rows in `AsymConfig::standard_nine` order) and policy
/// (columns in `SchedPolicy::registry` order). Each is the `k + 1`
/// slice ends plus one balance tick per elapsed balance period.
const LONE_EVENTS: [[u64; 7]; 9] = [
    [134, 134, 134, 134, 134, 134, 134],
    [134, 134, 134, 134, 134, 134, 134],
    [134, 134, 134, 134, 134, 134, 134],
    [538, 134, 134, 134, 134, 134, 134],
    [1076, 134, 134, 134, 134, 134, 134],
    [538, 134, 134, 134, 134, 134, 134],
    [1076, 134, 134, 134, 134, 134, 134],
    [538, 538, 538, 538, 215, 538, 538],
    [1076, 1076, 1076, 1076, 323, 1076, 1076],
];

#[test]
fn lone_compute_thread_matches_the_closed_form() {
    for (row, config) in AsymConfig::standard_nine().into_iter().enumerate() {
        for (col, (name, policy)) in SchedPolicy::registry().into_iter().enumerate() {
            let mut kernel = Kernel::new(config.machine(), policy, 1);
            let mut issued = false;
            let tid = kernel.spawn(
                FnThread::new("lone", move |_cx| {
                    if std::mem::replace(&mut issued, true) {
                        Step::Done
                    } else {
                        Step::Compute(LONE_WORK)
                    }
                }),
                SpawnOptions::new(),
            );
            assert_eq!(kernel.run(), RunOutcome::AllDone, "{config} {name}");
            let stats = kernel.thread_stats(tid).clone();
            assert_eq!(
                stats.migrations, 0,
                "{config} {name}: the lone thread moved"
            );
            let core = kernel.thread_core(tid).expect("the lone thread ran");
            let speed = config.machine().speed(core);
            let q = quantum_for(policy, speed);
            let (k, finish) = lone_thread_oracle(LONE_WORK, speed, q);
            assert!(k >= 100, "{config} {name}: only {k} quanta");
            let at = SimTime::ZERO + finish;
            assert_eq!(stats.finished_at, Some(at), "{config} {name} on {core}");
            assert_eq!(kernel.now(), at, "{config} {name}");
            assert_eq!(stats.cycles_retired, LONE_WORK, "{config} {name}");
            assert_eq!(stats.cpu_time, finish, "{config} {name}");
            let events = kernel.stats().events;
            let ticks = (finish.as_nanos() - 1) / DEFAULT_BALANCE_PERIOD.as_nanos();
            assert_eq!(events, k + 1 + ticks, "{config} {name}");
            assert_eq!(events, LONE_EVENTS[row][col], "{config} {name}");
        }
    }
}

/// One run of a tie scenario: the kernel's final stats and the stable
/// hash of its trace.
fn traced_run(build: impl FnOnce() -> Kernel) -> (KernelStats, u64) {
    let (stats, traces) = capture_traces(|| {
        let mut kernel = build();
        assert_eq!(kernel.run(), RunOutcome::AllDone);
        kernel.stats().clone()
    });
    assert_eq!(traces.len(), 1);
    (stats, traces[0].stable_hash())
}

/// A thread issuing `bursts` compute steps of `each` cycles.
fn bursts(
    name: &str,
    bursts: u32,
    each: Cycles,
) -> FnThread<impl FnMut(&mut asym_kernel::ThreadCx<'_>) -> Step> {
    let mut left = bursts;
    FnThread::new(name.to_string(), move |_cx| {
        if left == 0 {
            Step::Done
        } else {
            left -= 1;
            Step::Compute(each)
        }
    })
}

/// `(KernelStats::events, trace hash)` of the balance-tick tie, per
/// policy in `SchedPolicy::registry` order.
const BALANCE_TIE: [(u64, u64); 7] = [
    (213, 0x58f4_5bb2_c147_0a84),
    (145, 0xeec4_d201_9e5d_6e81),
    (169, 0xb964_4cc4_eb9b_4ec9),
    (169, 0xb467_ed6c_7cd4_1d87),
    (113, 0xb467_ed6c_7cd4_1d87),
    (144, 0x75a4_2b8e_473e_f9e7),
    (145, 0xeec4_d201_9e5d_6e81),
];

/// `(KernelStats::events, trace hash)` of the sleeper tie with 1 ms and
/// 3 ms naps, per policy in `SchedPolicy::registry` order.
const SLEEPER_TIE: [(u64, [(u64, u64); 7]); 2] = [
    (
        1,
        [
            (58, 0x2964_6d17_900a_b01c),
            (58, 0x2964_6d17_900a_b01c),
            (58, 0x2964_6d17_900a_b01c),
            (63, 0x60b4_765f_9789_9f90),
            (58, 0x2964_6d17_900a_b01c),
            (58, 0x2964_6d17_900a_b01c),
            (58, 0x2964_6d17_900a_b01c),
        ],
    ),
    (
        3,
        [
            (66, 0x8666_0c78_c32c_0e4c),
            (66, 0x8666_0c78_c32c_0e4c),
            (66, 0x8666_0c78_c32c_0e4c),
            (73, 0x81d4_2b56_fa36_93e0),
            (66, 0x8666_0c78_c32c_0e4c),
            (66, 0x8666_0c78_c32c_0e4c),
            (66, 0x8666_0c78_c32c_0e4c),
        ],
    ),
];

/// A thread pinned to core 0 from t = 0 runs 1 ms quanta whose ends fall
/// on every 4 ms balance tick; unpinned threads keep the balancer busy,
/// so which of the two fires first decides who runs next on core 0.
#[test]
fn quantum_boundary_on_the_balance_tick() {
    for ((name, policy), (events, want)) in SchedPolicy::registry().into_iter().zip(BALANCE_TIE) {
        let (stats, hash) = traced_run(|| {
            let mut kernel = Kernel::new(AsymConfig::new(2, 2, 4).machine(), policy, 3);
            kernel.spawn(
                bursts("pinned", 1, Cycles::from_millis_at_full_speed(40.0)),
                SpawnOptions::new().affinity(CoreMask::single(CoreId(0))),
            );
            for i in 0..5 {
                kernel.spawn(
                    bursts(&format!("w{i}"), 4, Cycles::from_millis_at_full_speed(2.5)),
                    SpawnOptions::new(),
                );
            }
            kernel
        });
        assert_eq!((stats.events, hash), (events, want), "{name}");
    }
}

/// A thread sleeping 1 ms (or 3 ms) at a time on a one-core machine
/// wakes exactly when the compute thread's quantum ends — with 3 ms naps,
/// at the end of a run of renewed quanta. The wakeup, scheduled earlier,
/// fires first and preempts the compute thread at the boundary.
#[test]
fn sleeper_wakes_on_a_quantum_boundary() {
    for (nap_ms, pins) in SLEEPER_TIE {
        for ((name, policy), (events, want)) in SchedPolicy::registry().into_iter().zip(pins) {
            let (stats, hash) = traced_run(|| {
                let machine = MachineSpec::symmetric(1, Speed::FULL);
                let mut kernel = Kernel::new(machine, policy, 5);
                kernel.spawn(
                    bursts("compute", 1, Cycles::from_millis_at_full_speed(30.0)),
                    SpawnOptions::new(),
                );
                let mut naps = 20u32;
                kernel.spawn(
                    FnThread::new("sleeper", move |_cx| {
                        if naps == 0 {
                            Step::Done
                        } else {
                            naps -= 1;
                            Step::Sleep(SimDuration::from_millis(nap_ms))
                        }
                    }),
                    SpawnOptions::new(),
                );
                kernel
            });
            assert_eq!(
                (stats.events, hash),
                (events, want),
                "{nap_ms} ms naps, {name}"
            );
        }
    }
}
