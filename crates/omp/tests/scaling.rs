//! The paper's §3.5 mechanics, at the runtime level: static loops pace at
//! the slowest core; dynamic chunked loops track total compute power;
//! guided loops can strand a huge early chunk on a slow core.

use asym_kernel::SchedPolicy;
use asym_omp::{run_program, LoopSchedule, OmpProgram, Region, DEFAULT_DISPATCH_OVERHEAD};
use asym_sim::{Cycles, MachineSpec, Speed};

fn loop_program(schedule: LoopSchedule, iters: u64, steps: u64) -> OmpProgram {
    OmpProgram::builder()
        .region(Region::parallel_for(
            iters,
            Cycles::from_micros_at_full_speed(100.0),
            schedule,
        ))
        .time_steps(steps)
        .build()
}

fn run_secs(machine: MachineSpec, program: OmpProgram, seed: u64) -> f64 {
    run_program(
        machine,
        SchedPolicy::os_default(),
        seed,
        program,
        4,
        DEFAULT_DISPATCH_OVERHEAD,
    )
    .as_secs_f64()
}

#[test]
fn static_loops_pace_at_slowest_core() {
    // 2f-2s/8: static division gives each thread 1/4 of the work, and the
    // threads stuck on 1/8-speed cores take 8x as long.
    let program = loop_program(LoopSchedule::Static, 400, 10);
    let fast = run_secs(MachineSpec::symmetric(4, Speed::FULL), program.clone(), 1);
    let asym = run_secs(
        MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(8)),
        program.clone(),
        1,
    );
    let all_slow8 = run_secs(
        MachineSpec::symmetric(4, Speed::fraction_of_full(8)),
        program,
        1,
    );
    // The asymmetric configuration behaves like the all-slow one (within
    // 20%), despite having 4.5x its compute power.
    assert!(
        asym > 0.8 * all_slow8,
        "static should pace at slowest: asym={asym}, all_slow={all_slow8}"
    );
    assert!(asym > 5.0 * fast, "asym={asym}, fast={fast}");
}

#[test]
fn dynamic_loops_track_compute_power() {
    let steps = 10;
    let mk = |nthreads_chunks: u64| {
        OmpProgram::builder()
            .region(Region::parallel_for(
                800,
                Cycles::from_micros_at_full_speed(100.0),
                LoopSchedule::dynamic_for(800, 4, nthreads_chunks),
            ))
            .time_steps(steps)
            .build()
    };
    let program = mk(25);
    let fast = run_secs(MachineSpec::symmetric(4, Speed::FULL), program.clone(), 1);
    let asym = run_secs(
        MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(8)),
        program.clone(),
        1,
    );
    let all_slow8 = run_secs(
        MachineSpec::symmetric(4, Speed::fraction_of_full(8)),
        program,
        1,
    );
    // Compute-power ratio between 4f-0s (4.0) and 2f-2s/8 (2.25) is 1.78;
    // dynamic scheduling should land near it, far from the 8x static gap.
    let ratio = asym / fast;
    assert!(
        (1.4..3.2).contains(&ratio),
        "dynamic should track power: ratio {ratio}"
    );
    // And far better than the midpoint of fast and all-slow (the paper's
    // Figure 8(b) observation).
    let midpoint = (fast + all_slow8) / 2.0;
    assert!(asym < midpoint, "asym {asym} vs midpoint {midpoint}");
}

#[test]
fn guided_can_be_worse_than_uniformly_slow() {
    // Guided hands out remaining/N chunks: a slow core grabbing an early
    // huge chunk becomes the critical path. Compare against 0f-4s/4.
    let program = loop_program(LoopSchedule::Guided { min_chunk: 1 }, 400, 10);
    let asym = run_secs(
        MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(8)),
        program.clone(),
        3,
    );
    let all_slow4 = run_secs(
        MachineSpec::symmetric(4, Speed::fraction_of_full(4)),
        program,
        3,
    );
    // 2f-2s/8 has 2.25 compute power vs 1.0 — yet guided scheduling can
    // leave it close to or worse than the uniformly slow machine.
    assert!(
        asym > 0.5 * all_slow4,
        "guided straggler effect missing: asym={asym}, slow4={all_slow4}"
    );
}

#[test]
fn serial_regions_benefit_from_one_fast_core() {
    // A mostly-serial program: 1f-3s/8 must clearly beat 0f-4s/4.
    let program = OmpProgram::builder()
        .region(Region::serial(Cycles::from_millis_at_full_speed(5.0)))
        .region(Region::parallel_for(
            40,
            Cycles::from_micros_at_full_speed(50.0),
            LoopSchedule::dynamic_for(40, 4, 10),
        ))
        .time_steps(20)
        .build();
    let one_fast = run_program(
        MachineSpec::asymmetric(1, 3, Speed::fraction_of_full(8)),
        SchedPolicy::asymmetry_aware(),
        1,
        program.clone(),
        4,
        DEFAULT_DISPATCH_OVERHEAD,
    )
    .as_secs_f64();
    let all_slow4 = run_secs(
        MachineSpec::symmetric(4, Speed::fraction_of_full(4)),
        program,
        1,
    );
    assert!(
        one_fast < 0.7 * all_slow4,
        "fast core should accelerate serial part: {one_fast} vs {all_slow4}"
    );
}

#[test]
fn nowait_lets_fast_threads_run_ahead() {
    // Two loops, the first nowait: total runtime under asymmetry is lower
    // than with a barrier between them because fast threads start loop 2
    // while slow threads are still in loop 1.
    let nowait = OmpProgram::builder()
        .region(Region::parallel_for_nowait(
            200,
            Cycles::from_micros_at_full_speed(100.0),
            LoopSchedule::Dynamic { chunk: 5 },
        ))
        .region(Region::parallel_for(
            200,
            Cycles::from_micros_at_full_speed(100.0),
            LoopSchedule::Dynamic { chunk: 5 },
        ))
        .time_steps(5)
        .build();
    let machine = MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(8));
    let t_nowait = run_secs(machine.clone(), nowait, 2);
    let with_wait = OmpProgram::builder()
        .region(Region::parallel_for(
            200,
            Cycles::from_micros_at_full_speed(100.0),
            LoopSchedule::Dynamic { chunk: 5 },
        ))
        .region(Region::parallel_for(
            200,
            Cycles::from_micros_at_full_speed(100.0),
            LoopSchedule::Dynamic { chunk: 5 },
        ))
        .time_steps(5)
        .build();
    let t_wait = run_secs(machine, with_wait, 2);
    assert!(
        t_nowait <= t_wait * 1.05,
        "nowait should not be slower: {t_nowait} vs {t_wait}"
    );
}

#[test]
fn deterministic_runtime_per_seed() {
    let program = loop_program(LoopSchedule::Dynamic { chunk: 4 }, 100, 3);
    let machine = MachineSpec::asymmetric(3, 1, Speed::fraction_of_full(4));
    let a = run_secs(machine.clone(), program.clone(), 99);
    let b = run_secs(machine, program, 99);
    assert_eq!(a, b);
}
