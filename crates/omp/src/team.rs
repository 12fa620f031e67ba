//! The OpenMP-style worker team: N simulated threads executing an
//! [`OmpProgram`] with work-sharing loops and barriers.

use crate::program::{OmpProgram, Region};
use crate::schedule::LoopState;
use asym_kernel::{Kernel, SpawnOptions, Step, ThreadBody, ThreadCx, ThreadId};
use asym_sim::{Cycles, SimDuration};
use asym_sync::{Arrival, SimBarrier, SimLatch, SimShared};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Default per-chunk dispatch overhead: the cost of the runtime's shared
/// loop bookkeeping, charged on every chunk request (~2 µs at full speed).
pub const DEFAULT_DISPATCH_OVERHEAD: Cycles = Cycles::new(5_600);

struct TeamShared {
    program: OmpProgram,
    nthreads: usize,
    dispatch_overhead: Cycles,
    /// Per-region loop state, tagged with the time step it was
    /// initialized for (states reset lazily as workers enter a region in
    /// a new step). Modeled atomic: this is the runtime's shared
    /// chunk-dispensing counter that every rank hammers.
    loop_states: Vec<SimShared<Option<(u64, LoopState)>>>,
    /// Modeled atomic counter of dispensed chunks.
    chunks_total: SimShared<u64>,
    /// Worker thread ids in rank order, filled right after spawning.
    /// Read-only during the run.
    tids: RefCell<Vec<ThreadId>>,
    /// Per-rank: finished the whole program normally. Modeled atomic
    /// flags — survivors poll peers' flags while those peers still run.
    done_flags: SimShared<Vec<bool>>,
    /// Per-rank: found dead by a survivor's reap pass. Modeled atomic
    /// flags (any survivor may reap).
    reaped: SimShared<Vec<bool>>,
    /// Kernel kill count at the last reap pass, so workers only scan for
    /// corpses when a fault actually killed something. Modeled atomic.
    killed_seen: SimShared<u64>,
}

impl TeamShared {
    /// Fetches `rank`'s next chunk for `region` at time `step`, lazily
    /// (re)initializing the loop state when a new step reaches the region.
    fn next_chunk(
        &self,
        cx: &mut ThreadCx<'_>,
        step: u64,
        region: usize,
        rank: usize,
    ) -> Option<(u64, u64)> {
        let Region::ParallelFor {
            iters, schedule, ..
        } = self.program.regions()[region]
        else {
            unreachable!("next_chunk on serial region");
        };
        let nthreads = self.nthreads;
        let chunk = self.loop_states[region].rmw(cx, |slot| {
            let needs_init = match &*slot {
                Some((s, _)) => *s != step,
                None => true,
            };
            if needs_init {
                *slot = Some((step, LoopState::new(schedule, iters, nthreads)));
            }
            let (_, state) = slot.as_mut().expect("just initialized");
            state.next_chunk(rank)
        });
        if chunk.is_some() {
            self.chunks_total.rmw(cx, |c| *c += 1);
        }
        chunk
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Enter,
    Loop,
    Barrier,
    BarrierWait(u64),
}

struct OmpWorker {
    rank: usize,
    shared: Rc<TeamShared>,
    barrier: SimBarrier,
    latch: SimLatch,
    step: u64,
    region: usize,
    phase: Phase,
    name: String,
}

impl OmpWorker {
    fn advance_region(&mut self) {
        self.region += 1;
    }

    /// Folds teammates killed by injected faults out of the team: each
    /// corpse gives up its barrier seat (rescinding any pending arrival)
    /// and has the completion latch counted down on its behalf. Reaping
    /// is idempotent per corpse and runs only when the kernel's kill
    /// count moved.
    fn reap_dead(&self, cx: &mut ThreadCx<'_>) {
        let killed = cx.killed_count();
        if killed == self.shared.killed_seen.load(cx, |k| *k) {
            return;
        }
        self.shared.killed_seen.store(cx, |k| *k = killed);
        let tids = self.shared.tids.borrow().clone();
        for (rank, &tid) in tids.iter().enumerate() {
            let newly_dead = !self.shared.done_flags.load_at(cx, rank as u32, |d| d[rank])
                && !self.shared.reaped.load_at(cx, rank as u32, |r| r[rank])
                && cx.join_check(tid);
            if newly_dead {
                self.shared
                    .reaped
                    .store_at(cx, rank as u32, |r| r[rank] = true);
                self.barrier.remove_party(cx, tid);
                self.latch.count_down(cx);
            }
        }
    }
}

impl ThreadBody for OmpWorker {
    fn run(&mut self, cx: &mut ThreadCx<'_>) -> Step {
        self.reap_dead(cx);
        loop {
            // Wrap to the next time step / detect completion.
            if self.phase == Phase::Enter && self.region == self.shared.program.regions().len() {
                self.region = 0;
                self.step += 1;
                if self.step == self.shared.program.time_steps() {
                    let rank = self.rank;
                    self.shared
                        .done_flags
                        .store_at(cx, rank as u32, |d| d[rank] = true);
                    self.latch.count_down(cx);
                    return Step::Done;
                }
            }
            match self.phase {
                Phase::Enter => match self.shared.program.regions()[self.region] {
                    Region::Serial { work } => {
                        self.phase = Phase::Barrier;
                        if self.rank == 0 && !work.is_zero() {
                            return Step::Compute(work);
                        }
                    }
                    Region::ParallelFor { .. } => {
                        self.phase = Phase::Loop;
                    }
                },
                Phase::Loop => {
                    let Region::ParallelFor { cost, nowait, .. } =
                        self.shared.program.regions()[self.region]
                    else {
                        unreachable!("loop phase in serial region");
                    };
                    match self
                        .shared
                        .next_chunk(cx, self.step, self.region, self.rank)
                    {
                        Some((_start, len)) => {
                            let work =
                                Cycles::new(len * cost.get()) + self.shared.dispatch_overhead;
                            return Step::Compute(work);
                        }
                        None => {
                            if nowait {
                                self.advance_region();
                                self.phase = Phase::Enter;
                            } else {
                                self.phase = Phase::Barrier;
                            }
                        }
                    }
                }
                Phase::Barrier => match self.barrier.arrive(cx) {
                    Arrival::Released => {
                        self.advance_region();
                        self.phase = Phase::Enter;
                    }
                    Arrival::Wait { token, step } => {
                        self.phase = Phase::BarrierWait(token);
                        return step;
                    }
                },
                Phase::BarrierWait(token) => {
                    if !self.barrier.passed(token) {
                        return Step::Block(self.barrier.wait_id());
                    }
                    self.advance_region();
                    self.phase = Phase::Enter;
                }
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A handle to a spawned OpenMP-style team.
#[derive(Clone)]
pub struct TeamHandle {
    threads: Vec<ThreadId>,
    latch: SimLatch,
    shared: Rc<TeamShared>,
}

impl TeamHandle {
    /// The team's worker thread ids (rank order).
    pub fn threads(&self) -> &[ThreadId] {
        &self.threads
    }

    /// Returns `true` once every worker has finished the program.
    pub fn is_complete(&self) -> bool {
        self.latch.is_open()
    }

    /// Total loop chunks dispensed so far (overhead indicator).
    pub fn chunks_dispensed(&self) -> u64 {
        self.shared.chunks_total.peek(|c| *c)
    }

    /// Workers that did not finish the program normally — killed by
    /// injected faults (whether or not a survivor reaped them yet).
    pub fn lost_workers(&self) -> u64 {
        self.shared
            .done_flags
            .peek(|done| (self.shared.nthreads - done.iter().filter(|&&d| d).count()) as u64)
    }
}

impl fmt::Debug for TeamHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TeamHandle")
            .field("threads", &self.threads.len())
            .field("complete", &self.is_complete())
            .finish()
    }
}

/// Spawns an OpenMP-style team of `nthreads` workers executing `program`
/// on `kernel`.
///
/// `dispatch_overhead` is charged on every chunk request, modelling the
/// shared-counter cost of the runtime (pass
/// [`DEFAULT_DISPATCH_OVERHEAD`] unless ablating).
///
/// # Panics
///
/// Panics if `nthreads` is zero.
pub fn spawn_team(
    kernel: &mut Kernel,
    program: OmpProgram,
    nthreads: usize,
    dispatch_overhead: Cycles,
) -> TeamHandle {
    assert!(nthreads > 0, "team needs at least one thread");
    let barrier = SimBarrier::new(kernel, nthreads);
    let latch = SimLatch::new(kernel, nthreads as u64);
    let loop_states = (0..program.regions().len())
        .map(|i| SimShared::new(kernel, &format!("omp.loop_state{i}"), None))
        .collect();
    let shared = Rc::new(TeamShared {
        program,
        nthreads,
        dispatch_overhead,
        loop_states,
        chunks_total: SimShared::new(kernel, "omp.chunks_total", 0),
        tids: RefCell::new(Vec::new()),
        done_flags: SimShared::new(kernel, "omp.done_flags", vec![false; nthreads]),
        reaped: SimShared::new(kernel, "omp.reaped", vec![false; nthreads]),
        killed_seen: SimShared::new(kernel, "omp.killed_seen", 0),
    });
    let threads: Vec<ThreadId> = (0..nthreads)
        .map(|rank| {
            kernel.spawn(
                OmpWorker {
                    rank,
                    shared: shared.clone(),
                    barrier: barrier.clone(),
                    latch: latch.clone(),
                    step: 0,
                    region: 0,
                    phase: Phase::Enter,
                    name: format!("omp{rank}"),
                },
                SpawnOptions::new(),
            )
        })
        .collect();
    *shared.tids.borrow_mut() = threads.clone();
    TeamHandle {
        threads,
        latch,
        shared,
    }
}

/// The outcome of a tolerant team run: how long it took and how many
/// workers injected faults killed along the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeamRun {
    /// Elapsed simulated time from zero to the last thread exiting.
    pub elapsed: SimDuration,
    /// Workers that were killed instead of finishing the program.
    pub lost_workers: u64,
}

/// Builds a kernel, runs `program` to completion with `nthreads` workers,
/// and returns the elapsed simulated time.
///
/// # Panics
///
/// Panics if the program deadlocks, stalls, or loses a worker to an
/// injected kill. Use [`run_program_tolerant`] for runs under hostile
/// fault plans.
pub fn run_program(
    machine: asym_sim::MachineSpec,
    policy: asym_kernel::SchedPolicy,
    seed: u64,
    program: OmpProgram,
    nthreads: usize,
    dispatch_overhead: Cycles,
) -> SimDuration {
    let run = run_program_tolerant(machine, policy, seed, program, nthreads, dispatch_overhead);
    assert_eq!(run.lost_workers, 0, "OMP program lost workers to faults");
    run.elapsed
}

/// Like [`run_program`], but tolerant of injected `KillThread` faults:
/// killed workers are reaped by survivors (barrier seats returned, the
/// completion latch counted down on their behalf) and reported in
/// [`TeamRun::lost_workers`] instead of wedging the run or failing an
/// all-done assertion.
///
/// # Panics
///
/// Panics if the run still fails to complete — a genuine runtime bug or
/// an exhausted sim-time budget.
pub fn run_program_tolerant(
    machine: asym_sim::MachineSpec,
    policy: asym_kernel::SchedPolicy,
    seed: u64,
    program: OmpProgram,
    nthreads: usize,
    dispatch_overhead: Cycles,
) -> TeamRun {
    let mut kernel = Kernel::new(machine, policy, seed);
    let team = spawn_team(&mut kernel, program, nthreads, dispatch_overhead);
    let outcome = kernel.run();
    assert_eq!(
        outcome,
        asym_kernel::RunOutcome::AllDone,
        "OMP program did not complete"
    );
    let lost_workers = team.lost_workers();
    debug_assert!(lost_workers > 0 || team.is_complete());
    TeamRun {
        elapsed: kernel.now().duration_since(asym_sim::SimTime::ZERO),
        lost_workers,
    }
}
