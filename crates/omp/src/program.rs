//! OpenMP-style program descriptions: sequences of serial and parallel
//! regions, repeated over time steps.

use crate::schedule::LoopSchedule;
use asym_sim::Cycles;
use std::fmt;

/// One region of an OpenMP-style program.
///
/// There is no `critical` region: the paper notes SPEC OMP "infrequently
/// use critical-section synchronization constructs", and none of the
/// modeled profiles has one.
#[derive(Debug, Clone, PartialEq)]
pub enum Region {
    /// Work executed by the master thread only, followed by an implicit
    /// barrier (everyone waits for the master).
    Serial {
        /// Master-only work.
        work: Cycles,
    },
    /// A work-sharing parallel loop.
    ParallelFor {
        /// Loop trip count.
        iters: u64,
        /// Cost of one iteration (full-speed cycles).
        cost: Cycles,
        /// Work-sharing mode.
        schedule: LoopSchedule,
        /// When `true`, threads fall through to the next region without
        /// waiting at the loop-end barrier (the `nowait` directive).
        nowait: bool,
    },
}

impl Region {
    /// Convenience constructor for a parallel-for with a barrier.
    pub fn parallel_for(iters: u64, cost: Cycles, schedule: LoopSchedule) -> Self {
        Region::ParallelFor {
            iters,
            cost,
            schedule,
            nowait: false,
        }
    }

    /// Convenience constructor for a `nowait` parallel-for.
    pub fn parallel_for_nowait(iters: u64, cost: Cycles, schedule: LoopSchedule) -> Self {
        Region::ParallelFor {
            iters,
            cost,
            schedule,
            nowait: true,
        }
    }

    /// Convenience constructor for a serial region.
    pub fn serial(work: Cycles) -> Self {
        Region::Serial { work }
    }

    /// Total full-speed cycles this region contributes per time step.
    pub fn total_work(&self) -> Cycles {
        match *self {
            Region::Serial { work } => work,
            Region::ParallelFor { iters, cost, .. } => Cycles::new(iters * cost.get()),
        }
    }

    /// Returns `true` if this region ends with a barrier.
    pub fn has_barrier(&self) -> bool {
        match *self {
            Region::Serial { .. } => true,
            Region::ParallelFor { nowait, .. } => !nowait,
        }
    }
}

/// An OpenMP-style program: a list of regions executed `time_steps` times.
///
/// # Examples
///
/// ```
/// use asym_omp::{LoopSchedule, OmpProgram, Region};
/// use asym_sim::Cycles;
///
/// let program = OmpProgram::builder()
///     .region(Region::serial(Cycles::from_millis_at_full_speed(0.5)))
///     .region(Region::parallel_for(
///         1_000,
///         Cycles::from_micros_at_full_speed(10.0),
///         LoopSchedule::Static,
///     ))
///     .time_steps(20)
///     .build();
/// assert_eq!(program.time_steps(), 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OmpProgram {
    regions: Vec<Region>,
    time_steps: u64,
}

impl OmpProgram {
    /// Starts building a program.
    pub fn builder() -> OmpProgramBuilder {
        OmpProgramBuilder {
            regions: Vec::new(),
            time_steps: 1,
        }
    }

    /// The regions executed each time step.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// How many times the region list repeats.
    pub fn time_steps(&self) -> u64 {
        self.time_steps
    }

    /// Total full-speed work over the whole program.
    pub fn total_work(&self) -> Cycles {
        let per_step: u64 = self.regions.iter().map(|r| r.total_work().get()).sum();
        Cycles::new(per_step * self.time_steps)
    }

    /// The serial fraction of the program's work (serial regions over
    /// total) — the Amdahl term a fast core accelerates.
    pub fn serial_fraction(&self) -> f64 {
        let serial: u64 = self
            .regions
            .iter()
            .filter_map(|r| match r {
                Region::Serial { work } => Some(work.get()),
                _ => None,
            })
            .sum();
        let total = self
            .regions
            .iter()
            .map(|r| r.total_work().get())
            .sum::<u64>();
        if total == 0 {
            0.0
        } else {
            serial as f64 / total as f64
        }
    }

    /// A copy of this program with every parallel loop switched to a
    /// dynamic schedule of roughly `chunks_per_thread` chunks per thread —
    /// the paper's application-level fix for SPEC OMP (§3.5, Figure 8(b)).
    pub fn with_dynamic_loops(&self, nthreads: usize, chunks_per_thread: u64) -> OmpProgram {
        let regions = self
            .regions
            .iter()
            .map(|r| match *r {
                Region::ParallelFor {
                    iters,
                    cost,
                    nowait,
                    ..
                } => Region::ParallelFor {
                    iters,
                    cost,
                    schedule: LoopSchedule::dynamic_for(iters, nthreads, chunks_per_thread),
                    // The fix also removes `nowait` races: every loop waits.
                    nowait,
                },
                ref other => other.clone(),
            })
            .collect();
        OmpProgram {
            regions,
            time_steps: self.time_steps,
        }
    }
}

impl fmt::Display for OmpProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OmpProgram({} regions x {} steps)",
            self.regions.len(),
            self.time_steps
        )
    }
}

/// Builder for [`OmpProgram`].
#[derive(Debug, Clone)]
pub struct OmpProgramBuilder {
    regions: Vec<Region>,
    time_steps: u64,
}

impl OmpProgramBuilder {
    /// Appends a region.
    pub fn region(mut self, region: Region) -> Self {
        self.regions.push(region);
        self
    }

    /// Sets how many times the whole region list repeats.
    pub fn time_steps(mut self, steps: u64) -> Self {
        self.time_steps = steps;
        self
    }

    /// Finishes the program.
    ///
    /// # Panics
    ///
    /// Panics if the program has no regions, zero time steps, or no
    /// barrier anywhere (an all-`nowait` program would let threads from
    /// different time steps race on the same loop state).
    pub fn build(self) -> OmpProgram {
        assert!(
            !self.regions.is_empty(),
            "program needs at least one region"
        );
        assert!(self.time_steps > 0, "program needs at least one time step");
        assert!(
            self.regions.iter().any(Region::has_barrier),
            "program needs at least one barrier region"
        );
        OmpProgram {
            regions: self.regions,
            time_steps: self.time_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OmpProgram {
        OmpProgram::builder()
            .region(Region::serial(Cycles::new(1_000)))
            .region(Region::parallel_for(
                10,
                Cycles::new(300),
                LoopSchedule::Static,
            ))
            .time_steps(3)
            .build()
    }

    #[test]
    fn total_work_accumulates_over_steps() {
        let p = sample();
        assert_eq!(p.total_work(), Cycles::new((1_000 + 3_000) * 3));
    }

    #[test]
    fn serial_fraction_is_ratio() {
        let p = sample();
        assert!((p.serial_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn with_dynamic_loops_replaces_schedules() {
        let p = sample().with_dynamic_loops(4, 5);
        match p.regions()[1] {
            Region::ParallelFor { schedule, .. } => {
                assert!(matches!(schedule, LoopSchedule::Dynamic { .. }));
            }
            _ => panic!("expected parallel region"),
        }
        // Serial regions untouched.
        assert_eq!(p.regions()[0], Region::serial(Cycles::new(1_000)));
    }

    #[test]
    #[should_panic(expected = "at least one barrier")]
    fn all_nowait_program_rejected() {
        let _ = OmpProgram::builder()
            .region(Region::parallel_for_nowait(
                10,
                Cycles::new(1),
                LoopSchedule::Static,
            ))
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn empty_program_rejected() {
        let _ = OmpProgram::builder().build();
    }
}
