//! A deliberately tiny synthetic workload for million-cell scale
//! sweeps.
//!
//! The paper's workload models cost milliseconds of host time per run —
//! fine for figure-sized sweeps, far too slow to exercise the engine's
//! streaming trace pipeline and persistent cell cache at the hundreds
//! of thousands of cells the `extra_scale` spec sweeps. [`MicroBurst`]
//! is the scale probe: a handful of compute-burst threads (with one
//! short sleep each, so dynamic-environment regimes have wakeups and
//! re-dispatches to perturb) that finish in tens of microseconds of
//! host time while still producing a real scheduler trace.

use asym_core::{Direction, RunResult, RunSetup, Workload};
use asym_kernel::{FnThread, Kernel, SpawnOptions, Step, ThreadCx};
use asym_sim::{Cycles, SimDuration};

/// The scale-sweep micro workload: `threads` workers each run `bursts`
/// fixed-size compute bursts with one mid-life sleep, and the metric is
/// aggregate burst throughput (bursts per simulated second).
#[derive(Debug, Clone)]
pub struct MicroBurst {
    threads: u32,
    bursts: u32,
}

impl MicroBurst {
    /// The default probe: 4 threads × 6 bursts.
    pub fn new() -> Self {
        MicroBurst {
            threads: 4,
            bursts: 6,
        }
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: u32) -> Self {
        assert!(threads > 0, "MicroBurst needs at least one thread");
        self.threads = threads;
        self
    }

    /// Sets the bursts each worker runs.
    pub fn bursts(mut self, bursts: u32) -> Self {
        assert!(bursts > 0, "MicroBurst needs at least one burst");
        self.bursts = bursts;
        self
    }
}

impl Default for MicroBurst {
    fn default() -> Self {
        MicroBurst::new()
    }
}

impl Workload for MicroBurst {
    fn name(&self) -> &str {
        "micro-burst"
    }

    fn unit(&self) -> &str {
        "bursts/s"
    }

    fn direction(&self) -> Direction {
        Direction::HigherIsBetter
    }

    fn spec_key(&self) -> String {
        format!("{} t{} b{}", self.name(), self.threads, self.bursts)
    }

    fn run(&self, setup: &RunSetup) -> RunResult {
        let mut kernel = Kernel::new(setup.config.machine(), setup.policy, setup.seed);
        for t in 0..self.threads {
            let total = self.bursts;
            let mut done = 0u32;
            // Stagger the sleep point per thread so wakeups spread out.
            let nap_after = 1 + t % total.max(2);
            kernel.spawn(
                FnThread::new("burst", move |_cx: &mut ThreadCx<'_>| {
                    if done == total {
                        Step::Done
                    } else if done == nap_after {
                        done += 1;
                        Step::Sleep(SimDuration::from_micros(50))
                    } else {
                        done += 1;
                        Step::Compute(Cycles::from_millis_at_full_speed(0.1))
                    }
                }),
                SpawnOptions::new(),
            );
        }
        kernel.run();
        let elapsed = kernel.now().as_secs_f64();
        let total = f64::from(self.threads * self.bursts);
        RunResult::new(if elapsed > 0.0 { total / elapsed } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_core::AsymConfig;
    use asym_kernel::SchedPolicy;

    #[test]
    fn runs_fast_and_deterministically() {
        let w = MicroBurst::new();
        let setup = RunSetup::new(AsymConfig::new(1, 3, 8), SchedPolicy::os_default(), 11);
        let a = w.run(&setup);
        let b = w.run(&setup);
        assert_eq!(a, b, "same seed must reproduce bit-identically");
        assert!(a.value > 0.0);
    }

    #[test]
    fn spec_key_encodes_the_knobs() {
        assert_ne!(
            MicroBurst::new().spec_key(),
            MicroBurst::new().threads(2).spec_key()
        );
    }
}
