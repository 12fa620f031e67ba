//! Quickstart: simulate one workload on one asymmetric machine and see
//! the paper's core effect in thirty lines.
//!
//! Run with: `cargo run --release -p asym-examples --example quickstart`

use asym_core::{run_spec, AsymConfig, ExperimentOptions, SpecMode};
use asym_kernel::SchedPolicy;
use asym_workloads::specjbb::{GcKind, SpecJbb};

fn main() {
    // A transaction server with a concurrent garbage collector...
    let workload = SpecJbb::new(12).gc(GcKind::ConcurrentGenerational);

    // ...on the paper's 2f-2s/8 machine: two fast cores, two at 1/8 speed.
    let configs = [AsymConfig::new(4, 0, 1), AsymConfig::new(2, 2, 8)];

    // Run it five times per configuration under the stock (speed-agnostic)
    // scheduler...
    let run = |policy| {
        let options = ExperimentOptions::new(5);
        run_spec(&workload, &configs, SpecMode::Clean { policy, options })
    };
    let stock = run(SchedPolicy::os_default());
    println!("Stock kernel:\n{}", stock.clean());

    // ...and under the paper's asymmetry-aware scheduler.
    let aware = run(SchedPolicy::asymmetry_aware());
    println!("Asymmetry-aware kernel:\n{}", aware.clean());

    println!(
        "The symmetric machine is stable either way; the asymmetric machine is\n\
         unstable under the stock kernel (the collector's core placement is a\n\
         per-run lottery) and both stable and faster under the aware kernel."
    );
}
