//! Shared helpers for the cross-crate integration tests.

use asym_core::{run_spec, AsymConfig, Experiment, ExperimentOptions, SpecMode, Workload};
use asym_kernel::SchedPolicy;

/// Runs `workload` over the standard nine configurations.
pub fn nine(workload: &dyn Workload, policy: SchedPolicy, runs: usize) -> Experiment {
    subset(workload, &AsymConfig::standard_nine(), policy, runs)
}

/// Runs `workload` over a chosen subset of configurations.
pub fn subset(
    workload: &dyn Workload,
    configs: &[AsymConfig],
    policy: SchedPolicy,
    runs: usize,
) -> Experiment {
    let options = ExperimentOptions::new(runs);
    let result = run_spec(workload, configs, SpecMode::Clean { policy, options });
    result.clean().clone()
}

/// The relative max-min spread of a configuration's runs.
pub fn spread(exp: &Experiment, config: AsymConfig) -> f64 {
    exp.outcome(config)
        .unwrap_or_else(|| panic!("{config} missing"))
        .samples
        .relative_spread()
}

/// The mean of a configuration's runs.
pub fn mean(exp: &Experiment, config: AsymConfig) -> f64 {
    exp.outcome(config)
        .unwrap_or_else(|| panic!("{config} missing"))
        .samples
        .mean()
}
