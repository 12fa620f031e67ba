//! # asym-core
//!
//! The methodology of *"The Impact of Performance Asymmetry in Emerging
//! Multicore Architectures"* (ISCA 2005), as a library:
//!
//! * [`AsymConfig`] — the paper's `nf-ms/scale` machine configurations
//!   (duty-cycle-modulated cores) and the standard nine-configuration
//!   sweep;
//! * [`Workload`] — anything that can run once on a configuration and
//!   produce a metric;
//! * [`run_experiment`] — repeated runs per configuration, optionally on
//!   parallel OS threads, with full determinism per seed;
//! * [`run_experiment_resilient`] — the hardened variant: per-run fault
//!   injection, watchdogs and sim-time budgets, contained panics,
//!   per-run [`RunClass`] classification, bounded retries, and partial
//!   results when a configuration is wiped out;
//! * [`Samples`], [`Stability`], [`Scalability`] — the paper's two
//!   predictability metrics;
//! * [`SummaryRow`] / [`Verdict`] — Table-1-style qualitative verdicts,
//!   including "No (Yes with asymmetry-aware kernel)" remedy annotations.
//!
//! # Examples
//!
//! ```
//! use asym_core::{run_experiment, AsymConfig, Direction, ExperimentOptions,
//!                 RunResult, RunSetup, Workload};
//! use asym_kernel::SchedPolicy;
//!
//! /// A toy workload whose throughput is exactly proportional to compute
//! /// power (and therefore perfectly stable and scalable).
//! struct Ideal;
//! impl Workload for Ideal {
//!     fn name(&self) -> &str { "ideal" }
//!     fn unit(&self) -> &str { "ops/s" }
//!     fn direction(&self) -> Direction { Direction::HigherIsBetter }
//!     fn run(&self, setup: &RunSetup) -> RunResult {
//!         RunResult::new(setup.config.compute_power() * 1000.0)
//!     }
//! }
//!
//! let exp = run_experiment(
//!     &Ideal,
//!     &AsymConfig::standard_nine(),
//!     SchedPolicy::os_default(),
//!     &ExperimentOptions::new(3),
//! );
//! assert!(exp.scalability().is_predictable(0.95));
//! assert!(exp.worst_asymmetric_cov() < 1e-12);
//! ```

#![warn(missing_docs)]

mod cache;
mod config;
mod engine;
mod experiment;
mod metrics;
mod summary;
mod table;
mod workload;

pub use cache::{CacheStats, CellCache};
pub use config::{AsymConfig, ParseConfigError};
pub use engine::{
    default_jobs, resolve_jobs, Cell, CellReport, CellRunner, CheckFold, ExperimentPlan,
    PlanOutcome, SpecMode, SpecResult, SweepReport, TraceCheck,
};
pub use experiment::{
    run_experiment, run_experiment_differential, run_experiment_resilient, ConfigOutcome,
    DifferentialConfigOutcome, DifferentialExperiment, DifferentialRep, EnvPlanner, Experiment,
    ExperimentOptions, FaultPlanner, ResilientConfigOutcome, ResilientExperiment, ResilientOptions,
    RunClass, RunObserver, RunRecord,
};
pub use metrics::{Direction, Samples, Scalability, Stability};
pub use summary::{SummaryRow, Verdict, WorkloadClass};
pub use table::{fmt_f, fmt_pct, TextTable};
pub use workload::{RunResult, RunSetup, Workload};
