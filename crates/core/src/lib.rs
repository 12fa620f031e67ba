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
//! * [`ExperimentPlan`] and [`CellRunner`] — the cell engine every
//!   sweep runs on: (workload × configuration × policy × seed) cells on a
//!   host thread pool, deterministic per seed whatever the pool size,
//!   with an optional content-addressed on-disk [`CellCache`];
//! * [`run_spec`] — one experiment in one [`SpecMode`]: clean repeated
//!   runs, the resilient harness (per-run fault injection, watchdogs and
//!   sim-time budgets, contained panics, per-run [`RunClass`]
//!   classification, bounded retries, partial results), or the
//!   stock-vs-aware differential harness;
//! * [`CellReport`] — the one record each cell produces, which the
//!   engine memoizes, caches and emits, and [`SpecResult`] — an
//!   experiment's slice of those records, with clean, resilient and
//!   differential views that compute the statistics from them;
//! * [`Samples`], [`Stability`], [`Scalability`] — the paper's two
//!   predictability metrics;
//! * [`SummaryRow`] / [`Verdict`] — Table-1-style qualitative verdicts,
//!   including "No (Yes with asymmetry-aware kernel)" remedy annotations.
//!
//! # Examples
//!
//! ```
//! use asym_core::{run_spec, AsymConfig, Direction, ExperimentOptions,
//!                 RunResult, RunSetup, SpecMode, Workload};
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
//! let mode = SpecMode::Clean {
//!     policy: SchedPolicy::os_default(),
//!     options: ExperimentOptions::new(3),
//! };
//! let result = run_spec(&Ideal, &AsymConfig::standard_nine(), mode);
//! // One record per cell: nine configurations × three runs.
//! assert_eq!(result.cells().len(), 27);
//! assert_eq!(result.cells()[4].config, "3f-1s/4");
//! // The clean view computes the paper's metrics from the records.
//! let exp = result.clean();
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
    default_jobs, resolve_jobs, run_spec, Cell, CellReport, CellRunner, CheckFold, ExperimentPlan,
    PlanOutcome, ProfiledRun, SpecMode, SweepReport, TraceCheck,
};
pub use experiment::{
    ConfigOutcome, DifferentialConfigOutcome, DifferentialExperiment, EnvPlanner, Experiment,
    ExperimentOptions, FaultPlanner, ResilientConfigOutcome, ResilientExperiment, ResilientOptions,
    RunClass, RunRecord, SpecResult,
};
pub use metrics::{Direction, Samples, Scalability, Stability};
pub use summary::{SummaryRow, Verdict, WorkloadClass};
pub use table::TextTable;
pub use workload::{RunResult, RunSetup, Workload};
