//! Experiments: repeated runs across configurations, exactly as the
//! paper's methodology prescribes — run the same workload several times
//! per configuration, then examine run-to-run variance (stability) and
//! the trend against compute power (scalability).
//!
//! A finished experiment is a [`SpecResult`]: its identity over its
//! slice of the plan's per-cell records. The clean, resilient and
//! differential views compute the statistics from those records when
//! asked; no view keeps a copy of them.

use crate::config::AsymConfig;
use crate::engine::{CellReport, SpecMode, TraceCheck};
use crate::metrics::{Direction, Samples, Scalability, Stability};
use crate::workload::{RunSetup, Workload};
use asym_kernel::SchedPolicy;
use asym_sim::{EnvironmentPlan, FaultPlan, SimDuration};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// One finished experiment — a workload over its configurations in one
/// harness mode — viewing its slice of the plan's per-cell records
/// ([`SweepReport::cells`](crate::SweepReport::cells)), which it shares
/// with the report and the plan's other results.
///
/// Two results are equal when their identity and every cell's results
/// are: the cells' spec labels and host-side fields (`wall_ms`,
/// `memoized`, `cached`) never count.
#[derive(Clone)]
pub struct SpecResult {
    /// Workload name.
    pub workload: String,
    /// Metric unit.
    pub unit: String,
    /// Metric direction.
    pub direction: Direction,
    /// Harness mode: `clean`, `resilient`, or `differential`.
    pub mode: &'static str,
    /// Policy of every run (the canonical stock policy for differential
    /// experiments, which run both).
    pub policy: SchedPolicy,
    /// Configurations, in the order they were given; each owns an equal
    /// share of `range`.
    configs: Vec<AsymConfig>,
    cells: Arc<Vec<CellReport>>,
    range: Range<usize>,
}

impl SpecResult {
    /// The result of `workload` over `configs` in `mode`, whose records
    /// are `cells[range]` in configuration-major seed order.
    pub(crate) fn new(
        workload: &dyn Workload,
        mode: &SpecMode,
        configs: Vec<AsymConfig>,
        cells: Arc<Vec<CellReport>>,
        range: Range<usize>,
    ) -> SpecResult {
        SpecResult {
            workload: workload.name().to_string(),
            unit: workload.unit().to_string(),
            direction: workload.direction(),
            mode: mode.name(),
            policy: mode.cell_policy(),
            configs,
            cells,
            range,
        }
    }

    /// The experiment's per-cell records, in plan order.
    pub fn cells(&self) -> &[CellReport] {
        &self.cells[self.range.clone()]
    }

    /// Every run record, in plan order: one per clean or resilient cell,
    /// four per differential cell.
    pub fn records(&self) -> impl Iterator<Item = &RunRecord> {
        self.cells().iter().flat_map(|c| &c.runs)
    }

    /// Each configuration with its cells.
    fn by_config(&self) -> impl Iterator<Item = (AsymConfig, &[CellReport])> {
        let runs = self.range.len() / self.configs.len();
        self.configs.iter().copied().zip(self.cells().chunks(runs))
    }

    fn expect_mode(&self, mode: &str) {
        assert!(self.mode == mode, "spec did not run in {mode} mode");
    }

    /// The clean view, panicking if the spec ran another mode.
    pub fn clean(&self) -> Experiment {
        self.expect_mode("clean");
        let outcomes = self
            .by_config()
            .map(|(config, cells)| {
                let samples =
                    Samples::new(cells.iter().map(|c| c.value.unwrap_or(f64::NAN)).collect());
                let mut extras_mean = BTreeMap::new();
                for (k, v) in cells.iter().flat_map(|c| &c.runs).flat_map(|r| &r.extras) {
                    *extras_mean.entry(k.clone()).or_insert(0.0) += v / cells.len() as f64;
                }
                ConfigOutcome {
                    config,
                    samples,
                    extras_mean,
                }
            })
            .collect();
        Experiment {
            workload: self.workload.clone(),
            unit: self.unit.clone(),
            direction: self.direction,
            policy: self.policy,
            outcomes,
        }
    }

    /// The resilient view, panicking if the spec ran another mode.
    pub fn resilient(&self) -> ResilientExperiment<'_> {
        self.expect_mode("resilient");
        ResilientExperiment {
            workload: self.workload.clone(),
            unit: self.unit.clone(),
            direction: self.direction,
            policy: self.policy,
            outcomes: self
                .by_config()
                .map(|(config, cells)| ResilientConfigOutcome { config, cells })
                .collect(),
        }
    }

    /// The differential view, panicking if the spec ran another mode.
    pub fn differential(&self) -> DifferentialExperiment<'_> {
        self.expect_mode("differential");
        DifferentialExperiment {
            workload: self.workload.clone(),
            unit: self.unit.clone(),
            direction: self.direction,
            outcomes: self
                .by_config()
                .map(|(config, reps)| DifferentialConfigOutcome { config, reps })
                .collect(),
        }
    }
}

impl PartialEq for SpecResult {
    fn eq(&self, other: &SpecResult) -> bool {
        let (a, b) = (self.cells(), other.cells());
        (&self.workload, &self.unit, self.direction, self.mode)
            == (&other.workload, &other.unit, other.direction, other.mode)
            && (self.policy, &self.configs) == (other.policy, &other.configs)
            && a.len() == b.len()
            && a.iter().zip(b).all(|(a, b)| a.same_result(b))
    }
}

impl fmt::Debug for SpecResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecResult")
            .field("workload", &self.workload)
            .field("unit", &self.unit)
            .field("direction", &self.direction)
            .field("mode", &self.mode)
            .field("policy", &self.policy)
            .field("configs", &self.configs)
            .field("cells", &self.cells())
            .finish()
    }
}

/// Per-configuration outcome of an experiment: all runs plus their
/// statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigOutcome {
    /// The configuration.
    pub config: AsymConfig,
    /// Primary metric of each run, in seed order.
    pub samples: Samples,
    /// Mean of each named secondary metric across runs.
    pub extras_mean: BTreeMap<String, f64>,
}

impl ConfigOutcome {
    /// The stability verdict for this configuration.
    pub fn stability(&self) -> Stability {
        Stability::from_cov(self.samples.cov())
    }
}

/// The clean view of an experiment: per-configuration statistics over
/// its runs, computed from its records by [`SpecResult::clean`].
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Workload name.
    pub workload: String,
    /// Metric unit.
    pub unit: String,
    /// Metric direction.
    pub direction: Direction,
    /// Policy the runs used.
    pub policy: SchedPolicy,
    /// Per-configuration outcomes, in the order configurations were given.
    pub outcomes: Vec<ConfigOutcome>,
}

impl Experiment {
    /// The outcome for `config`, if it was part of the experiment.
    pub fn outcome(&self, config: AsymConfig) -> Option<&ConfigOutcome> {
        self.outcomes.iter().find(|o| o.config == config)
    }

    /// The worst (largest) CoV across asymmetric configurations — the
    /// paper's instability indicator.
    pub fn worst_asymmetric_cov(&self) -> f64 {
        self.outcomes
            .iter()
            .filter(|o| !o.config.is_symmetric())
            .map(|o| o.samples.cov())
            .fold(0.0, f64::max)
    }

    /// The worst CoV across symmetric configurations (the baseline noise
    /// level; near zero in the paper).
    pub fn worst_symmetric_cov(&self) -> f64 {
        self.outcomes
            .iter()
            .filter(|o| o.config.is_symmetric())
            .map(|o| o.samples.cov())
            .fold(0.0, f64::max)
    }

    /// Overall stability verdict: the worst configuration's verdict.
    pub fn stability(&self) -> Stability {
        Stability::from_cov(self.worst_asymmetric_cov().max(self.worst_symmetric_cov()))
    }

    /// Scalability across the experiment's configurations (mean
    /// performance vs compute power).
    ///
    /// # Panics
    ///
    /// Panics if the experiment covers fewer than two configurations.
    pub fn scalability(&self) -> Scalability {
        let points: Vec<(f64, f64)> = self
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.config.compute_power(),
                    self.direction.performance(o.samples.mean()),
                )
            })
            .collect();
        Scalability::from_points(&points)
    }

    /// Scalability computed from each configuration's *best* run — the
    /// achievable performance envelope. Instability lowers means; whether
    /// the envelope tracks compute power is the separate scalability
    /// question, exactly as the paper treats the two metrics.
    ///
    /// # Panics
    ///
    /// Panics if the experiment covers fewer than two configurations.
    pub fn scalability_best(&self) -> Scalability {
        let points: Vec<(f64, f64)> = self
            .outcomes
            .iter()
            .map(|o| {
                let best = match self.direction {
                    Direction::HigherIsBetter => o.samples.max(),
                    Direction::LowerIsBetter => o.samples.min(),
                };
                (o.config.compute_power(), self.direction.performance(best))
            })
            .collect();
        Scalability::from_points(&points)
    }

    /// Speedup of each configuration's mean performance over `baseline`'s
    /// (the paper's Figure 10 normalization, baseline `0f-4s/8`).
    ///
    /// # Panics
    ///
    /// Panics if `baseline` was not part of the experiment.
    pub fn speedups_over(&self, baseline: AsymConfig) -> Vec<(AsymConfig, f64)> {
        let base = self
            .outcome(baseline)
            .unwrap_or_else(|| panic!("baseline {baseline} not in experiment"));
        let base_perf = self.direction.performance(base.samples.mean());
        self.outcomes
            .iter()
            .map(|o| {
                (
                    o.config,
                    self.direction.performance(o.samples.mean()) / base_perf,
                )
            })
            .collect()
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}] under {} ({} configs)",
            self.workload,
            self.unit,
            self.policy,
            self.outcomes.len()
        )?;
        for o in &self.outcomes {
            writeln!(
                f,
                "  {:>8}: mean {:.3} cov {:.2}% [{}]",
                o.config.to_string(),
                o.samples.mean(),
                o.samples.cov() * 100.0,
                o.stability()
            )?;
        }
        Ok(())
    }
}

/// Options for the clean harness ([`SpecMode::Clean`](crate::SpecMode::Clean)).
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Number of repeated runs per configuration.
    pub runs: usize,
    /// Base seed; run *i* of configuration *j* uses
    /// `base_seed + j * 1000 + i`.
    pub base_seed: u64,
}

impl ExperimentOptions {
    /// `runs` repetitions, base seed 0.
    pub fn new(runs: usize) -> Self {
        ExperimentOptions { runs, base_seed: 0 }
    }

    /// Sets the base seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }
}

// ----------------------------------------------------------------------
// Resilient harness: classified runs, guards, faults, bounded retries
// ----------------------------------------------------------------------

/// Derives a per-run [`FaultPlan`] from the run's setup (see
/// [`ResilientOptions::fault_planner`]).
pub type FaultPlanner = Arc<dyn Fn(&RunSetup) -> FaultPlan + Send + Sync>;

/// Derives a per-run [`EnvironmentPlan`] from the run's setup (see
/// [`ResilientOptions::environment_planner`]).
pub type EnvPlanner = Arc<dyn Fn(&RunSetup) -> EnvironmentPlan + Send + Sync>;

/// How one run under the resilient or differential harness ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RunClass {
    /// The run finished normally and produced a usable metric.
    Completed,
    /// The run was truncated by the harness's per-run sim-time budget
    /// before finishing (a caller-chosen measurement window elapsing
    /// normally does *not* count).
    TimeLimit,
    /// The kernel's watchdog declared the run livelocked.
    Stalled,
    /// The run wedged with every live thread blocked.
    Deadlock,
    /// The workload panicked; the panic was caught and contained.
    Panicked,
}

impl fmt::Display for RunClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RunClass::Completed => "completed",
            RunClass::TimeLimit => "time-limit",
            RunClass::Stalled => "stalled",
            RunClass::Deadlock => "deadlock",
            RunClass::Panicked => "panicked",
        };
        f.write_str(s)
    }
}

/// One classified run (after any retries).
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The seed of the attempt this record describes (retries reseed, so
    /// this may differ from the slot's base seed).
    pub seed: u64,
    /// Total attempts spent on this slot (1 = no retries needed).
    pub attempts: u32,
    /// How the final attempt ended.
    pub class: RunClass,
    /// The primary metric, present only when the run completed.
    pub value: Option<f64>,
    /// The final attempt's named secondary metrics (empty when it
    /// panicked).
    pub extras: BTreeMap<String, f64>,
}

/// Per-configuration view of a resilient experiment: every run slot
/// classified, completed or not.
#[derive(Debug, Clone, Copy)]
pub struct ResilientConfigOutcome<'a> {
    /// The configuration.
    pub config: AsymConfig,
    /// One cell per run slot, in seed order.
    pub cells: &'a [CellReport],
}

impl<'a> ResilientConfigOutcome<'a> {
    /// One record per run slot, in seed order.
    pub fn records(&self) -> impl Iterator<Item = &'a RunRecord> + 'a {
        self.cells.iter().flat_map(|c| &c.runs)
    }

    /// Number of records in `class`.
    pub fn count(&self, class: RunClass) -> usize {
        self.records().filter(|r| r.class == class).count()
    }

    /// The completed runs' metrics as [`Samples`], or `None` when no run
    /// in this configuration completed — the partial-result contract:
    /// a configuration wiped out by faults reports *absence*, never a
    /// fabricated statistic.
    pub fn completed_samples(&self) -> Option<Samples> {
        let values: Vec<f64> = self.records().filter_map(|r| r.value).collect();
        if values.is_empty() {
            None
        } else {
            Some(Samples::new(values))
        }
    }
}

/// The resilient view of an experiment: like [`Experiment`], but every
/// run is classified and partial results are first-class.
#[derive(Debug, Clone)]
pub struct ResilientExperiment<'a> {
    /// Workload name.
    pub workload: String,
    /// Metric unit.
    pub unit: String,
    /// Metric direction.
    pub direction: Direction,
    /// Policy the runs used.
    pub policy: SchedPolicy,
    /// Per-configuration outcomes, in the order configurations were given.
    pub outcomes: Vec<ResilientConfigOutcome<'a>>,
}

impl<'a> ResilientExperiment<'a> {
    /// Every run slot's record, configuration-major in seed order.
    pub fn records(&self) -> impl Iterator<Item = &'a RunRecord> + '_ {
        self.outcomes.iter().flat_map(|o| o.records())
    }

    /// Number of run slots, across all configurations.
    pub fn runs(&self) -> usize {
        self.records().count()
    }

    /// Number of runs (across all configurations) in `class`.
    pub fn count(&self, class: RunClass) -> usize {
        self.records().filter(|r| r.class == class).count()
    }

    /// Attempts spent beyond each slot's first, across all slots.
    pub fn retries(&self) -> u32 {
        self.records().map(|r| r.attempts - 1).sum()
    }

    /// Fraction of run slots that completed, in `[0, 1]`.
    pub fn completion_rate(&self) -> f64 {
        let total = self.runs();
        if total == 0 {
            return 1.0;
        }
        self.count(RunClass::Completed) as f64 / total as f64
    }

    /// Stability under partial results: the worst CoV over the
    /// configurations with at least two completed runs, NaN when none has.
    pub fn worst_completed_cov(&self) -> f64 {
        self.outcomes
            .iter()
            .filter_map(ResilientConfigOutcome::completed_samples)
            .filter(|s| s.len() >= 2)
            .map(|s| s.cov())
            .fold(f64::NAN, f64::max)
    }

    /// Scalability under partial results: the completed runs' mean
    /// performance against compute power, over the configurations where
    /// any run completed; `None` when fewer than two did.
    pub fn completed_scalability(&self) -> Option<Scalability> {
        let points: Vec<(f64, f64)> = self
            .outcomes
            .iter()
            .filter_map(|o| {
                let s = o.completed_samples()?;
                Some((
                    o.config.compute_power(),
                    self.direction.performance(s.mean()),
                ))
            })
            .collect();
        (points.len() >= 2).then(|| Scalability::from_points(&points))
    }
}

impl fmt::Display for ResilientExperiment<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}] under {} ({} configs, {:.0}% runs completed)",
            self.workload,
            self.unit,
            self.policy,
            self.outcomes.len(),
            self.completion_rate() * 100.0
        )?;
        for o in &self.outcomes {
            match o.completed_samples() {
                Some(s) => writeln!(
                    f,
                    "  {:>8}: {}/{} completed, mean {:.3} cov {:.2}%",
                    o.config.to_string(),
                    s.len(),
                    o.cells.len(),
                    s.mean(),
                    s.cov() * 100.0
                )?,
                None => writeln!(
                    f,
                    "  {:>8}: 0/{} completed",
                    o.config.to_string(),
                    o.cells.len()
                )?,
            }
        }
        Ok(())
    }
}

/// Options for the resilient and differential harnesses
/// ([`SpecMode::Resilient`](crate::SpecMode::Resilient),
/// [`SpecMode::Differential`](crate::SpecMode::Differential)).
#[derive(Clone)]
pub struct ResilientOptions {
    /// Number of run slots per configuration.
    pub runs: usize,
    /// Base seed; slot *i* of configuration *j* starts from
    /// `base_seed + j * 1000 + i`.
    pub base_seed: u64,
    /// How many times a failed slot is retried before its failure is
    /// recorded. Retries escalate adaptively by failure class (see
    /// [`SpecMode::Resilient`](crate::SpecMode::Resilient)). Completed
    /// runs are never retried.
    pub retries: u32,
    /// Per-run cap on simulated time, applied to every kernel the run
    /// creates (via [`RunGuard`](asym_kernel::RunGuard)); a run cut short by it is classified
    /// [`RunClass::TimeLimit`].
    pub sim_time_budget: Option<SimDuration>,
    /// Livelock watchdog window applied to every kernel the run creates;
    /// a run it gives up on is classified [`RunClass::Stalled`].
    pub watchdog: Option<SimDuration>,
    /// When set, derives a [`FaultPlan`] from each run's setup and
    /// injects it into every kernel the run creates.
    pub planner: Option<FaultPlanner>,
    /// When set, derives an [`EnvironmentPlan`] from each run's setup
    /// and drives every kernel's core speeds from it (continuous
    /// DVFS/thermal/co-tenant dynamics, composable with the fault plan).
    /// Unlike fault plans, environment plans are never softened by
    /// retries — only reseeding re-derives them.
    pub env_planner: Option<EnvPlanner>,
    /// Optional section check (see [`ResilientOptions::trace_check`]);
    /// it also sees the kernels of failed (non-panicked) attempts.
    pub check: Option<TraceCheck>,
}

impl ResilientOptions {
    /// `runs` slots, base seed 0, one retry, no budget, no watchdog, no
    /// faults, no section check.
    pub fn new(runs: usize) -> Self {
        ResilientOptions {
            runs,
            base_seed: 0,
            retries: 1,
            sim_time_budget: None,
            watchdog: None,
            planner: None,
            env_planner: None,
            check: None,
        }
    }

    /// Sets the base seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the retry budget per slot.
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Caps simulated time per run.
    pub fn sim_time_budget(mut self, budget: SimDuration) -> Self {
        self.sim_time_budget = Some(budget);
        self
    }

    /// Arms the livelock watchdog per run.
    pub fn watchdog(mut self, window: SimDuration) -> Self {
        self.watchdog = Some(window);
        self
    }

    /// Installs a fault planner: each run gets the plan derived from its
    /// own (config, policy, seed) setup, so fault schedules are exactly
    /// as reproducible as the runs themselves.
    pub fn fault_planner(
        mut self,
        planner: impl Fn(&RunSetup) -> FaultPlan + Send + Sync + 'static,
    ) -> Self {
        self.planner = Some(Arc::new(planner));
        self
    }

    /// Installs an environment planner: each run's kernels get their
    /// core speeds driven by the plan derived from the run's own
    /// (config, policy, seed) setup — continuous dynamics exactly as
    /// reproducible as the runs themselves.
    pub fn environment_planner(
        mut self,
        planner: impl Fn(&RunSetup) -> EnvironmentPlan + Send + Sync + 'static,
    ) -> Self {
        self.env_planner = Some(Arc::new(planner));
        self
    }

    /// Installs a section check: every kernel of every attempt — failed
    /// attempts included, panicked ones excepted — streams its events
    /// through a fold `check` builds, on the worker thread executing the
    /// attempt, and each fold is closed with
    /// [`findings`](crate::CheckFold::findings) when its attempt ends.
    /// The findings are the check's own business: the folds report
    /// through whatever state the factory shares (as `asym-analysis`'s
    /// `ViolationLog` does), and they never land in
    /// [`CellReport::violations`](crate::CellReport::violations), which
    /// belong to the runner's check. Cells with a section check have no
    /// content address, so they are never memoized or cached: the check
    /// sees every requested run execute.
    pub fn trace_check(mut self, check: TraceCheck) -> Self {
        self.check = Some(check);
        self
    }
}

impl fmt::Debug for ResilientOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResilientOptions")
            .field("runs", &self.runs)
            .field("base_seed", &self.base_seed)
            .field("retries", &self.retries)
            .field("sim_time_budget", &self.sim_time_budget)
            .field("watchdog", &self.watchdog)
            .field("planner", &self.planner.as_ref().map(|_| "..."))
            .field("env_planner", &self.env_planner.as_ref().map(|_| "..."))
            .field("check", &self.check.as_ref().map(|_| "..."))
            .finish()
    }
}

// ----------------------------------------------------------------------
// Differential harness: stock vs aware under identical faults
// ----------------------------------------------------------------------

/// Per-configuration view of a differential experiment. Each repeat is
/// one differential cell: four guarded runs from the *same* seed — each
/// policy once clean and once under the *identical* [`FaultPlan`] —
/// so any stock/aware difference is attributable to the policy alone
/// (see [`CellReport::runs`], [`CellReport::stock_slowdown`]).
#[derive(Debug, Clone, Copy)]
pub struct DifferentialConfigOutcome<'a> {
    /// The configuration.
    pub config: AsymConfig,
    /// One cell per repeat seed; its `value` is the repeat's absorption.
    pub reps: &'a [CellReport],
}

impl DifferentialConfigOutcome<'_> {
    /// Number of runs (out of `4 × reps`) in `class`.
    pub fn count(&self, class: RunClass) -> usize {
        self.reps
            .iter()
            .flat_map(|r| &r.runs)
            .filter(|r| r.class == class)
            .count()
    }

    /// Mean absorption across the repeats where it is defined.
    pub fn mean_absorption(&self) -> Option<f64> {
        let vals: Vec<f64> = self.reps.iter().filter_map(|r| r.value).collect();
        (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
    }

    /// Run-to-run CoV of leg `leg`'s metric across repeats.
    fn leg_cov(&self, leg: usize) -> Option<f64> {
        let vals: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| r.runs.get(leg)?.value)
            .collect();
        (vals.len() >= 2).then(|| Samples::new(vals).cov())
    }

    /// Stability delta under faults: the stock-faulted leg's CoV minus
    /// the aware-faulted leg's across the repeat seeds. Positive means
    /// the aware kernel is *steadier* under the same fault schedules.
    /// `None` with fewer than two completed repeats on either side.
    pub fn stability_delta(&self) -> Option<f64> {
        Some(self.leg_cov(1)? - self.leg_cov(3)?)
    }
}

/// The differential view of an experiment.
#[derive(Debug, Clone)]
pub struct DifferentialExperiment<'a> {
    /// Workload name.
    pub workload: String,
    /// Metric unit.
    pub unit: String,
    /// Metric direction.
    pub direction: Direction,
    /// Per-configuration outcomes, in the order configurations were given.
    pub outcomes: Vec<DifferentialConfigOutcome<'a>>,
}

impl DifferentialExperiment<'_> {
    /// Number of runs (across all configurations) in `class`.
    pub fn count(&self, class: RunClass) -> usize {
        self.outcomes.iter().map(|o| o.count(class)).sum()
    }

    /// Total number of runs executed (4 per repeat per configuration).
    pub fn total_runs(&self) -> usize {
        let reps = self.outcomes.iter().flat_map(|o| o.reps);
        reps.map(|r| r.runs.len()).sum()
    }
}

impl fmt::Display for DifferentialExperiment<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}] stock-vs-aware differential ({} configs, {}/{} runs completed)",
            self.workload,
            self.unit,
            self.outcomes.len(),
            self.count(RunClass::Completed),
            self.total_runs(),
        )?;
        for o in &self.outcomes {
            match o.mean_absorption() {
                Some(a) => writeln!(
                    f,
                    "  {:>8}: absorption {:+.2} stability-delta {}",
                    o.config.to_string(),
                    a,
                    o.stability_delta()
                        .map_or("n/a".to_string(), |d| format!("{d:+.4}")),
                )?,
                None => writeln!(f, "  {:>8}: absorption n/a", o.config.to_string())?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CellCache;
    use crate::engine::{run_spec, CellRunner, ExperimentPlan, RETRY_SEED_STRIDE};
    use crate::workload::RunResult;

    /// `mode` over `configs` on an explicitly sized pool.
    fn run_on(jobs: usize, w: &dyn Workload, configs: &[AsymConfig], mode: SpecMode) -> SpecResult {
        let mut plan = ExperimentPlan::new(w.name());
        plan.push(w.name(), w, configs, mode);
        CellRunner::new(jobs)
            .run(plan)
            .results
            .pop()
            .expect("one spec, one result")
    }

    fn clean(
        w: &dyn Workload,
        configs: &[AsymConfig],
        policy: SchedPolicy,
        options: &ExperimentOptions,
    ) -> Experiment {
        let options = options.clone();
        run_spec(w, configs, SpecMode::Clean { policy, options }).clean()
    }

    /// A resilient run; its view is `.resilient()`.
    fn resilient(
        w: &dyn Workload,
        configs: &[AsymConfig],
        policy: SchedPolicy,
        options: &ResilientOptions,
    ) -> SpecResult {
        let options = options.clone();
        run_spec(w, configs, SpecMode::Resilient { policy, options })
    }

    /// A differential run; its view is `.differential()`.
    fn differential(
        w: &dyn Workload,
        configs: &[AsymConfig],
        options: &ResilientOptions,
    ) -> SpecResult {
        let options = options.clone();
        run_spec(w, configs, SpecMode::Differential { options })
    }

    /// Performance proportional to power, with seed-dependent noise on
    /// asymmetric configs only.
    struct Synthetic;
    impl Workload for Synthetic {
        fn name(&self) -> &str {
            "synthetic"
        }
        fn unit(&self) -> &str {
            "ops/s"
        }
        fn direction(&self) -> Direction {
            Direction::HigherIsBetter
        }
        fn run(&self, setup: &RunSetup) -> RunResult {
            let base = setup.config.compute_power() * 1000.0;
            let noise = if setup.config.is_symmetric() {
                0.0
            } else {
                (setup.seed % 7) as f64 * 0.03 * base
            };
            RunResult::new(base + noise)
        }
    }

    #[test]
    fn experiment_shape() {
        let configs = AsymConfig::standard_nine();
        let exp = clean(
            &Synthetic,
            &configs,
            SchedPolicy::os_default(),
            &ExperimentOptions::new(4),
        );
        assert_eq!(exp.outcomes.len(), 9);
        assert!(exp.outcomes.iter().all(|o| o.samples.len() == 4));
        // Symmetric configs are noise-free, asymmetric ones vary.
        assert!(exp.worst_symmetric_cov() < 1e-12);
        assert!(exp.worst_asymmetric_cov() > 0.01);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let configs = AsymConfig::standard_nine();
        let mode = || SpecMode::Clean {
            policy: SchedPolicy::os_default(),
            options: ExperimentOptions::new(3),
        };
        let par = run_on(4, &Synthetic, &configs, mode());
        let seq = run_on(1, &Synthetic, &configs, mode());
        assert_eq!(par, seq);
    }

    #[test]
    fn speedups_normalize_to_baseline() {
        let configs = AsymConfig::standard_nine();
        let exp = clean(
            &Synthetic,
            &configs,
            SchedPolicy::os_default(),
            &ExperimentOptions::new(1),
        );
        let baseline = AsymConfig::new(0, 4, 8);
        let speedups = exp.speedups_over(baseline);
        let base = speedups.iter().find(|(c, _)| *c == baseline).unwrap();
        assert!((base.1 - 1.0).abs() < 1e-12);
        let fast = speedups
            .iter()
            .find(|(c, _)| c.to_string() == "4f-0s")
            .unwrap();
        assert!((fast.1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn scalability_of_proportional_workload() {
        let configs = AsymConfig::standard_nine();
        let exp = clean(
            &Synthetic,
            &configs,
            SchedPolicy::os_default(),
            &ExperimentOptions::new(1),
        );
        // Noise of up to 18% on asymmetric configs still leaves the
        // workload predictably scalable at a loose efficiency bound.
        assert!(exp.scalability().is_predictable(0.8));
    }

    // ------------------------------------------------------------------
    // Resilient harness
    // ------------------------------------------------------------------

    use asym_kernel::{FnThread, Kernel, SpawnOptions, Step};
    use asym_sim::{Cycles, MachineSpec, SimTime, Speed};

    /// A kernel-backed workload with selectable misbehaviour per seed.
    struct Hostile {
        /// Seeds below this value misbehave in `mode`.
        bad_below: u64,
        mode: &'static str,
    }

    impl Workload for Hostile {
        fn name(&self) -> &str {
            "hostile"
        }
        fn unit(&self) -> &str {
            "seconds"
        }
        fn direction(&self) -> Direction {
            Direction::LowerIsBetter
        }
        fn run(&self, setup: &RunSetup) -> RunResult {
            let bad = setup.seed < self.bad_below;
            if bad && self.mode == "panic" {
                panic!("hostile workload panicking on seed {}", setup.seed);
            }
            let machine = MachineSpec::symmetric(2, Speed::FULL);
            let mut k = Kernel::new(machine, setup.policy, setup.seed);
            if bad {
                match self.mode {
                    "deadlock" => {
                        let wait = k.create_wait_queue();
                        k.spawn(
                            FnThread::new("waiter", move |_cx| Step::Block(wait)),
                            SpawnOptions::new(),
                        );
                    }
                    "stall" => {
                        k.spawn(
                            FnThread::new("poller", |_cx| {
                                Step::Sleep(SimDuration::from_micros(100))
                            }),
                            SpawnOptions::new(),
                        );
                    }
                    other => panic!("unknown mode {other}"),
                }
            } else {
                let mut left = 4u32;
                k.spawn(
                    FnThread::new("w", move |_cx| {
                        if left == 0 {
                            Step::Done
                        } else {
                            left -= 1;
                            Step::Compute(Cycles::from_millis_at_full_speed(0.5))
                        }
                    }),
                    SpawnOptions::new(),
                );
            }
            k.run();
            RunResult::new(k.now().as_secs_f64()).with_extra("seed", setup.seed as f64)
        }
    }

    fn resilient_opts() -> ResilientOptions {
        ResilientOptions::new(2)
            .watchdog(SimDuration::from_millis(5))
            .sim_time_budget(SimDuration::from_millis(500))
            .retries(0)
    }

    #[test]
    fn panics_are_contained_and_classified() {
        let w = Hostile {
            bad_below: u64::MAX,
            mode: "panic",
        };
        let result = resilient(
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SchedPolicy::os_default(),
            &resilient_opts(),
        );
        let exp = result.resilient();
        assert_eq!(exp.count(RunClass::Panicked), 2);
        assert!(exp.outcomes[0].completed_samples().is_none());
        assert_eq!(exp.completion_rate(), 0.0);
    }

    #[test]
    fn deadlocks_and_stalls_are_classified() {
        for (mode, class) in [
            ("deadlock", RunClass::Deadlock),
            ("stall", RunClass::Stalled),
        ] {
            let w = Hostile {
                bad_below: u64::MAX,
                mode,
            };
            let result = resilient(
                &w,
                &[AsymConfig::new(2, 2, 8)],
                SchedPolicy::os_default(),
                &resilient_opts(),
            );
            assert_eq!(result.resilient().count(class), 2, "mode {mode}");
        }
    }

    #[test]
    fn retries_reseed_and_recover() {
        // Seed 0 panics; the retry's seed (0 + 7919) is clean. Slot 1
        // (seed 1) also panics and recovers at 1 + 7919.
        let w = Hostile {
            bad_below: 2,
            mode: "panic",
        };
        let result = resilient(
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SchedPolicy::os_default(),
            &resilient_opts().retries(1),
        );
        let exp = result.resilient();
        assert_eq!(exp.count(RunClass::Completed), 2);
        for r in exp.outcomes[0].records() {
            assert_eq!(r.attempts, 2);
            assert!(r.seed >= RETRY_SEED_STRIDE);
            assert!(r.value.is_some());
        }
    }

    #[test]
    fn reseeded_resilient_cells_round_trip_the_cache() {
        // Both slots panic on their own seed and complete on the
        // reseeded retry: the cache must restore that final attempt.
        let w = Hostile {
            bad_below: 2,
            mode: "panic",
        };
        let dir = std::env::temp_dir().join(format!("asym-reseeded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::open(&dir).expect("temp cache opens");
        let run = || {
            let mut plan = ExperimentPlan::new("reseeded");
            let mode = SpecMode::Resilient {
                policy: SchedPolicy::os_default(),
                options: resilient_opts().retries(1),
            };
            plan.push("hostile", &w, &[AsymConfig::new(2, 2, 8)], mode);
            CellRunner::new(2).with_cache(cache.clone()).run(plan)
        };
        let (cold, warm) = (run(), run());
        assert_eq!(warm.report.cache.as_ref().map(|s| s.hits), Some(2));
        for (cold, warm) in cold.report.cells.iter().zip(warm.report.cells.iter()) {
            assert!(!cold.cached && warm.cached);
            assert_eq!((warm.attempts, warm.class), (2, RunClass::Completed));
            let [run] = &warm.runs[..] else {
                panic!("one run per resilient cell: {warm:?}");
            };
            assert_eq!(run.attempts, 2);
            assert!(run.seed >= RETRY_SEED_STRIDE, "{run:?}");
            assert!(run.value.is_some() && run.value == warm.value);
            assert_eq!(run.extras["seed"], run.seed as f64);
            assert_eq!(warm.runs, cold.runs);
        }
        assert_eq!(cold.results, warm.results);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn section_equality_compares_results_not_host_fields() {
        let w = Hostile {
            bad_below: 1,
            mode: "panic",
        };
        let configs = [AsymConfig::new(2, 2, 8)];
        let policy = SchedPolicy::os_default();
        let result = resilient(&w, &configs, policy, &resilient_opts().retries(1));
        // `result` with its last cell edited.
        let edited = |edit: fn(&mut CellReport)| {
            let mut cells = result.cells().to_vec();
            edit(cells.last_mut().expect("cells"));
            SpecResult {
                range: 0..cells.len(),
                cells: Arc::new(cells),
                ..result.clone()
            }
        };
        let host = edited(|c| {
            c.wall_ms += 1.0;
            c.memoized = !c.memoized;
            c.cached = !c.cached;
        });
        assert_eq!(host, result);
        assert_ne!(edited(|c| c.runs[0].seed += 1), result);
        assert_ne!(edited(|c| c.runs[0].value = Some(-1.0)), result);
        let extra = edited(|c| {
            c.runs[0].extras.insert("extra".to_string(), 0.0);
        });
        assert_ne!(extra, result);
    }

    #[test]
    fn budget_truncation_is_time_limit_but_windows_are_not() {
        // The stalling workload's kernel runs forever without a
        // watchdog; a tight budget cuts it off and the run must be
        // classified TimeLimit, not Completed.
        let w = Hostile {
            bad_below: u64::MAX,
            mode: "stall",
        };
        let opts = ResilientOptions::new(1)
            .sim_time_budget(SimDuration::from_millis(2))
            .retries(0);
        let result = resilient(
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SchedPolicy::os_default(),
            &opts,
        );
        assert_eq!(result.resilient().count(RunClass::TimeLimit), 1);

        // A caller-chosen run_until window elapsing is NOT a failure.
        struct Windowed;
        impl Workload for Windowed {
            fn name(&self) -> &str {
                "windowed"
            }
            fn unit(&self) -> &str {
                "ops"
            }
            fn direction(&self) -> Direction {
                Direction::HigherIsBetter
            }
            fn run(&self, setup: &RunSetup) -> RunResult {
                let machine = MachineSpec::symmetric(1, Speed::FULL);
                let mut k = Kernel::new(machine, setup.policy, setup.seed);
                k.spawn(
                    FnThread::new("s", |_cx| Step::Sleep(SimDuration::from_micros(50))),
                    SpawnOptions::new(),
                );
                k.run_until(SimTime::ZERO + SimDuration::from_millis(1));
                RunResult::new(1.0)
            }
        }
        let result = resilient(
            &Windowed,
            &[AsymConfig::new(2, 2, 8)],
            SchedPolicy::os_default(),
            &ResilientOptions::new(1).retries(0),
        );
        assert_eq!(result.resilient().count(RunClass::Completed), 1);
    }

    #[test]
    fn fault_planner_reaches_inner_kernels_and_stays_deterministic() {
        use asym_sim::{FaultPlan, FaultProfile};
        let planner = |setup: &RunSetup| {
            FaultPlan::generate(
                setup.seed,
                setup.config.num_cores() as usize,
                &FaultProfile::hotplug_and_throttle(SimDuration::from_millis(5)),
            )
        };
        let opts = || {
            ResilientOptions::new(2)
                .watchdog(SimDuration::from_millis(50))
                .sim_time_budget(SimDuration::from_secs(2))
                .fault_planner(planner)
        };
        let w = Hostile {
            bad_below: 0,
            mode: "panic",
        };
        let configs = [AsymConfig::new(1, 3, 8)];
        let a = resilient(&w, &configs, SchedPolicy::asymmetry_aware(), &opts());
        let b = resilient(&w, &configs, SchedPolicy::asymmetry_aware(), &opts());
        assert_eq!(a, b, "resilient runs must be deterministic");
        let a = a.resilient();
        assert_eq!(a.count(RunClass::Completed), 2);
        // Faults perturb the runs: the two seeds should not finish at
        // exactly the same simulated instant.
        let s = a.outcomes[0].completed_samples().expect("samples");
        assert!(s.values()[0] != s.values()[1]);
    }

    // ------------------------------------------------------------------
    // Adaptive escalation and the differential harness
    // ------------------------------------------------------------------

    use asym_sim::{CoreId, FaultKind, FaultPlan};

    /// A single thread computing a fixed 3 ms of simulated work.
    struct SlowButSteady;
    impl Workload for SlowButSteady {
        fn name(&self) -> &str {
            "slow-but-steady"
        }
        fn unit(&self) -> &str {
            "seconds"
        }
        fn direction(&self) -> Direction {
            Direction::LowerIsBetter
        }
        fn run(&self, setup: &RunSetup) -> RunResult {
            let machine = MachineSpec::symmetric(1, Speed::FULL);
            let mut k = Kernel::new(machine, setup.policy, setup.seed);
            let mut left = 6u32;
            k.spawn(
                FnThread::new("w", move |_cx| {
                    if left == 0 {
                        Step::Done
                    } else {
                        left -= 1;
                        Step::Compute(Cycles::from_millis_at_full_speed(0.5))
                    }
                }),
                SpawnOptions::new(),
            );
            k.run();
            RunResult::new(k.now().as_secs_f64())
        }
    }

    #[test]
    fn time_limit_retries_widen_the_budget_without_reseeding() {
        // 3 ms of work against a 2 ms budget: the first attempt is cut
        // off as TimeLimit, the retry doubles the budget to 4 ms and
        // completes — on the SAME seed, because the workload was never
        // at fault.
        let result = resilient(
            &SlowButSteady,
            &[AsymConfig::new(1, 0, 8)],
            SchedPolicy::os_default(),
            &ResilientOptions::new(1)
                .sim_time_budget(SimDuration::from_millis(2))
                .retries(1),
        );
        assert_eq!(result.resilient().count(RunClass::Completed), 1);
        let r = &result.cells()[0].runs[0];
        assert_eq!(r.attempts, 2);
        assert!(r.seed < RETRY_SEED_STRIDE, "budget retry must not reseed");
        assert!((r.value.unwrap() - 0.003).abs() < 1e-9);
    }

    /// A producer computes 1 ms then opens a flag a kill-exempt poller
    /// waits on. Killing the producer strands the poller forever.
    struct NeedsProducer;
    impl Workload for NeedsProducer {
        fn name(&self) -> &str {
            "needs-producer"
        }
        fn unit(&self) -> &str {
            "seconds"
        }
        fn direction(&self) -> Direction {
            Direction::LowerIsBetter
        }
        fn run(&self, setup: &RunSetup) -> RunResult {
            use std::cell::Cell;
            use std::rc::Rc;
            let machine = MachineSpec::symmetric(2, Speed::FULL);
            let mut k = Kernel::new(machine, setup.policy, setup.seed);
            let flag = Rc::new(Cell::new(false));
            let produced = flag.clone();
            let mut steps = 2u32;
            k.spawn(
                FnThread::new("producer", move |_cx| {
                    if steps > 0 {
                        steps -= 1;
                        Step::Compute(Cycles::from_millis_at_full_speed(0.5))
                    } else {
                        produced.set(true);
                        Step::Done
                    }
                }),
                SpawnOptions::new(),
            );
            k.spawn(
                FnThread::new("poller", move |_cx| {
                    if flag.get() {
                        Step::Done
                    } else {
                        Step::Sleep(SimDuration::from_micros(100))
                    }
                }),
                SpawnOptions::new().kill_exempt(),
            );
            k.run();
            RunResult::new(k.now().as_secs_f64())
        }
    }

    #[test]
    fn stalled_retries_soften_the_plan_without_reseeding() {
        // The plan always kills the producer (the only non-exempt
        // thread), stranding the poller until the watchdog fires. A
        // reseed-only retry policy would stall forever — the planner
        // ignores the seed — so completing on attempt 2 with the
        // original seed proves the retry dropped the kills instead.
        let planner = |_setup: &RunSetup| {
            let mut plan = FaultPlan::new();
            plan.inject(
                SimTime::ZERO + SimDuration::from_micros(100),
                FaultKind::KillThread { victim: 0 },
            );
            plan
        };
        let result = resilient(
            &NeedsProducer,
            &[AsymConfig::new(2, 0, 8)],
            SchedPolicy::os_default(),
            &ResilientOptions::new(1)
                .watchdog(SimDuration::from_millis(5))
                .sim_time_budget(SimDuration::from_millis(500))
                .fault_planner(planner)
                .retries(1),
        );
        assert_eq!(result.resilient().count(RunClass::Completed), 1);
        let r = &result.cells()[0].runs[0];
        assert_eq!(r.attempts, 2);
        assert!(r.seed < RETRY_SEED_STRIDE, "soften retry must not reseed");
    }

    /// Throughput 1000 when clean; faults cost a policy-dependent
    /// penalty (stock 50%, aware 10%) so the expected absorption is
    /// exactly (1.5 − 1.1) / (1.5 − 1) = 0.8.
    struct PolicySensitive;
    impl Workload for PolicySensitive {
        fn name(&self) -> &str {
            "policy-sensitive"
        }
        fn unit(&self) -> &str {
            "ops/s"
        }
        fn direction(&self) -> Direction {
            Direction::HigherIsBetter
        }
        fn run(&self, setup: &RunSetup) -> RunResult {
            let machine = MachineSpec::symmetric(2, Speed::FULL);
            let mut k = Kernel::new(machine, setup.policy, setup.seed);
            let mut left = 10u32;
            k.spawn(
                FnThread::new("w", move |_cx| {
                    if left == 0 {
                        Step::Done
                    } else {
                        left -= 1;
                        Step::Compute(Cycles::from_millis_at_full_speed(0.5))
                    }
                }),
                SpawnOptions::new(),
            );
            k.run();
            let penalty = if k.stats().faults_injected == 0 {
                0.0
            } else if setup.policy == SchedPolicy::asymmetry_aware() {
                0.1
            } else {
                0.5
            };
            RunResult::new(1000.0 / (1.0 + penalty))
        }
    }

    #[test]
    fn differential_pairs_policies_on_identical_seeds_and_plans() {
        let planner = |_setup: &RunSetup| {
            let mut plan = FaultPlan::new();
            plan.inject(
                SimTime::ZERO + SimDuration::from_millis(1),
                FaultKind::CoreOffline { core: CoreId(1) },
            );
            plan
        };
        let opts = || {
            ResilientOptions::new(3)
                .sim_time_budget(SimDuration::from_secs(1))
                .fault_planner(planner)
        };
        let configs = [AsymConfig::new(2, 0, 8)];
        let result = differential(&PolicySensitive, &configs, &opts());
        let exp = result.differential();

        // 1 config × 3 repeats × 4 runs, all completed.
        assert_eq!(exp.total_runs(), 12);
        assert_eq!(exp.count(RunClass::Completed), 12);
        let o = &exp.outcomes[0];
        assert_eq!(o.reps.len(), 3);
        for rep in o.reps {
            // All four runs of a repeat share one seed — the pairing
            // the absorption metric depends on.
            assert_eq!(rep.runs.len(), 4);
            for r in &rep.runs {
                assert_eq!(r.seed, rep.seed);
            }
            assert!((rep.stock_slowdown(exp.direction).unwrap() - 1.5).abs() < 1e-9);
            assert!((rep.aware_slowdown(exp.direction).unwrap() - 1.1).abs() < 1e-9);
            assert!((rep.value.unwrap() - 0.8).abs() < 1e-9, "absorption");
        }
        assert!((o.mean_absorption().unwrap() - 0.8).abs() < 1e-9);
        // The synthetic metric is seed-independent, so both faulted
        // series are perfectly stable.
        assert!(o.stability_delta().unwrap().abs() < 1e-12);

        // Deterministic, and identical whether run in parallel or not.
        let on = |jobs| {
            let mode = SpecMode::Differential { options: opts() };
            run_on(jobs, &PolicySensitive, &configs, mode)
        };
        assert_eq!(on(1), on(4));
        assert_eq!(on(1), result);
    }

    #[test]
    fn differential_reports_none_when_stock_is_unaffected() {
        // No planner ⇒ faulted runs equal clean runs ⇒ S_stock = 1 and
        // there is no slowdown to absorb.
        let result = differential(
            &PolicySensitive,
            &[AsymConfig::new(2, 0, 8)],
            &ResilientOptions::new(2),
        );
        let exp = result.differential();
        assert_eq!(exp.count(RunClass::Completed), 8);
        assert!(exp.outcomes[0].mean_absorption().is_none());
        assert!(exp.outcomes[0].reps[0].value.is_none(), "no absorption");
    }

    // ------------------------------------------------------------------
    // Environment planner: continuous dynamics through the harness
    // ------------------------------------------------------------------

    use asym_sim::{EnvironmentPlan, EnvironmentProfile, ThermalParams};

    /// 20 ms of single-core work whose metric is the completion time:
    /// any environment-induced throttling shows up directly.
    struct EnvSensitive;
    impl Workload for EnvSensitive {
        fn name(&self) -> &str {
            "env-sensitive"
        }
        fn unit(&self) -> &str {
            "seconds"
        }
        fn direction(&self) -> Direction {
            Direction::LowerIsBetter
        }
        fn run(&self, setup: &RunSetup) -> RunResult {
            let machine = MachineSpec::symmetric(1, Speed::FULL);
            let mut k = Kernel::new(machine, setup.policy, setup.seed);
            let mut left = 20u32;
            k.spawn(
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
            k.run();
            RunResult::new(k.now().as_secs_f64())
        }
    }

    /// A thermal regime harsh enough to pin a busy core at 1/8 duty
    /// within a few ticks: overheats in one tick, throttles two steps
    /// per excess heat unit.
    fn harsh_thermal(setup: &RunSetup) -> EnvironmentPlan {
        let profile = EnvironmentProfile {
            thermal: Some(ThermalParams {
                heat_per_busy_tick: 8,
                cool_per_idle_tick: 1,
                throttle_at: 8,
                steps_per_excess: 2,
            }),
            ..EnvironmentProfile::quiet(SimDuration::from_millis(200))
        };
        EnvironmentPlan::generate(setup.seed, setup.config.num_cores() as usize, &profile)
    }

    #[test]
    fn environment_planner_reaches_inner_kernels_and_stays_deterministic() {
        let opts = || {
            ResilientOptions::new(2)
                .sim_time_budget(SimDuration::from_secs(2))
                .environment_planner(harsh_thermal)
        };
        let configs = [AsymConfig::new(1, 0, 8)];
        let a = resilient(&EnvSensitive, &configs, SchedPolicy::os_default(), &opts());
        let b = resilient(&EnvSensitive, &configs, SchedPolicy::os_default(), &opts());
        assert_eq!(a, b, "environment runs must be deterministic");
        let view = a.resilient();
        assert_eq!(view.count(RunClass::Completed), 2);
        // The throttle reached the inner kernel: 20 ms of work took far
        // longer than 20 ms.
        let s = view.outcomes[0].completed_samples().expect("samples");
        for &v in s.values() {
            assert!(v > 0.1, "environment never throttled: finished in {v}s");
        }
        // And identical whether slots run sequentially or in parallel.
        let on = |jobs| {
            let policy = SchedPolicy::os_default();
            let mode = SpecMode::Resilient {
                policy,
                options: opts(),
            };
            run_on(jobs, &EnvSensitive, &configs, mode)
        };
        assert_eq!(on(1), on(4));
        assert_eq!(on(1), a);
    }

    #[test]
    fn environment_induced_time_limits_escalate_budget_without_reseeding() {
        // Clean, the workload finishes in 20 ms — well inside the 25 ms
        // budget. The harsh thermal environment pins the core at 1/8
        // duty, stretching the run ~8x, so the first attempts are cut
        // off as TimeLimit; the harness must double the budget on the
        // SAME seed until the run fits (~145 ms needs the 8x ladder).
        let result = resilient(
            &EnvSensitive,
            &[AsymConfig::new(1, 0, 8)],
            SchedPolicy::os_default(),
            &ResilientOptions::new(1)
                .sim_time_budget(SimDuration::from_millis(25))
                .environment_planner(harsh_thermal)
                .retries(3),
        );
        assert_eq!(result.resilient().count(RunClass::Completed), 1);
        let r = &result.cells()[0].runs[0];
        assert!(r.attempts >= 3, "budget never escalated: {r:?}");
        assert!(r.seed < RETRY_SEED_STRIDE, "budget retry must not reseed");
        assert!(r.value.unwrap() > 0.1);
    }

    #[test]
    fn differential_applies_environment_to_faulted_legs_only() {
        // No fault planner, only an environment planner: the "faulted"
        // legs absorb the thermal regime while the clean legs stay the
        // undisturbed baseline, so the stock slowdown is the ~8x
        // throttle stretch and absorption is defined (the synthetic
        // workload is policy-blind, so the aware kernel absorbs none of
        // it — absorption ~0).
        let result = differential(
            &EnvSensitive,
            &[AsymConfig::new(1, 0, 8)],
            &ResilientOptions::new(1)
                .sim_time_budget(SimDuration::from_secs(2))
                .environment_planner(harsh_thermal),
        );
        let exp = result.differential();
        assert_eq!(exp.count(RunClass::Completed), 4);
        let rep = &exp.outcomes[0].reps[0];
        let slow = rep.stock_slowdown(exp.direction).expect("stock slowdown");
        assert!(
            slow > 2.0,
            "environment did not slow the faulted leg: {slow}"
        );
        let absorption = rep.value.expect("defined absorption");
        assert!(
            absorption.abs() < 0.2,
            "policy-blind workload: {absorption}"
        );
    }
}
