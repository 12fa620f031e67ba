//! The experiment runner: repeated runs across configurations, exactly as
//! the paper's methodology prescribes — run the same workload several
//! times per configuration, then examine run-to-run variance (stability)
//! and the trend against compute power (scalability).

use crate::config::AsymConfig;
use crate::engine::TraceCheck;
use crate::metrics::{Direction, Samples, Scalability, Stability};
use crate::workload::RunSetup;
use asym_kernel::SchedPolicy;
use asym_obs::DiffAttribution;
use asym_sim::{EnvironmentPlan, FaultPlan, SimDuration};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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

/// The full outcome of an experiment over several configurations.
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

/// Per-configuration outcome of a resilient experiment: every run slot
/// classified, completed or not.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientConfigOutcome {
    /// The configuration.
    pub config: AsymConfig,
    /// One record per run slot, in seed order.
    pub records: Vec<RunRecord>,
}

impl ResilientConfigOutcome {
    /// Number of records in `class`.
    pub fn count(&self, class: RunClass) -> usize {
        self.records.iter().filter(|r| r.class == class).count()
    }

    /// The completed runs' metrics as [`Samples`], or `None` when no run
    /// in this configuration completed — the partial-result contract:
    /// a configuration wiped out by faults reports *absence*, never a
    /// fabricated statistic.
    pub fn completed_samples(&self) -> Option<Samples> {
        let values: Vec<f64> = self.records.iter().filter_map(|r| r.value).collect();
        if values.is_empty() {
            None
        } else {
            Some(Samples::new(values))
        }
    }

    /// Total attempts across all slots (retries included).
    pub fn total_attempts(&self) -> u32 {
        self.records.iter().map(|r| r.attempts).sum()
    }
}

/// The full outcome of a resilient experiment: like [`Experiment`], but
/// every run is classified and partial results are first-class.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientExperiment {
    /// Workload name.
    pub workload: String,
    /// Metric unit.
    pub unit: String,
    /// Metric direction.
    pub direction: Direction,
    /// Policy the runs used.
    pub policy: SchedPolicy,
    /// Per-configuration outcomes, in the order configurations were given.
    pub outcomes: Vec<ResilientConfigOutcome>,
}

impl ResilientExperiment {
    /// The outcome for `config`, if it was part of the experiment.
    pub fn outcome(&self, config: AsymConfig) -> Option<&ResilientConfigOutcome> {
        self.outcomes.iter().find(|o| o.config == config)
    }

    /// Number of runs (across all configurations) in `class`.
    pub fn count(&self, class: RunClass) -> usize {
        self.outcomes.iter().map(|o| o.count(class)).sum()
    }

    /// Fraction of run slots that completed, in `[0, 1]`.
    pub fn completion_rate(&self) -> f64 {
        let total: usize = self.outcomes.iter().map(|o| o.records.len()).sum();
        if total == 0 {
            return 1.0;
        }
        self.count(RunClass::Completed) as f64 / total as f64
    }
}

impl fmt::Display for ResilientExperiment {
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
                    o.records.len(),
                    s.mean(),
                    s.cov() * 100.0
                )?,
                None => writeln!(
                    f,
                    "  {:>8}: 0/{} completed",
                    o.config.to_string(),
                    o.records.len()
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

/// One repeat of a differential cell: four guarded runs from the *same*
/// seed — each policy once clean and once under the *identical*
/// [`FaultPlan`] — so any stock/aware difference is attributable to the
/// policy alone.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialRep {
    /// The seed all four runs used.
    pub seed: u64,
    /// Stock kernel, no faults.
    pub stock_clean: RunRecord,
    /// Stock kernel under the shared fault plan.
    pub stock_faulted: RunRecord,
    /// Asymmetry-aware kernel, no faults.
    pub aware_clean: RunRecord,
    /// Asymmetry-aware kernel under the shared fault plan.
    pub aware_faulted: RunRecord,
    /// Per-cell diff attribution between the two *disturbed* legs
    /// (stock-faulted − aware-faulted): where the stock kernel lost
    /// time relative to the aware kernel under the identical plan.
    /// Absent when either leg panicked before producing metrics.
    pub diff: Option<DiffAttribution>,
}

impl DifferentialRep {
    /// All four records, for classification counting.
    pub fn records(&self) -> [&RunRecord; 4] {
        [
            &self.stock_clean,
            &self.stock_faulted,
            &self.aware_clean,
            &self.aware_faulted,
        ]
    }

    fn slowdown(clean: &RunRecord, faulted: &RunRecord, direction: Direction) -> Option<f64> {
        let c = direction.performance(clean.value?);
        let f = direction.performance(faulted.value?);
        (f > 0.0).then(|| c / f)
    }

    /// Fault-induced slowdown under the stock kernel: clean performance
    /// over faulted performance (> 1 when faults hurt).
    pub fn stock_slowdown(&self, direction: Direction) -> Option<f64> {
        Self::slowdown(&self.stock_clean, &self.stock_faulted, direction)
    }

    /// Fault-induced slowdown under the asymmetry-aware kernel.
    pub fn aware_slowdown(&self, direction: Direction) -> Option<f64> {
        Self::slowdown(&self.aware_clean, &self.aware_faulted, direction)
    }

    /// The absorption metric: the fraction of the stock kernel's
    /// fault-induced slowdown that the asymmetry-aware policy recovers,
    /// `(S_stock − S_aware) / (S_stock − 1)`. 1 means the aware kernel
    /// fully absorbed the faults, 0 means it helped not at all, negative
    /// means it made faults worse. `None` when any needed run failed or
    /// the stock kernel was not measurably slowed (no slowdown to
    /// absorb).
    pub fn absorption(&self, direction: Direction) -> Option<f64> {
        let s_stock = self.stock_slowdown(direction)?;
        let s_aware = self.aware_slowdown(direction)?;
        (s_stock > 1.0 + 1e-9).then(|| (s_stock - s_aware) / (s_stock - 1.0))
    }
}

/// Per-configuration outcome of a differential experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialConfigOutcome {
    /// The configuration.
    pub config: AsymConfig,
    /// One entry per repeat seed.
    pub reps: Vec<DifferentialRep>,
}

impl DifferentialConfigOutcome {
    /// Number of runs (out of `4 × reps`) in `class`.
    pub fn count(&self, class: RunClass) -> usize {
        self.reps
            .iter()
            .flat_map(|r| r.records())
            .filter(|r| r.class == class)
            .count()
    }

    /// Mean absorption across the repeats where it is defined.
    pub fn mean_absorption(&self, direction: Direction) -> Option<f64> {
        let vals: Vec<f64> = self
            .reps
            .iter()
            .filter_map(|r| r.absorption(direction))
            .collect();
        (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
    }

    fn faulted_cov(&self, pick: impl Fn(&DifferentialRep) -> &RunRecord) -> Option<f64> {
        let vals: Vec<f64> = self.reps.iter().filter_map(|r| pick(r).value).collect();
        (vals.len() >= 2).then(|| Samples::new(vals).cov())
    }

    /// Run-to-run CoV of the stock kernel's faulted metric across repeats.
    pub fn stock_faulted_cov(&self) -> Option<f64> {
        self.faulted_cov(|r| &r.stock_faulted)
    }

    /// Run-to-run CoV of the aware kernel's faulted metric across repeats.
    pub fn aware_faulted_cov(&self) -> Option<f64> {
        self.faulted_cov(|r| &r.aware_faulted)
    }

    /// Stability delta under faults: stock CoV minus aware CoV across the
    /// repeat seeds. Positive means the aware kernel is *steadier* under
    /// the same fault schedules. `None` with fewer than two completed
    /// repeats on either side.
    pub fn stability_delta(&self) -> Option<f64> {
        Some(self.stock_faulted_cov()? - self.aware_faulted_cov()?)
    }
}

/// The full outcome of a differential experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialExperiment {
    /// Workload name.
    pub workload: String,
    /// Metric unit.
    pub unit: String,
    /// Metric direction.
    pub direction: Direction,
    /// Per-configuration outcomes, in the order configurations were given.
    pub outcomes: Vec<DifferentialConfigOutcome>,
}

impl DifferentialExperiment {
    /// The outcome for `config`, if it was part of the experiment.
    pub fn outcome(&self, config: AsymConfig) -> Option<&DifferentialConfigOutcome> {
        self.outcomes.iter().find(|o| o.config == config)
    }

    /// Number of runs (across all configurations) in `class`.
    pub fn count(&self, class: RunClass) -> usize {
        self.outcomes.iter().map(|o| o.count(class)).sum()
    }

    /// Total number of runs executed (4 per repeat per configuration).
    pub fn total_runs(&self) -> usize {
        self.outcomes.iter().map(|o| o.reps.len() * 4).sum()
    }
}

impl fmt::Display for DifferentialExperiment {
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
            match o.mean_absorption(self.direction) {
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
    use crate::engine::{
        run_spec, CellRunner, ExperimentPlan, SpecMode, SpecResult, RETRY_SEED_STRIDE,
    };
    use crate::workload::{RunResult, Workload};

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
        run_spec(w, configs, SpecMode::Clean { policy, options })
            .clean()
            .clone()
    }

    fn resilient(
        w: &dyn Workload,
        configs: &[AsymConfig],
        policy: SchedPolicy,
        options: &ResilientOptions,
    ) -> ResilientExperiment {
        let options = options.clone();
        run_spec(w, configs, SpecMode::Resilient { policy, options })
            .resilient()
            .clone()
    }

    fn differential(
        w: &dyn Workload,
        configs: &[AsymConfig],
        options: &ResilientOptions,
    ) -> DifferentialExperiment {
        let options = options.clone();
        run_spec(w, configs, SpecMode::Differential { options })
            .differential()
            .clone()
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
            RunResult::new(k.now().as_secs_f64())
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
        let exp = resilient(
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SchedPolicy::os_default(),
            &resilient_opts(),
        );
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
            let exp = resilient(
                &w,
                &[AsymConfig::new(2, 2, 8)],
                SchedPolicy::os_default(),
                &resilient_opts(),
            );
            assert_eq!(exp.count(class), 2, "mode {mode}");
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
        let exp = resilient(
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SchedPolicy::os_default(),
            &resilient_opts().retries(1),
        );
        assert_eq!(exp.count(RunClass::Completed), 2);
        for r in &exp.outcomes[0].records {
            assert_eq!(r.attempts, 2);
            assert!(r.seed >= RETRY_SEED_STRIDE);
            assert!(r.value.is_some());
        }
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
        let exp = resilient(
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SchedPolicy::os_default(),
            &opts,
        );
        assert_eq!(exp.count(RunClass::TimeLimit), 1);

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
        let exp = resilient(
            &Windowed,
            &[AsymConfig::new(2, 2, 8)],
            SchedPolicy::os_default(),
            &ResilientOptions::new(1).retries(0),
        );
        assert_eq!(exp.count(RunClass::Completed), 1);
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
        let exp = resilient(
            &SlowButSteady,
            &[AsymConfig::new(1, 0, 8)],
            SchedPolicy::os_default(),
            &ResilientOptions::new(1)
                .sim_time_budget(SimDuration::from_millis(2))
                .retries(1),
        );
        assert_eq!(exp.count(RunClass::Completed), 1);
        let r = &exp.outcomes[0].records[0];
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
        let exp = resilient(
            &NeedsProducer,
            &[AsymConfig::new(2, 0, 8)],
            SchedPolicy::os_default(),
            &ResilientOptions::new(1)
                .watchdog(SimDuration::from_millis(5))
                .sim_time_budget(SimDuration::from_millis(500))
                .fault_planner(planner)
                .retries(1),
        );
        assert_eq!(exp.count(RunClass::Completed), 1);
        let r = &exp.outcomes[0].records[0];
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
        let exp = differential(&PolicySensitive, &configs, &opts());

        // 1 config × 3 repeats × 4 runs, all completed.
        assert_eq!(exp.total_runs(), 12);
        assert_eq!(exp.count(RunClass::Completed), 12);
        let o = &exp.outcomes[0];
        assert_eq!(o.reps.len(), 3);
        for rep in &o.reps {
            // All four runs of a repeat share one seed — the pairing
            // the absorption metric depends on.
            for r in rep.records() {
                assert_eq!(r.seed, rep.seed);
            }
            assert!((rep.stock_slowdown(exp.direction).unwrap() - 1.5).abs() < 1e-9);
            assert!((rep.aware_slowdown(exp.direction).unwrap() - 1.1).abs() < 1e-9);
            assert!((rep.absorption(exp.direction).unwrap() - 0.8).abs() < 1e-9);
        }
        assert!((o.mean_absorption(exp.direction).unwrap() - 0.8).abs() < 1e-9);
        // The synthetic metric is seed-independent, so both faulted
        // series are perfectly stable.
        assert!(o.stability_delta().unwrap().abs() < 1e-12);

        // Deterministic, and identical whether run in parallel or not.
        let on = |jobs| {
            let mode = SpecMode::Differential { options: opts() };
            run_on(jobs, &PolicySensitive, &configs, mode)
        };
        assert_eq!(on(1), on(4));
        assert_eq!(on(1).differential(), &exp);
    }

    #[test]
    fn differential_reports_none_when_stock_is_unaffected() {
        // No planner ⇒ faulted runs equal clean runs ⇒ S_stock = 1 and
        // there is no slowdown to absorb.
        let exp = differential(
            &PolicySensitive,
            &[AsymConfig::new(2, 0, 8)],
            &ResilientOptions::new(2),
        );
        assert_eq!(exp.count(RunClass::Completed), 8);
        assert!(exp.outcomes[0].mean_absorption(exp.direction).is_none());
        assert!(exp.outcomes[0].reps[0].absorption(exp.direction).is_none());
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
        assert_eq!(a.count(RunClass::Completed), 2);
        // The throttle reached the inner kernel: 20 ms of work took far
        // longer than 20 ms.
        let s = a.outcomes[0].completed_samples().expect("samples");
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
        assert_eq!(on(1).resilient(), &a);
    }

    #[test]
    fn environment_induced_time_limits_escalate_budget_without_reseeding() {
        // Clean, the workload finishes in 20 ms — well inside the 25 ms
        // budget. The harsh thermal environment pins the core at 1/8
        // duty, stretching the run ~8x, so the first attempts are cut
        // off as TimeLimit; the harness must double the budget on the
        // SAME seed until the run fits (~145 ms needs the 8x ladder).
        let exp = resilient(
            &EnvSensitive,
            &[AsymConfig::new(1, 0, 8)],
            SchedPolicy::os_default(),
            &ResilientOptions::new(1)
                .sim_time_budget(SimDuration::from_millis(25))
                .environment_planner(harsh_thermal)
                .retries(3),
        );
        assert_eq!(exp.count(RunClass::Completed), 1);
        let r = &exp.outcomes[0].records[0];
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
        let exp = differential(
            &EnvSensitive,
            &[AsymConfig::new(1, 0, 8)],
            &ResilientOptions::new(1)
                .sim_time_budget(SimDuration::from_secs(2))
                .environment_planner(harsh_thermal),
        );
        assert_eq!(exp.count(RunClass::Completed), 4);
        let rep = &exp.outcomes[0].reps[0];
        let slow = rep.stock_slowdown(exp.direction).expect("stock slowdown");
        assert!(
            slow > 2.0,
            "environment did not slow the faulted leg: {slow}"
        );
        let absorption = rep.absorption(exp.direction).expect("defined absorption");
        assert!(
            absorption.abs() < 0.2,
            "policy-blind workload: {absorption}"
        );
    }
}
