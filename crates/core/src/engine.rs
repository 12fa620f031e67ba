//! The cell-based experiment engine.
//!
//! Every figure of the paper is a sweep over (workload × configuration ×
//! policy × seed) cells, and each cell is an independent,
//! seed-deterministic simulation. This module makes that the unit of
//! execution: an [`ExperimentPlan`] expands any sweep — clean,
//! resilient, or differential — into a flat list of [`Cell`]s with
//! precomputed seeds, and a [`CellRunner`] executes the cells on a host
//! thread pool (size controlled by `--jobs` flags or the `ASYM_JOBS`
//! environment variable, defaulting to `available_parallelism`) and
//! keeps results in deterministic plan order, so parallel output is
//! bit-identical to serial.
//!
//! The runner is the only way cells execute: multi-spec sweeps build a
//! plan (the `asym_sweep` driver merges every selected figure into one),
//! and [`run_spec`] runs a single experiment in any mode. Identical cells
//! within a plan run once: they are grouped by the content address the
//! on-disk [`CellCache`] files them under, whether or not a cache is
//! attached.
//!
//! Every cell produces one record, its [`CellReport`]: the engine
//! executes, memoizes, caches and emits it, and each experiment's
//! [`SpecResult`] views its slice of the records. The plan's records
//! form a [`SweepReport`] — per-cell wall-clock timings, retry counts,
//! classifications, and trace hashes, serializable as JSON (a
//! hand-rolled writer, no dependencies) — the repository's perf
//! trajectory artifact (`BENCH_sweep.json`).

use crate::cache::{CacheStats, CellCache, Lookup};
use crate::config::AsymConfig;
use crate::experiment::{ExperimentOptions, ResilientOptions, RunClass, RunRecord, SpecResult};
use crate::metrics::Direction;
use crate::workload::{RunResult, RunSetup, Workload};
use asym_kernel::{
    capture_stream, with_run_guard, RunGuard, RunOutcome, SchedPolicy, TraceConsumer, TraceEvent,
    TraceHashFold, TraceHasher,
};
use asym_obs::{DiffAttribution, ProfileFold, ProfileMetrics, RunProfile};
use asym_sim::{EnvironmentPlan, FaultPlan, MachineSpec, SimDuration, SimTime, StableHasher};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

// ----------------------------------------------------------------------
// Host parallelism
// ----------------------------------------------------------------------

/// Resolves the host-thread-pool size: an explicit request (a `--jobs`
/// flag) wins, then the `ASYM_JOBS` environment variable, then
/// `available_parallelism`. Zero and unparseable values are ignored.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var("ASYM_JOBS")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// The default pool size: `ASYM_JOBS` if set, else `available_parallelism`.
pub fn default_jobs() -> usize {
    resolve_jobs(None)
}

// ----------------------------------------------------------------------
// Plans and cells
// ----------------------------------------------------------------------

/// How one experiment in a plan executes its cells: which harness
/// semantics (clean / resilient / differential) and with what options.
/// Host parallelism is the [`CellRunner`]'s business, not the
/// experiment's: no mode changes its results with the pool size.
#[derive(Clone)]
pub enum SpecMode {
    /// The clean harness: one plain run per cell, panics propagate.
    Clean {
        /// Scheduling policy for every run.
        policy: SchedPolicy,
        /// Runs per configuration and base seed.
        options: ExperimentOptions,
    },
    /// The resilient harness, built to survive hostile runs: every
    /// kernel the workload creates gets the options' watchdog, sim-time
    /// budget, fault plan and environment plan; panics are contained to
    /// their run; every slot is classified as a [`RunClass`]; failed
    /// slots are retried up to `options.retries` times with adaptive
    /// escalation (time-limited runs double the budget, stalled runs
    /// soften the fault plan, deadlocked and panicked runs reseed); and
    /// configurations where every run failed report no samples instead
    /// of poisoning the sweep.
    Resilient {
        /// Scheduling policy for every run.
        policy: SchedPolicy,
        /// Slots, retries, watchdog, budget, fault planner, section
        /// check.
        options: ResilientOptions,
    },
    /// The stock-vs-aware differential harness: each cell runs four
    /// times — under [`SchedPolicy::os_default`] and
    /// [`SchedPolicy::asymmetry_aware`], each once undisturbed and once
    /// under one *shared* fault and environment plan derived from a
    /// canonical stock-policy setup — so any stock/aware difference is
    /// attributable to the policy alone. Retries never reseed and never
    /// soften the plan (either would break the pairing); the only
    /// escalation is budget doubling on [`RunClass::TimeLimit`].
    Differential {
        /// Repeats, retries, watchdog, budget, fault planner, section
        /// check.
        options: ResilientOptions,
    },
}

impl SpecMode {
    /// Short machine-readable mode name (used in the JSON sink).
    pub fn name(&self) -> &'static str {
        match self {
            SpecMode::Clean { .. } => "clean",
            SpecMode::Resilient { .. } => "resilient",
            SpecMode::Differential { .. } => "differential",
        }
    }

    fn runs(&self) -> usize {
        match self {
            SpecMode::Clean { options, .. } => options.runs,
            SpecMode::Resilient { options, .. } | SpecMode::Differential { options } => {
                options.runs
            }
        }
    }

    fn base_seed(&self) -> u64 {
        match self {
            SpecMode::Clean { options, .. } => options.base_seed,
            SpecMode::Resilient { options, .. } | SpecMode::Differential { options } => {
                options.base_seed
            }
        }
    }

    /// The policy recorded per cell: the run policy, or the canonical
    /// stock policy for differential cells (which run both).
    pub(crate) fn cell_policy(&self) -> SchedPolicy {
        match self {
            SpecMode::Clean { policy, .. } | SpecMode::Resilient { policy, .. } => *policy,
            SpecMode::Differential { .. } => SchedPolicy::os_default(),
        }
    }
}

/// One experiment inside a plan.
struct PlanSpec<'w> {
    label: String,
    workload: &'w dyn Workload,
    configs: Vec<AsymConfig>,
    mode: SpecMode,
}

/// One schedulable unit of a sweep: a single run slot (clean/resilient)
/// or one four-run differential repeat. Seeds are precomputed at
/// plan-expansion time, so execution order can never influence them;
/// fault and environment plans are pure functions of a run's setup, so
/// execution (and the cache key) derive them when needed.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index of the owning spec within the plan.
    pub spec: usize,
    /// Index of the cell's configuration within the spec's `configs`.
    pub config_index: usize,
    /// Run slot (clean/resilient) or repeat index (differential) within
    /// the configuration.
    pub rep: usize,
    /// The precomputed setup (config, policy, seed) of the first attempt.
    pub setup: RunSetup,
}

/// A flat, deterministic expansion of one or more experiments into
/// [`Cell`]s, ready for a [`CellRunner`].
///
/// Pushing a spec expands its cells immediately, in configuration-major
/// seed order — the exact order the serial harnesses used — so results
/// kept by cell index are independent of execution interleaving.
pub struct ExperimentPlan<'w> {
    name: String,
    specs: Vec<PlanSpec<'w>>,
    cells: Vec<Cell>,
}

impl<'w> ExperimentPlan<'w> {
    /// An empty plan named `name` (the name labels the [`SweepReport`]).
    pub fn new(name: impl Into<String>) -> Self {
        ExperimentPlan {
            name: name.into(),
            specs: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Adds one experiment to the plan and expands its cells. Returns
    /// the spec's index (its position in [`PlanOutcome::results`]).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or the mode's `runs` is zero.
    pub fn push(
        &mut self,
        label: impl Into<String>,
        workload: &'w dyn Workload,
        configs: &[AsymConfig],
        mode: SpecMode,
    ) -> usize {
        assert!(!configs.is_empty(), "need at least one configuration");
        assert!(mode.runs() > 0, "need at least one run");
        let index = self.specs.len();
        let runs = mode.runs();
        let base_seed = mode.base_seed();
        let policy = mode.cell_policy();
        for (j, &config) in configs.iter().enumerate() {
            for i in 0..runs {
                let setup = RunSetup::new(config, policy, base_seed + j as u64 * 1000 + i as u64);
                self.cells.push(Cell {
                    spec: index,
                    config_index: j,
                    rep: i,
                    setup,
                });
            }
        }
        self.specs.push(PlanSpec {
            label: label.into(),
            workload,
            configs: configs.to_vec(),
            mode,
        });
        index
    }

    /// Number of cells in the plan.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the plan has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// In-plan memoization map: for each cell, the index of the earlier
    /// cell with the same content address (`None` for cells that must
    /// execute).
    ///
    /// Cells are grouped by the key the on-disk [`CellCache`] would file
    /// them under (see [`CellRunner::with_cache`]), computed whether or
    /// not a cache is attached, so "the same cell" has one definition.
    /// Cells without a key never participate: differential cells, and
    /// resilient cells with a section check
    /// ([`ResilientOptions::trace_check`]), which must see every
    /// *requested* run. Deduplicated plans produce bit-identical results
    /// because every keyed run is a pure function of its key.
    pub fn memo_targets(&self) -> Vec<Option<usize>> {
        first_occurrences(&self.cell_keys())
    }

    /// Every cell's content address, `None` for cells that have none.
    fn cell_keys(&self) -> Vec<Option<String>> {
        self.cells
            .iter()
            .map(|cell| cache_key(&self.specs[cell.spec], cell))
            .collect()
    }

    /// The plan's cells, in execution order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Re-executes cell `index` as [`CellRunner::run`] would (same seed,
    /// plans, retry ladder and section check), folding every kernel
    /// through [`ProfileFold::with_timeline`], and returns the runs it
    /// reported: a single-run cell's final attempt, or a differential
    /// cell's four legs. No cache, memoization or runner check applies.
    /// Panics if `index` is out of range or a clean cell panics.
    pub fn profile_cell(&self, index: usize) -> Vec<ProfiledRun> {
        let cell = &self.cells[index];
        let spec = &self.specs[cell.spec];
        let tap = ProfileTap::default();
        let report = exec_cell(spec, cell, false, None, Some(&tap));
        let legs: Vec<(Option<&'static str>, SchedPolicy)> = match spec.mode {
            SpecMode::Differential { .. } => legs().map(|(leg, p)| (Some(leg), p)).to_vec(),
            _ => vec![(None, cell.setup.policy)],
        };
        // The tap holds every attempt in execution order; each run's
        // record counts its attempts, and the last of them is the one
        // reported.
        let mut attempts = tap.take().into_iter();
        report
            .runs
            .into_iter()
            .zip(legs)
            .map(|(record, (leg, policy))| {
                let final_attempt = attempts.nth(record.attempts as usize - 1);
                let (trace_hash, profiles) = final_attempt.expect("every attempt reaches the tap");
                ProfiledRun {
                    leg,
                    policy,
                    record,
                    trace_hash,
                    profiles,
                }
            })
            .collect()
    }
}

/// For each key, the index of its first occurrence when that is an
/// earlier slot; `None` for first occurrences and missing keys.
fn first_occurrences(keys: &[Option<String>]) -> Vec<Option<usize>> {
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;
    let mut first: HashMap<&str, usize> = HashMap::new();
    keys.iter()
        .enumerate()
        .map(|(i, key)| match first.entry(key.as_deref()?) {
            Entry::Occupied(e) => Some(*e.get()),
            Entry::Vacant(v) => {
                v.insert(i);
                None
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// Cell execution
// ----------------------------------------------------------------------

/// Stride between retry seeds: a prime far from the `j * 1000 + i` seed
/// grid, so a reseeded attempt never collides with another slot.
pub(crate) const RETRY_SEED_STRIDE: u64 = 7919;

/// Cap on sim-time-budget escalation: a `TimeLimit` retry doubles the
/// budget each attempt, up to this multiple of the configured budget.
pub(crate) const MAX_BUDGET_FACTOR: u32 = 8;

/// One kernel's streaming trace check, built by a [`TraceCheck`]: it is
/// fed the kernel's events as they are emitted and renders its findings
/// once the stream has closed.
pub trait CheckFold: TraceConsumer {
    /// The rendered findings (empty = clean), in the check's canonical
    /// order.
    fn findings(self: Box<Self>) -> Vec<String>;
}

/// A per-cell trace check: a factory that builds one [`CheckFold`] for
/// every kernel a cell attempt creates, from the kernel's machine and
/// policy and the cell's seed (every attempt of a cell, reseeded
/// retries and differential legs included, passes the same seed, so a
/// finding can name its cell). The folds ride along with the engine's
/// hash and metrics folds, so a checked cell streams exactly like an
/// unchecked one.
/// Installed on the runner ([`CellRunner::with_trace_check`]), its
/// findings are those of each cell's final attempt's kernels, in
/// creation order; installed on a section
/// ([`ResilientOptions::trace_check`]), it sees every attempt and
/// reports through its own state. The engine stays agnostic about what
/// is checked — `asym-analysis` plugs its happens-before race
/// detection, policy lints and trace analyses in through this hook
/// (see `asym_sweep --check`).
pub type TraceCheck =
    Arc<dyn Fn(&MachineSpec, SchedPolicy, u64) -> Box<dyn CheckFold> + Send + Sync>;

/// One run of a cell re-executed by [`ExperimentPlan::profile_cell`]:
/// the final attempt of a clean or resilient cell, or one leg of a
/// differential cell.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// The differential leg (`stock-clean`, `stock-faulted`,
    /// `aware-clean` or `aware-faulted`); `None` for a single-run cell.
    pub leg: Option<&'static str>,
    /// The policy the run was scheduled under.
    pub policy: SchedPolicy,
    /// The final attempt's seed, attempt count, class and value.
    pub record: RunRecord,
    /// The profiled kernels' stable hashes, folded in creation order;
    /// absent when the attempt panicked.
    pub trace_hash: Option<u64>,
    /// The timeline profile of every kernel, in creation order.
    pub profiles: Vec<RunProfile>,
}

/// Where a profiled cell's attempts hand over their folded trace hash
/// and timeline profiles, in execution order.
type ProfileTap = std::rc::Rc<std::cell::RefCell<Vec<(Option<u64>, Vec<RunProfile>)>>>;

/// A differential cell's four runs, in execution order, each with the
/// policy it runs under.
fn legs() -> [(&'static str, SchedPolicy); 4] {
    let [stock, aware] = [SchedPolicy::os_default(), SchedPolicy::asymmetry_aware()];
    [
        ("stock-clean", stock),
        ("stock-faulted", stock),
        ("aware-clean", aware),
        ("aware-faulted", aware),
    ]
}

/// Classifies one kernel's ending. A `TimeLimit` outcome only fails the
/// run when the kernel's own budget (not a caller-chosen measurement
/// window) cut it short — that is what `budget_exhausted` records.
fn classify_one(outcome: Option<RunOutcome>, budget_exhausted: bool) -> RunClass {
    match outcome {
        Some(RunOutcome::Deadlock(_)) => RunClass::Deadlock,
        Some(RunOutcome::Stalled) => RunClass::Stalled,
        _ if budget_exhausted => RunClass::TimeLimit,
        _ => RunClass::Completed,
    }
}

/// The engine's per-kernel trace consumer, folding the stable hash,
/// (when metrics are wanted) the run profile, and the installed checks
/// — the runner's and the section's — incrementally as events are
/// emitted.
struct CellFold {
    hasher: TraceHasher,
    profile: Option<ProfileFold>,
    check: Option<Box<dyn CheckFold>>,
    section_check: Option<Box<dyn CheckFold>>,
    outcome: Option<RunOutcome>,
    budget_exhausted: bool,
}

impl CellFold {
    fn new(machine: &MachineSpec, policy: SchedPolicy, checks: &Checks) -> Self {
        CellFold {
            hasher: TraceHasher::new(),
            profile: match checks.timeline {
                Some(_) => Some(ProfileFold::with_timeline(machine, policy)),
                None => checks.metrics.then(|| ProfileFold::new(machine, policy)),
            },
            check: checks
                .runner
                .as_ref()
                .map(|c| c(machine, policy, checks.seed)),
            section_check: checks
                .section
                .as_ref()
                .map(|c| c(machine, policy, checks.seed)),
            outcome: None,
            budget_exhausted: false,
        }
    }
}

impl TraceConsumer for CellFold {
    fn on_event(&mut self, time: SimTime, event: &TraceEvent) {
        self.hasher.on_event(time, event);
        if let Some(p) = self.profile.as_mut() {
            p.on_event(time, event);
        }
        if let Some(c) = self.check.as_mut() {
            c.on_event(time, event);
        }
        if let Some(c) = self.section_check.as_mut() {
            c.on_event(time, event);
        }
    }

    fn on_shared_label(&mut self, label: &str) {
        if let Some(c) = self.check.as_mut() {
            c.on_shared_label(label);
        }
        if let Some(c) = self.section_check.as_mut() {
            c.on_shared_label(label);
        }
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>, budget_exhausted: bool) {
        self.hasher.on_close(outcome, budget_exhausted);
        if let Some(p) = self.profile.as_mut() {
            p.on_close(outcome, budget_exhausted);
        }
        if let Some(c) = self.check.as_mut() {
            c.on_close(outcome, budget_exhausted);
        }
        if let Some(c) = self.section_check.as_mut() {
            c.on_close(outcome, budget_exhausted);
        }
        self.outcome = outcome;
        self.budget_exhausted = budget_exhausted;
    }
}

/// What every kernel of an attempt folds besides its hash: the run
/// profile when `metrics` is set, the runner's check, and the
/// section's check, both built with the cell's `seed`. A `timeline` tap
/// gets every attempt's hash and timeline profiles.
#[derive(Clone)]
struct Checks {
    metrics: bool,
    seed: u64,
    runner: Option<TraceCheck>,
    section: Option<TraceCheck>,
    timeline: Option<ProfileTap>,
}

/// What the folds of one attempt's kernels add up to.
struct Folded {
    /// The worst classification over the kernels.
    class: RunClass,
    /// The kernels' stable hashes, folded in creation order.
    hash: u64,
    metrics: Option<ProfileMetrics>,
    /// The runner check's findings.
    violations: Vec<String>,
}

/// Runs `f` with every kernel it creates folded through a [`CellFold`]
/// over its live event stream, and sums the folds into the
/// attempt-level [`Folded`]. No
/// [`KernelTrace`](asym_kernel::KernelTrace) is ever materialized, so
/// trace memory stays O(1) — checked cells included. Section-check
/// folds are closed here, on every attempt; their findings stay theirs.
fn run_folded(checks: &Checks, f: impl FnOnce() -> RunResult) -> (RunResult, Folded) {
    let mut metrics = checks.metrics.then(ProfileMetrics::new);
    let tap = checks.timeline.clone();
    let checks = checks.clone();
    let (result, folds) = capture_stream(
        move |machine: &MachineSpec, policy| CellFold::new(machine, policy, &checks),
        f,
    );
    let mut class = RunClass::Completed;
    let mut hash = TraceHashFold::new();
    let mut violations = Vec::new();
    let mut profiles = Vec::new();
    for fold in folds {
        class = class.max(classify_one(fold.outcome, fold.budget_exhausted));
        hash.push(fold.hasher.finish());
        if let Some(p) = fold.profile.map(ProfileFold::finish) {
            metrics.iter_mut().for_each(|acc| acc.merge(&p.metrics()));
            profiles.extend(tap.is_some().then_some(p));
        }
        if let Some(c) = fold.check {
            violations.extend(c.findings());
        }
        if let Some(c) = fold.section_check {
            c.findings();
        }
    }
    let hash = hash.finish();
    if let Some(tap) = tap {
        tap.borrow_mut().push((Some(hash), profiles));
    }
    let folded = Folded {
        class,
        hash,
        metrics,
        violations,
    };
    (result, folded)
}

/// Applies one rung of the fault-softening ladder: level 0 is the full
/// plan, 1 drops thread kills, 2 additionally drops hotplug, and 3+
/// injects nothing at all.
pub(crate) fn soften_plan(plan: FaultPlan, level: u32) -> Option<FaultPlan> {
    match level {
        0 => Some(plan),
        1 => Some(plan.without_kills()),
        2 => Some(plan.without_kills().without_hotplug()),
        _ => None,
    }
}

/// The disturbances one attempt runs under: the discrete fault plan
/// (already softened as the retry ladder demands) plus the continuous
/// environment plan (never softened).
struct Disturbance {
    faults: Option<FaultPlan>,
    environment: Option<EnvironmentPlan>,
}

/// What one guarded attempt produced.
struct Attempt {
    class: RunClass,
    /// The metric, when the attempt completed.
    value: Option<f64>,
    /// The run's secondary metrics (empty when it panicked).
    extras: BTreeMap<String, f64>,
    /// The folded trace hash (absent when the attempt panicked).
    hash: Option<u64>,
    /// The merged profile of every kernel, when metrics are wanted.
    metrics: Option<ProfileMetrics>,
    /// The runner check's findings.
    violations: Vec<String>,
}

impl Attempt {
    /// The record of this attempt as the final one of its slot.
    fn record(&self, seed: u64, attempts: u32) -> RunRecord {
        RunRecord {
            seed,
            attempts,
            class: self.class,
            value: self.value,
            extras: self.extras.clone(),
        }
    }
}

/// One guarded, streamed, panic-contained attempt. `budget_factor`
/// scales the configured sim-time budget (escalated retries).
fn attempt_run(
    workload: &dyn Workload,
    setup: &RunSetup,
    options: &ResilientOptions,
    budget_factor: u32,
    disturbance: Disturbance,
    checks: &Checks,
) -> Attempt {
    let mut guard = RunGuard::new();
    if let Some(w) = options.watchdog {
        guard = guard.watchdog(w);
    }
    if let Some(b) = options.sim_time_budget {
        guard = guard.sim_time_budget(SimDuration::from_nanos(
            b.as_nanos().saturating_mul(u64::from(budget_factor)),
        ));
    }
    if let Some(plan) = disturbance.faults {
        guard = guard.fault_plan(plan);
    }
    if let Some(env) = disturbance.environment {
        guard = guard.environment(env);
    }
    let caught = catch_unwind(AssertUnwindSafe(|| {
        run_folded(checks, || with_run_guard(guard, || workload.run(setup)))
    }));
    match caught {
        Err(_) => {
            let tap = checks.timeline.iter();
            tap.for_each(|tap| tap.borrow_mut().push((None, Vec::new())));
            Attempt {
                class: RunClass::Panicked,
                value: None,
                extras: BTreeMap::new(),
                hash: None,
                metrics: None,
                violations: Vec::new(),
            }
        }
        Ok((result, folded)) => Attempt {
            class: folded.class,
            value: (folded.class == RunClass::Completed).then_some(result.value),
            extras: result.extras,
            hash: Some(folded.hash),
            metrics: folded.metrics,
            violations: folded.violations,
        },
    }
}

/// Executes one clean cell: a single run, no guard, no retries; panics
/// propagate to the runner (and out of the pool). Clean cells are
/// classified `Completed` unconditionally.
fn exec_clean(workload: &dyn Workload, cell: &Cell, checks: &Checks, report: &mut CellReport) {
    let (result, folded) = run_folded(checks, || workload.run(&cell.setup));
    let run = RunRecord {
        seed: cell.setup.seed,
        attempts: 1,
        class: RunClass::Completed,
        value: Some(result.value),
        extras: result.extras,
    };
    report.violations = folded.violations;
    report.record_run(run, Some(folded.hash), folded.metrics);
}

/// Executes one resilient cell: attempt, classify, retry on failure.
///
/// Retries escalate *adaptively* according to how the attempt failed,
/// rather than blindly reseeding:
///
/// * [`RunClass::TimeLimit`] — the run was legitimate but slow (faults
///   can stretch a run well past its clean duration). Retry the **same
///   seed** with the sim-time budget doubled, up to
///   [`MAX_BUDGET_FACTOR`]× the configured budget.
/// * [`RunClass::Stalled`] — the fault schedule drove the workload into
///   a livelock. Retry the **same seed** with a progressively softened
///   fault plan: first without thread kills, then additionally without
///   hotplug, then with no faults at all.
/// * [`RunClass::Deadlock`] / [`RunClass::Panicked`] — the run is wedged
///   in a way no budget or fault change explains; retry with a fresh
///   seed (stride [`RETRY_SEED_STRIDE`]), re-deriving the fault plan
///   from the new seed.
fn exec_resilient(
    workload: &dyn Workload,
    cell: &Cell,
    options: &ResilientOptions,
    checks: &Checks,
    report: &mut CellReport,
) {
    let slot = &cell.setup;
    let mut attempts = 0u32;
    let mut seed_bump = 0u64;
    let mut budget_factor = 1u32;
    let mut soften = 0u32;
    loop {
        let setup = RunSetup::new(slot.config, slot.policy, slot.seed + seed_bump);
        attempts += 1;
        // Every attempt derives its plans from its own setup, so a
        // reseeded attempt gets the plans of its new seed. Environment
        // plans are never softened — a hostile environment is the
        // condition under test, not an injected defect.
        let disturbance = Disturbance {
            faults: options
                .planner
                .as_ref()
                .and_then(|p| soften_plan(p(&setup), soften)),
            environment: options.env_planner.as_ref().map(|p| p(&setup)),
        };
        let attempt = attempt_run(
            workload,
            &setup,
            options,
            budget_factor,
            disturbance,
            checks,
        );
        if attempt.class == RunClass::Completed || attempts > options.retries {
            let run = attempt.record(setup.seed, attempts);
            report.violations = attempt.violations;
            report.record_run(run, attempt.hash, attempt.metrics);
            return;
        }
        match attempt.class {
            RunClass::TimeLimit => {
                budget_factor = (budget_factor * 2).min(MAX_BUDGET_FACTOR);
            }
            RunClass::Stalled => soften += 1,
            _ => seed_bump += RETRY_SEED_STRIDE,
        }
    }
}

/// Executes one differential cell: four runs (stock/aware ×
/// clean/faulted) from the cell's single seed and the plans derived
/// from its setup. Retries never reseed and never soften — that would
/// break the pairing — the only escalation is budget doubling on
/// [`RunClass::TimeLimit`].
fn exec_differential(
    workload: &dyn Workload,
    cell: &Cell,
    options: &ResilientOptions,
    checks: &Checks,
    report: &mut CellReport,
) {
    let slot = &cell.setup;
    let plan = options.planner.as_ref().map(|p| p(slot));
    let environment = options.env_planner.as_ref().map(|p| p(slot));
    let mut fold = TraceHashFold::new();
    let mut any_hash = false;
    let mut merged = checks.metrics.then(ProfileMetrics::new);
    let mut faulted_metrics = Vec::new();
    // Metrics are always derived for differential legs (not just under
    // `with_metrics`): the per-cell diff attribution needs the two
    // disturbed legs' metrics. Deriving them is a pure fold over the
    // trace stream — it cannot perturb the run.
    let leg_checks = Checks {
        metrics: true,
        ..checks.clone()
    };
    for (leg, policy) in legs() {
        // Like the fault plan, the environment plan applies to the
        // faulted legs only: the clean legs stay the undisturbed
        // baseline, so the absorption metric quantifies how much of the
        // *dynamic* slowdown the aware policy recovers.
        let faulted = leg.ends_with("faulted");
        let setup = RunSetup::new(slot.config, policy, slot.seed);
        let mut attempts = 0u32;
        let mut budget_factor = 1u32;
        let attempt = loop {
            attempts += 1;
            let disturbance = Disturbance {
                faults: faulted.then(|| plan.clone()).flatten(),
                environment: faulted.then(|| environment.clone()).flatten(),
            };
            let attempt = attempt_run(
                workload,
                &setup,
                options,
                budget_factor,
                disturbance,
                &leg_checks,
            );
            let class = attempt.class;
            let escalatable = class == RunClass::TimeLimit && budget_factor < MAX_BUDGET_FACTOR;
            if class == RunClass::Completed || attempts > options.retries || !escalatable {
                break attempt;
            }
            budget_factor *= 2;
        };
        if let Some(h) = attempt.hash {
            fold.push(h);
            any_hash = true;
        }
        if let (Some(acc), Some(m)) = (merged.as_mut(), attempt.metrics.as_ref()) {
            acc.merge(m);
        }
        report.runs.push(attempt.record(setup.seed, attempts));
        let violations = attempt.violations.into_iter();
        report
            .violations
            .extend(violations.map(|v| format!("{leg}: {v}")));
        if faulted {
            faulted_metrics.push(attempt.metrics);
        }
    }
    report.diff = match &faulted_metrics[..] {
        [Some(stock), Some(aware)] => Some(Box::new(DiffAttribution::from_metrics(stock, aware))),
        _ => None,
    };
    report.class = report
        .runs
        .iter()
        .map(|r| r.class)
        .max()
        .unwrap_or(RunClass::Completed);
    report.attempts = report.runs.iter().map(|r| r.attempts).sum();
    report.value = absorption(report, workload.direction());
    report.trace_hash = any_hash.then(|| fold.finish());
    report.metrics = merged.map(Box::new);
}

/// A differential cell's absorption metric: the fraction of the stock
/// kernel's fault-induced slowdown that the asymmetry-aware policy
/// recovers, `(S_stock − S_aware) / (S_stock − 1)`. 1 means the aware
/// kernel fully absorbed the faults, 0 means it helped not at all,
/// negative means it made faults worse. `None` when any needed run
/// failed or the stock kernel was not measurably slowed (no slowdown to
/// absorb).
fn absorption(report: &CellReport, direction: Direction) -> Option<f64> {
    let s_stock = report.stock_slowdown(direction)?;
    let s_aware = report.aware_slowdown(direction)?;
    (s_stock > 1.0 + 1e-9).then(|| (s_stock - s_aware) / (s_stock - 1.0))
}

// ----------------------------------------------------------------------
// Cache keying
// ----------------------------------------------------------------------

/// FNV-1a digest of a plan's derived `Hash` — the compact stand-in for
/// the full fault/environment plan inside a cache key.
fn plan_digest(plan: &impl std::hash::Hash) -> String {
    let mut h = StableHasher::new();
    plan.hash(&mut h);
    format!("{:016x}", std::hash::Hasher::finish(&h))
}

/// Renders the content address of one cell — its on-disk cache key and
/// its in-plan memoization key — or `None` when the cell has none.
///
/// Keyed cells are clean cells and resilient cells without a section
/// check (the cache additionally requires no runner-level trace check).
/// Differential cells are excluded: their four-leg structure re-derives
/// plans per leg, so a single digest cannot address them. The key folds
/// in every input that can steer execution: the workload's
/// [`Workload::spec_key`], configuration, policy, seed, harness mode,
/// digests of the fault/environment plans the cell's setup derives,
/// and — for resilient cells — the retry/budget/watchdog knobs the
/// retry ladder reads.
fn cache_key(spec: &PlanSpec<'_>, cell: &Cell) -> Option<String> {
    let none = || "none".to_string();
    let (mode, faults, environment, knobs) = match &spec.mode {
        SpecMode::Clean { .. } => ("clean", none(), none(), String::new()),
        SpecMode::Resilient { options, .. } if options.check.is_none() => {
            let setup = &cell.setup;
            let faults = options.planner.as_ref();
            let environment = options.env_planner.as_ref();
            let budget = options
                .sim_time_budget
                .map_or_else(none, |d| d.as_nanos().to_string());
            let watchdog = options
                .watchdog
                .map_or_else(none, |d| d.as_nanos().to_string());
            (
                "resilient",
                faults.map_or_else(none, |p| plan_digest(&p(setup))),
                environment.map_or_else(none, |p| plan_digest(&p(setup))),
                format!(
                    "|retries={}|budget={budget}|watchdog={watchdog}",
                    options.retries
                ),
            )
        }
        SpecMode::Resilient { .. } | SpecMode::Differential { .. } => return None,
    };
    Some(format!(
        "spec={}|config={}|policy={}|seed={}|mode={mode}|faults={faults}|env={environment}{knobs}",
        spec.workload.spec_key(),
        cell.setup.config,
        cell.setup.policy,
        cell.setup.seed,
    ))
}

fn exec_cell(
    spec: &PlanSpec<'_>,
    cell: &Cell,
    want_metrics: bool,
    check: Option<&TraceCheck>,
    timeline: Option<&ProfileTap>,
) -> CellReport {
    let start = Instant::now();
    let checks = |section: Option<&TraceCheck>| Checks {
        metrics: want_metrics,
        seed: cell.setup.seed,
        runner: check.cloned(),
        section: section.cloned(),
        timeline: timeline.cloned(),
    };
    let mut report = CellReport::new(spec, cell);
    match &spec.mode {
        SpecMode::Clean { .. } => exec_clean(spec.workload, cell, &checks(None), &mut report),
        SpecMode::Resilient { options, .. } => {
            let checks = checks(options.check.as_ref());
            exec_resilient(spec.workload, cell, options, &checks, &mut report);
        }
        SpecMode::Differential { options } => {
            let checks = checks(options.check.as_ref());
            exec_differential(spec.workload, cell, options, &checks, &mut report);
        }
    }
    report.wall_ms = start.elapsed().as_nanos() as u64 as f64 / 1e6;
    report
}

// ----------------------------------------------------------------------
// The runner
// ----------------------------------------------------------------------

/// Executes an [`ExperimentPlan`]'s cells on a host thread pool and
/// keeps their records in plan order.
///
/// The pool is a shared work queue over `std::thread::scope`: each of
/// `jobs` OS workers pulls the next unclaimed cell index until the plan
/// is drained, handing each cell's record back to be filed in the
/// cell's own slot. Because every cell's seed is fixed at expansion,
/// its plans are pure functions of its setup, and ambient kernel state
/// (trace capture, [`RunGuard`]) is per host thread, results are
/// bit-identical whatever the pool size.
pub struct CellRunner {
    jobs: usize,
    metrics: bool,
    check: Option<TraceCheck>,
    cache: Option<CellCache>,
}

impl CellRunner {
    /// A runner with an explicit pool size (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        CellRunner {
            jobs: jobs.max(1),
            metrics: false,
            check: None,
            cache: None,
        }
    }

    /// Attaches a persistent on-disk cell cache: before executing,
    /// every cacheable cell (clean cells and resilient cells without a
    /// section check, when no runner check is installed) is looked up
    /// by its content
    /// address, and hits are restored without running the simulation.
    /// Misses execute normally and are stored afterwards. Hit, miss,
    /// skip, store, and invalidation counts land in
    /// [`SweepReport::cache`]. Off by default.
    pub fn with_cache(mut self, cache: CellCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Installs a per-cell trace check: every kernel of every executed
    /// cell streams its events through a fold `check` builds, and the
    /// final attempt's findings land in [`CellReport::violations`] (and
    /// the JSON sink). Checked cells never buffer a trace, and they
    /// bypass the cell cache (findings are not stored). Memoized cells
    /// reuse their primary's findings — the traces are identical by
    /// construction. A cell whose section has its own check
    /// ([`ResilientOptions::trace_check`]) runs both. Off by default.
    pub fn with_trace_check(mut self, check: TraceCheck) -> Self {
        self.check = Some(check);
        self
    }

    /// Enables (or disables) per-cell observability metrics: every
    /// executed cell folds its live event stream through `asym-obs` and
    /// attaches a merged [`ProfileMetrics`] record to its
    /// [`CellReport`], which the JSON sink then emits. Off by default —
    /// the fold costs host time on every event.
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// The pool size this runner will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every cell of `plan` and returns the per-cell records as the
    /// structured [`SweepReport`], with one [`SpecResult`] per spec
    /// viewing its slice of them.
    pub fn run(&self, plan: ExperimentPlan<'_>) -> PlanOutcome {
        let start = Instant::now();
        let (cells, cache) = self.run_cells(&plan);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let cells = Arc::new(cells);
        let mut first = 0;
        let results = plan
            .specs
            .into_iter()
            .map(|spec| {
                let range = first..first + spec.configs.len() * spec.mode.runs();
                first = range.end;
                let cells = Arc::clone(&cells);
                SpecResult::new(spec.workload, &spec.mode, spec.configs, cells, range)
            })
            .collect();
        let report = SweepReport {
            name: plan.name,
            jobs: self.jobs,
            wall_ms,
            cache,
            cells,
        };
        PlanOutcome { results, report }
    }

    /// Executes all cells, preserving slot order. Cells sharing an
    /// earlier cell's content address are never executed: the
    /// primary's record is copied into their slot afterwards (marked
    /// memoized, zero wall-clock).
    ///
    /// When a [`CellCache`] is attached, a prepass on the calling thread
    /// probes every cacheable cell and restores hits; only the remaining
    /// cells execute, and a store pass afterwards persists what they
    /// produced. Both passes stay off the pool, so cache I/O never
    /// perturbs worker scheduling and the stats need no synchronization.
    fn run_cells(&self, plan: &ExperimentPlan<'_>) -> (Vec<CellReport>, Option<CacheStats>) {
        let cells = &plan.cells;
        let keys = plan.cell_keys();
        let dup_of = first_occurrences(&keys);
        let mut stats = self.cache.as_ref().map(|_| CacheStats::default());
        let mut restored: Vec<Option<CellReport>> = (0..cells.len()).map(|_| None).collect();
        let mut store_keys: Vec<Option<&str>> = vec![None; cells.len()];
        if let (Some(cache), Some(st)) = (self.cache.as_ref(), stats.as_mut()) {
            for (i, key) in keys.iter().enumerate() {
                if dup_of[i].is_some() {
                    // Deduplicated copies come from their in-plan
                    // primary, which is strictly cheaper than disk.
                    continue;
                }
                let key = key.as_deref().filter(|_| self.check.is_none());
                let Some(key) = key else {
                    st.skips += 1;
                    continue;
                };
                let mut report = CellReport::new(&plan.specs[cells[i].spec], &cells[i]);
                match cache.load(key, self.metrics, &mut report) {
                    Lookup::Hit => {
                        st.hits += 1;
                        restored[i] = Some(report);
                    }
                    Lookup::Stale => {
                        st.invalidations += 1;
                        store_keys[i] = Some(key);
                    }
                    Lookup::Miss => {
                        st.misses += 1;
                        store_keys[i] = Some(key);
                    }
                }
            }
        }
        let reports = self.exec_cells(plan, &dup_of, restored);
        if let (Some(cache), Some(st)) = (self.cache.as_ref(), stats.as_mut()) {
            for (key, report) in store_keys.iter().zip(&reports) {
                if let Some(key) = key {
                    if cache.store(key, report).is_ok() {
                        st.stores += 1;
                    }
                }
            }
        }
        (reports, stats)
    }

    /// The execution pass of [`run_cells`](CellRunner::run_cells): a
    /// pool of `jobs` workers (one for `--jobs 1`) runs every cell that
    /// is neither restored from the cache nor a memoization copy and
    /// hands each record to the calling thread, which files it in the
    /// cell's slot. Because the primary is always the *first*
    /// occurrence in plan order, one front-to-back pass then fills the
    /// copies.
    fn exec_cells(
        &self,
        plan: &ExperimentPlan<'_>,
        dup_of: &[Option<usize>],
        mut slots: Vec<Option<CellReport>>,
    ) -> Vec<CellReport> {
        let cells = &plan.cells;
        let skip: Vec<bool> = (0..cells.len())
            .map(|i| dup_of[i].is_some() || slots[i].is_some())
            .collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(cells.len()) {
                let done = done.clone();
                let (next, skip) = (&next, &skip);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    if skip[i] {
                        continue;
                    }
                    let spec = &plan.specs[cells[i].spec];
                    let report =
                        exec_cell(spec, &cells[i], self.metrics, self.check.as_ref(), None);
                    done.send((i, report))
                        .expect("the calling thread receives until every worker ends");
                });
            }
            drop(done);
            for (i, report) in finished {
                slots[i] = Some(report);
            }
        });
        for (i, primary) in dup_of.iter().enumerate() {
            if let Some(j) = *primary {
                let spec = &plan.specs[cells[i].spec];
                let copy = slots[j]
                    .as_ref()
                    .expect("memoization primary executed")
                    .memoized_copy(CellReport::new(spec, &cells[i]));
                slots[i] = Some(copy);
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every cell completed"))
            .collect()
    }
}

impl Default for CellRunner {
    /// A runner sized by [`default_jobs`].
    fn default() -> Self {
        CellRunner::new(default_jobs())
    }
}

/// Runs one experiment — `workload` over `configs` in `mode` — on a
/// [`default_jobs`]-sized [`CellRunner`] and returns its result.
/// Results are deterministic whatever the pool size, because each
/// cell's seed is fixed by its position in the plan.
///
/// # Panics
///
/// Panics if `configs` is empty or the mode's `runs` is zero.
pub fn run_spec(workload: &dyn Workload, configs: &[AsymConfig], mode: SpecMode) -> SpecResult {
    let mut plan = ExperimentPlan::new(workload.name());
    plan.push(workload.name(), workload, configs, mode);
    let mut results = CellRunner::default().run(plan).results;
    results.pop().expect("a one-spec plan has one result")
}

/// Everything a plan run produced: the per-cell records and one view of
/// them per spec.
pub struct PlanOutcome {
    /// Per-spec results, in push order.
    pub results: Vec<SpecResult>,
    /// The structured per-cell report (JSON-serializable).
    pub report: SweepReport,
}

// ----------------------------------------------------------------------
// The structured results sink
// ----------------------------------------------------------------------

/// The one record a cell produces: its identity (spec, workload,
/// configuration, mode, policy, seed, slot) and its results. Executing a
/// cell fills it, a memoized cell copies its primary's results under its
/// own identity, the [`CellCache`] stores and restores its results, the
/// JSON sink emits it, and [`SpecResult`]'s views read it.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Label of the owning spec.
    pub spec: String,
    /// Workload name.
    pub workload: String,
    /// Configuration, in `nf-ms/scale` notation.
    pub config: String,
    /// Harness mode: `clean`, `resilient`, or `differential`.
    pub mode: &'static str,
    /// Scheduling policy (canonical stock for differential cells).
    pub policy: String,
    /// The cell's base seed.
    pub seed: u64,
    /// Run slot / repeat index within the configuration.
    pub rep: usize,
    /// Final classification (worst of the four runs for differential
    /// cells).
    pub class: RunClass,
    /// Total attempts spent, retries included (summed over the four
    /// runs for differential cells).
    pub attempts: u32,
    /// Primary metric: the run value, or the per-repeat absorption for
    /// differential cells; absent when unavailable.
    pub value: Option<f64>,
    /// Host wall-clock the cell consumed, in milliseconds (zero for
    /// memoized cells — no host time was spent).
    pub wall_ms: f64,
    /// Folded kernel-trace hash of the cell's final attempt(s); absent
    /// when every run panicked.
    pub trace_hash: Option<u64>,
    /// `true` when the cell's outcome was reused from an earlier cell
    /// with the same content address instead of executing.
    pub memoized: bool,
    /// `true` when the cell's outcome was restored from the persistent
    /// on-disk cell cache (directly, or memoized from a restored
    /// primary) instead of executing.
    pub cached: bool,
    /// Findings of the runner's trace check on the cell's final
    /// attempt(s), in the check's (deterministic) order. Empty when no
    /// check was installed or the cell was clean.
    pub violations: Vec<String>,
    /// Merged observability metrics of the cell's final attempt(s),
    /// present when the runner ran with
    /// [`CellRunner::with_metrics`]`(true)` and the cell did not panic.
    pub metrics: Option<Box<ProfileMetrics>>,
    /// Differential cells only: the stock-faulted − aware-faulted diff
    /// attribution (where the stock kernel lost time under the
    /// identical disturbance plan). `None` for non-differential cells.
    pub diff: Option<Box<DiffAttribution>>,
    /// The cell's runs, each as its final attempt: one for a clean or
    /// resilient cell (whose `class`, `attempts` and `value` it
    /// repeats), or a differential cell's four legs in execution order —
    /// stock-clean, stock-faulted, aware-clean, aware-faulted.
    pub runs: Vec<RunRecord>,
}

impl CellReport {
    /// A record of `cell`'s identity, before any result is in.
    fn new(spec: &PlanSpec<'_>, cell: &Cell) -> CellReport {
        CellReport {
            spec: spec.label.clone(),
            workload: spec.workload.name().to_string(),
            config: cell.setup.config.to_string(),
            mode: spec.mode.name(),
            policy: cell.setup.policy.to_string(),
            seed: cell.setup.seed,
            rep: cell.rep,
            class: RunClass::Completed,
            attempts: 0,
            value: None,
            wall_ms: 0.0,
            trace_hash: None,
            memoized: false,
            cached: false,
            violations: Vec::new(),
            metrics: None,
            diff: None,
            runs: Vec::new(),
        }
    }

    /// Records `run` as this single-run cell's only run, with the folded
    /// trace hash and merged metrics of its final attempt.
    pub(crate) fn record_run(
        &mut self,
        run: RunRecord,
        trace_hash: Option<u64>,
        metrics: Option<ProfileMetrics>,
    ) {
        self.class = run.class;
        self.attempts = run.attempts;
        self.value = run.value;
        self.trace_hash = trace_hash;
        self.metrics = metrics.map(Box::new);
        self.runs = vec![run];
    }

    /// `identity` carrying this cell's results, as a deduplicated cell
    /// stores them: marked memoized and charged zero wall-clock (no host
    /// time was spent). The `cached` flag carries over — a copy of a
    /// cache hit is itself cache-derived.
    fn memoized_copy(&self, identity: CellReport) -> CellReport {
        CellReport {
            class: self.class,
            attempts: self.attempts,
            value: self.value,
            trace_hash: self.trace_hash,
            memoized: true,
            cached: self.cached,
            violations: self.violations.clone(),
            metrics: self.metrics.clone(),
            diff: self.diff.clone(),
            runs: self.runs.clone(),
            ..identity
        }
    }

    /// Whether `other` holds the same results: every field but the spec
    /// label and the host-side `wall_ms`, `memoized` and `cached`.
    pub(crate) fn same_result(&self, o: &CellReport) -> bool {
        (&self.workload, &self.config, self.mode, &self.policy)
            == (&o.workload, &o.config, o.mode, &o.policy)
            && (self.seed, self.rep, self.class, self.attempts)
                == (o.seed, o.rep, o.class, o.attempts)
            && (self.value, self.trace_hash, &self.violations)
                == (o.value, o.trace_hash, &o.violations)
            && (&self.metrics, &self.diff, &self.runs) == (&o.metrics, &o.diff, &o.runs)
    }

    /// Differential cells: the stock kernel's slowdown under the
    /// disturbance, clean over faulted performance (> 1 when it hurt).
    /// `None` when either leg has no value, or for a single-run cell.
    pub fn stock_slowdown(&self, direction: Direction) -> Option<f64> {
        self.slowdown(0, direction)
    }

    /// Differential cells: the asymmetry-aware kernel's slowdown under
    /// the disturbance, like [`stock_slowdown`](CellReport::stock_slowdown).
    pub fn aware_slowdown(&self, direction: Direction) -> Option<f64> {
        self.slowdown(2, direction)
    }

    /// Clean-leg over faulted-leg performance for the legs at `clean`
    /// and `clean + 1`.
    fn slowdown(&self, clean: usize, direction: Direction) -> Option<f64> {
        if self.runs.len() != 4 {
            return None;
        }
        let c = direction.performance(self.runs[clean].value?);
        let f = direction.performance(self.runs[clean + 1].value?);
        (f > 0.0).then(|| c / f)
    }
}

/// The structured outcome of one plan run: per-cell records plus
/// wall-clock totals, serializable as JSON with [`SweepReport::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Plan name.
    pub name: String,
    /// Host thread-pool size used.
    pub jobs: usize,
    /// Elapsed wall-clock of the whole plan, in milliseconds.
    pub wall_ms: f64,
    /// Traffic counters of the persistent cell cache, when one was
    /// attached ([`CellRunner::with_cache`]).
    pub cache: Option<CacheStats>,
    /// Per-cell records, in plan order; each [`SpecResult`] of the plan
    /// shares them.
    pub cells: Arc<Vec<CellReport>>,
}

impl SweepReport {
    /// Sum of per-cell wall-clock times — the serial-equivalent cost.
    pub fn cells_wall_ms(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_ms).sum()
    }

    /// Observed parallel speedup: serial-equivalent cost over elapsed
    /// wall-clock (≈ 1.0 when `jobs = 1`).
    pub fn speedup(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.cells_wall_ms() / self.wall_ms
        } else {
            1.0
        }
    }

    /// Number of cells whose final class is `class`.
    pub fn count(&self, class: RunClass) -> usize {
        self.cells.iter().filter(|c| c.class == class).count()
    }

    /// Number of cells reused from an earlier cell with the same
    /// content address (see [`ExperimentPlan::memo_targets`]).
    pub fn memoized_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.memoized).count()
    }

    /// Number of cells whose outcome came from the persistent cell
    /// cache instead of executing.
    pub fn cached_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.cached).count()
    }

    /// Total trace-check findings across all cells.
    pub fn total_violations(&self) -> usize {
        self.cells.iter().map(|c| c.violations.len()).sum()
    }

    /// Total retries across all cells (attempts beyond the first; a
    /// differential cell's baseline is four attempts).
    pub fn total_retries(&self) -> u32 {
        self.cells
            .iter()
            .map(|c| {
                let baseline = if c.mode == "differential" { 4 } else { 1 };
                c.attempts.saturating_sub(baseline)
            })
            .sum()
    }

    /// Serializes the report as a self-contained JSON document
    /// (hand-rolled writer — no dependencies, stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.cells.len() * 192);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"name\": {},", json_string(&self.name));
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"wall_ms\": {},", json_f64(self.wall_ms));
        let _ = writeln!(
            out,
            "  \"cells_wall_ms\": {},",
            json_f64(self.cells_wall_ms())
        );
        let _ = writeln!(out, "  \"speedup\": {},", json_f64(self.speedup()));
        let _ = writeln!(out, "  \"total_retries\": {},", self.total_retries());
        let _ = writeln!(out, "  \"memoized_cells\": {},", self.memoized_cells());
        let _ = writeln!(out, "  \"cached_cells\": {},", self.cached_cells());
        match &self.cache {
            Some(stats) => {
                let _ = writeln!(out, "  \"cache\": {},", stats.to_json());
            }
            None => out.push_str("  \"cache\": null,\n"),
        }
        let _ = writeln!(out, "  \"total_violations\": {},", self.total_violations());
        out.push_str("  \"classes\": {");
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for c in self.cells.iter() {
            *counts.entry(c.class.to_string()).or_insert(0) += 1;
        }
        for (i, (class, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_string(class), n);
        }
        out.push_str("},\n");
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str("    {");
            let _ = write!(out, "\"spec\": {}, ", json_string(&c.spec));
            let _ = write!(out, "\"workload\": {}, ", json_string(&c.workload));
            let _ = write!(out, "\"config\": {}, ", json_string(&c.config));
            let _ = write!(out, "\"mode\": {}, ", json_string(c.mode));
            let _ = write!(out, "\"policy\": {}, ", json_string(&c.policy));
            let _ = write!(out, "\"seed\": {}, ", c.seed);
            let _ = write!(out, "\"rep\": {}, ", c.rep);
            let _ = write!(out, "\"class\": {}, ", json_string(&c.class.to_string()));
            let _ = write!(out, "\"attempts\": {}, ", c.attempts);
            match c.value {
                Some(v) if v.is_finite() => {
                    let _ = write!(out, "\"value\": {}, ", json_f64(v));
                }
                _ => out.push_str("\"value\": null, "),
            }
            let _ = write!(out, "\"wall_ms\": {}, ", json_f64(c.wall_ms));
            let _ = write!(out, "\"memoized\": {}, ", c.memoized);
            let _ = write!(out, "\"cached\": {}, ", c.cached);
            out.push_str("\"violations\": [");
            for (k, v) in c.violations.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(v));
            }
            out.push_str("], ");
            match &c.metrics {
                Some(m) => {
                    let _ = write!(out, "\"metrics\": {}, ", m.to_json());
                }
                None => out.push_str("\"metrics\": null, "),
            }
            match &c.diff {
                Some(d) => {
                    let _ = write!(out, "\"diff\": {}, ", d.to_json());
                }
                None => out.push_str("\"diff\": null, "),
            }
            match c.trace_hash {
                Some(h) => {
                    let _ = write!(out, "\"trace_hash\": \"{h:#018x}\"");
                }
                None => out.push_str("\"trace_hash\": null"),
            }
            out.push('}');
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite `f64` as a JSON number (non-finite values become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Direction;
    use asym_sim::FaultProfile;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Proportional;
    impl Workload for Proportional {
        fn name(&self) -> &str {
            "proportional"
        }
        fn unit(&self) -> &str {
            "ops/s"
        }
        fn direction(&self) -> Direction {
            Direction::HigherIsBetter
        }
        fn run(&self, setup: &RunSetup) -> RunResult {
            RunResult::new(setup.config.compute_power() * 100.0 + (setup.seed % 5) as f64)
        }
    }

    fn mini_plan(w: &Proportional) -> ExperimentPlan<'_> {
        let mut plan = ExperimentPlan::new("mini");
        plan.push(
            "a",
            w,
            &AsymConfig::standard_nine(),
            SpecMode::Clean {
                policy: SchedPolicy::os_default(),
                options: ExperimentOptions::new(3),
            },
        );
        plan.push(
            "b",
            w,
            &[AsymConfig::new(2, 2, 8)],
            SpecMode::Clean {
                policy: SchedPolicy::asymmetry_aware(),
                options: ExperimentOptions::new(2).base_seed(100),
            },
        );
        plan
    }

    #[test]
    fn plan_expansion_is_config_major_seed_order() {
        let w = Proportional;
        let plan = mini_plan(&w);
        assert_eq!(plan.len(), 9 * 3 + 2);
        // Spec 0, config 1, rep 2 → seed 1 * 1000 + 2.
        let cell = &plan.cells[5];
        assert_eq!(cell.spec, 0);
        assert_eq!(cell.config_index, 1);
        assert_eq!(cell.rep, 2);
        assert_eq!(cell.setup.seed, 1002);
        // Spec 1 starts after spec 0's 27 cells, at base seed 100.
        assert_eq!(plan.cells[27].spec, 1);
        assert_eq!(plan.cells[27].setup.seed, 100);
    }

    #[test]
    fn parallel_results_are_bit_identical_to_serial() {
        let w = Proportional;
        let serial = CellRunner::new(1).run(mini_plan(&w));
        let parallel = CellRunner::new(4).run(mini_plan(&w));
        assert_eq!(serial.results, parallel.results);
        // Trace hashes per cell are identical too (values only — wall
        // clock naturally differs).
        let hashes = |o: &PlanOutcome| {
            o.report
                .cells
                .iter()
                .map(|c| (c.seed, c.trace_hash))
                .collect::<Vec<_>>()
        };
        assert_eq!(hashes(&serial), hashes(&parallel));
        assert_eq!(parallel.report.jobs, 4);
    }

    #[test]
    fn report_counts_and_json_shape() {
        let w = Proportional;
        let out = CellRunner::new(2).run(mini_plan(&w));
        assert_eq!(out.report.cells.len(), 29);
        assert_eq!(out.report.count(RunClass::Completed), 29);
        assert_eq!(out.report.total_retries(), 0);
        let json = out.report.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"name\": \"mini\""));
        assert!(json.contains("\"classes\": {\"completed\": 29}"));
        assert!(json.contains("\"speedup\": "));
        assert!(!json.contains("panicked"));
    }

    #[test]
    fn identical_clean_cells_are_memoized_across_specs() {
        let w = Proportional;
        // Two specs with the same workload, configs, policy, and seeds —
        // the fig2/table1 overlap in miniature.
        let mut plan = ExperimentPlan::new("dup");
        let mode = || SpecMode::Clean {
            policy: SchedPolicy::os_default(),
            options: ExperimentOptions::new(2),
        };
        plan.push("first", &w, &[AsymConfig::new(2, 2, 8)], mode());
        plan.push("second", &w, &[AsymConfig::new(2, 2, 8)], mode());
        let targets = plan.memo_targets();
        assert_eq!(targets, vec![None, None, Some(0), Some(1)]);
        let out = CellRunner::new(2).run(plan);
        assert_eq!(out.report.memoized_cells(), 2);
        assert!(!out.report.cells[0].memoized);
        assert!(out.report.cells[2].memoized);
        assert_eq!(out.report.cells[2].wall_ms, 0.0);
        assert_eq!(
            out.report.cells[0].trace_hash,
            out.report.cells[2].trace_hash
        );
        // The two sections are indistinguishable from running
        // both specs in full.
        assert_eq!(
            out.results[0].clean().outcomes,
            out.results[1].clean().outcomes
        );
        let json = out.report.to_json();
        assert!(json.contains("\"memoized_cells\": 2"));
        assert!(json.contains("\"memoized\": true"));

        // Identical resilient specs share a content address too.
        let mut plan = ExperimentPlan::new("dup-resilient");
        plan.push(
            "first",
            &w,
            &[AsymConfig::new(2, 2, 8)],
            faulted(1, hotplug),
        );
        plan.push(
            "second",
            &w,
            &[AsymConfig::new(2, 2, 8)],
            faulted(1, hotplug),
        );
        assert_eq!(plan.memo_targets(), vec![None, None, Some(0), Some(1)]);
        let out = CellRunner::new(2).run(plan);
        assert_eq!(out.report.memoized_cells(), 2);
        assert!(out.report.cells[3].memoized);
        assert_eq!(out.results[0], out.results[1]);

        // The same specs with a section check are never reused: the
        // check sees every requested run execute.
        let w = KernelBursts;
        let closed = Arc::new(AtomicUsize::new(0));
        let mut plan = ExperimentPlan::new("dup-checked");
        for label in ["first", "second"] {
            let mode = with_section_check(faulted(1, hotplug), counting_check(&closed));
            plan.push(label, &w, &[AsymConfig::new(2, 2, 8)], mode);
        }
        assert_eq!(plan.memo_targets(), vec![None; 4]);
        let out = CellRunner::new(2).run(plan);
        assert_eq!(out.report.memoized_cells(), 0);
        let attempts: u32 = out.report.cells.iter().map(|c| c.attempts).sum();
        assert_eq!(closed.load(Ordering::Relaxed), attempts as usize);
    }

    #[test]
    fn memoized_copies_carry_their_own_identity() {
        // Seed 1 is slot 1 of the first spec and slot 0 of the second.
        let w = Proportional;
        let mut plan = ExperimentPlan::new("shifted");
        let mode = |base| SpecMode::Clean {
            policy: SchedPolicy::os_default(),
            options: ExperimentOptions::new(2).base_seed(base),
        };
        plan.push("first", &w, &[AsymConfig::new(2, 2, 8)], mode(0));
        plan.push("second", &w, &[AsymConfig::new(2, 2, 8)], mode(1));
        assert_eq!(plan.memo_targets(), vec![None, None, Some(1), None]);
        let out = CellRunner::new(1).run(plan);
        let (primary, copy) = (&out.report.cells[1], &out.report.cells[2]);
        assert!(copy.memoized && !primary.memoized);
        assert_eq!((copy.spec.as_str(), copy.rep, copy.seed), ("second", 0, 1));
        assert_eq!((primary.spec.as_str(), primary.rep), ("first", 1));
        assert_eq!((copy.value, &copy.runs), (primary.value, &primary.runs));
        assert_eq!(out.results[1].cells()[0].spec, "second");
    }

    fn hotplug(setup: &RunSetup) -> FaultPlan {
        let profile = FaultProfile::hotplug_and_throttle(SimDuration::from_millis(5));
        FaultPlan::generate(setup.seed, 4, &profile)
    }

    fn kills(setup: &RunSetup) -> FaultPlan {
        let profile = FaultProfile::with_kills(SimDuration::from_millis(5), 2);
        FaultPlan::generate(setup.seed, 4, &profile)
    }

    /// `mode` with `check` installed as its section check.
    fn with_section_check(mut mode: SpecMode, check: TraceCheck) -> SpecMode {
        if let SpecMode::Resilient { options, .. } | SpecMode::Differential { options } = &mut mode
        {
            options.check = Some(check);
        }
        mode
    }

    /// A two-slot resilient mode with `retries` and a fault planner.
    fn faulted(retries: u32, planner: fn(&RunSetup) -> FaultPlan) -> SpecMode {
        SpecMode::Resilient {
            policy: SchedPolicy::os_default(),
            options: ResilientOptions::new(2)
                .retries(retries)
                .fault_planner(planner),
        }
    }

    #[test]
    fn different_policy_or_seed_is_not_memoized() {
        let w = Proportional;
        let mut plan = ExperimentPlan::new("nodup");
        plan.push(
            "stock",
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SpecMode::Clean {
                policy: SchedPolicy::os_default(),
                options: ExperimentOptions::new(1),
            },
        );
        plan.push(
            "aware",
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SpecMode::Clean {
                policy: SchedPolicy::asymmetry_aware(),
                options: ExperimentOptions::new(1),
            },
        );
        plan.push(
            "reseeded",
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SpecMode::Clean {
                policy: SchedPolicy::os_default(),
                options: ExperimentOptions::new(1).base_seed(7),
            },
        );
        // Resilient cells differing only in their fault plan's digest or
        // their retry budget are different cells, and a resilient cell
        // with a section check has no address at all.
        let cfg = [AsymConfig::new(2, 2, 8)];
        plan.push("hotplug", &w, &cfg, faulted(1, hotplug));
        plan.push("kills", &w, &cfg, faulted(1, kills));
        plan.push("retried", &w, &cfg, faulted(2, hotplug));
        plan.push(
            "checked",
            &w,
            &cfg,
            with_section_check(faulted(1, hotplug), noop_check()),
        );
        assert_eq!(plan.memo_targets(), vec![None; 3 + 4 * 2]);
    }

    #[test]
    fn metrics_attach_when_requested_and_match_across_jobs() {
        let w = Proportional;
        let none = CellRunner::new(1).run(mini_plan(&w));
        assert!(none.report.cells.iter().all(|c| c.metrics.is_none()));
        let serial = CellRunner::new(1).with_metrics(true).run(mini_plan(&w));
        let pooled = CellRunner::new(4).with_metrics(true).run(mini_plan(&w));
        for (a, b) in serial.report.cells.iter().zip(pooled.report.cells.iter()) {
            assert_eq!(a.metrics, b.metrics, "metrics must not depend on --jobs");
            // Proportional spawns no kernels, so the record is present
            // but empty — still serialized, still finite.
            let m = a.metrics.as_ref().expect("metrics attached");
            assert_eq!(m.kernels, 0);
            assert!(a
                .metrics
                .as_ref()
                .expect("metrics attached")
                .to_json()
                .contains("\"sched_latency\""));
        }
        let json = serial.report.to_json();
        assert!(json.contains("\"metrics\": {\"kernels\":0,"));
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::NAN), "0");
    }

    /// A workload that actually spawns a kernel, so streaming capture,
    /// metrics folding, and trace hashing all have real events to chew
    /// on. Value and extras depend on the seed, so cache round-trips
    /// are distinguishable per cell.
    struct KernelBursts;
    impl Workload for KernelBursts {
        fn name(&self) -> &str {
            "kernel-bursts"
        }
        fn unit(&self) -> &str {
            "ops/s"
        }
        fn direction(&self) -> Direction {
            Direction::HigherIsBetter
        }
        fn run(&self, setup: &RunSetup) -> RunResult {
            use asym_kernel::{FnThread, Kernel, SpawnOptions, Step};
            use asym_sim::Cycles;
            let mut k = Kernel::new(setup.config.machine(), setup.policy, setup.seed);
            for t in 0..3u64 {
                let mut bursts = 2 + (setup.seed + t) % 3;
                k.spawn(
                    FnThread::new("w", move |_cx| {
                        if bursts == 0 {
                            Step::Done
                        } else {
                            bursts -= 1;
                            Step::Compute(Cycles::from_millis_at_full_speed(0.05))
                        }
                    }),
                    SpawnOptions::new(),
                );
            }
            k.run();
            RunResult::new(1000.0 + setup.seed as f64).with_extra("seed", setup.seed as f64)
        }
    }

    /// Two specs: two configurations under the aware policy, then one
    /// resilient configuration under the stock policy.
    fn kernel_plan(w: &KernelBursts) -> ExperimentPlan<'_> {
        let first = SpecMode::Clean {
            policy: SchedPolicy::asymmetry_aware(),
            options: ExperimentOptions::new(2),
        };
        kernel_plan_of(w, first, ResilientOptions::new(2))
    }

    /// [`kernel_plan`] with its clean half moved onto the resilient
    /// harness and `check` installed as the section check of both
    /// halves.
    fn kernel_plan_with(w: &KernelBursts, check: Option<TraceCheck>) -> ExperimentPlan<'_> {
        let mut options = ResilientOptions::new(2);
        options.check = check;
        let first = SpecMode::Resilient {
            policy: SchedPolicy::asymmetry_aware(),
            options: options.clone(),
        };
        kernel_plan_of(w, first, options)
    }

    fn kernel_plan_of(
        w: &KernelBursts,
        first: SpecMode,
        stock: ResilientOptions,
    ) -> ExperimentPlan<'_> {
        let mut plan = ExperimentPlan::new("kernel");
        plan.push(
            "aware",
            w,
            &[AsymConfig::new(1, 3, 8), AsymConfig::new(2, 2, 8)],
            first,
        );
        plan.push(
            "stock",
            w,
            &[AsymConfig::new(1, 3, 8)],
            SpecMode::Resilient {
                policy: SchedPolicy::os_default(),
                options: stock,
            },
        );
        plan
    }

    /// A check fold that finds nothing, and counts the folds closed.
    struct NoFindings(Option<Arc<AtomicUsize>>);
    impl TraceConsumer for NoFindings {
        fn on_event(&mut self, _time: SimTime, _event: &TraceEvent) {}
    }
    impl CheckFold for NoFindings {
        fn findings(self: Box<Self>) -> Vec<String> {
            if let Some(closed) = &self.0 {
                closed.fetch_add(1, Ordering::Relaxed);
            }
            Vec::new()
        }
    }

    /// A trace check that never reports anything.
    fn noop_check() -> TraceCheck {
        Arc::new(|_, _, _| Box::new(NoFindings(None)))
    }

    /// A trace check that finds nothing and adds every kernel's closed
    /// fold to `closed`.
    fn counting_check(closed: &Arc<AtomicUsize>) -> TraceCheck {
        let closed = Arc::clone(closed);
        Arc::new(move |_, _, _| Box::new(NoFindings(Some(Arc::clone(&closed)))))
    }

    /// A trace check that finds nothing and records the seed of every
    /// fold it builds.
    fn seed_check(seen: &Arc<std::sync::Mutex<Vec<u64>>>) -> TraceCheck {
        let seen = Arc::clone(seen);
        Arc::new(move |_, _, seed| {
            seen.lock().expect("seed log").push(seed);
            Box::new(NoFindings(None))
        })
    }

    #[test]
    fn trace_checks_are_built_with_each_cells_seed() {
        let w = KernelBursts;
        let section = Arc::default();
        let mut plan = ExperimentPlan::new("seeds");
        let resilient = |base: u64| ResilientOptions::new(2).base_seed(base).retries(2);
        plan.push(
            "aware",
            &w,
            &[AsymConfig::new(1, 3, 8)],
            SpecMode::Resilient {
                policy: SchedPolicy::asymmetry_aware(),
                options: resilient(10).trace_check(seed_check(&section)),
            },
        );
        plan.push(
            "kills",
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SpecMode::Resilient {
                policy: SchedPolicy::os_default(),
                options: resilient(20)
                    .fault_planner(kills)
                    .trace_check(seed_check(&section)),
            },
        );
        plan.push(
            "diff",
            &w,
            &[AsymConfig::new(1, 3, 8)],
            SpecMode::Differential {
                options: ResilientOptions::new(1)
                    .base_seed(30)
                    .trace_check(seed_check(&section)),
            },
        );
        let runner = Arc::default();
        let out = CellRunner::new(2)
            .with_trace_check(seed_check(&runner))
            .run(plan);
        let cells: Vec<u64> = out.report.cells.iter().map(|c| c.seed).collect();
        assert_eq!(cells, [10, 11, 20, 21, 30]);
        for seen in [&section, &runner] {
            let mut seen = seen.lock().expect("seed log").clone();
            // All four differential legs fold under the cell's seed.
            assert!(seen.iter().filter(|&&s| s == 30).count() >= 4, "{seen:?}");
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen, cells);
        }
    }

    /// The stable per-cell fields two equivalent runs must agree on.
    fn cell_facts(report: &SweepReport) -> Vec<(RunClass, Option<f64>, Option<u64>, String)> {
        report
            .cells
            .iter()
            .map(|c| {
                (
                    c.class,
                    c.value,
                    c.trace_hash,
                    c.metrics
                        .as_deref()
                        .map(ProfileMetrics::to_json)
                        .unwrap_or_default(),
                )
            })
            .collect()
    }

    #[test]
    fn streamed_metrics_match_across_jobs() {
        let w = KernelBursts;
        let serial = CellRunner::new(1).with_metrics(true).run(kernel_plan(&w));
        let pooled = CellRunner::new(4).with_metrics(true).run(kernel_plan(&w));
        assert_eq!(cell_facts(&serial.report), cell_facts(&pooled.report));
        assert!(serial.report.cells.iter().all(|c| c
            .metrics
            .as_ref()
            .expect("metrics attached")
            .kernels
            > 0));
    }

    fn temp_cache(tag: &str) -> CellCache {
        let dir =
            std::env::temp_dir().join(format!("asym-engine-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CellCache::open(dir).expect("temp cache opens")
    }

    #[test]
    fn cache_warm_run_executes_nothing_and_is_bit_identical() {
        let w = KernelBursts;
        let cache = temp_cache("warm");
        let cold = CellRunner::new(2)
            .with_metrics(true)
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        let stats = cold.report.cache.as_ref().expect("cache stats attached");
        let cells = cold.report.cells.len();
        assert_eq!(stats.misses, cells as u64);
        assert_eq!(stats.stores, cells as u64);
        assert_eq!(stats.hits, 0);
        assert_eq!(cold.report.cached_cells(), 0);

        let warm = CellRunner::new(2)
            .with_metrics(true)
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        let stats = warm.report.cache.as_ref().expect("cache stats attached");
        assert_eq!(stats.hits, cells as u64);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.stores, 0);
        assert_eq!(warm.report.cached_cells(), cells);
        assert!(warm
            .report
            .cells
            .iter()
            .all(|c| c.cached && c.wall_ms == 0.0));
        // Bit-identical results and reports, wall clock aside.
        assert_eq!(cell_facts(&cold.report), cell_facts(&warm.report));
        assert_eq!(cold.results, warm.results);
        let json = warm.report.to_json();
        assert!(json.contains("\"cache\": {\"hits\":"));
        assert!(json.contains("\"cached\": true"));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn cache_entry_without_metrics_misses_when_metrics_wanted() {
        let w = KernelBursts;
        let cache = temp_cache("upgrade");
        let lean = CellRunner::new(1)
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        assert!(lean.report.cache.as_ref().expect("stats").stores > 0);
        // The richer run cannot use metric-less entries…
        let rich = CellRunner::new(1)
            .with_metrics(true)
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        let stats = rich.report.cache.as_ref().expect("stats");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, rich.report.cells.len() as u64);
        // …but after it overwrites them, both kinds of runner hit.
        let lean2 = CellRunner::new(1)
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        assert_eq!(
            lean2.report.cache.as_ref().expect("stats").hits,
            lean2.report.cells.len() as u64
        );
        assert_eq!(lean.results, lean2.results);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn fingerprint_mismatch_invalidates_and_overwrites() {
        let w = KernelBursts;
        let cache = temp_cache("fingerprint");
        let first = CellRunner::new(1)
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        assert!(first.report.cache.as_ref().expect("stats").stores > 0);
        // A "different build" sees every entry as stale, re-executes,
        // and overwrites.
        let other = cache.clone().with_fingerprint("another-build");
        let second = CellRunner::new(1)
            .with_cache(other.clone())
            .run(kernel_plan(&w));
        let stats = second.report.cache.as_ref().expect("stats");
        assert_eq!(stats.invalidations, second.report.cells.len() as u64);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.stores, second.report.cells.len() as u64);
        // Same "build" again: all hits now.
        let third = CellRunner::new(1).with_cache(other).run(kernel_plan(&w));
        assert_eq!(
            third.report.cache.as_ref().expect("stats").hits,
            third.report.cells.len() as u64
        );
        assert_eq!(first.results, third.results);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn trace_check_and_differential_cells_skip_the_cache() {
        let w = KernelBursts;
        let cache = temp_cache("skip");
        // An installed check disqualifies every cell (its findings are
        // not stored, so a hit could silently drop violations).
        let checked = CellRunner::new(1)
            .with_trace_check(noop_check())
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        let stats = checked.report.cache.as_ref().expect("stats");
        assert_eq!(stats.skips, checked.report.cells.len() as u64);
        assert_eq!(stats.stores + stats.hits + stats.misses, 0);
        // So does a section check: it must see every run execute.
        let checked = CellRunner::new(1)
            .with_cache(cache.clone())
            .run(kernel_plan_with(&w, Some(noop_check())));
        let stats = checked.report.cache.as_ref().expect("stats");
        assert_eq!(stats.skips, checked.report.cells.len() as u64);
        assert_eq!(stats.stores + stats.hits + stats.misses, 0);
        // Differential cells never cache either.
        let mut plan = ExperimentPlan::new("diff");
        plan.push(
            "d",
            &w,
            &[AsymConfig::new(1, 3, 8)],
            SpecMode::Differential {
                options: ResilientOptions::new(1),
            },
        );
        let diff = CellRunner::new(1).with_cache(cache.clone()).run(plan);
        let stats = diff.report.cache.as_ref().expect("stats");
        assert_eq!(stats.skips, 1);
        assert_eq!(stats.stores + stats.hits + stats.misses, 0);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn memoized_copies_of_cached_primaries_stay_cached_in_json() {
        let w = Proportional;
        let cache = temp_cache("memo");
        let mode = || SpecMode::Clean {
            policy: SchedPolicy::os_default(),
            options: ExperimentOptions::new(1),
        };
        let build = || {
            let mut plan = ExperimentPlan::new("dup");
            plan.push("first", &w, &[AsymConfig::new(2, 2, 8)], mode());
            plan.push("second", &w, &[AsymConfig::new(2, 2, 8)], mode());
            plan
        };
        let cold = CellRunner::new(1).with_cache(cache.clone()).run(build());
        // Only the memo primary consulted the cache; the copy rode along.
        assert_eq!(cold.report.cache.as_ref().expect("stats").misses, 1);
        let warm = CellRunner::new(1).with_cache(cache.clone()).run(build());
        assert_eq!(warm.report.cache.as_ref().expect("stats").hits, 1);
        let memo = &warm.report.cells[1];
        assert!(memo.memoized && memo.cached);
        assert_eq!(memo.wall_ms, 0.0);
        let json = warm.report.to_json();
        assert!(json.contains("\"wall_ms\": 0, \"memoized\": true, \"cached\": true"));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn jobs_resolution_prefers_explicit() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
    }
}
