//! TPC-H on a DB2-style database server (§3.3).
//!
//! The model captures the three levers the paper studies:
//!
//! * **intra-query parallelization degree** — each query splits into `P`
//!   sub-queries executed by `P` *server processes*;
//! * **optimization degree** — aggressive plans (degree 7) are fast but
//!   *skewed*: sub-queries are very unequal, so which one lands on a slow
//!   core decides the query's critical path. De-optimized plans (degree 2)
//!   are ~2.5× slower but nearly uniform, which is why the paper measured
//!   up to 10× less run-to-run variance with them;
//! * **DB-internal process binding** — DB2 binds its server processes to
//!   processors itself at server start (a per-run lottery), so the
//!   asymmetry-aware *kernel* fix cannot help: "the DB2 server controls
//!   the scheduling of query execution on server processes, which are
//!   bound by the server to various processors, thus making our kernel fix
//!   ineffective."
//!
//! The power run executes all 22 queries serially (single active user).

use asym_core::{Direction, RunResult, RunSetup, Workload};
use asym_kernel::{Kernel, SpawnOptions, Step, ThreadBody, ThreadCx, ThreadId};
use asym_sim::{CoreId, CoreMask, Cycles, Rng};
use asym_sync::{SimLatch, SimQueue, SimShared, TryPop};

/// Relative costs of the 22 TPC-H queries (q1..q22), roughly matching the
/// spread of real power-run query times. One unit ≈ 0.4 full-speed core
/// seconds under the default [`TpcHParams`].
pub const QUERY_WEIGHTS: [f64; 22] = [
    1.0, 0.3, 1.2, 0.8, 0.9, 0.5, 1.0, 1.3, 2.2, 1.0, 0.4, 0.9, 1.4, 0.6, 0.7, 0.5, 1.8, 2.5, 1.1,
    0.9, 1.9, 0.8,
];

/// Which queries a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySet {
    /// The full power run: all 22 queries in sequence.
    PowerRun,
    /// A single query (1-based, e.g. `Single(3)` for Q3 as in Figure 4(b)).
    Single(usize),
}

/// Tuning constants for the TPC-H model.
#[derive(Debug, Clone)]
pub struct TpcHParams {
    /// Full-speed core-seconds per unit of [`QUERY_WEIGHTS`].
    pub seconds_per_unit: f64,
    /// Per-sub-query cost jitter (uniform ±).
    pub jitter: f64,
}

impl Default for TpcHParams {
    fn default() -> Self {
        TpcHParams {
            seconds_per_unit: 0.4,
            jitter: 0.02,
        }
    }
}

/// The TPC-H workload: a power run (or single query) at a given
/// parallelization and optimization degree.
///
/// The primary metric is the runtime in seconds (lower is better).
#[derive(Debug, Clone)]
pub struct TpcH {
    /// Intra-query parallelization degree (sub-queries per query). Degree
    /// 1 disables intra-query parallelism (§3.3's bimodal experiment).
    pub parallelization: usize,
    /// Query-plan optimization degree, 0 (none) to 7 (maximum).
    pub optimization: u32,
    /// Which queries to run.
    pub queries: QuerySet,
    /// Model constants.
    pub params: TpcHParams,
}

impl TpcH {
    /// The paper's default setup: parallelization 4, optimization 7,
    /// full power run.
    pub fn power_run() -> Self {
        TpcH {
            parallelization: 4,
            optimization: 7,
            queries: QuerySet::PowerRun,
            params: TpcHParams::default(),
        }
    }

    /// A single-query run (1-based index).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= q <= 22`.
    pub fn single_query(q: usize) -> Self {
        assert!((1..=22).contains(&q), "TPC-H has queries 1..=22");
        TpcH {
            queries: QuerySet::Single(q),
            ..TpcH::power_run()
        }
    }

    /// Sets the parallelization degree.
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero.
    pub fn parallelization(mut self, p: usize) -> Self {
        assert!(p > 0, "parallelization degree must be at least 1");
        self.parallelization = p;
        self
    }

    /// Sets the optimization degree (clamped to 0..=7).
    pub fn optimization(mut self, d: u32) -> Self {
        self.optimization = d.min(7);
        self
    }

    /// Total-cost multiplier of this optimization degree (1.0 at 7).
    /// De-optimized plans fall back to scan-heavy execution: degree 2 is
    /// roughly 5× more total work, which nets out ~2.5× slower after its
    /// better parallel balance (Figure 5(b)).
    pub fn cost_multiplier(&self) -> f64 {
        1.0 + 0.8 * f64::from(7 - self.optimization)
    }

    /// Plan-skew ratio: consecutive sub-query shares shrink by this
    /// factor. 1.0 = perfectly uniform (no skew).
    pub fn skew_ratio(&self) -> f64 {
        // Degree 7 → 0.45 (heavily skewed); low degrees approach uniform
        // quickly: de-optimized plans are scan-heavy and split evenly.
        1.0 - 0.55 * (f64::from(self.optimization) / 7.0).powf(1.5)
    }

    /// The sub-query shares for one query under this plan (sums to 1).
    pub fn subquery_shares(&self) -> Vec<f64> {
        let p = self.parallelization;
        let r = self.skew_ratio();
        let mut shares: Vec<f64> = (0..p).map(|i| r.powi(i as i32)).collect();
        let total: f64 = shares.iter().sum();
        for s in &mut shares {
            *s /= total;
        }
        shares
    }

    fn query_indices(&self) -> Vec<usize> {
        match self.queries {
            QuerySet::PowerRun => (0..QUERY_WEIGHTS.len()).collect(),
            QuerySet::Single(q) => vec![q - 1],
        }
    }
}

// ---------------------------------------------------------------------
// Server process and coordinator threads
// ---------------------------------------------------------------------

/// One sub-query job handed to a server process.
#[derive(Debug, Clone)]
struct SubQuery {
    work: Cycles,
    done: SimLatch,
}

struct ServerProcess {
    jobs: SimQueue<SubQuery>,
    /// Per-process registry of in-flight sub-queries: this process
    /// publishes the job it is computing so the coordinator can salvage it
    /// if a fault kills the process mid-query. Plain per-slot words: each
    /// slot has a single writer, and the coordinator reads a slot only
    /// after observing the owner's exit via `join_check`.
    serving: SimShared<Vec<Option<SubQuery>>>,
    slot: usize,
    name: String,
}

impl ThreadBody for ServerProcess {
    fn run(&mut self, cx: &mut ThreadCx<'_>) -> Step {
        let slot = self.slot;
        if let Some(job) = self.serving.write_at(cx, slot as u32, |s| s[slot].take()) {
            job.done.count_down(cx);
        }
        match self.jobs.try_pop(cx) {
            TryPop::Item(job) => {
                let work = job.work;
                self.serving
                    .write_at(cx, slot as u32, |s| s[slot] = Some(job));
                Step::Compute(work)
            }
            TryPop::Empty(step) => step,
            TryPop::Closed => Step::Done,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

struct Coordinator {
    queries: Vec<usize>,
    next: usize,
    processes: Vec<SimQueue<SubQuery>>,
    tids: Vec<ThreadId>,
    dead: Vec<bool>,
    serving: SimShared<Vec<Option<SubQuery>>>,
    killed_seen: u64,
    /// Sub-queries salvaged from dead server processes, awaiting a new home.
    lost: Vec<SubQuery>,
    /// Latch of a salvaged sub-query the coordinator just computed itself.
    fallback: Option<SimLatch>,
    shares: Vec<f64>,
    seconds_per_unit: f64,
    cost_multiplier: f64,
    jitter: f64,
    waiting: Option<SimLatch>,
    rng: Rng,
}

impl Coordinator {
    /// Detects server processes killed by faults, salvages their queued and
    /// in-flight sub-queries, and hands the orphans to surviving processes.
    /// DB2's coordinator restarts failed agents the same way: the query
    /// plan's pieces are re-dispatched, not abandoned.
    fn reap_dead(&mut self, cx: &mut ThreadCx<'_>) {
        if cx.killed_count() == self.killed_seen {
            return;
        }
        self.killed_seen = cx.killed_count();
        for i in 0..self.tids.len() {
            if self.dead[i] || !cx.join_check(self.tids[i]) {
                continue;
            }
            self.dead[i] = true;
            self.lost.extend(self.processes[i].drain(cx));
            if let Some(job) = self.serving.write_at(cx, i as u32, |s| s[i].take()) {
                self.lost.push(job);
            }
        }
        let live: Vec<usize> = (0..self.tids.len()).filter(|&i| !self.dead[i]).collect();
        if live.is_empty() {
            return; // the coordinator will run the salvage itself
        }
        for (n, job) in self.lost.drain(..).enumerate() {
            self.processes[live[n % live.len()]].push(cx, job);
        }
    }

    /// With every server process dead, the coordinator executes salvaged
    /// sub-queries inline, one compute step at a time.
    fn salvage_step(&mut self) -> Option<Step> {
        let job = self.lost.pop()?;
        self.fallback = Some(job.done);
        Some(Step::Compute(job.work))
    }
}

impl ThreadBody for Coordinator {
    fn run(&mut self, cx: &mut ThreadCx<'_>) -> Step {
        if let Some(latch) = self.fallback.take() {
            latch.count_down(cx);
        }
        self.reap_dead(cx);
        loop {
            if let Some(step) = self.salvage_step() {
                return step;
            }
            if let Some(latch) = &self.waiting {
                match latch.wait_step() {
                    Ok(()) => self.waiting = None,
                    Err(step) => return step,
                }
            }
            if self.next == self.queries.len() {
                for q in &self.processes {
                    q.close(cx);
                }
                return Step::Done;
            }
            let q = self.queries[self.next];
            self.next += 1;
            let latch = SimLatch::new(cx, self.shares.len() as u64);
            let base_secs = QUERY_WEIGHTS[q] * self.seconds_per_unit * self.cost_multiplier;
            let live: Vec<usize> = (0..self.processes.len())
                .filter(|&i| !self.dead[i])
                .collect();
            for (i, share) in self.shares.iter().enumerate() {
                let jitter = 1.0 + self.jitter * (2.0 * self.rng.next_f64() - 1.0);
                let work = Cycles::from_millis_at_full_speed(base_secs * 1e3 * share * jitter);
                let job = SubQuery {
                    work,
                    done: latch.clone(),
                };
                // Never dispatch to a dead process: its queue has no
                // consumer and the latch would wait forever. Re-bind the
                // share to a surviving process, or run it inline when
                // every server process is gone.
                if !self.dead[i] {
                    self.processes[i].push(cx, job);
                } else if let Some(&alt) = live.get(i % live.len().max(1)) {
                    self.processes[alt].push(cx, job);
                } else {
                    self.lost.push(job);
                }
            }
            self.waiting = Some(latch);
        }
    }

    fn name(&self) -> &str {
        "db2-coordinator"
    }
}

// ---------------------------------------------------------------------
// Workload implementation
// ---------------------------------------------------------------------

impl Workload for TpcH {
    fn name(&self) -> &str {
        "TPC-H"
    }

    fn spec_key(&self) -> String {
        format!("{} {:?}", self.name(), self)
    }

    fn unit(&self) -> &str {
        "seconds"
    }

    fn direction(&self) -> Direction {
        Direction::LowerIsBetter
    }

    fn run(&self, setup: &RunSetup) -> RunResult {
        let mut kernel = Kernel::new(setup.config.machine(), setup.policy, setup.seed);
        let mut seed_rng = Rng::new(setup.seed ^ 0x79c8_0000_0000_0003);
        let ncores = setup.config.num_cores() as usize;

        // DB2 binds its server processes to processors at server start —
        // one rotation draw per run. This is the per-run lottery the
        // kernel cannot see past.
        let rotation = seed_rng.index(ncores);
        let serving = SimShared::new(
            &mut kernel,
            "tpch.serving",
            vec![None; self.parallelization],
        );
        let mut process_queues = Vec::with_capacity(self.parallelization);
        let mut process_tids = Vec::with_capacity(self.parallelization);
        for i in 0..self.parallelization {
            let jobs: SimQueue<SubQuery> = SimQueue::new(&mut kernel);
            let core = CoreId((rotation + i) % ncores);
            let tid = kernel.spawn(
                ServerProcess {
                    jobs: jobs.clone(),
                    serving: serving.clone(),
                    slot: i,
                    name: format!("db2-proc{i}"),
                },
                SpawnOptions::new().affinity(CoreMask::single(core)),
            );
            process_queues.push(jobs);
            process_tids.push(tid);
        }
        kernel.spawn(
            Coordinator {
                queries: self.query_indices(),
                next: 0,
                processes: process_queues,
                dead: vec![false; process_tids.len()],
                tids: process_tids,
                serving,
                killed_seen: 0,
                lost: Vec::new(),
                fallback: None,
                shares: self.subquery_shares(),
                seconds_per_unit: self.params.seconds_per_unit,
                cost_multiplier: self.cost_multiplier(),
                jitter: self.params.jitter,
                waiting: None,
                rng: seed_rng.fork(),
            },
            SpawnOptions::new().kill_exempt(),
        );

        let outcome = kernel.run();
        assert!(
            outcome == asym_kernel::RunOutcome::AllDone || outcome.is_cut_short(),
            "TPC-H run did not complete: {outcome:?}"
        );
        RunResult::new(kernel.now().as_secs_f64())
            .with_extra("lost_workers", kernel.stats().threads_killed as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_core::AsymConfig;
    use asym_kernel::SchedPolicy;

    fn run_secs(t: &TpcH, config: AsymConfig, policy: SchedPolicy, seed: u64) -> f64 {
        t.run(&RunSetup::new(config, policy, seed)).value
    }

    fn spread(vals: &[f64]) -> f64 {
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        (vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min))
            / mean
    }

    #[test]
    fn shares_sum_to_one_and_skew_orders() {
        let t = TpcH::power_run();
        let shares = t.subquery_shares();
        assert_eq!(shares.len(), 4);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(shares[0] > shares[3], "optimized plans are skewed");
        let uniform = TpcH::power_run().optimization(0).subquery_shares();
        for s in uniform {
            assert!((s - 0.25).abs() < 1e-12, "degree 0 is uniform");
        }
    }

    #[test]
    fn symmetric_configs_are_stable() {
        let t = TpcH::single_query(3);
        let runs: Vec<f64> = (0..5)
            .map(|s| run_secs(&t, AsymConfig::new(4, 0, 1), SchedPolicy::os_default(), s))
            .collect();
        assert!(spread(&runs) < 0.05, "symmetric spread {:?}", runs);
    }

    #[test]
    fn asymmetric_configs_are_unstable_at_high_optimization() {
        let t = TpcH::single_query(3);
        let runs: Vec<f64> = (0..8)
            .map(|s| run_secs(&t, AsymConfig::new(2, 2, 8), SchedPolicy::os_default(), s))
            .collect();
        assert!(
            spread(&runs) > 0.3,
            "expected binding-lottery instability: {runs:?}"
        );
    }

    #[test]
    fn low_optimization_trades_speed_for_stability() {
        let hi = TpcH::single_query(3);
        let lo = TpcH::single_query(3).optimization(2);
        let config = AsymConfig::new(2, 2, 8);
        let hi_runs: Vec<f64> = (0..8)
            .map(|s| run_secs(&hi, config, SchedPolicy::os_default(), s))
            .collect();
        let lo_runs: Vec<f64> = (0..8)
            .map(|s| run_secs(&lo, config, SchedPolicy::os_default(), s))
            .collect();
        // Slower...
        let hi_mean = hi_runs.iter().sum::<f64>() / hi_runs.len() as f64;
        let lo_mean = lo_runs.iter().sum::<f64>() / lo_runs.len() as f64;
        assert!(lo_mean > hi_mean, "de-optimized plans are slower");
        // ...but much more stable.
        assert!(
            spread(&lo_runs) < 0.5 * spread(&hi_runs),
            "hi {hi_runs:?} lo {lo_runs:?}"
        );
    }

    #[test]
    fn kernel_fix_is_ineffective_for_pinned_processes() {
        let t = TpcH::single_query(3);
        let config = AsymConfig::new(2, 2, 8);
        let stock: Vec<f64> = (0..8)
            .map(|s| run_secs(&t, config, SchedPolicy::os_default(), s))
            .collect();
        let aware: Vec<f64> = (0..8)
            .map(|s| run_secs(&t, config, SchedPolicy::asymmetry_aware(), s))
            .collect();
        // The asymmetry-aware kernel cannot migrate DB-bound processes, so
        // instability persists.
        assert!(
            spread(&aware) > 0.5 * spread(&stock),
            "kernel fix should NOT help TPC-H: stock {stock:?} aware {aware:?}"
        );
    }

    #[test]
    fn no_parallelism_is_bimodal() {
        let t = TpcH::single_query(3).parallelization(1);
        let runs: Vec<f64> = (0..12)
            .map(|s| run_secs(&t, AsymConfig::new(2, 2, 8), SchedPolicy::os_default(), s))
            .collect();
        let min = runs.iter().cloned().fold(f64::MAX, f64::min);
        let max = runs.iter().cloned().fold(f64::MIN, f64::max);
        // Fast-core runs vs slow-core runs differ by the speed ratio (8x).
        assert!(
            max / min > 5.0,
            "expected bimodal fast/slow runtimes: {runs:?}"
        );
        // And each run is near one of the two modes.
        for r in &runs {
            let near_fast = (r / min - 1.0).abs() < 0.2;
            let near_slow = (r / max - 1.0).abs() < 0.2;
            assert!(near_fast || near_slow, "mid-mode runtime {r} in {runs:?}");
        }
    }

    #[test]
    fn power_run_covers_all_queries() {
        let t = TpcH::power_run();
        assert_eq!(t.query_indices().len(), 22);
        assert_eq!(TpcH::single_query(3).query_indices(), vec![2]);
    }

    #[test]
    fn higher_parallelization_increases_variance() {
        let p4 = TpcH::single_query(9);
        let p8 = TpcH::single_query(9).parallelization(8);
        let config = AsymConfig::new(2, 2, 4);
        let v4: Vec<f64> = (0..8)
            .map(|s| run_secs(&p4, config, SchedPolicy::os_default(), s))
            .collect();
        let v8: Vec<f64> = (0..8)
            .map(|s| run_secs(&p8, config, SchedPolicy::os_default(), s))
            .collect();
        assert!(
            spread(&v8) > spread(&v4) * 0.8,
            "P=8 should not be calmer: v4 {v4:?} v8 {v8:?}"
        );
    }
}
