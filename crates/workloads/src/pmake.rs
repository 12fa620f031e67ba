//! PMAKE model (§3.7): `make -j4` over a Linux-kernel-sized build.
//!
//! The build is a DAG: a serial configuration/parse head, ~790
//! independent compile jobs (the paper's ~7900 C files, scaled 10×
//! down), and a serial link tail. `make -j4` keeps four compile jobs
//! outstanding; every job is a freshly forked process, so the scheduler
//! constantly gets new, short-lived work to place — the same
//! self-balancing effect as fine-grained Apache recycling. PMAKE is
//! therefore stable and scalable, and one fast core pays off twice: it
//! speeds the serial head/tail and soaks up compile jobs on demand.

use asym_core::{Direction, RunResult, RunSetup, Workload};
use asym_kernel::{Kernel, SpawnOptions, Step, ThreadBody, ThreadCx, ThreadId, WaitId};
use asym_sim::{Cycles, Rng};
use asym_sync::SimShared;
use std::rc::Rc;

/// Tuning constants for the PMAKE model.
#[derive(Debug, Clone)]
pub struct PmakeParams {
    /// Number of compile jobs (the paper's kernel tree has ~7900 files;
    /// we scale 10× down).
    pub files: u32,
    /// `-j` parallelism.
    pub jobs: u32,
    /// Median compile cost per file at full speed.
    pub compile_cost: Cycles,
    /// Log-normal sigma of per-file compile costs.
    pub cost_sigma: f64,
    /// Serial Makefile parse / dependency scan at the start.
    pub parse_cost: Cycles,
    /// Serial link steps at the end.
    pub link_steps: u32,
    /// Cost of each link step.
    pub link_cost: Cycles,
    /// Cost for make to fork one compiler process.
    pub fork_cost: Cycles,
    /// Workload seed fixing the per-file costs (the *tree* doesn't change
    /// between runs; only scheduling noise does).
    pub tree_seed: u64,
}

impl Default for PmakeParams {
    fn default() -> Self {
        PmakeParams {
            files: 790,
            jobs: 4,
            compile_cost: Cycles::from_millis_at_full_speed(20.0),
            cost_sigma: 0.55,
            parse_cost: Cycles::from_millis_at_full_speed(100.0),
            link_steps: 3,
            link_cost: Cycles::from_millis_at_full_speed(50.0),
            fork_cost: Cycles::from_micros_at_full_speed(300.0),
            tree_seed: 0xbeef,
        }
    }
}

/// The PMAKE workload. Primary metric: build time in seconds.
#[derive(Debug, Clone, Default)]
pub struct Pmake {
    /// Model constants.
    pub params: PmakeParams,
}

impl Pmake {
    /// A `make -j4` build of the scaled kernel tree.
    pub fn new() -> Self {
        Pmake::default()
    }

    /// Scales the file count (for fast tests).
    pub fn files(mut self, files: u32) -> Self {
        self.params.files = files;
        self
    }
}

struct MakeShared {
    /// Jobs retired so far; an access-traced atomic because make polls it
    /// while compilers are still incrementing.
    finished_jobs: SimShared<u64>,
    make_wake: WaitId,
    /// Per-file success flags, so make can tell a compiler that finished
    /// from one that was killed mid-compile (and re-fork the latter).
    /// Plain per-file words: make only reads a file's flag after
    /// observing the compiler's exit, which orders the accesses.
    job_done: SimShared<Vec<bool>>,
}

/// One compiler process: compute, report, exit.
struct CompileJob {
    shared: Rc<MakeShared>,
    file: usize,
    work: Cycles,
    compiled: bool,
    name: String,
}

impl ThreadBody for CompileJob {
    fn run(&mut self, cx: &mut ThreadCx<'_>) -> Step {
        if !self.compiled {
            self.compiled = true;
            return Step::Compute(self.work);
        }
        let file = self.file;
        self.shared
            .job_done
            .write_at(cx, file as u32, |d| d[file] = true);
        self.shared.finished_jobs.rmw(cx, |c| *c += 1);
        cx.notify_all(self.shared.make_wake);
        Step::Done
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MakePhase {
    Parse,
    Spawn,
    WaitJobs,
    Link(u32),
    LinkWork(u32),
    Done,
}

/// The make process: parses, keeps `-j` jobs outstanding, then links.
/// As the supervisor it is exempt from injected kills and re-forks any
/// compiler process a fault terminates (a real make would fail the build;
/// re-running the rule is the kill-tolerant completion mode).
struct MakeProcess {
    shared: Rc<MakeShared>,
    costs: Vec<Cycles>,
    jobs: u32,
    /// Next never-attempted file index.
    next_file: usize,
    /// Files whose compiler was killed, awaiting a re-fork.
    retry: Vec<usize>,
    /// In-flight compilers: (file, tid), purged as they exit.
    active: Vec<(usize, ThreadId)>,
    fork_cost: Cycles,
    parse_cost: Cycles,
    link_steps: u32,
    link_cost: Cycles,
    phase: MakePhase,
    parsed: bool,
}

impl MakeProcess {
    /// Drops exited compilers from the in-flight list; ones that exited
    /// without marking their file done were killed and get re-queued.
    fn reap_jobs(&mut self, cx: &mut ThreadCx<'_>) {
        let mut i = 0;
        while i < self.active.len() {
            let (file, tid) = self.active[i];
            if !cx.join_check(tid) {
                i += 1;
                continue;
            }
            self.active.remove(i);
            if !self.shared.job_done.read_at(cx, file as u32, |d| d[file]) {
                self.retry.push(file);
            }
        }
    }

    fn files_remaining(&self) -> bool {
        self.next_file < self.costs.len() || !self.retry.is_empty()
    }
}

impl ThreadBody for MakeProcess {
    fn run(&mut self, cx: &mut ThreadCx<'_>) -> Step {
        self.reap_jobs(cx);
        loop {
            match self.phase {
                MakePhase::Parse => {
                    if !self.parsed {
                        self.parsed = true;
                        return Step::Compute(self.parse_cost);
                    }
                    self.phase = MakePhase::Spawn;
                }
                MakePhase::Spawn => {
                    if !self.files_remaining() || self.active.len() >= self.jobs as usize {
                        self.phase = MakePhase::WaitJobs;
                        continue;
                    }
                    // Fork+exec the next compiler (retries first). Exec-time
                    // balancing (2.6's sched_exec) places the fresh process
                    // on a least-loaded core — speed-agnostically.
                    let file = self.retry.pop().unwrap_or_else(|| {
                        let f = self.next_file;
                        self.next_file += 1;
                        f
                    });
                    let work = self.costs[file];
                    let tid = cx.spawn(
                        CompileJob {
                            shared: self.shared.clone(),
                            file,
                            work,
                            compiled: false,
                            name: format!("cc-{file}"),
                        },
                        SpawnOptions::new(),
                    );
                    self.active.push((file, tid));
                    return Step::Compute(self.fork_cost);
                }
                MakePhase::WaitJobs => {
                    if self.shared.finished_jobs.load(cx, |c| *c) == self.costs.len() as u64 {
                        self.phase = MakePhase::Link(0);
                        continue;
                    }
                    if self.files_remaining() && self.active.len() < self.jobs as usize {
                        self.phase = MakePhase::Spawn;
                        continue;
                    }
                    return Step::Block(self.shared.make_wake);
                }
                MakePhase::Link(step) => {
                    if step == self.link_steps {
                        self.phase = MakePhase::Done;
                        continue;
                    }
                    self.phase = MakePhase::LinkWork(step);
                    return Step::Compute(self.link_cost);
                }
                MakePhase::LinkWork(step) => {
                    self.phase = MakePhase::Link(step + 1);
                }
                MakePhase::Done => return Step::Done,
            }
        }
    }

    fn name(&self) -> &str {
        "make"
    }
}

impl Workload for Pmake {
    fn name(&self) -> &str {
        "PMAKE"
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
        let p = &self.params;
        assert!(p.files > 0 && p.jobs > 0, "PMAKE needs files and jobs");
        let mut kernel = Kernel::new(setup.config.machine(), setup.policy, setup.seed);

        // Per-file costs come from the *tree* seed: identical across runs,
        // exactly like a real source tree.
        let mut tree_rng = Rng::new(p.tree_seed);
        let costs: Vec<Cycles> = (0..p.files)
            .map(|_| {
                let factor = tree_rng.log_normal(0.0, p.cost_sigma);
                Cycles::new((p.compile_cost.get() as f64 * factor) as u64)
            })
            .collect();

        let make_wake = kernel.create_wait_queue();
        let shared = Rc::new(MakeShared {
            finished_jobs: SimShared::new(&mut kernel, "pmake.finished_jobs", 0),
            make_wake,
            job_done: SimShared::new(&mut kernel, "pmake.job_done", vec![false; p.files as usize]),
        });
        kernel.spawn(
            MakeProcess {
                shared: shared.clone(),
                costs,
                jobs: p.jobs,
                next_file: 0,
                retry: Vec::new(),
                active: Vec::new(),
                fork_cost: p.fork_cost,
                parse_cost: p.parse_cost,
                link_steps: p.link_steps,
                link_cost: p.link_cost,
                phase: MakePhase::Parse,
                parsed: false,
            },
            SpawnOptions::new().kill_exempt(),
        );

        let outcome = kernel.run();
        let result = RunResult::new(kernel.now().as_secs_f64())
            .with_extra("lost_workers", kernel.stats().threads_killed as f64);
        if outcome.is_cut_short() {
            return result;
        }
        assert_eq!(
            outcome,
            asym_kernel::RunOutcome::AllDone,
            "build did not complete"
        );
        assert_eq!(shared.finished_jobs.peek(|c| *c), u64::from(p.files));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_core::AsymConfig;
    use asym_kernel::SchedPolicy;

    fn quick(config: AsymConfig, seed: u64) -> f64 {
        Pmake::new()
            .files(120)
            .run(&RunSetup::new(config, SchedPolicy::os_default(), seed))
            .value
    }

    #[test]
    fn build_scales_with_compute_power() {
        let fast = quick(AsymConfig::new(4, 0, 1), 1);
        let slow = quick(AsymConfig::new(0, 4, 8), 1);
        assert!(slow > 5.0 * fast, "fast {fast} slow {slow}");
    }

    #[test]
    fn stable_across_runs() {
        // Short-lived exec-balanced compile jobs make the build
        // self-balancing; the residual wobble is the serial parse/link
        // placement (present on real hardware too).
        // Full-size tree: the serial fraction is realistic and the many
        // short jobs average out.
        let runs: Vec<f64> = (0..4)
            .map(|s| {
                Pmake::new()
                    .run(&RunSetup::new(
                        AsymConfig::new(2, 2, 8),
                        SchedPolicy::os_default(),
                        s,
                    ))
                    .value
            })
            .collect();
        let mean = runs.iter().sum::<f64>() / runs.len() as f64;
        let spread = (runs.iter().cloned().fold(f64::MIN, f64::max)
            - runs.iter().cloned().fold(f64::MAX, f64::min))
            / mean;
        assert!(spread < 0.20, "PMAKE should be near-stable: {runs:?}");
    }

    #[test]
    fn one_fast_core_helps() {
        // 1f-3s/8 (power 1.375) beats 0f-4s/4 (power 1.0) on average:
        // the fast core soaks up compile jobs on demand.
        let avg = |f, s, sc| {
            (0..3)
                .map(|seed| quick(AsymConfig::new(f, s, sc), seed))
                .sum::<f64>()
                / 3.0
        };
        let one_fast = avg(1, 3, 8);
        let all_slow4 = avg(0, 4, 4);
        assert!(one_fast < all_slow4, "{one_fast} vs {all_slow4}");
    }

    #[test]
    fn respects_job_limit() {
        // With -j1 the build serializes: runtime ≈ total work on one core.
        let mut p1 = Pmake::new().files(160);
        p1.params.jobs = 1;
        let mut p4 = Pmake::new().files(160);
        p4.params.jobs = 4;
        let setup = RunSetup::new(AsymConfig::new(4, 0, 1), SchedPolicy::os_default(), 1);
        let t1 = p1.run(&setup).value;
        let t4 = p4.run(&setup).value;
        assert!(t1 > 2.5 * t4, "-j1 {t1} vs -j4 {t4}");
    }

    #[test]
    fn tree_costs_are_run_invariant() {
        // Different run seeds, same tree: total work identical, so
        // symmetric runtimes match almost exactly.
        let a = quick(AsymConfig::new(4, 0, 1), 10);
        let b = quick(AsymConfig::new(4, 0, 1), 99);
        assert!((a / b - 1.0).abs() < 0.02, "{a} vs {b}");
    }
}
