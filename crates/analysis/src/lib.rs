//! # asym-analysis
//!
//! A TSan-style concurrency checker over simulated-kernel traces.
//!
//! Every `asym-kernel` run emits a state-complete event stream. Each
//! check here is an online fold over one kernel's stream: it sees every
//! record once, in emission order, learns the run's outcome when the
//! stream closes, and keeps only the state its verdict needs.
//! [`AnalysisFold`] streams analyses 1–5 below and
//! [`hb::ConcurrencyFold`] the happens-before suite, fed live by
//! [`capture_stream`](asym_kernel::capture_stream) (how sweeps check
//! runs without buffering them) or by [`KernelTrace::replay`] of a
//! trace recorded with [`capture_traces`](asym_kernel::capture_traces);
//! [`analyze_trace`] and [`hb::check_concurrency`] are those replays.
//! The crate checks five trace properties:
//!
//! 1. **Lost-wakeup detection** — a thread that blocks forever on a
//!    wait queue whose only signal arrived *before* the block (the
//!    classic missed-signal bug), reported as
//!    [`ViolationKind::LostWakeup`].
//! 2. **Asymmetry invariant** — under
//!    [`SchedPolicy::asymmetry_aware`](asym_kernel::SchedPolicy), a fast
//!    core must never sit idle while a strictly slower core's run queue
//!    holds a thread allowed to run on the fast core (§3.4 of the
//!    paper); reported as [`ViolationKind::FastCoreIdle`]. Mid-run
//!    `SpeedChange` faults re-rank the cores, so the invariant is
//!    checked against the *post-change* fast set.
//! 3. **Core liveness** — no thread is ever dispatched to (or parked
//!    on) a core that a hotplug fault took offline, reported as
//!    [`ViolationKind::OfflineDispatch`]. The replay tracks
//!    `CoreOffline`/`CoreOnline` trace events, so the check follows the
//!    *dynamic* core set, not the static machine shape.
//! 4. **Forward progress** — a run the kernel's watchdog gave up on
//!    ([`RunOutcome::Stalled`]) is reported as
//!    [`ViolationKind::StalledRun`]; a trace that simply ends at its
//!    time limit is not.
//! 5. **Kill accounting** — every `ThreadKilled` record must be
//!    followed by a `Done` record retiring the victim; a kill the
//!    kernel never accounted for (the bug class where a fault-injected
//!    kill silently vanishes and the run's `lost_workers` undercounts)
//!    is reported as [`ViolationKind::DroppedKill`].
//!
//! Same-seed determinism is not a trace analysis: every cell the engine
//! runs reports its trace hash, tests compare those hashes across host
//! thread counts and cold and warm cache runs, and the golden-hash
//! tests pin them across commits.
//!
//! [`ViolationLog`] plugs analyses 1–5 into a sweep as a section check;
//! the `extra_check_matrix` spec of `asym-bench` runs them over every
//! paper workload on the paper's nine machine configurations, and
//! `asym_sweep --check` adds the happens-before suite in the same
//! pass. The [`fixtures`] module holds deliberately buggy programs
//! proving each detector fires.
//!
//! # Examples
//!
//! ```
//! use asym_analysis::{analyze_trace, fixtures};
//!
//! // A seeded missed-signal fixture: the notify fired before anyone
//! // waited, so the consumer blocks forever.
//! let trace = fixtures::missed_signal();
//! let violations = analyze_trace(&trace);
//! assert!(violations
//!     .iter()
//!     .any(|v| v.kind == asym_analysis::ViolationKind::LostWakeup));
//! ```

use asym_core::{CheckFold, TraceCheck};
use asym_kernel::{RunOutcome, SchedPolicy, ThreadId, TraceConsumer, TraceEvent, WaitId};
use asym_sim::{CoreId, CoreMask, MachineSpec, SimTime, Speed};
use hb::{slot, Lint, LintFold};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub mod fixtures;
pub mod hb;

pub use asym_kernel::{KernelTrace, TraceRecord};

/// The class of concurrency defect a [`Violation`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A thread blocked forever on a wait queue whose signal had
    /// already fired (missed-signal bug).
    LostWakeup,
    /// A fast core idled while a strictly slower core's run queue held
    /// work it could have taken (asymmetry-aware invariant breach).
    FastCoreIdle,
    /// A thread was dispatched to, or left parked on, a core that a
    /// hotplug fault had taken offline.
    OfflineDispatch,
    /// The kernel's watchdog declared the run livelocked: simulated time
    /// kept advancing but no work was retired for a full window.
    StalledRun,
    /// A thread was killed but never retired: the trace holds a
    /// `ThreadKilled` with no matching `Done`, so the kill was silently
    /// swallowed and lost-worker accounting undercounts.
    DroppedKill,
    /// Two plain accesses to the same shared word are unordered by the
    /// happens-before relation (vector-clock data race).
    DataRace,
    /// Under the asymmetry-aware policy, a thread was placed on a core
    /// that the speed ranking in force at that instant does not justify —
    /// an idle, eligible, strictly faster core existed (e.g. a dispatch
    /// used a ranking stale since a fault re-rank).
    StaleRanking,
    /// A speed change reordered the online-core speed ranking but no
    /// `Rerank` record confirmed it within the staleness bound — the
    /// kernel kept scheduling against a ranking it knew was stale.
    StaleRerank,
    /// The speed ranking reordered more often than the thrash limit
    /// allows within one window — re-ranking churn that defeats the
    /// hysteresis contract and migrates threads for no stable reason.
    RerankThrash,
    /// Under a fair-share policy, a runnable thread sat continuously
    /// queued past the starvation bound while the scheduler dispatched
    /// other threads on its core many times over — the fairness
    /// invariant (lowest-progress thread runs next) was not honoured.
    Starvation,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::LostWakeup => "lost-wakeup",
            ViolationKind::FastCoreIdle => "fast-core-idle",
            ViolationKind::OfflineDispatch => "offline-dispatch",
            ViolationKind::StalledRun => "stalled-run",
            ViolationKind::DroppedKill => "dropped-kill",
            ViolationKind::DataRace => "data-race",
            ViolationKind::StaleRanking => "stale-ranking",
            ViolationKind::StaleRerank => "stale-rerank",
            ViolationKind::RerankThrash => "rerank-thrash",
            ViolationKind::Starvation => "starvation",
        };
        f.write_str(s)
    }
}

/// One concurrency violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What kind of defect this is.
    pub kind: ViolationKind,
    /// The simulated time at which the defect manifested, when it has
    /// one (a stalled run that recorded nothing has none).
    pub time: Option<SimTime>,
    /// Human-readable description naming the threads and queues involved.
    pub message: String,
    /// The entity the violation is about (a shared object, core, or
    /// thread), normalized for stable ordering and deduplication.
    /// Empty when the defect has no single anchor object.
    pub object: String,
    /// The trace site(s) anchoring the violation, as `#index` record
    /// references (e.g. `"#120->#348"` for a racy access pair). Empty
    /// for whole-run properties.
    pub site: String,
}

impl Violation {
    /// A violation with no structured object/site anchors (whole-run
    /// properties and checks predating the happens-before engine).
    pub fn new(kind: ViolationKind, time: Option<SimTime>, message: impl Into<String>) -> Self {
        Violation {
            kind,
            time,
            message: message.into(),
            object: String::new(),
            site: String::new(),
        }
    }

    /// Sets the anchor object (builder style).
    pub fn with_object(mut self, object: impl Into<String>) -> Self {
        self.object = object.into();
        self
    }

    /// Sets the anchor trace site(s) (builder style).
    pub fn with_site(mut self, site: impl Into<String>) -> Self {
        self.site = site.into();
        self
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.time {
            Some(t) => write!(f, "[{}] at {}: {}", self.kind, t, self.message)?,
            None => write!(f, "[{}] {}", self.kind, self.message)?,
        }
        if !self.site.is_empty() {
            write!(f, " [{}]", self.site)?;
        }
        Ok(())
    }
}

/// Sorts violations into the canonical (kind, object, site) order and
/// drops duplicates, so reports are bounded and byte-identical no matter
/// how many host threads produced them. Violations without structured
/// anchors (both `object` and `site` empty) are deduplicated by message
/// instead, preserving distinct findings from the older checkers.
pub fn normalize_violations(mut violations: Vec<Violation>) -> Vec<Violation> {
    fn key(v: &Violation) -> (String, String, String, String) {
        let tail = if v.object.is_empty() && v.site.is_empty() {
            v.message.clone()
        } else {
            String::new()
        };
        (v.kind.to_string(), v.object.clone(), v.site.clone(), tail)
    }
    violations.sort_by(|a, b| key(a).cmp(&key(b)).then_with(|| a.message.cmp(&b.message)));
    violations.dedup_by(|a, b| key(a) == key(b));
    violations
}

/// Runs analyses 1–5 (lost wakeup, asymmetry invariant, core liveness,
/// forward progress, kill accounting) over one captured trace. A replay
/// of [`AnalysisFold`].
///
/// The returned violations are in a deterministic order: lost wakeups
/// by thread, then detection order for the replay-driven checks.
pub fn analyze_trace(trace: &KernelTrace) -> Vec<Violation> {
    let mut fold = AnalysisFold::new(&trace.machine, trace.policy);
    trace.replay(&mut fold);
    fold.finish()
}

/// Analyses 1–5 as one streaming consumer of a kernel's events, each
/// folded online in a single pass with dense per-thread, per-core and
/// per-queue state. Feed it with
/// [`capture_stream`](asym_kernel::capture_stream) (one fold per
/// kernel) or [`KernelTrace::replay`]; [`finish`](Self::finish) then
/// returns what [`analyze_trace`] reports for the same stream.
pub struct AnalysisFold(LintFold<TraceLints>);

impl AnalysisFold {
    /// A fold for one kernel managing `machine` under `policy`.
    pub fn new(machine: &MachineSpec, policy: SchedPolicy) -> Self {
        AnalysisFold(LintFold::new(TraceLints {
            wakeups: WakeupLint::default(),
            fast_idle: FastIdleLint::new(machine, policy),
            liveness: LivenessLint::new(machine),
            progress: ProgressLint::default(),
            kills: KillLint::default(),
        }))
    }

    /// The findings, analysis by analysis in the order listed above.
    pub fn finish(self) -> Vec<Violation> {
        self.0.finish()
    }
}

impl TraceConsumer for AnalysisFold {
    fn on_event(&mut self, time: SimTime, event: &TraceEvent) {
        self.0.on_event(time, event);
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>, budget_exhausted: bool) {
        self.0.on_close(outcome, budget_exhausted);
    }
}

/// The five analyses, in report order.
struct TraceLints {
    wakeups: WakeupLint,
    fast_idle: Option<FastIdleLint>,
    liveness: LivenessLint,
    progress: ProgressLint,
    kills: KillLint,
}

impl Lint for TraceLints {
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        self.wakeups.on_record(i, time, event);
        self.fast_idle.on_record(i, time, event);
        self.liveness.on_record(i, time, event);
        self.progress.on_record(i, time, event);
        self.kills.on_record(i, time, event);
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>) {
        self.wakeups.on_close(outcome);
        self.progress.on_close(outcome);
    }

    fn finish(self, labels: &[String]) -> Vec<Violation> {
        let mut violations = self.wakeups.finish(labels);
        violations.extend(self.fast_idle.finish(labels));
        violations.extend(self.liveness.finish(labels));
        violations.extend(self.progress.finish(labels));
        violations.extend(self.kills.finish(labels));
        violations
    }
}

/// Empties slot `i` of a dense table, if it exists.
fn clear<T>(v: &mut [Option<T>], i: usize) {
    if let Some(x) = v.get_mut(i) {
        *x = None;
    }
}

// ----------------------------------------------------------------------
// 1. Lost wakeups
// ----------------------------------------------------------------------

/// For runs that ended deadlocked: a thread still blocked on a wait
/// queue, where some signal on that queue fired before the block and
/// woke nobody, and no signal arrived after — the blocked thread missed
/// its wakeup.
#[derive(Default)]
struct WakeupLint {
    /// Each thread's open block — (thread, queue, record index, time) —
    /// until a wakeup or kill, by thread.
    blocked: Vec<Option<(ThreadId, WaitId, usize, SimTime)>>,
    /// The latest signal on each queue, by queue.
    last_signal: Vec<Option<usize>>,
    /// The earliest signal that woke nobody, by queue.
    first_empty: Vec<Option<usize>>,
    deadlocked: bool,
}

impl Lint for WakeupLint {
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::Wakeup { tid, .. } | TraceEvent::ThreadKilled { tid } => {
                clear(&mut self.blocked, tid.index());
            }
            TraceEvent::Block { tid, wait } => {
                *slot(&mut self.blocked, tid.index()) = Some((tid, wait, i, time));
            }
            TraceEvent::Signal { wait, woken, .. } => {
                *slot(&mut self.last_signal, wait.index()) = Some(i);
                let first = slot(&mut self.first_empty, wait.index());
                if woken == 0 && first.is_none() {
                    *first = Some(i);
                }
            }
            _ => {}
        }
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>) {
        self.deadlocked = matches!(outcome, Some(RunOutcome::Deadlock(_)));
    }

    fn finish(self, _labels: &[String]) -> Vec<Violation> {
        if !self.deadlocked {
            return Vec::new();
        }
        let at = |v: &[Option<usize>], wait: WaitId| v.get(wait.index()).copied().flatten();
        self.blocked
            .iter()
            .flatten()
            .filter(|&&(_, wait, block, _)| {
                at(&self.first_empty, wait).is_some_and(|s| s < block)
                    && at(&self.last_signal, wait).is_none_or(|s| s <= block)
            })
            .map(|&(tid, wait, _, time)| {
                Violation::new(
                    ViolationKind::LostWakeup,
                    Some(time),
                    format!(
                        "{tid} blocked forever on {wait}; the queue was signalled with no \
                         waiters before the block and never again after it"
                    ),
                )
            })
            .collect()
    }
}

// ----------------------------------------------------------------------
// 2. Asymmetry invariant: fast cores never idle over slower queued work
// ----------------------------------------------------------------------

/// Replayed scheduler state, for the lints that judge where threads
/// run and wait: current core speeds (re-ranked by `SpeedChange`),
/// hotplug state, each core's running thread and run queue, and each
/// thread's affinity mask.
pub(crate) struct SchedState {
    pub(crate) speeds: Vec<Speed>,
    pub(crate) online: Vec<bool>,
    running: Vec<Option<ThreadId>>,
    queues: Vec<Vec<ThreadId>>,
    /// Each thread's affinity mask, by thread.
    affinity: Vec<Option<CoreMask>>,
}

impl SchedState {
    /// `machine` at boot: nothing running, nothing queued.
    pub(crate) fn new(machine: &MachineSpec) -> Self {
        let n = machine.num_cores();
        SchedState {
            speeds: machine.speeds().to_vec(),
            online: vec![true; n],
            running: vec![None; n],
            queues: vec![Vec::new(); n],
            affinity: Vec::new(),
        }
    }

    /// Whether core `c` runs nothing and has nothing queued.
    pub(crate) fn is_idle(&self, c: usize) -> bool {
        self.running[c].is_none() && self.queues[c].is_empty()
    }

    pub(crate) fn affinity(&self, tid: ThreadId) -> Option<CoreMask> {
        self.affinity.get(tid.index()).copied().flatten()
    }

    /// Applies one record's effect.
    pub(crate) fn apply(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Spawn {
                tid,
                core,
                affinity: mask,
                ..
            } => {
                *slot(&mut self.affinity, tid.index()) = Some(mask);
                self.queues[core.0].push(tid);
            }
            TraceEvent::Wakeup { tid, core, .. } => self.queues[core.0].push(tid),
            TraceEvent::Dispatch { tid, core } => {
                remove_tid(&mut self.queues[core.0], tid);
                self.running[core.0] = Some(tid);
            }
            TraceEvent::Preempt { tid, core, .. } => {
                if self.running[core.0] == Some(tid) {
                    self.running[core.0] = None;
                }
                self.queues[core.0].push(tid);
            }
            TraceEvent::Steal { tid, from, to } => {
                remove_tid(&mut self.queues[from.0], tid);
                self.queues[to.0].push(tid);
            }
            TraceEvent::Block { tid, .. }
            | TraceEvent::Sleep { tid }
            | TraceEvent::Done { tid } => {
                for r in self.running.iter_mut().filter(|r| **r == Some(tid)) {
                    *r = None;
                }
            }
            TraceEvent::SetAffinity { tid, affinity: m }
            | TraceEvent::AffinityOverride { tid, affinity: m } => {
                // An override may precede the Spawn it rescued (spawn
                // placement widens before tracing); Spawn then records
                // the same post-widening mask, so overwriting is safe
                // in either order.
                *slot(&mut self.affinity, tid.index()) = Some(m);
            }
            TraceEvent::SpeedChange { core, speed } => self.speeds[core.0] = speed,
            TraceEvent::CoreOffline { core } => self.online[core.0] = false,
            TraceEvent::CoreOnline { core } => self.online[core.0] = true,
            // The kill is followed by a Done record that clears any
            // running slot; here we only unpark a killed runnable.
            TraceEvent::ThreadKilled { tid } => {
                for q in &mut self.queues {
                    remove_tid(q, tid);
                }
            }
            _ => {}
        }
    }
}

/// Removes the first occurrence of `tid` from a run queue.
fn remove_tid(queue: &mut Vec<ThreadId>, tid: ThreadId) {
    if let Some(pos) = queue.iter().position(|&t| t == tid) {
        queue.remove(pos);
    }
}

/// Replays the state-complete event stream and, at every point where
/// simulated time advances, asserts that no core is idle (nothing
/// running, empty queue) while a strictly slower core's run queue holds
/// a thread whose affinity admits the idle core. Only applies to
/// asymmetry-aware traces — the stock policy makes no such promise
/// (that is the paper's point).
///
/// Dynamic asymmetry is honoured: `SpeedChange` faults re-rank the
/// cores mid-replay (the invariant always compares *current* speeds),
/// and offline cores are exempt on both sides — an offlined fast core
/// owes nobody anything, and work stranded on an offline core is the
/// core-liveness checker's business.
struct FastIdleLint {
    sched: SchedState,
    /// Whether (idle core, queued thread) was reported, by core then
    /// thread.
    reported: Vec<Vec<bool>>,
    cur_time: SimTime,
    violations: Vec<Violation>,
}

impl FastIdleLint {
    /// The lint, when `policy` makes the promise it checks.
    fn new(machine: &MachineSpec, policy: SchedPolicy) -> Option<Self> {
        policy.is_asymmetry_aware().then(|| FastIdleLint {
            sched: SchedState::new(machine),
            reported: vec![Vec::new(); machine.num_cores()],
            cur_time: SimTime::ZERO,
            violations: Vec::new(),
        })
    }

    /// Checks the state we are leaving, which persisted for a nonzero
    /// interval ending now.
    fn check_interval(&mut self) {
        let s = &self.sched;
        let n = s.speeds.len();
        for fast in (0..n).filter(|&c| s.online[c] && s.is_idle(c)) {
            for slow in (0..n).filter(|&c| s.online[c] && s.speeds[c] < s.speeds[fast]) {
                for &tid in &s.queues[slow] {
                    let eligible = s.affinity(tid).is_some_and(|m| m.contains(CoreId(fast)));
                    let reported = slot(&mut self.reported[fast], tid.index());
                    if eligible && !*reported {
                        *reported = true;
                        self.violations.push(Violation::new(
                            ViolationKind::FastCoreIdle,
                            Some(self.cur_time),
                            format!(
                                "core{fast} (speed {:.3}) idle while {tid} sat queued \
                                 on slower core{slow} (speed {:.3}) under the \
                                 asymmetry-aware policy",
                                s.speeds[fast].factor(),
                                s.speeds[slow].factor()
                            ),
                        ));
                    }
                }
            }
        }
    }
}

impl Lint for FastIdleLint {
    fn on_record(&mut self, _i: usize, time: SimTime, event: &TraceEvent) {
        if time > self.cur_time {
            self.check_interval();
            self.cur_time = time;
        }
        self.sched.apply(event);
    }

    fn finish(self, _labels: &[String]) -> Vec<Violation> {
        self.violations
    }
}

// ----------------------------------------------------------------------
// 3. Core liveness: offline cores never receive or hold work
// ----------------------------------------------------------------------

/// Replays hotplug state and asserts no thread is ever dispatched to,
/// spawned on, woken onto, or stolen onto a core that is currently
/// offline, and that taking a core offline leaves nothing behind on it.
/// Applies to every policy: graceful degradation is a kernel contract,
/// not a scheduling choice.
struct LivenessLint {
    online: Vec<bool>,
    /// What the replay believes sits on each core (running + queued).
    occupants: Vec<Vec<ThreadId>>,
    /// Whether a thread was reported parked on an offline core, by core
    /// then thread.
    reported_parked: Vec<Vec<bool>>,
    cur_time: SimTime,
    violations: Vec<Violation>,
}

impl LivenessLint {
    fn new(machine: &MachineSpec) -> Self {
        let n = machine.num_cores();
        LivenessLint {
            online: vec![true; n],
            occupants: vec![Vec::new(); n],
            reported_parked: vec![Vec::new(); n],
            cur_time: SimTime::ZERO,
            violations: Vec::new(),
        }
    }

    fn land(&mut self, tid: ThreadId, core: CoreId, what: &str, time: SimTime) {
        if !self.online[core.0] {
            self.violations.push(Violation::new(
                ViolationKind::OfflineDispatch,
                Some(time),
                format!("{tid} {what} offline core{}", core.0),
            ));
        }
        self.occupants[core.0].push(tid);
    }
}

impl Lint for LivenessLint {
    fn on_record(&mut self, _i: usize, time: SimTime, event: &TraceEvent) {
        if time > self.cur_time {
            // The kernel drains a core in the same instant it traces the
            // offline; anything still parked there once time advances
            // was stranded.
            for (c, occ) in self.occupants.iter().enumerate() {
                if self.online[c] {
                    continue;
                }
                for &tid in occ {
                    let reported = slot(&mut self.reported_parked[c], tid.index());
                    if !*reported {
                        *reported = true;
                        self.violations.push(Violation::new(
                            ViolationKind::OfflineDispatch,
                            Some(self.cur_time),
                            format!("{tid} left parked on offline core{c}"),
                        ));
                    }
                }
            }
            self.cur_time = time;
        }
        match *event {
            TraceEvent::CoreOffline { core } => {
                self.online[core.0] = false;
            }
            TraceEvent::CoreOnline { core } => {
                self.online[core.0] = true;
            }
            TraceEvent::Spawn { tid, core, .. } => self.land(tid, core, "spawned on", time),
            TraceEvent::Wakeup { tid, core, .. } => self.land(tid, core, "woken onto", time),
            TraceEvent::Steal { tid, from, to } => {
                remove_tid(&mut self.occupants[from.0], tid);
                self.land(tid, to, "stolen onto", time);
            }
            TraceEvent::Dispatch { tid, core } if !self.online[core.0] => {
                self.violations.push(Violation::new(
                    ViolationKind::OfflineDispatch,
                    Some(time),
                    format!("{tid} dispatched on offline core{}", core.0),
                ));
            }
            TraceEvent::Block { tid, .. }
            | TraceEvent::Sleep { tid }
            | TraceEvent::Done { tid }
            | TraceEvent::ThreadKilled { tid } => {
                for c in &mut self.occupants {
                    remove_tid(c, tid);
                }
            }
            _ => {}
        }
    }

    fn finish(self, _labels: &[String]) -> Vec<Violation> {
        self.violations
    }
}

// ----------------------------------------------------------------------
// 4. Forward progress: the watchdog never has to give up
// ----------------------------------------------------------------------

/// A trace whose run the kernel's livelock watchdog abandoned
/// ([`RunOutcome::Stalled`]) is itself a violation: simulated time kept
/// advancing but no work was retired for a full watchdog window. Runs
/// that merely hit a `run_until` limit or sim-time budget are not
/// flagged.
#[derive(Default)]
struct ProgressLint {
    /// The time of the latest record.
    last: Option<SimTime>,
    stalled: bool,
}

impl Lint for ProgressLint {
    fn on_record(&mut self, _i: usize, time: SimTime, _event: &TraceEvent) {
        self.last = Some(time);
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>) {
        self.stalled = outcome == Some(RunOutcome::Stalled);
    }

    fn finish(self, _labels: &[String]) -> Vec<Violation> {
        if !self.stalled {
            return Vec::new();
        }
        vec![Violation::new(
            ViolationKind::StalledRun,
            self.last,
            "the watchdog declared the run livelocked: time advanced but no \
             work was retired for a full window",
        )]
    }
}

// ----------------------------------------------------------------------
// 5. Kill accounting: every kill retires its victim
// ----------------------------------------------------------------------

/// The kernel's kill path is a two-record contract: `ThreadKilled { tid }`
/// immediately followed by `Done { tid }`, which is what drives
/// `threads_killed` and the workloads' `lost_workers` accounting. A
/// `ThreadKilled` with no subsequent `Done` for the same thread means
/// the kill was swallowed — the victim vanished without being retired
/// and every downstream count is off by one.
#[derive(Default)]
struct KillLint {
    /// Kills no `Done` has retired yet, in kill order.
    pending: Vec<(ThreadId, SimTime)>,
}

impl Lint for KillLint {
    fn on_record(&mut self, _i: usize, time: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::ThreadKilled { tid } => self.pending.push((tid, time)),
            TraceEvent::Done { tid } if !self.pending.is_empty() => {
                self.pending.retain(|&(t, _)| t != tid);
            }
            _ => {}
        }
    }

    fn finish(self, _labels: &[String]) -> Vec<Violation> {
        self.pending
            .into_iter()
            .map(|(tid, time)| {
                Violation::new(
                    ViolationKind::DroppedKill,
                    Some(time),
                    format!(
                        "{tid} was killed but never retired: no Done record follows the \
                         kill, so the victim was silently dropped from accounting"
                    ),
                )
            })
            .collect()
    }
}

/// Formats a violation list: a per-kind summary line followed by one
/// bullet per violation, or `"clean"`.
pub fn render_violations(violations: &[Violation]) -> String {
    if violations.is_empty() {
        return "clean".to_string();
    }
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    for v in violations {
        *kinds.entry(v.kind.to_string()).or_insert(0) += 1;
    }
    let summary: Vec<String> = kinds.iter().map(|(k, n)| format!("{n} {k}")).collect();
    let mut out = summary.join(", ");
    for v in violations {
        out.push_str("\n    - ");
        out.push_str(&v.to_string());
    }
    out
}

// ----------------------------------------------------------------------
// Sweep integration
// ----------------------------------------------------------------------

/// A shared, thread-safe violation counter that plugs analyses 1–5
/// into a sweep as a section check.
///
/// [`ViolationLog::check`] returns a [`TraceCheck`] for
/// `ResilientOptions::trace_check`: every kernel of every attempt —
/// failed attempts included — streams through an [`AnalysisFold`],
/// findings are printed to stderr with the cell's seed and the kernel's
/// policy and core speeds, and their number accumulates in the log. Clones share the
/// same counter, so one log can watch every section of a multi-spec
/// sweep — including cells executing on parallel host threads.
#[derive(Clone, Debug, Default)]
pub struct ViolationLog {
    count: Arc<AtomicUsize>,
}

impl ViolationLog {
    /// An empty log.
    pub fn new() -> Self {
        ViolationLog::default()
    }

    /// Total violations recorded so far, across all clones.
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// A section check that analyzes every kernel's event stream and
    /// records what the analyses find.
    pub fn check(&self) -> TraceCheck {
        let log = self.clone();
        Arc::new(move |machine, policy, seed| {
            Box::new(LoggedFold {
                fold: AnalysisFold::new(machine, policy),
                machine: machine.clone(),
                policy,
                seed,
                log: log.clone(),
            })
        })
    }
}

/// One kernel's [`AnalysisFold`], reporting into a [`ViolationLog`].
struct LoggedFold {
    fold: AnalysisFold,
    machine: MachineSpec,
    policy: SchedPolicy,
    seed: u64,
    log: ViolationLog,
}

impl TraceConsumer for LoggedFold {
    fn on_event(&mut self, time: SimTime, event: &TraceEvent) {
        self.fold.on_event(time, event);
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>, budget_exhausted: bool) {
        self.fold.on_close(outcome, budget_exhausted);
    }
}

impl CheckFold for LoggedFold {
    fn findings(self: Box<Self>) -> Vec<String> {
        let found = self.fold.finish();
        if !found.is_empty() {
            self.log.count.fetch_add(found.len(), Ordering::Relaxed);
            eprintln!(
                "  [VIOLATION] seed {} {} on {}: {}",
                self.seed,
                self.policy,
                self.machine,
                render_violations(&found)
            );
        }
        found.iter().map(ToString::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_kernel::{
        capture_stream, capture_traces, FnThread, Kernel, SchedPolicy, SpawnOptions, Step,
        TraceHasher, TraceRecord,
    };
    use asym_sim::{Cycles, MachineSpec, Speed};

    fn capture_one(f: impl FnOnce()) -> KernelTrace {
        let ((), mut traces) = capture_traces(f);
        assert_eq!(traces.len(), 1, "expected exactly one kernel");
        traces.remove(0)
    }

    #[test]
    fn clean_compute_run_has_no_violations() {
        let trace = capture_one(|| {
            let machine = MachineSpec::asymmetric(1, 3, Speed::fraction_of_full(8));
            let mut k = Kernel::new(machine, SchedPolicy::asymmetry_aware(), 11);
            for t in 0..6 {
                let mut left = 8u32;
                k.spawn(
                    FnThread::new(format!("w{t}"), move |_cx| {
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
            assert_eq!(k.run(), RunOutcome::AllDone);
        });
        let violations = analyze_trace(&trace);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn missed_signal_fixture_trips_lost_wakeup() {
        let trace = fixtures::missed_signal();
        assert!(matches!(trace.outcome, Some(RunOutcome::Deadlock(1))));
        let violations = analyze_trace(&trace);
        assert!(
            violations
                .iter()
                .any(|v| v.kind == ViolationKind::LostWakeup),
            "no lost wakeup reported: {violations:?}"
        );
    }

    #[test]
    fn hand_built_fast_idle_trace_trips_invariant() {
        // Synthetic trace: a thread sits queued on slow core1 while fast
        // core0 idles across a time advance. Built by rewriting a real
        // captured trace so machine/policy metadata stay authentic.
        let ((), traces) = capture_traces(|| {
            let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
            let mut k = Kernel::new(machine, SchedPolicy::asymmetry_aware(), 5);
            let mut burst = 1u32;
            k.spawn(
                FnThread::new("w", move |_cx| {
                    if burst == 0 {
                        Step::Done
                    } else {
                        burst -= 1;
                        Step::Compute(Cycles::new(1_000))
                    }
                }),
                SpawnOptions::new(),
            );
            k.run();
        });
        let mut trace = traces.into_iter().next().expect("one kernel");
        let first = trace.records().next().expect("trace has records");
        let tid = match first.event {
            TraceEvent::Spawn { tid, .. } => tid,
            other => panic!("first event should be Spawn, was {other:?}"),
        };
        // Rewrite history: the thread is parked on the slow core and
        // nobody dispatches it while the fast core idles.
        trace.set_records(vec![
            TraceRecord {
                time: SimTime::ZERO,
                event: TraceEvent::Spawn {
                    tid,
                    core: CoreId(1),
                    affinity: CoreMask::ALL,
                    parent: None,
                },
            },
            TraceRecord {
                time: SimTime::from_nanos(2_000_000),
                event: TraceEvent::Dispatch {
                    tid,
                    core: CoreId(1),
                },
            },
        ]);
        let violations = analyze_trace(&trace);
        assert!(
            violations
                .iter()
                .any(|v| v.kind == ViolationKind::FastCoreIdle),
            "no fast-core-idle reported: {violations:?}"
        );
    }

    #[test]
    fn stalled_fixture_trips_forward_progress() {
        let trace = fixtures::stalled_run();
        let violations = analyze_trace(&trace);
        assert!(
            violations
                .iter()
                .any(|v| v.kind == ViolationKind::StalledRun),
            "no stalled-run reported: {violations:?}"
        );
    }

    #[test]
    fn time_limited_runs_are_not_stalled() {
        let trace = capture_one(|| {
            let machine = MachineSpec::symmetric(1, Speed::FULL);
            let mut k = Kernel::new(machine, SchedPolicy::os_default(), 6);
            k.spawn(
                FnThread::new("napper", |_cx| {
                    Step::Sleep(asym_sim::SimDuration::from_micros(100))
                }),
                SpawnOptions::new(),
            );
            // No watchdog: the caller-chosen window just elapses.
            k.run_until(SimTime::ZERO + asym_sim::SimDuration::from_millis(2));
        });
        assert_eq!(trace.outcome, Some(RunOutcome::TimeLimit));
        let violations = analyze_trace(&trace);
        assert!(
            !violations
                .iter()
                .any(|v| v.kind == ViolationKind::StalledRun),
            "time-limit misreported as stall: {violations:?}"
        );
    }

    #[test]
    fn swallowed_kill_fixture_trips_kill_accounting() {
        let trace = fixtures::swallowed_kill();
        let violations = analyze_trace(&trace);
        assert!(
            violations
                .iter()
                .any(|v| v.kind == ViolationKind::DroppedKill),
            "no dropped-kill reported: {violations:?}"
        );
    }

    #[test]
    fn real_kills_are_retired_and_kill_accounting_stays_quiet() {
        use asym_sim::{FaultKind, FaultPlan, SimDuration};
        // A genuine fault-injected kill: the kernel retires the victim
        // with a Done record, so the checker must find nothing.
        let trace = capture_one(|| {
            let machine = MachineSpec::symmetric(2, Speed::FULL);
            let mut k = Kernel::new(machine, SchedPolicy::os_default(), 21);
            let mut plan = FaultPlan::new();
            plan.inject(
                SimTime::ZERO + SimDuration::from_millis(1),
                FaultKind::KillThread { victim: 0 },
            );
            k.set_fault_plan(&plan);
            for t in 0..3 {
                let mut left = 6u32;
                k.spawn(
                    FnThread::new(format!("w{t}"), move |_cx| {
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
            assert_eq!(k.run(), RunOutcome::AllDone);
            assert_eq!(k.stats().threads_killed, 1);
        });
        assert!(trace
            .records()
            .any(|r| matches!(r.event, TraceEvent::ThreadKilled { .. })));
        let violations = analyze_trace(&trace);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn offline_dispatch_fixture_trips_core_liveness() {
        let trace = fixtures::offline_core_dispatch();
        let violations = analyze_trace(&trace);
        assert!(
            violations
                .iter()
                .any(|v| v.kind == ViolationKind::OfflineDispatch),
            "no offline-dispatch reported: {violations:?}"
        );
    }

    #[test]
    fn faulted_run_with_graceful_degradation_stays_clean() {
        use asym_sim::{FaultKind, FaultPlan, SimDuration};
        // Hotplug the slow core away mid-run and throttle the fast one:
        // the kernel must degrade gracefully and the checkers — including
        // the dynamic asymmetry invariant and core liveness — must find
        // nothing to complain about.
        let trace = capture_one(|| {
            let machine = MachineSpec::asymmetric(1, 3, Speed::fraction_of_full(2));
            let mut k = Kernel::new(machine, SchedPolicy::asymmetry_aware(), 12);
            let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
            let mut plan = FaultPlan::new();
            plan.inject(at(2), FaultKind::CoreOffline { core: CoreId(1) });
            plan.inject(
                at(3),
                FaultKind::SetSpeed {
                    core: CoreId(0),
                    speed: Speed::fraction_of_full(4),
                },
            );
            plan.inject(at(5), FaultKind::CoreOnline { core: CoreId(1) });
            k.set_fault_plan(&plan);
            for t in 0..6 {
                let mut left = 10u32;
                k.spawn(
                    FnThread::new(format!("w{t}"), move |_cx| {
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
            assert_eq!(k.run(), RunOutcome::AllDone);
        });
        assert!(trace
            .records()
            .any(|r| matches!(r.event, TraceEvent::CoreOffline { .. })));
        let violations = analyze_trace(&trace);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    /// The streamed stable hash of every kernel `f` creates, in creation
    /// order: what the cell engine reports and compares per cell.
    fn trace_hashes(f: impl FnOnce()) -> Vec<u64> {
        let ((), hashers) = capture_stream(|_, _| TraceHasher::new(), f);
        hashers.iter().map(TraceHasher::finish).collect()
    }

    /// Four threads computing seeded random bursts on a 2f-2s/4 machine.
    fn jittered_run(seed: u64) {
        let machine = MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(4));
        let mut k = Kernel::new(machine, SchedPolicy::os_default(), seed);
        for t in 0..4 {
            let mut left = 5u32;
            k.spawn(
                FnThread::new(format!("w{t}"), move |cx| {
                    if left == 0 {
                        Step::Done
                    } else {
                        left -= 1;
                        let jitter = cx.rng().range(1_000, 50_000);
                        Step::Compute(Cycles::new(jitter))
                    }
                }),
                SpawnOptions::new(),
            );
        }
        k.run();
    }

    #[test]
    fn determinism_check_passes_for_seeded_program() {
        let first = trace_hashes(|| jittered_run(99));
        assert_eq!(first.len(), 1);
        assert_eq!(first, trace_hashes(|| jittered_run(99)));
    }

    #[test]
    fn determinism_check_catches_divergence() {
        // A different seed per run: the hashes must tell the traces apart.
        assert_ne!(
            trace_hashes(|| jittered_run(1)),
            trace_hashes(|| jittered_run(2))
        );
    }
}
