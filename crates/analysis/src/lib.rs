//! # asym-analysis
//!
//! A lockdep/TSan-style concurrency checker over simulated-kernel traces.
//!
//! Every `asym-kernel` run can be recorded with
//! [`capture_traces`]; the resulting
//! [`KernelTrace`] is a state-complete event stream. This crate replays
//! such streams and checks eight properties:
//!
//! 1. **Deadlock detection** — a live wait-for graph over mutex
//!    ownership; a cycle at the moment a thread blocks is reported as
//!    [`ViolationKind::Deadlock`].
//! 2. **Lock-order checking** (lockdep) — every ordered pair of locks
//!    held together is recorded; observing both `(A, B)` and `(B, A)`
//!    is a *potential* deadlock even if this run got lucky, reported as
//!    [`ViolationKind::LockOrderInversion`].
//! 3. **Lost-wakeup detection** — a thread that blocks forever on a
//!    non-lock wait queue whose only signal arrived *before* the block
//!    (classic missed-signal condvar bug), reported as
//!    [`ViolationKind::LostWakeup`].
//! 4. **Asymmetry invariant** — under
//!    [`SchedPolicy::asymmetry_aware`](asym_kernel::SchedPolicy), a fast
//!    core must never sit idle while a strictly slower core's run queue
//!    holds a thread allowed to run on the fast core (§3.4 of the
//!    paper); reported as [`ViolationKind::FastCoreIdle`]. Mid-run
//!    `SpeedChange` faults re-rank the cores, so the invariant is
//!    checked against the *post-change* fast set.
//! 5. **Core liveness** — no thread is ever dispatched to (or parked
//!    on) a core that a hotplug fault took offline, reported as
//!    [`ViolationKind::OfflineDispatch`]. The replay tracks
//!    `CoreOffline`/`CoreOnline` trace events, so the check follows the
//!    *dynamic* core set, not the static machine shape.
//! 6. **Forward progress** — a run the kernel's watchdog gave up on
//!    ([`RunOutcome::Stalled`]) is reported as
//!    [`ViolationKind::StalledRun`]; a trace that simply ends at its
//!    time limit is not.
//! 7. **Kill accounting** — every `ThreadKilled` record must be
//!    followed by a `Done` record retiring the victim; a kill the
//!    kernel never accounted for (the bug class where a fault-injected
//!    kill silently vanishes and the run's `lost_workers` undercounts)
//!    is reported as [`ViolationKind::DroppedKill`].
//! 8. **Determinism** — running the same seeded program twice must
//!    produce byte-identical traces
//!    ([`KernelTrace::stable_hash`]); any divergence is
//!    [`ViolationKind::NonDeterminism`].
//!
//! [`check_workload`] packages all eight for one workload run, and the
//! `asym-check` binary in `asym-bench` sweeps every workload across the
//! paper's nine machine configurations. The [`fixtures`] module holds
//! deliberately buggy programs proving each detector fires.
//!
//! # Examples
//!
//! ```
//! use asym_analysis::{analyze_trace, fixtures};
//!
//! // A seeded AB/BA lock-order fixture: no deadlock this run, but the
//! // inversion is latent and lockdep flags it.
//! let trace = fixtures::lock_order_inversion();
//! let violations = analyze_trace(&trace);
//! assert!(violations
//!     .iter()
//!     .any(|v| v.kind == asym_analysis::ViolationKind::LockOrderInversion));
//! ```

use asym_core::{RunResult, RunSetup, Workload};
use asym_kernel::{capture_traces, RunOutcome, ThreadId, TraceEvent, WaitId};
use asym_sim::{CoreId, CoreMask, SimTime};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub mod fixtures;
pub mod hb;

pub use asym_kernel::{KernelTrace, TraceRecord};

/// The class of concurrency defect a [`Violation`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A cycle in the wait-for graph: the run is wedged.
    Deadlock,
    /// Two locks were taken in both orders across the run — a potential
    /// deadlock even when this particular schedule survived.
    LockOrderInversion,
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
    /// The same seeded program produced two different traces.
    NonDeterminism,
    /// Two plain accesses to the same shared word are unordered by the
    /// happens-before relation (vector-clock data race).
    DataRace,
    /// A shared object accessed by multiple lock-holding threads has no
    /// common lock protecting every access (Eraser-style lock-set
    /// violation).
    InconsistentLockSet,
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
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::LockOrderInversion => "lock-order-inversion",
            ViolationKind::LostWakeup => "lost-wakeup",
            ViolationKind::FastCoreIdle => "fast-core-idle",
            ViolationKind::OfflineDispatch => "offline-dispatch",
            ViolationKind::StalledRun => "stalled-run",
            ViolationKind::DroppedKill => "dropped-kill",
            ViolationKind::NonDeterminism => "non-determinism",
            ViolationKind::DataRace => "data-race",
            ViolationKind::InconsistentLockSet => "inconsistent-lock-set",
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
    /// one (lock-order inversions and non-determinism are properties of
    /// the whole run).
    pub time: Option<SimTime>,
    /// Human-readable description naming the threads and queues involved.
    pub message: String,
    /// The entity the violation is about (a shared object, lock, core,
    /// or thread), normalized for stable ordering and deduplication.
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

/// Runs analyses 1–7 (deadlock, lock order, lost wakeup, asymmetry
/// invariant, core liveness, forward progress, kill accounting) over
/// one captured trace.
///
/// The returned violations are in a deterministic order: detection
/// order for the replay-driven checks, then lost wakeups by thread.
pub fn analyze_trace(trace: &KernelTrace) -> Vec<Violation> {
    let locks = lock_wait_ids(trace);
    let mut violations = Vec::new();
    violations.extend(detect_deadlocks(trace, &locks));
    violations.extend(check_lock_order(trace, &locks));
    violations.extend(detect_lost_wakeups(trace, &locks));
    violations.extend(check_asymmetry_invariant(trace));
    violations.extend(check_core_liveness(trace));
    violations.extend(check_forward_progress(trace));
    violations.extend(check_kill_accounting(trace));
    violations
}

/// The wait queues that back mutexes: every queue named by a
/// `LockAcquire` anywhere in the trace.
fn lock_wait_ids(trace: &KernelTrace) -> HashSet<WaitId> {
    trace
        .records()
        .filter_map(|r| match r.event {
            TraceEvent::LockAcquire { lock, .. } => Some(lock),
            _ => None,
        })
        .collect()
}

// ----------------------------------------------------------------------
// 1. Deadlock detection: live wait-for graph
// ----------------------------------------------------------------------

/// Replays lock ownership and lock waits; whenever a thread blocks on a
/// held lock, walks owner→waits-on edges looking for a cycle back to
/// the blocking thread. Each distinct cycle (as a thread set) is
/// reported once.
fn detect_deadlocks(trace: &KernelTrace, locks: &HashSet<WaitId>) -> Vec<Violation> {
    let mut owner: HashMap<WaitId, ThreadId> = HashMap::new();
    let mut waiting: HashMap<ThreadId, WaitId> = HashMap::new();
    let mut reported: HashSet<Vec<ThreadId>> = HashSet::new();
    let mut violations = Vec::new();

    for r in trace.records() {
        match r.event {
            TraceEvent::LockAcquire { tid, lock, .. } => {
                owner.insert(lock, tid);
                waiting.remove(&tid);
            }
            TraceEvent::LockRelease { lock, .. } => {
                owner.remove(&lock);
            }
            TraceEvent::Wakeup { tid, .. } => {
                waiting.remove(&tid);
            }
            // A killed thread stops waiting; any lock it owned stays
            // taken, which later blockers will report as a deadlock.
            TraceEvent::ThreadKilled { tid } => {
                waiting.remove(&tid);
            }
            TraceEvent::Block { tid, wait } if locks.contains(&wait) => {
                waiting.insert(tid, wait);
                if let Some(cycle) = find_cycle(tid, &waiting, &owner) {
                    let mut key = cycle.clone();
                    key.sort_unstable();
                    if reported.insert(key) {
                        let chain: Vec<String> = cycle
                            .iter()
                            .map(|t| format!("{t} waits for {}", waiting[t]))
                            .collect();
                        violations.push(Violation {
                            object: String::new(),
                            site: String::new(),
                            kind: ViolationKind::Deadlock,
                            time: Some(r.time),
                            message: format!(
                                "wait-for cycle among {} threads: {}",
                                cycle.len(),
                                chain.join(", ")
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    violations
}

/// Follows `start`'s waits-on → owned-by chain; returns the member
/// threads if it closes back on `start`.
fn find_cycle(
    start: ThreadId,
    waiting: &HashMap<ThreadId, WaitId>,
    owner: &HashMap<WaitId, ThreadId>,
) -> Option<Vec<ThreadId>> {
    let mut path = vec![start];
    let mut seen: HashSet<ThreadId> = HashSet::from([start]);
    let mut cur = start;
    loop {
        let lock = waiting.get(&cur)?;
        let next = *owner.get(lock)?;
        if next == start {
            return Some(path);
        }
        if !seen.insert(next) {
            // Cycle that does not include `start`; it was (or will be)
            // reported when one of its own members blocked.
            return None;
        }
        path.push(next);
        cur = next;
    }
}

// ----------------------------------------------------------------------
// 2. Lockdep-style lock-order checking
// ----------------------------------------------------------------------

/// Records, for every lock acquisition *or blocking attempt*, the
/// ordered pairs (held, wanted); a pair observed in both directions is
/// a potential deadlock (as in Linux lockdep, the dependency is formed
/// the moment a thread reaches for the inner lock, acquired or not).
/// Each unordered lock pair is reported once, with both witness times.
fn check_lock_order(trace: &KernelTrace, locks: &HashSet<WaitId>) -> Vec<Violation> {
    let mut held: HashMap<ThreadId, Vec<WaitId>> = HashMap::new();
    // (outer, inner) -> first time the order was observed.
    let mut orders: HashMap<(WaitId, WaitId), SimTime> = HashMap::new();
    let mut reported: HashSet<(WaitId, WaitId)> = HashSet::new();
    let mut violations = Vec::new();

    let mut record_attempt = |held: &HashMap<ThreadId, Vec<WaitId>>,
                              tid: ThreadId,
                              lock: WaitId,
                              time: SimTime,
                              violations: &mut Vec<Violation>| {
        let Some(stack) = held.get(&tid) else { return };
        for &outer in stack {
            if outer == lock {
                continue;
            }
            orders.entry((outer, lock)).or_insert(time);
            if let Some(&earlier) = orders.get(&(lock, outer)) {
                let key = (outer.min(lock), outer.max(lock));
                if reported.insert(key) {
                    violations.push(Violation {
                        object: String::new(),
                        site: String::new(),
                        kind: ViolationKind::LockOrderInversion,
                        time: None,
                        message: format!(
                            "{outer} and {lock} are taken in both orders ({lock} before \
                             {outer} at {earlier}, {outer} before {lock} at {time}): \
                             potential deadlock"
                        ),
                    });
                }
            }
        }
    };

    for r in trace.records() {
        match r.event {
            TraceEvent::LockAcquire { tid, lock, .. } => {
                record_attempt(&held, tid, lock, r.time, &mut violations);
                held.entry(tid).or_default().push(lock);
            }
            TraceEvent::Block { tid, wait } if locks.contains(&wait) => {
                record_attempt(&held, tid, wait, r.time, &mut violations);
            }
            TraceEvent::LockRelease { tid, lock } => {
                if let Some(stack) = held.get_mut(&tid) {
                    if let Some(pos) = stack.iter().rposition(|&l| l == lock) {
                        stack.remove(pos);
                    }
                }
            }
            _ => {}
        }
    }
    violations
}

// ----------------------------------------------------------------------
// 3. Lost-wakeup detection
// ----------------------------------------------------------------------

/// For traces that ended deadlocked: a thread still blocked on a
/// *non-lock* queue, where some signal on that queue fired before the
/// block and woke nobody, and no signal arrived after — the blocked
/// thread missed its wakeup. (Lock waits are excluded: a thread stuck
/// on a mutex is the deadlock detector's business.)
fn detect_lost_wakeups(trace: &KernelTrace, locks: &HashSet<WaitId>) -> Vec<Violation> {
    if !matches!(trace.outcome, Some(RunOutcome::Deadlock(_))) {
        return Vec::new();
    }
    // Thread -> (wait queue, index and time of the Block record).
    let mut blocked: BTreeMap<ThreadId, (WaitId, usize, SimTime)> = BTreeMap::new();
    // Wait queue -> record indices of empty (woken == 0) / all signals.
    let mut empty_signals: HashMap<WaitId, Vec<usize>> = HashMap::new();
    let mut any_signals: HashMap<WaitId, Vec<usize>> = HashMap::new();

    for (i, r) in trace.records().enumerate() {
        match r.event {
            TraceEvent::Block { tid, wait } => {
                blocked.insert(tid, (wait, i, r.time));
            }
            TraceEvent::Wakeup { tid, .. } | TraceEvent::ThreadKilled { tid } => {
                blocked.remove(&tid);
            }
            TraceEvent::Signal { wait, woken, .. } => {
                any_signals.entry(wait).or_default().push(i);
                if woken == 0 {
                    empty_signals.entry(wait).or_default().push(i);
                }
            }
            _ => {}
        }
    }

    let mut violations = Vec::new();
    for (tid, (wait, block_idx, block_time)) in blocked {
        if locks.contains(&wait) {
            continue;
        }
        let signalled_after = any_signals
            .get(&wait)
            .is_some_and(|v| v.iter().any(|&i| i > block_idx));
        let missed_before = empty_signals
            .get(&wait)
            .is_some_and(|v| v.iter().any(|&i| i < block_idx));
        if missed_before && !signalled_after {
            let time = block_time;
            violations.push(Violation {
                object: String::new(),
                site: String::new(),
                kind: ViolationKind::LostWakeup,
                time: Some(time),
                message: format!(
                    "{tid} blocked forever on {wait}; the queue was signalled with no \
                     waiters before the block and never again after it"
                ),
            });
        }
    }
    violations
}

// ----------------------------------------------------------------------
// 4. Asymmetry invariant: fast cores never idle over slower queued work
// ----------------------------------------------------------------------

/// Replayed scheduler state of one core, for the lints that track
/// who runs and who waits where.
pub(crate) struct CoreState {
    pub(crate) running: Option<ThreadId>,
    pub(crate) queue: Vec<ThreadId>,
}

impl CoreState {
    /// `n` cores with nothing running and nothing queued.
    pub(crate) fn idle(n: usize) -> Vec<CoreState> {
        (0..n)
            .map(|_| CoreState {
                running: None,
                queue: Vec::new(),
            })
            .collect()
    }
}

/// Removes the first occurrence of `tid` from a run queue.
pub(crate) fn remove_tid(queue: &mut Vec<ThreadId>, tid: ThreadId) {
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
fn check_asymmetry_invariant(trace: &KernelTrace) -> Vec<Violation> {
    if !trace.policy.is_asymmetry_aware() {
        return Vec::new();
    }
    let mut speeds = trace.machine.speeds().to_vec();
    let mut online = vec![true; speeds.len()];
    let mut cores = CoreState::idle(speeds.len());
    let mut affinity: HashMap<ThreadId, CoreMask> = HashMap::new();
    let mut reported: HashSet<(usize, ThreadId)> = HashSet::new();
    let mut violations = Vec::new();
    let mut cur_time = SimTime::ZERO;

    for r in trace.records() {
        if r.time > cur_time {
            // The state we are leaving persisted for a nonzero interval:
            // check the invariant held across it.
            for fast in 0..cores.len() {
                if !online[fast] || cores[fast].running.is_some() || !cores[fast].queue.is_empty() {
                    continue;
                }
                for slow in 0..cores.len() {
                    if !online[slow] || speeds[slow] >= speeds[fast] {
                        continue;
                    }
                    for &tid in &cores[slow].queue {
                        let eligible = affinity.get(&tid).is_some_and(|m| m.contains(CoreId(fast)));
                        if eligible && reported.insert((fast, tid)) {
                            violations.push(Violation {
                                object: String::new(),
                                site: String::new(),
                                kind: ViolationKind::FastCoreIdle,
                                time: Some(cur_time),
                                message: format!(
                                    "core{fast} (speed {:.3}) idle while {tid} sat queued \
                                     on slower core{slow} (speed {:.3}) under the \
                                     asymmetry-aware policy",
                                    speeds[fast].factor(),
                                    speeds[slow].factor()
                                ),
                            });
                        }
                    }
                }
            }
            cur_time = r.time;
        }
        match r.event {
            TraceEvent::Spawn {
                tid,
                core,
                affinity: mask,
                ..
            } => {
                affinity.insert(tid, mask);
                cores[core.0].queue.push(tid);
            }
            TraceEvent::Dispatch { tid, core } => {
                remove_tid(&mut cores[core.0].queue, tid);
                cores[core.0].running = Some(tid);
            }
            TraceEvent::Preempt { tid, core, .. } => {
                if cores[core.0].running == Some(tid) {
                    cores[core.0].running = None;
                }
                cores[core.0].queue.push(tid);
            }
            TraceEvent::Steal { tid, from, to } => {
                remove_tid(&mut cores[from.0].queue, tid);
                cores[to.0].queue.push(tid);
            }
            TraceEvent::Wakeup { tid, core, .. } => {
                cores[core.0].queue.push(tid);
            }
            TraceEvent::Block { tid, .. }
            | TraceEvent::Sleep { tid }
            | TraceEvent::Done { tid } => {
                for c in &mut cores {
                    if c.running == Some(tid) {
                        c.running = None;
                    }
                }
            }
            TraceEvent::SetAffinity { tid, affinity: m }
            | TraceEvent::AffinityOverride { tid, affinity: m } => {
                // An override may precede the Spawn it rescued (spawn
                // placement widens before tracing); Spawn then records
                // the same post-widening mask, so overwriting is safe
                // in either order.
                affinity.insert(tid, m);
            }
            TraceEvent::SpeedChange { core, speed } => {
                speeds[core.0] = speed;
            }
            TraceEvent::CoreOffline { core } => {
                online[core.0] = false;
            }
            TraceEvent::CoreOnline { core } => {
                online[core.0] = true;
            }
            // The kill is followed by a Done record that clears any
            // running slot; here we only unpark a killed runnable.
            TraceEvent::ThreadKilled { tid } => {
                for c in &mut cores {
                    remove_tid(&mut c.queue, tid);
                }
            }
            _ => {}
        }
    }
    violations
}

// ----------------------------------------------------------------------
// 5. Core liveness: offline cores never receive or hold work
// ----------------------------------------------------------------------

/// Replays hotplug state and asserts no thread is ever dispatched to,
/// spawned on, woken onto, or stolen onto a core that is currently
/// offline, and that taking a core offline leaves nothing behind on it.
/// Applies to every policy: graceful degradation is a kernel contract,
/// not a scheduling choice.
fn check_core_liveness(trace: &KernelTrace) -> Vec<Violation> {
    let n = trace.machine.num_cores();
    let mut online = vec![true; n];
    // What the replay believes sits on each core (running + queued).
    let mut occupants: Vec<Vec<ThreadId>> = vec![Vec::new(); n];
    let mut reported_parked: HashSet<(usize, ThreadId)> = HashSet::new();
    let mut cur_time = SimTime::ZERO;
    let mut violations = Vec::new();

    let land = |occupants: &mut Vec<Vec<ThreadId>>,
                online: &[bool],
                tid: ThreadId,
                core: CoreId,
                what: &str,
                time: SimTime,
                violations: &mut Vec<Violation>| {
        if !online[core.0] {
            violations.push(Violation {
                object: String::new(),
                site: String::new(),
                kind: ViolationKind::OfflineDispatch,
                time: Some(time),
                message: format!("{tid} {what} offline core{}", core.0),
            });
        }
        occupants[core.0].push(tid);
    };

    for r in trace.records() {
        if r.time > cur_time {
            // The kernel drains a core in the same instant it traces the
            // offline; anything still parked there once time advances
            // was stranded.
            for (c, occ) in occupants.iter().enumerate() {
                if online[c] {
                    continue;
                }
                for &tid in occ {
                    if reported_parked.insert((c, tid)) {
                        violations.push(Violation {
                            object: String::new(),
                            site: String::new(),
                            kind: ViolationKind::OfflineDispatch,
                            time: Some(cur_time),
                            message: format!("{tid} left parked on offline core{c}"),
                        });
                    }
                }
            }
            cur_time = r.time;
        }
        match r.event {
            TraceEvent::CoreOffline { core } => {
                online[core.0] = false;
            }
            TraceEvent::CoreOnline { core } => {
                online[core.0] = true;
            }
            TraceEvent::Spawn { tid, core, .. } => {
                land(
                    &mut occupants,
                    &online,
                    tid,
                    core,
                    "spawned on",
                    r.time,
                    &mut violations,
                );
            }
            TraceEvent::Wakeup { tid, core, .. } => {
                land(
                    &mut occupants,
                    &online,
                    tid,
                    core,
                    "woken onto",
                    r.time,
                    &mut violations,
                );
            }
            TraceEvent::Steal { tid, from, to } => {
                remove_tid(&mut occupants[from.0], tid);
                land(
                    &mut occupants,
                    &online,
                    tid,
                    to,
                    "stolen onto",
                    r.time,
                    &mut violations,
                );
            }
            TraceEvent::Dispatch { tid, core } if !online[core.0] => {
                violations.push(Violation {
                    object: String::new(),
                    site: String::new(),
                    kind: ViolationKind::OfflineDispatch,
                    time: Some(r.time),
                    message: format!("{tid} dispatched on offline core{}", core.0),
                });
            }
            TraceEvent::Block { tid, .. }
            | TraceEvent::Sleep { tid }
            | TraceEvent::Done { tid }
            | TraceEvent::ThreadKilled { tid } => {
                for c in &mut occupants {
                    remove_tid(c, tid);
                }
            }
            _ => {}
        }
    }
    violations
}

// ----------------------------------------------------------------------
// 6. Forward progress: the watchdog never has to give up
// ----------------------------------------------------------------------

/// A trace whose run the kernel's livelock watchdog abandoned
/// ([`RunOutcome::Stalled`]) is itself a violation: simulated time kept
/// advancing but no work was retired for a full watchdog window. Runs
/// that merely hit a `run_until` limit or sim-time budget are not
/// flagged.
fn check_forward_progress(trace: &KernelTrace) -> Vec<Violation> {
    if trace.outcome != Some(RunOutcome::Stalled) {
        return Vec::new();
    }
    vec![Violation {
        object: String::new(),
        site: String::new(),
        kind: ViolationKind::StalledRun,
        time: trace.records().last().map(|r| r.time),
        message: "the watchdog declared the run livelocked: time advanced but no \
                  work was retired for a full window"
            .to_string(),
    }]
}

// ----------------------------------------------------------------------
// 7. Kill accounting: every kill retires its victim
// ----------------------------------------------------------------------

/// The kernel's kill path is a two-record contract: `ThreadKilled { tid }`
/// immediately followed by `Done { tid }`, which is what drives
/// `threads_killed` and the workloads' `lost_workers` accounting. A
/// `ThreadKilled` with no subsequent `Done` for the same thread means
/// the kill was swallowed — the victim vanished without being retired
/// and every downstream count is off by one.
fn check_kill_accounting(trace: &KernelTrace) -> Vec<Violation> {
    let mut violations = Vec::new();
    let records = trace.records_vec();
    for (i, r) in records.iter().enumerate() {
        let TraceEvent::ThreadKilled { tid } = r.event else {
            continue;
        };
        let retired = records[i + 1..]
            .iter()
            .any(|later| matches!(later.event, TraceEvent::Done { tid: t } if t == tid));
        if !retired {
            violations.push(Violation {
                object: String::new(),
                site: String::new(),
                kind: ViolationKind::DroppedKill,
                time: Some(r.time),
                message: format!(
                    "{tid} was killed but never retired: no Done record follows the \
                     kill, so the victim was silently dropped from accounting"
                ),
            });
        }
    }
    violations
}

// ----------------------------------------------------------------------
// 8. Determinism
// ----------------------------------------------------------------------

/// Compares the kernel traces of two runs of the same seeded program;
/// any difference in kernel count or per-kernel stable hash is a
/// [`ViolationKind::NonDeterminism`] violation.
pub fn compare_runs(label: &str, first: &[KernelTrace], second: &[KernelTrace]) -> Vec<Violation> {
    let mut violations = Vec::new();
    if first.len() != second.len() {
        violations.push(Violation {
            object: String::new(),
            site: String::new(),
            kind: ViolationKind::NonDeterminism,
            time: None,
            message: format!(
                "{label}: replay created {} kernels, original created {}",
                second.len(),
                first.len()
            ),
        });
        return violations;
    }
    for (i, (a, b)) in first.iter().zip(second).enumerate() {
        if a.stable_hash() != b.stable_hash() {
            violations.push(Violation {
                object: String::new(),
                site: String::new(),
                kind: ViolationKind::NonDeterminism,
                time: None,
                message: format!(
                    "{label}: kernel #{i} trace hash {:#018x} != replay hash {:#018x} \
                     ({} vs {} events)",
                    a.stable_hash(),
                    b.stable_hash(),
                    a.num_records(),
                    b.num_records()
                ),
            });
        }
    }
    violations
}

/// Runs `f` twice under trace capture and checks the two runs produced
/// identical traces. Returns the first run's traces plus any
/// determinism violations.
pub fn check_determinism<R>(
    label: &str,
    mut f: impl FnMut() -> R,
) -> (Vec<KernelTrace>, Vec<Violation>) {
    let (_, first) = capture_traces(&mut f);
    let (_, second) = capture_traces(&mut f);
    let violations = compare_runs(label, &first, &second);
    (first, violations)
}

// ----------------------------------------------------------------------
// Workload harness
// ----------------------------------------------------------------------

/// The complete checker report for one workload run.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// `workload @ config / policy / seed`, for display.
    pub label: String,
    /// Number of kernels the run created.
    pub kernels: usize,
    /// Total trace events analyzed (first run).
    pub events: usize,
    /// Every violation from all eight analyses.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// `true` when no analysis found anything.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `workload` once under `setup` (twice, for the determinism
/// check) and applies all eight analyses to the captured traces.
pub fn check_workload(workload: &dyn Workload, setup: &RunSetup) -> CheckReport {
    let label = format!(
        "{} @ {} / {} / seed {}",
        workload.name(),
        setup.config,
        setup.policy,
        setup.seed
    );
    let (traces, mut violations) = check_determinism(&label, || workload.run(setup));
    for trace in &traces {
        violations.extend(analyze_trace(trace));
    }
    CheckReport {
        label,
        kernels: traces.len(),
        events: traces
            .iter()
            .map(asym_kernel::KernelTrace::num_records)
            .sum(),
        violations,
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

/// A shared, thread-safe violation counter that plugs the trace
/// checkers into a sweep as a per-run observer.
///
/// [`ViolationLog::observer`] returns a closure suitable for
/// `ResilientOptions::observe_traces`: every captured kernel trace is
/// run through [`analyze_trace`], findings are printed to stderr with
/// the offending setup, and the total count accumulates in the log.
/// Clones share the same counter, so one log can watch every section
/// of a multi-spec sweep — including cells executing on parallel host
/// threads.
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

    /// A per-run observer that analyzes every captured trace and
    /// records what the checkers find.
    pub fn observer(
        &self,
    ) -> impl Fn(&RunSetup, &RunResult, &[KernelTrace]) + Send + Sync + 'static {
        let count = self.count.clone();
        move |setup, _result, traces| {
            for trace in traces {
                let found = analyze_trace(trace);
                if !found.is_empty() {
                    count.fetch_add(found.len(), Ordering::Relaxed);
                    eprintln!(
                        "  [VIOLATION] seed {} @ {}: {}",
                        setup.seed,
                        setup.config,
                        render_violations(&found)
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_kernel::{FnThread, Kernel, SchedPolicy, SpawnOptions, Step, TraceRecord};
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
    fn deadlock_fixture_trips_deadlock_detector() {
        let trace = fixtures::ab_ba_deadlock();
        assert!(matches!(trace.outcome, Some(RunOutcome::Deadlock(2))));
        let violations = analyze_trace(&trace);
        assert!(
            violations.iter().any(|v| v.kind == ViolationKind::Deadlock),
            "no deadlock reported: {violations:?}"
        );
        // The same trace also exhibits the order inversion.
        assert!(violations
            .iter()
            .any(|v| v.kind == ViolationKind::LockOrderInversion));
    }

    #[test]
    fn staggered_inversion_trips_lockdep_only() {
        let trace = fixtures::lock_order_inversion();
        assert_eq!(trace.outcome, Some(RunOutcome::AllDone));
        let violations = analyze_trace(&trace);
        assert!(violations
            .iter()
            .any(|v| v.kind == ViolationKind::LockOrderInversion));
        assert!(
            !violations.iter().any(|v| v.kind == ViolationKind::Deadlock),
            "the staggered fixture completes; only the latent inversion should fire"
        );
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

    #[test]
    fn determinism_check_passes_for_seeded_program() {
        let (traces, violations) = check_determinism("seeded", || {
            let machine = MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(4));
            let mut k = Kernel::new(machine, SchedPolicy::os_default(), 99);
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
        });
        assert_eq!(traces.len(), 1);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn determinism_check_catches_divergence() {
        use std::cell::Cell;
        let call = Cell::new(0u64);
        let (_, violations) = check_determinism("diverging", || {
            call.set(call.get() + 1);
            let machine = MachineSpec::symmetric(2, Speed::FULL);
            // Different seed per call: the traces must differ.
            let mut k = Kernel::new(machine, SchedPolicy::os_default(), call.get());
            let mut left = 3u32;
            k.spawn(
                FnThread::new("w", move |cx| {
                    if left == 0 {
                        Step::Done
                    } else {
                        left -= 1;
                        Step::Compute(Cycles::new(cx.rng().range(1_000, 9_000)))
                    }
                }),
                SpawnOptions::new(),
            );
            k.run();
        });
        assert!(violations
            .iter()
            .any(|v| v.kind == ViolationKind::NonDeterminism));
    }
}
