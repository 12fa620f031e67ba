//! The happens-before engine: vector clocks, race detection, and
//! scheduler-policy lints over one kernel's event stream.
//!
//! Every checker here is an online fold: it sees each record once, in
//! emission order, and keeps only the state its verdict needs.
//! [`ConcurrencyFold`] bundles all of them behind one
//! [`TraceConsumer`], so a sweep can check a run while it executes
//! without ever buffering its trace. The `check_*` functions over a
//! captured [`KernelTrace`] are replays of the same folds.
//!
//! # The happens-before relation
//!
//! The engine keeps a vector clock per simulated thread and derives
//! ordering edges from the synchronization events the kernel and
//! `asym-sync` primitives emit:
//!
//! | Trace events | Edge |
//! |---|---|
//! | every event of one thread | program order (implicit in the clocks) |
//! | `Spawn { parent }` → child's first event | spawn edge |
//! | `Done` → `ThreadJoin { by, of }` | exit→join edge |
//! | `Signal { waker }` → the `Wakeup`s it causes | signal→wakeup |
//! | `BarrierArrive` → the releasing arrival | barrier epoch |
//! | `QueuePush` → later `QueuePop` | message hand-off |
//! | `SharedAtomic` store/rmw → later load/rmw of the word | acquire/release |
//!
//! Accumulating object clocks (queues and atomics join every publisher)
//! over-approximate the per-item relation, which biases the race
//! detector toward *fewer* reports — the right direction for a checker
//! whose clean verdict gates CI.
//!
//! All state is indexed densely: thread clocks by [`ThreadId`], object
//! clocks by [`WaitId`], atomic clocks and race state by [`ShareId`] and
//! word (the ids are sequential per kernel). Acquires join object clocks
//! into the thread clock in place, and releases join the thread clock
//! into the object clock in place, so no clock is copied per event. The
//! explicit edge list is built only by [`happens_before`]; the race
//! check derives the same ordering from the clocks alone.
//!
//! # Race detection
//!
//! Plain [`SharedRead`](TraceEvent::SharedRead) /
//! [`SharedWrite`](TraceEvent::SharedWrite) accesses (from `asym-sync`'s
//! `SimShared`) are checked FastTrack-style: each (object, word) keeps the
//! last read and write epoch per thread, and an access racing any
//! conflicting epoch not covered by the accessor's clock is reported as
//! [`ViolationKind::DataRace`] with both trace sites. Each word is
//! reported once. When several kept epochs conflict, the report cites
//! the earliest of them (lowest record index), so the witness does not
//! depend on iteration order.
//!
//! # Policy lints
//!
//! [`check_stale_ranking`] replays scheduler state and asserts that under
//! the asymmetry-aware policy every placement (spawn or wakeup) lands on
//! the fastest idle eligible core *by the speed ranking in force at that
//! instant* — a dispatch using a ranking stale since a `SpeedChange`
//! re-rank is reported as [`ViolationKind::StaleRanking`] citing both the
//! re-rank site and the offending placement.
//!
//! [`check_rerank_hygiene`] lints the dynamic-asymmetry trace contract
//! itself: a `SpeedChange` that reorders the online-core speed ranking
//! must be confirmed by a `Rerank` record within
//! [`RERANK_STALENESS_BOUND`] ([`ViolationKind::StaleRerank`]), and more
//! than [`RERANK_THRASH_LIMIT`] re-ranks inside one
//! [`RERANK_THRASH_WINDOW`] is churn the environment hysteresis should
//! have damped ([`ViolationKind::RerankThrash`]).

use crate::{KernelTrace, SchedState, Violation, ViolationKind};
use asym_kernel::{
    AtomicOp, PolicyKind, RunOutcome, SchedPolicy, ShareId, ThreadId, TraceConsumer, TraceEvent,
    WaitId, WakeReason,
};
use asym_sim::{CoreId, CoreMask, MachineSpec, SimDuration, SimTime, Speed};
use std::collections::VecDeque;

// ----------------------------------------------------------------------
// Online lints
// ----------------------------------------------------------------------

/// One online checker over a kernel's record stream. Records arrive
/// numbered in emission order, the run's outcome arrives once the
/// stream closes, and findings that name shared objects are rendered by
/// [`finish`](Lint::finish), once every label is known.
pub(crate) trait Lint {
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent);

    /// The kernel's final outcome. Default: ignored.
    fn on_close(&mut self, outcome: Option<RunOutcome>) {
        let _ = outcome;
    }

    /// The findings, given the shared-object labels.
    fn finish(self, labels: &[String]) -> Vec<Violation>;
}

/// A lint that does not apply to this trace's policy.
impl<L: Lint> Lint for Option<L> {
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        if let Some(lint) = self {
            lint.on_record(i, time, event);
        }
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>) {
        if let Some(lint) = self {
            lint.on_close(outcome);
        }
    }

    fn finish(self, labels: &[String]) -> Vec<Violation> {
        self.map_or_else(Vec::new, |lint| lint.finish(labels))
    }
}

/// Adapts a [`Lint`] to a [`TraceConsumer`]: numbers the records and
/// collects shared-object labels.
pub(crate) struct LintFold<L> {
    lint: L,
    next: usize,
    labels: Vec<String>,
}

impl<L: Lint> LintFold<L> {
    pub(crate) fn new(lint: L) -> Self {
        LintFold {
            lint,
            next: 0,
            labels: Vec::new(),
        }
    }

    /// Replays a captured trace through `lint` — the buffered entry
    /// points are exactly this.
    pub(crate) fn replay(trace: &KernelTrace, lint: L) -> Self {
        let mut fold = LintFold::new(lint);
        trace.replay(&mut fold);
        fold
    }

    pub(crate) fn finish(self) -> Vec<Violation> {
        self.lint.finish(&self.labels)
    }
}

impl<L: Lint> TraceConsumer for LintFold<L> {
    fn on_event(&mut self, time: SimTime, event: &TraceEvent) {
        self.lint.on_record(self.next, time, event);
        self.next += 1;
    }

    fn on_shared_label(&mut self, label: &str) {
        self.labels.push(label.to_string());
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>, _budget_exhausted: bool) {
        self.lint.on_close(outcome);
    }
}

/// The slot for dense index `i`, growing `v` with defaults on demand.
pub(crate) fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// Names a shared object for diagnostics: `obj3 ('apache.inbox')` when
/// the registration label is known, bare `obj3` otherwise.
fn obj_name(labels: &[String], obj: ShareId) -> String {
    match labels.get(obj.index()) {
        Some(label) => format!("{obj} ('{label}')"),
        None => format!("{obj}"),
    }
}

// ----------------------------------------------------------------------
// Vector clocks
// ----------------------------------------------------------------------

/// A vector clock over thread indices (grown on demand). Deliberately
/// not `Clone`: every join and snapshot works in place.
#[derive(Default)]
struct VClock(Vec<u32>);

impl VClock {
    fn get(&self, t: usize) -> u32 {
        self.0.get(t).copied().unwrap_or(0)
    }

    fn tick(&mut self, t: usize) {
        self.0[t] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, &theirs) in self.0.iter_mut().zip(&other.0) {
            *mine = (*mine).max(theirs);
        }
    }

    /// Does this clock cover thread `t` up to `clock`?
    fn covers(&self, t: usize, clock: u32) -> bool {
        self.get(t) >= clock
    }
}

/// Thread `t`'s clock, sized to hold its own component.
fn thread_clock(vc: &mut Vec<VClock>, t: usize) -> &mut VClock {
    let clock = slot(vc, t);
    if clock.0.len() <= t {
        clock.0.resize(t + 1, 0);
    }
    clock
}

/// Joins thread `src`'s clock into thread `dst`'s, in place.
fn join_threads(vc: &mut Vec<VClock>, dst: usize, src: usize) {
    thread_clock(vc, dst);
    thread_clock(vc, src);
    if dst < src {
        let (lo, hi) = vc.split_at_mut(src);
        lo[dst].join(&hi[0]);
    } else if src < dst {
        let (lo, hi) = vc.split_at_mut(dst);
        hi[0].join(&lo[src]);
    }
}

// ----------------------------------------------------------------------
// The happens-before graph
// ----------------------------------------------------------------------

/// Why two trace records are ordered (the label on an [`HbEdge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// `Spawn` → the child's first event.
    Spawn,
    /// A dead thread's `Done` → the `ThreadJoin` observing it.
    Join,
    /// `Signal` → the `Wakeup` it caused.
    Signal,
    /// A barrier arrival → the arrival that released the epoch.
    Barrier,
    /// `QueuePush` → `QueuePop` of the same queue.
    Queue,
    /// Atomic store/rmw → later load/rmw of the same (object, word).
    Atomic,
}

/// One cross-thread ordering edge between two records of a trace.
///
/// Both endpoints are indices into `trace.records`; by construction
/// `src < dst`, which (with the trace's non-decreasing timestamps) makes
/// the full relation acyclic and time-consistent — the property the HB
/// engine's regression tests pin down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbEdge {
    /// The earlier record (the release/publish side).
    pub src: usize,
    /// The later record (the acquire/observe side).
    pub dst: usize,
    /// The synchronization that justifies the edge.
    pub kind: EdgeKind,
}

/// The result of one happens-before replay: the cross-thread edge list
/// and every data race the vector-clock pass found.
#[derive(Debug, Clone, Default)]
pub struct HbAnalysis {
    /// Every cross-thread ordering edge, in discovery order.
    pub edges: Vec<HbEdge>,
    /// Data-race violations (plain accesses unordered by the relation).
    pub races: Vec<Violation>,
}

/// The bookkeeping only the explicit edge list needs; the race check
/// runs without it.
#[derive(Default)]
struct EdgeLog {
    edges: Vec<HbEdge>,
    /// Each spawn record whose child has not produced an event yet, by
    /// child thread.
    pending_spawn: Vec<Option<usize>>,
    /// Each finished thread's `Done` record, by thread.
    done_at: Vec<Option<usize>>,
    /// The arrivals of each barrier's current epoch, by barrier.
    arrivals: Vec<Vec<usize>>,
}

fn log_edge(log: &mut Option<EdgeLog>, src: usize, dst: usize, kind: EdgeKind) {
    if let Some(log) = log {
        log.edges.push(HbEdge { src, dst, kind });
    }
}

/// An object clock: the join of every publisher's clock, and the record
/// of the latest publish (the edge source of the next acquire).
struct Published {
    clock: VClock,
    src: usize,
}

/// Release: joins `own` into the object clock and moves its edge source
/// to record `i`.
fn publish(object: &mut Option<Published>, own: &VClock, i: usize) {
    let p = object.get_or_insert_with(|| Published {
        clock: VClock::default(),
        src: i,
    });
    p.clock.join(own);
    p.src = i;
}

/// Acquire: joins the object clock, if anything was published, into
/// `own`.
fn acquire(
    own: &mut VClock,
    object: Option<&Published>,
    i: usize,
    kind: EdgeKind,
    log: &mut Option<EdgeLog>,
) {
    if let Some(p) = object {
        own.join(&p.clock);
        log_edge(log, p.src, i, kind);
    }
}

/// The latest `Signal` on a wait queue.
#[derive(Default)]
struct LastSignal {
    idx: usize,
    /// Whether a simulated thread sent it (only those carry a clock).
    from_thread: bool,
    /// The waker's clock at the signal.
    clock: VClock,
}

/// One plain access kept by the race detector.
#[derive(Clone, Copy)]
struct Epoch {
    tid: usize,
    /// The accessor's own clock component at the access.
    clock: u32,
    idx: usize,
    time: SimTime,
}

/// Per-(object, word) race-detector state: the last plain write and
/// read of every thread that accessed the word.
#[derive(Default)]
struct WordState {
    writes: Vec<Epoch>,
    reads: Vec<Epoch>,
    /// A race on this word was reported (one report per word), so the
    /// word needs no more tracking.
    reported: bool,
}

/// The earliest epoch in `epochs` of another thread that `me` does not
/// cover.
fn earliest_unordered(epochs: &[Epoch], t: usize, me: &VClock) -> Option<Epoch> {
    epochs
        .iter()
        .filter(|e| e.tid != t && !me.covers(e.tid, e.clock))
        .min_by_key(|e| e.idx)
        .copied()
}

/// Keeps `e` as its thread's latest epoch in `epochs`.
fn keep_epoch(epochs: &mut Vec<Epoch>, e: Epoch) {
    match epochs.iter_mut().find(|x| x.tid == e.tid) {
        Some(x) => *x = e,
        None => epochs.push(e),
    }
}

/// A detected race, rendered once labels are known.
struct Race {
    obj: ShareId,
    word: u32,
    earlier: Epoch,
    earlier_kind: &'static str,
    later: Epoch,
    later_kind: &'static str,
}

impl Race {
    fn render(&self, labels: &[String]) -> Violation {
        let Race {
            obj,
            word,
            earlier: e,
            earlier_kind,
            later: l,
            later_kind,
        } = self;
        let object = obj_name(labels, *obj);
        Violation::new(
            ViolationKind::DataRace,
            Some(l.time),
            format!(
                "word {word} of {object}: {earlier_kind} by tid{} at #{} ({}) and {later_kind} \
                 by tid{} at #{} ({}) are unordered — no happens-before path connects the \
                 accesses",
                e.tid, e.idx, e.time, l.tid, l.idx, l.time
            ),
        )
        .with_object(object)
        .with_site(format!("#{}->#{}", e.idx, l.idx))
    }
}

/// The thread a record belongs to (its author for publishes, its
/// subject for scheduler events): the clock it ticks and the child
/// whose spawn edge it completes.
fn subject_of(event: &TraceEvent) -> Option<ThreadId> {
    match *event {
        TraceEvent::Spawn { parent, .. } => parent,
        TraceEvent::Signal { waker, .. } => waker,
        TraceEvent::Dispatch { tid, .. }
        | TraceEvent::Migrate { tid, .. }
        | TraceEvent::Preempt { tid, .. }
        | TraceEvent::Steal { tid, .. }
        | TraceEvent::Wakeup { tid, .. }
        | TraceEvent::Block { tid, .. }
        | TraceEvent::Sleep { tid }
        | TraceEvent::Done { tid }
        | TraceEvent::BarrierArrive { tid, .. }
        | TraceEvent::QueuePush { tid, .. }
        | TraceEvent::QueuePop { tid, .. }
        | TraceEvent::ThreadKilled { tid }
        | TraceEvent::SharedRead { tid, .. }
        | TraceEvent::SharedWrite { tid, .. }
        | TraceEvent::SharedAtomic { tid, .. } => Some(tid),
        TraceEvent::ThreadJoin { by, .. } => Some(by),
        TraceEvent::SetAffinity { .. }
        | TraceEvent::AffinityOverride { .. }
        | TraceEvent::SpeedChange { .. }
        | TraceEvent::Rerank { .. }
        | TraceEvent::CoreOffline { .. }
        | TraceEvent::CoreOnline { .. } => None,
    }
}

/// The vector-clock engine and FastTrack-style race detector.
#[derive(Default)]
struct HbLint {
    /// Thread clocks, by thread.
    vc: Vec<VClock>,
    /// Release clocks of queues, by wait queue.
    queues: Vec<Option<Published>>,
    /// Atomic publish clocks, by object then word.
    atomics: Vec<Vec<Option<Published>>>,
    /// Each barrier's joined arrivals of the current epoch.
    barriers: Vec<VClock>,
    /// The latest signal per wait queue.
    signals: Vec<Option<LastSignal>>,
    /// The wait queue each blocked thread is parked on, by thread.
    blocked_on: Vec<Option<WaitId>>,
    /// Race-detector state, by object then word.
    words: Vec<Vec<WordState>>,
    races: Vec<Race>,
    /// Present only when the caller wants the edge list.
    edges: Option<EdgeLog>,
}

impl HbLint {
    fn new(with_edges: bool) -> Self {
        HbLint {
            edges: with_edges.then(EdgeLog::default),
            ..HbLint::default()
        }
    }

    /// A plain access: checks it against the word's kept epochs, then
    /// keeps it.
    fn access(
        &mut self,
        i: usize,
        time: SimTime,
        tid: ThreadId,
        obj: ShareId,
        word: u32,
        write: bool,
    ) {
        let t = tid.index();
        let me = thread_clock(&mut self.vc, t);
        let state = slot(slot(&mut self.words, obj.index()), word as usize);
        if state.reported {
            return;
        }
        // A read races only with unordered writes; a write with any
        // unordered access.
        let mut conflict = earliest_unordered(&state.writes, t, me).map(|e| (e, "write"));
        if write {
            if let Some(r) = earliest_unordered(&state.reads, t, me) {
                if conflict.is_none_or(|(w, _)| r.idx < w.idx) {
                    conflict = Some((r, "read"));
                }
            }
        }
        let now = Epoch {
            tid: t,
            clock: me.get(t),
            idx: i,
            time,
        };
        if let Some((earlier, earlier_kind)) = conflict {
            state.reported = true;
            self.races.push(Race {
                obj,
                word,
                earlier,
                earlier_kind,
                later: now,
                later_kind: if write { "write" } else { "read" },
            });
        } else if write {
            keep_epoch(&mut state.writes, now);
        } else {
            keep_epoch(&mut state.reads, now);
        }
    }

    fn into_analysis(self, labels: &[String]) -> HbAnalysis {
        HbAnalysis {
            races: self.races.iter().map(|r| r.render(labels)).collect(),
            edges: self.edges.map(|log| log.edges).unwrap_or_default(),
        }
    }
}

impl Lint for HbLint {
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        let subject = subject_of(event);
        // Complete a pending spawn edge at the child's first event.
        if let (Some(t), Some(log)) = (subject, self.edges.as_mut()) {
            if let Some(src) = log.pending_spawn.get_mut(t.index()).and_then(Option::take) {
                if src < i {
                    log.edges.push(HbEdge {
                        src,
                        dst: i,
                        kind: EdgeKind::Spawn,
                    });
                }
            }
        }

        match *event {
            TraceEvent::Spawn { tid, parent, .. } => {
                // The child inherits the parent's history.
                if let Some(p) = parent {
                    join_threads(&mut self.vc, tid.index(), p.index());
                }
                if let Some(log) = self.edges.as_mut() {
                    *slot(&mut log.pending_spawn, tid.index()) = Some(i);
                }
            }
            TraceEvent::Block { tid, wait } => {
                *slot(&mut self.blocked_on, tid.index()) = Some(wait);
            }
            TraceEvent::Wakeup { tid, reason, .. } => {
                let wait = self.blocked_on.get_mut(tid.index()).and_then(Option::take);
                if let (WakeReason::Signal, Some(wait)) = (reason, wait) {
                    if let Some(Some(sig)) = self.signals.get(wait.index()) {
                        if sig.from_thread {
                            thread_clock(&mut self.vc, tid.index()).join(&sig.clock);
                            log_edge(&mut self.edges, sig.idx, i, EdgeKind::Signal);
                        }
                    }
                }
            }
            TraceEvent::Signal { waker, wait, .. } => {
                let sig =
                    slot(&mut self.signals, wait.index()).get_or_insert_with(LastSignal::default);
                sig.idx = i;
                sig.from_thread = waker.is_some();
                if let Some(w) = waker {
                    sig.clock
                        .0
                        .clone_from(&thread_clock(&mut self.vc, w.index()).0);
                }
            }
            TraceEvent::Done { tid } => {
                if let Some(log) = self.edges.as_mut() {
                    *slot(&mut log.done_at, tid.index()) = Some(i);
                }
                if let Some(b) = self.blocked_on.get_mut(tid.index()) {
                    *b = None;
                }
            }
            TraceEvent::ThreadJoin { by, of } => {
                join_threads(&mut self.vc, by.index(), of.index());
                let done = self
                    .edges
                    .as_ref()
                    .and_then(|log| log.done_at.get(of.index()).copied().flatten());
                if let Some(src) = done {
                    log_edge(&mut self.edges, src, i, EdgeKind::Join);
                }
            }
            TraceEvent::BarrierArrive {
                tid,
                barrier,
                released,
            } => {
                let own = thread_clock(&mut self.vc, tid.index());
                let epoch = slot(&mut self.barriers, barrier.index());
                if released {
                    // The releasing arrival acquires every earlier
                    // arrival of the epoch; waiters then inherit it
                    // through the releaser's Signal→Wakeup edges.
                    own.join(epoch);
                    epoch.0.clear();
                    if let Some(log) = self.edges.as_mut() {
                        let arrivals = slot(&mut log.arrivals, barrier.index());
                        log.edges.extend(arrivals.drain(..).map(|src| HbEdge {
                            src,
                            dst: i,
                            kind: EdgeKind::Barrier,
                        }));
                    }
                } else {
                    epoch.join(own);
                    if let Some(log) = self.edges.as_mut() {
                        slot(&mut log.arrivals, barrier.index()).push(i);
                    }
                }
            }
            TraceEvent::QueuePush { tid, queue } => {
                let own = thread_clock(&mut self.vc, tid.index());
                publish(slot(&mut self.queues, queue.index()), own, i);
            }
            TraceEvent::QueuePop { tid, queue } => {
                let own = thread_clock(&mut self.vc, tid.index());
                let object = self.queues.get(queue.index()).and_then(Option::as_ref);
                acquire(own, object, i, EdgeKind::Queue, &mut self.edges);
            }
            TraceEvent::SharedAtomic { tid, obj, word, op } => {
                let own = thread_clock(&mut self.vc, tid.index());
                let object = slot(slot(&mut self.atomics, obj.index()), word as usize);
                if matches!(op, AtomicOp::Load | AtomicOp::Rmw) {
                    acquire(own, object.as_ref(), i, EdgeKind::Atomic, &mut self.edges);
                }
                if matches!(op, AtomicOp::Store | AtomicOp::Rmw) {
                    publish(object, own, i);
                }
            }
            TraceEvent::SharedRead { tid, obj, word } => {
                self.access(i, time, tid, obj, word, false);
            }
            TraceEvent::SharedWrite { tid, obj, word } => {
                self.access(i, time, tid, obj, word, true);
            }
            _ => {}
        }

        // Program order: the subject's clock advances past this event,
        // so anything it published here is distinguishable from its
        // later accesses.
        if let Some(t) = subject {
            thread_clock(&mut self.vc, t.index()).tick(t.index());
        }
    }

    fn finish(self, labels: &[String]) -> Vec<Violation> {
        self.into_analysis(labels).races
    }
}

/// Replays `trace` once, building the full happens-before relation and
/// running the vector-clock race detector over plain shared accesses.
pub fn happens_before(trace: &KernelTrace) -> HbAnalysis {
    let fold = LintFold::replay(trace, HbLint::new(true));
    fold.lint.into_analysis(&fold.labels)
}

/// Runs the vector-clock data-race detector over `trace` (one report per
/// racy (object, word), citing both access sites).
pub fn check_races(trace: &KernelTrace) -> Vec<Violation> {
    LintFold::replay(trace, HbLint::new(false)).finish()
}

/// Always empty: no simulated primitive takes a lock, so no trace
/// carries the lock events an Eraser-style lock-set pass would read.
/// Kept so callers that time each analysis separately still link.
pub fn check_locksets(trace: &KernelTrace) -> Vec<Violation> {
    let _ = trace;
    Vec::new()
}

// ----------------------------------------------------------------------
// Policy lint: placements must honour the current speed ranking
// ----------------------------------------------------------------------

struct StaleRankingLint {
    sched: SchedState,
    /// The latest `SpeedChange`, if any.
    rank_site: Option<usize>,
    violations: Vec<Violation>,
}

impl StaleRankingLint {
    /// The lint, when `policy` makes the placement promise it checks.
    fn new(machine: &MachineSpec, policy: SchedPolicy) -> Option<Self> {
        policy.is_asymmetry_aware().then(|| StaleRankingLint {
            sched: SchedState::new(machine),
            rank_site: None,
            violations: Vec::new(),
        })
    }

    fn lint_placement(
        &mut self,
        i: usize,
        time: SimTime,
        tid: ThreadId,
        chosen: CoreId,
        mask: CoreMask,
        what: &str,
    ) {
        let sched = &self.sched;
        let speeds = &sched.speeds;
        let best = (0..speeds.len())
            .filter(|&c| sched.online[c] && mask.contains(CoreId(c)) && sched.is_idle(c))
            .max_by(|&a, &b| speeds[a].cmp(&speeds[b]).then(b.cmp(&a)));
        let Some(best) = best else {
            return;
        };
        if chosen.0 == best {
            return;
        }
        let (rank_desc, site) = match self.rank_site {
            Some(s) => (
                format!("the ranking in force since SpeedChange at #{s}"),
                format!("#{s}->#{i}"),
            ),
            None => (
                "the machine's initial speed ranking".to_string(),
                format!("#{i}"),
            ),
        };
        self.violations.push(
            Violation::new(
                ViolationKind::StaleRanking,
                Some(time),
                format!(
                    "{tid} {what} core{} (speed {:.3}) at #{i} while idle eligible \
                     core{best} (speed {:.3}) was faster under {rank_desc} — the \
                     placement ignored the current speed ranking",
                    chosen.0,
                    speeds[chosen.0].factor(),
                    speeds[best].factor(),
                ),
            )
            .with_object(format!("core{}", chosen.0))
            .with_site(site),
        );
    }
}

impl Lint for StaleRankingLint {
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        // Lint placements before applying their state effect: the
        // eligibility snapshot is the instant *before* the thread lands.
        match *event {
            TraceEvent::Spawn {
                tid,
                core,
                affinity: mask,
                ..
            } => self.lint_placement(i, time, tid, core, mask, "spawned onto"),
            TraceEvent::Wakeup { tid, core, .. } => {
                if let Some(mask) = self.sched.affinity(tid) {
                    self.lint_placement(i, time, tid, core, mask, "woken onto");
                }
            }
            TraceEvent::SpeedChange { .. } => self.rank_site = Some(i),
            _ => {}
        }
        self.sched.apply(event);
    }

    fn finish(self, _labels: &[String]) -> Vec<Violation> {
        self.violations
    }
}

/// Lints every placement decision (spawn and wakeup) of an
/// asymmetry-aware trace against the speed ranking in force at that
/// instant: when any idle, online, affinity-eligible core exists, the
/// kernel's placement contract is "fastest such core, ties to the lowest
/// index". A placement that lands anywhere else used a stale (or plain
/// wrong) ranking — the §3.1.1 bug class where a fault re-ranks the
/// cores and a dispatch keeps consulting the old table. The report cites
/// both the ranking site (the latest `SpeedChange`, or the initial
/// machine shape) and the offending placement.
pub fn check_stale_ranking(trace: &KernelTrace) -> Vec<Violation> {
    StaleRankingLint::new(&trace.machine, trace.policy)
        .map_or_else(Vec::new, |lint| LintFold::replay(trace, lint).finish())
}

// ----------------------------------------------------------------------
// Policy lint: re-ranking hygiene (staleness bound + thrash)
// ----------------------------------------------------------------------

/// How long a ranking-reordering `SpeedChange` may go unconfirmed by a
/// `Rerank` record for the same core before the ranking counts as stale.
/// The kernel's contract is to announce the re-rank in the same instant
/// it applies the speed, so one millisecond is generous.
pub const RERANK_STALENESS_BOUND: SimDuration = SimDuration::from_millis(1);

/// The sliding window over which [`RERANK_THRASH_LIMIT`] applies.
pub const RERANK_THRASH_WINDOW: SimDuration = SimDuration::from_millis(1);

/// More `Rerank` records than this inside one
/// [`RERANK_THRASH_WINDOW`] is churn: the environment hysteresis
/// (confirmation ticks plus a per-core minimum apply interval) keeps
/// legitimate traces far below it even when every core re-targets in
/// the same tick.
pub const RERANK_THRASH_LIMIT: usize = 8;

/// The online cores, fastest first (ties to the lowest index).
fn ranking(speeds: &[Speed], online: &[bool]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..speeds.len()).filter(|&c| online[c]).collect();
    order.sort_by(|&a, &b| speeds[b].cmp(&speeds[a]).then(a.cmp(&b)));
    order
}

fn stale_rerank(idx: usize, core: CoreId, time: SimTime) -> Violation {
    Violation::new(
        ViolationKind::StaleRerank,
        Some(time),
        format!(
            "SpeedChange at #{idx} reordered the online-core speed ranking but no \
             Rerank record for core{} followed within {}",
            core.0, RERANK_STALENESS_BOUND
        ),
    )
    .with_object(format!("core{}", core.0))
    .with_site(format!("#{idx}"))
}

struct RerankLint {
    speeds: Vec<Speed>,
    online: Vec<bool>,
    /// Unconfirmed ranking reorders: (record index, core, time).
    pending: Vec<(usize, CoreId, SimTime)>,
    /// Recent rerank sites for the thrash window: (time, record index).
    recent: VecDeque<(SimTime, usize)>,
    thrash_reported: bool,
    violations: Vec<Violation>,
}

impl RerankLint {
    fn new(machine: &MachineSpec) -> Self {
        RerankLint {
            speeds: machine.speeds().to_vec(),
            online: vec![true; machine.num_cores()],
            pending: Vec::new(),
            recent: VecDeque::new(),
            thrash_reported: false,
            violations: Vec::new(),
        }
    }
}

impl Lint for RerankLint {
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        // Expire overdue confirmations before applying this record.
        while let Some(&(idx, core, at)) = self.pending.first() {
            if time.duration_since(at) > RERANK_STALENESS_BOUND {
                self.violations.push(stale_rerank(idx, core, at));
                self.pending.remove(0);
            } else {
                break;
            }
        }
        match *event {
            TraceEvent::SpeedChange { core, speed } => {
                let before = ranking(&self.speeds, &self.online);
                self.speeds[core.0] = speed;
                if ranking(&self.speeds, &self.online) != before {
                    self.pending.push((i, core, time));
                }
            }
            TraceEvent::Rerank { core } => {
                if let Some(pos) = self.pending.iter().position(|&(_, c, _)| c == core) {
                    self.pending.remove(pos);
                }
                while let Some(&(t, _)) = self.recent.front() {
                    if time.duration_since(t) > RERANK_THRASH_WINDOW {
                        self.recent.pop_front();
                    } else {
                        break;
                    }
                }
                self.recent.push_back((time, i));
                if self.recent.len() > RERANK_THRASH_LIMIT && !self.thrash_reported {
                    self.thrash_reported = true;
                    let (start_t, start_i) = *self.recent.front().expect("window not empty");
                    self.violations.push(
                        Violation::new(
                            ViolationKind::RerankThrash,
                            Some(time),
                            format!(
                                "{} re-ranks inside one {} window (since #{start_i} at \
                                 {start_t}): hysteresis failed to damp the churn",
                                self.recent.len(),
                                RERANK_THRASH_WINDOW
                            ),
                        )
                        .with_site(format!("#{start_i}->#{i}")),
                    );
                }
            }
            TraceEvent::CoreOffline { core } => {
                self.online[core.0] = false;
            }
            TraceEvent::CoreOnline { core } => {
                self.online[core.0] = true;
            }
            _ => {}
        }
    }

    fn finish(mut self, _labels: &[String]) -> Vec<Violation> {
        // A reorder the trace never confirmed is stale no matter when the
        // run ended: the kernel announces re-ranks in the same instant.
        for (idx, core, at) in self.pending {
            self.violations.push(stale_rerank(idx, core, at));
        }
        self.violations
    }
}

/// Lints the re-ranking contract of a trace with dynamic speeds:
///
/// 1. **Staleness** — every `SpeedChange` that reorders the online-core
///    speed ranking must be confirmed by a `Rerank` record for that core
///    within [`RERANK_STALENESS_BOUND`]; a reorder the kernel never
///    announced means downstream consumers (balancers, observers) kept
///    acting on a ranking known to be stale
///    ([`ViolationKind::StaleRerank`]).
/// 2. **Thrash** — more than [`RERANK_THRASH_LIMIT`] `Rerank` records
///    within any [`RERANK_THRASH_WINDOW`] is migration-churn the
///    hysteresis was supposed to damp ([`ViolationKind::RerankThrash`]).
///
/// Applies to every policy: the trace contract is the kernel's, not the
/// scheduler's. Hotplug reorders (a core leaving or joining the ranking)
/// are not speed re-ranks and carry no confirmation obligation.
pub fn check_rerank_hygiene(trace: &KernelTrace) -> Vec<Violation> {
    LintFold::replay(trace, RerankLint::new(&trace.machine)).finish()
}

// ----------------------------------------------------------------------
// Policy lint: fair-share schedulers must not starve a runnable thread
// ----------------------------------------------------------------------

/// How long a runnable thread may sit continuously queued before the
/// fairness lint considers it starved (provided enough other dispatches
/// bypassed it — see [`STARVATION_MIN_BYPASSES`]).
pub const STARVATION_BOUND: SimDuration = SimDuration::from_millis(200);

/// How many times other threads must be dispatched on the waiting
/// thread's core, while it sits queued, before the wait counts as
/// starvation rather than a briefly-overloaded queue.
pub const STARVATION_MIN_BYPASSES: usize = 64;

/// One continuously queued thread.
struct Waiting {
    core: CoreId,
    since: SimTime,
    since_idx: usize,
    /// Bypasses counted on cores the thread was stolen away from.
    carried: u64,
    /// The dispatch count of `core` when the thread joined its queue.
    base: u64,
}

struct StarvationLint {
    /// Dispatches so far, by core: a waiting thread's bypasses are the
    /// dispatches on its core since it joined the queue.
    dispatches: Vec<u64>,
    /// Each queued thread's wait, by thread.
    queued: Vec<Option<Waiting>>,
    /// The time of the latest record.
    end: Option<SimTime>,
    violations: Vec<Violation>,
}

impl StarvationLint {
    /// The lint, when `policy` is a fair-share policy it applies to.
    fn new(machine: &MachineSpec, policy: SchedPolicy) -> Option<Self> {
        (policy.kind() == PolicyKind::VruntimeFair).then(|| StarvationLint {
            dispatches: vec![0; machine.num_cores()],
            queued: Vec::new(),
            end: None,
            violations: Vec::new(),
        })
    }

    fn enqueue(&mut self, i: usize, time: SimTime, tid: ThreadId, core: CoreId) {
        let base = *slot(&mut self.dispatches, core.0);
        *slot(&mut self.queued, tid.index()) = Some(Waiting {
            core,
            since: time,
            since_idx: i,
            carried: 0,
            base,
        });
    }

    fn flag(&mut self, tid: usize, w: &Waiting, end: SimTime, end_idx: Option<usize>) {
        let bypasses = w.carried + self.dispatches[w.core.0] - w.base;
        let waited = end.duration_since(w.since);
        if waited <= STARVATION_BOUND || bypasses < STARVATION_MIN_BYPASSES as u64 {
            return;
        }
        let site = match end_idx {
            Some(idx) => format!("#{}->#{idx}", w.since_idx),
            None => format!("#{}->end", w.since_idx),
        };
        self.violations.push(
            Violation::new(
                ViolationKind::Starvation,
                Some(end),
                format!(
                    "thread {tid} sat queued on core {} for {waited} (bound \
                     {STARVATION_BOUND}) while {bypasses} other dispatches ran there",
                    w.core.0,
                ),
            )
            .with_object(format!("thread{tid}"))
            .with_site(site),
        );
    }
}

impl Lint for StarvationLint {
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        self.end = Some(time);
        match *event {
            TraceEvent::Spawn { tid, core, .. }
            | TraceEvent::Wakeup { tid, core, .. }
            | TraceEvent::Preempt { tid, core, .. } => self.enqueue(i, time, tid, core),
            TraceEvent::Steal { tid, to, .. } => {
                // A migration keeps the wait clock running: the thread
                // is still runnable-and-not-running, just elsewhere.
                let to_base = *slot(&mut self.dispatches, to.0);
                if let Some(Some(w)) = self.queued.get_mut(tid.index()) {
                    w.carried += self.dispatches[w.core.0] - w.base;
                    w.core = to;
                    w.base = to_base;
                }
            }
            TraceEvent::Dispatch { tid, core } => {
                if let Some(w) = self.queued.get_mut(tid.index()).and_then(Option::take) {
                    self.flag(tid.index(), &w, time, Some(i));
                }
                *slot(&mut self.dispatches, core.0) += 1;
            }
            TraceEvent::Done { tid } | TraceEvent::ThreadKilled { tid } => {
                if let Some(w) = self.queued.get_mut(tid.index()) {
                    *w = None;
                }
            }
            _ => {}
        }
    }

    fn finish(mut self, _labels: &[String]) -> Vec<Violation> {
        // Threads still queued when the trace ends starved with no
        // terminating dispatch to cite.
        if let Some(end) = self.end {
            let queued = std::mem::take(&mut self.queued);
            for (tid, w) in queued.iter().enumerate() {
                if let Some(w) = w {
                    self.flag(tid, w, end, None);
                }
            }
        }
        self.violations
    }
}

/// Lints fair-share (vruntime) traces for starvation: a thread that
/// stays continuously queued for more than [`STARVATION_BOUND`] while
/// the scheduler dispatches other threads on its core at least
/// [`STARVATION_MIN_BYPASSES`] times has been starved — under a
/// lowest-progress-first discipline a waiting thread's progress never
/// advances, so it must win the queue long before either limit.
/// Only applies to [`PolicyKind::VruntimeFair`] traces; priority and
/// FIFO policies legitimately order threads by other criteria.
pub fn check_starvation(trace: &KernelTrace) -> Vec<Violation> {
    StarvationLint::new(&trace.machine, trace.policy)
        .map_or_else(Vec::new, |lint| LintFold::replay(trace, lint).finish())
}

// ----------------------------------------------------------------------
// The whole suite as one fold
// ----------------------------------------------------------------------

struct Suite {
    races: HbLint,
    ranking: Option<StaleRankingLint>,
    rerank: RerankLint,
    starvation: Option<StarvationLint>,
}

impl Lint for Suite {
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        self.races.on_record(i, time, event);
        self.ranking.on_record(i, time, event);
        self.rerank.on_record(i, time, event);
        self.starvation.on_record(i, time, event);
    }

    fn finish(self, labels: &[String]) -> Vec<Violation> {
        let mut violations = self.races.finish(labels);
        violations.extend(self.ranking.finish(labels));
        violations.extend(self.rerank.finish(labels));
        violations.extend(self.starvation.finish(labels));
        crate::normalize_violations(violations)
    }
}

/// The full happens-before suite as one streaming consumer of a
/// kernel's events: vector-clock data races and the scheduler-policy
/// lints, each folded online in a single pass.
/// Feed it with [`capture_stream`](asym_kernel::capture_stream) (one
/// fold per kernel) or [`KernelTrace::replay`]; [`finish`](Self::finish)
/// then returns what [`check_concurrency`] reports for the same stream.
pub struct ConcurrencyFold(LintFold<Suite>);

impl ConcurrencyFold {
    /// A fold for one kernel managing `machine` under `policy`.
    pub fn new(machine: &MachineSpec, policy: SchedPolicy) -> Self {
        ConcurrencyFold(LintFold::new(Suite {
            races: HbLint::new(false),
            ranking: StaleRankingLint::new(machine, policy),
            rerank: RerankLint::new(machine),
            starvation: StarvationLint::new(machine, policy),
        }))
    }

    /// The findings, in canonical (kind, object, site) order with
    /// duplicates removed.
    pub fn finish(self) -> Vec<Violation> {
        self.0.finish()
    }
}

impl TraceConsumer for ConcurrencyFold {
    fn on_event(&mut self, time: SimTime, event: &TraceEvent) {
        self.0.on_event(time, event);
    }

    fn on_shared_label(&mut self, label: &str) {
        self.0.on_shared_label(label);
    }
}

impl asym_core::CheckFold for ConcurrencyFold {
    fn findings(self: Box<Self>) -> Vec<String> {
        self.finish().iter().map(ToString::to_string).collect()
    }
}

/// The full happens-before suite over one trace: vector-clock data
/// races and the scheduler-policy lints (stale-ranking placements,
/// re-ranking hygiene, and fair-share starvation), in canonical (kind,
/// object, site) order with duplicates removed. A replay of
/// [`ConcurrencyFold`].
pub fn check_concurrency(trace: &KernelTrace) -> Vec<Violation> {
    let mut fold = ConcurrencyFold::new(&trace.machine, trace.policy);
    trace.replay(&mut fold);
    fold.finish()
}
