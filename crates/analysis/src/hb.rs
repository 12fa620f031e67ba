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
//! into the object clock in place. The explicit edge list is built only
//! by [`happens_before`]; the race check derives the same ordering from
//! the clocks alone.
//!
//! # Clock representation
//!
//! A dense clock holds one component per thread, so a kernel of `T`
//! threads holds Θ(T²) of them: PMAKE's 791 compile jobs cost ~2 MB of
//! clocks per kernel. A kernel whose thread ids stay below
//! `DENSE_WIDTH` (64) keeps dense `Vec<u32>` clocks, whose joins and
//! snapshots are plain loops and copies. The first record that names a
//! wider thread converts the kernel's whole state, once, to clocks of
//! copy-on-write chunks of 32 components. Spawn inheritance, signal
//! snapshots and joins by a dominating chunk then share chunks instead
//! of copying them, and joins skip pointer-equal chunks, so memory
//! follows the synchronization history: PMAKE's checker now costs
//! ~0.5 MB. Both representations hold the same components, so the
//! verdicts, cited sites and edges do not depend on the switch.
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
use std::rc::Rc;

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

/// Thread ids below this keep a kernel on [`DenseClock`]s: at most
/// `DENSE_WIDTH²` components, cheaper to copy than to share. The first
/// wider id converts the kernel's clocks, once, to [`ChunkedClock`]s.
const DENSE_WIDTH: usize = 64;

/// Components per [`ChunkedClock`] chunk.
const CHUNK: usize = 32;

/// A vector clock over thread indices (grown on demand, absent
/// components read 0). Deliberately not `Clone`: every join and
/// snapshot works in place.
trait VClock: Default {
    fn get(&self, t: usize) -> u32;

    /// Makes room for component `t` (a thread's own, before it ticks).
    fn hold(&mut self, t: usize);

    /// Advances component `t`, which [`hold`](VClock::hold) made room for.
    fn tick(&mut self, t: usize);

    /// The componentwise maximum of both clocks, into `self`.
    fn join(&mut self, other: &Self);

    /// Makes `self` equal to `other`.
    fn assign(&mut self, other: &Self);

    /// Resets every component to 0.
    fn clear(&mut self);

    /// Does this clock cover thread `t` up to `clock`?
    fn covers(&self, t: usize, clock: u32) -> bool {
        self.get(t) >= clock
    }
}

/// One `u32` per component: a narrow kernel's clock.
#[derive(Default)]
struct DenseClock(Vec<u32>);

impl VClock for DenseClock {
    fn get(&self, t: usize) -> u32 {
        self.0.get(t).copied().unwrap_or(0)
    }

    fn hold(&mut self, t: usize) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
    }

    fn tick(&mut self, t: usize) {
        self.0[t] += 1;
    }

    fn join(&mut self, other: &Self) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, &theirs) in self.0.iter_mut().zip(&other.0) {
            *mine = (*mine).max(theirs);
        }
    }

    fn assign(&mut self, other: &Self) {
        self.0.clone_from(&other.0);
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

type Chunk = [u32; CHUNK];

/// A wide kernel's clock: components in copy-on-write chunks of
/// [`CHUNK`], `None` for an all-zero chunk. Spawn inheritance, signal
/// snapshots and dominated joins share chunks instead of copying them,
/// so clock memory follows the synchronization history, not threads².
#[derive(Default)]
struct ChunkedClock(Vec<Option<Rc<Chunk>>>);

impl From<DenseClock> for ChunkedClock {
    fn from(dense: DenseClock) -> Self {
        let chunk = |c: &[u32]| {
            c.iter().any(|&v| v > 0).then(|| {
                let mut chunk = [0; CHUNK];
                chunk[..c.len()].copy_from_slice(c);
                Rc::new(chunk)
            })
        };
        ChunkedClock(dense.0.chunks(CHUNK).map(chunk).collect())
    }
}

impl VClock for ChunkedClock {
    fn get(&self, t: usize) -> u32 {
        match self.0.get(t / CHUNK) {
            Some(Some(chunk)) => chunk[t % CHUNK],
            _ => 0,
        }
    }

    fn hold(&mut self, t: usize) {
        if self.0.len() <= t / CHUNK {
            self.0.resize(t / CHUNK + 1, None);
        }
    }

    fn tick(&mut self, t: usize) {
        let chunk = self.0[t / CHUNK].get_or_insert_with(|| Rc::new([0; CHUNK]));
        Rc::make_mut(chunk)[t % CHUNK] += 1;
    }

    fn join(&mut self, other: &Self) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), None);
        }
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            let Some(theirs) = theirs else { continue };
            match mine {
                None => *mine = Some(Rc::clone(theirs)),
                Some(mine) => join_chunk(mine, theirs),
            }
        }
    }

    fn assign(&mut self, other: &Self) {
        self.0.clone_from(&other.0);
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// Does chunk `a` cover chunk `b` componentwise?
fn dominates(a: &Chunk, b: &Chunk) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y)
}

/// Joins `theirs` into `mine`, copying a chunk only when the result is
/// a new value that `mine` shares with another clock.
fn join_chunk(mine: &mut Rc<Chunk>, theirs: &Rc<Chunk>) {
    if Rc::ptr_eq(mine, theirs) {
        return;
    }
    if let Some(m) = Rc::get_mut(mine) {
        for (m, &t) in m.iter_mut().zip(theirs.iter()) {
            *m = (*m).max(t);
        }
    } else if dominates(theirs, mine) {
        *mine = Rc::clone(theirs);
    } else if !dominates(mine, theirs) {
        for (m, &t) in Rc::make_mut(mine).iter_mut().zip(theirs.iter()) {
            *m = (*m).max(t);
        }
    }
}

/// Thread `t`'s clock, sized to hold its own component.
fn thread_clock<C: VClock>(vc: &mut Vec<C>, t: usize) -> &mut C {
    let clock = slot(vc, t);
    clock.hold(t);
    clock
}

/// Joins thread `src`'s clock into thread `dst`'s, in place.
fn join_threads<C: VClock>(vc: &mut Vec<C>, dst: usize, src: usize) {
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
struct Published<C> {
    clock: C,
    src: usize,
}

/// Release: joins `own` into the object clock and moves its edge source
/// to record `i`.
fn publish<C: VClock>(object: &mut Option<Published<C>>, own: &C, i: usize) {
    let p = object.get_or_insert_with(|| Published {
        clock: C::default(),
        src: i,
    });
    p.clock.join(own);
    p.src = i;
}

/// Acquire: joins the object clock, if anything was published, into
/// `own`.
fn acquire<C: VClock>(
    own: &mut C,
    object: Option<&Published<C>>,
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
struct LastSignal<C> {
    idx: usize,
    /// Whether a simulated thread sent it (only those carry a clock).
    from_thread: bool,
    /// The waker's clock at the signal.
    clock: C,
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
fn earliest_unordered<C: VClock>(epochs: &[Epoch], t: usize, me: &C) -> Option<Epoch> {
    epochs
        .iter()
        .filter(|e| e.tid != t && !me.covers(e.tid, e.clock))
        .min_by_key(|e| e.idx)
        .copied()
}

/// Keeps `e` as its thread's latest epoch in `epochs`. Most words are
/// accessed by one thread, so the first epoch gets an exact allocation.
fn keep_epoch(epochs: &mut Vec<Epoch>, e: Epoch) {
    if epochs.is_empty() {
        *epochs = vec![e];
    } else if let Some(x) = epochs.iter_mut().find(|x| x.tid == e.tid) {
        *x = e;
    } else {
        epochs.push(e);
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

/// The vector-clock engine and FastTrack-style race detector, over
/// clocks of type `C`.
#[derive(Default)]
struct HbCore<C> {
    /// Thread clocks, by thread.
    vc: Vec<C>,
    /// Release clocks of queues, by wait queue.
    queues: Vec<Option<Published<C>>>,
    /// Atomic publish clocks, by object then word.
    atomics: Vec<Vec<Option<Published<C>>>>,
    /// Each barrier's joined arrivals of the current epoch.
    barriers: Vec<C>,
    /// The latest signal per wait queue.
    signals: Vec<Option<LastSignal<C>>>,
    /// The wait queue each blocked thread is parked on, by thread.
    blocked_on: Vec<Option<WaitId>>,
    /// Race-detector state, by object then word.
    words: Vec<Vec<WordState>>,
    races: Vec<Race>,
    /// Present only when the caller wants the edge list.
    edges: Option<EdgeLog>,
}

impl<C: VClock> HbCore<C> {
    fn new(with_edges: bool) -> Self {
        HbCore {
            edges: with_edges.then(EdgeLog::default),
            ..HbCore::default()
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

impl<C: VClock> Lint for HbCore<C> {
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
                    sig.clock.assign(thread_clock(&mut self.vc, w.index()));
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
                    epoch.clear();
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

impl HbCore<DenseClock> {
    /// The same state over [`ChunkedClock`]s.
    fn widen(self) -> HbCore<ChunkedClock> {
        let chunked = ChunkedClock::from;
        let published = |p: Option<Published<DenseClock>>| {
            p.map(|p| Published {
                clock: chunked(p.clock),
                src: p.src,
            })
        };
        HbCore {
            vc: self.vc.into_iter().map(chunked).collect(),
            queues: self.queues.into_iter().map(published).collect(),
            atomics: (self.atomics.into_iter())
                .map(|words| words.into_iter().map(published).collect())
                .collect(),
            barriers: self.barriers.into_iter().map(chunked).collect(),
            signals: (self.signals.into_iter())
                .map(|s| {
                    s.map(|s| LastSignal {
                        idx: s.idx,
                        from_thread: s.from_thread,
                        clock: chunked(s.clock),
                    })
                })
                .collect(),
            blocked_on: self.blocked_on,
            words: self.words,
            races: self.races,
            edges: self.edges,
        }
    }
}

/// The engine a kernel's stream runs through: dense clocks while every
/// thread id stays below [`DENSE_WIDTH`], chunked ones from the first
/// record that names a wider one. The switch converts the state once,
/// outside the per-record path, and changes no verdict: both clocks
/// hold the same components.
enum HbLint {
    Narrow(HbCore<DenseClock>),
    Wide(HbCore<ChunkedClock>),
}

impl HbLint {
    fn new(with_edges: bool) -> Self {
        HbLint::Narrow(HbCore::new(with_edges))
    }

    fn into_analysis(self, labels: &[String]) -> HbAnalysis {
        match self {
            HbLint::Narrow(hb) => hb.into_analysis(labels),
            HbLint::Wide(hb) => hb.into_analysis(labels),
        }
    }
}

impl Lint for HbLint {
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        match self {
            HbLint::Narrow(hb) => {
                hb.on_record(i, time, event);
                // No clock is wider than the thread table: every one is
                // built from thread clocks, each sized to its own id.
                if hb.vc.len() > DENSE_WIDTH {
                    *self = HbLint::Wide(std::mem::take(hb).widen());
                }
            }
            HbLint::Wide(hb) => hb.on_record(i, time, event),
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

impl RerankLint {
    /// Reports the confirmations overdue at `time`; a no-op while none
    /// is pending.
    fn expire(&mut self, time: SimTime) {
        while let Some(&(idx, core, at)) = self.pending.first() {
            if time.duration_since(at) > RERANK_STALENESS_BOUND {
                self.violations.push(stale_rerank(idx, core, at));
                self.pending.remove(0);
            } else {
                break;
            }
        }
    }

    /// Applies one of the records the lint reads: `SpeedChange`,
    /// `Rerank`, `CoreOffline` and `CoreOnline`.
    fn apply(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
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
}

impl Lint for RerankLint {
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        // Expire overdue confirmations before applying this record.
        self.expire(time);
        self.apply(i, time, event);
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

impl StarvationLint {
    /// Applies one of the records the lint reads: placements, steals,
    /// dispatches and exits.
    fn apply(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
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
}

impl Lint for StarvationLint {
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        self.end = Some(time);
        self.apply(i, time, event);
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
    /// Decodes the record's kind once and hands it only to the lints
    /// that read that kind.
    fn on_record(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        self.races.on_record(i, time, event);
        self.rerank.expire(time);
        if let Some(starvation) = self.starvation.as_mut() {
            starvation.end = Some(time);
        }
        match *event {
            TraceEvent::SpeedChange { .. }
            | TraceEvent::Rerank { .. }
            | TraceEvent::CoreOffline { .. }
            | TraceEvent::CoreOnline { .. } => {
                self.ranking.on_record(i, time, event);
                self.rerank.apply(i, time, event);
            }
            TraceEvent::Spawn { .. }
            | TraceEvent::Wakeup { .. }
            | TraceEvent::Preempt { .. }
            | TraceEvent::Steal { .. }
            | TraceEvent::Dispatch { .. }
            | TraceEvent::Done { .. }
            | TraceEvent::ThreadKilled { .. } => {
                self.ranking.on_record(i, time, event);
                if let Some(starvation) = self.starvation.as_mut() {
                    starvation.apply(i, time, event);
                }
            }
            TraceEvent::Block { .. }
            | TraceEvent::Sleep { .. }
            | TraceEvent::SetAffinity { .. }
            | TraceEvent::AffinityOverride { .. } => self.ranking.on_record(i, time, event),
            _ => {}
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use asym_kernel::{FnThread, Kernel, PreemptReason, SpawnOptions, Step, TraceRecord};
    use asym_sim::Rng;
    use std::collections::HashSet;

    /// The reference clock model: one component per thread index,
    /// grown on every write, copied on every snapshot.
    #[derive(Default)]
    struct RefClock(Vec<u32>);

    impl VClock for RefClock {
        fn get(&self, t: usize) -> u32 {
            self.0.get(t).copied().unwrap_or(0)
        }

        fn hold(&mut self, t: usize) {
            if self.0.len() <= t {
                self.0.resize(t + 1, 0);
            }
        }

        fn tick(&mut self, t: usize) {
            self.hold(t);
            self.0[t] += 1;
        }

        fn join(&mut self, other: &Self) {
            for (t, &v) in other.0.iter().enumerate() {
                self.hold(t);
                self.0[t] = self.0[t].max(v);
            }
        }

        fn assign(&mut self, other: &Self) {
            self.0 = other.0.clone();
        }

        fn clear(&mut self) {
            self.0.clear();
        }
    }

    /// Every clock the engine holds.
    fn clocks<C>(hb: &HbCore<C>) -> impl Iterator<Item = &C> {
        (hb.vc.iter())
            .chain(&hb.barriers)
            .chain(hb.queues.iter().flatten().map(|p| &p.clock))
            .chain(hb.atomics.iter().flatten().flatten().map(|p| &p.clock))
            .chain(hb.signals.iter().flatten().map(|s| &s.clock))
    }

    /// Every thread's clock, component by component.
    fn clock_table<C: VClock>(hb: &HbCore<C>, threads: usize) -> Vec<Vec<u32>> {
        let clock = |t: usize, u| hb.vc.get(t).map_or(0, |c| c.get(u));
        (0..threads)
            .map(|t| (0..threads).map(|u| clock(t, u)).collect())
            .collect()
    }

    /// The components a chunked engine stores: its distinct chunks.
    fn stored_components(hb: &HbCore<ChunkedClock>) -> usize {
        let chunks: HashSet<*const Chunk> = clocks(hb)
            .flat_map(|c| c.0.iter().flatten().map(Rc::as_ptr))
            .collect();
        chunks.len() * CHUNK
    }

    /// Thread, wait-queue and shared-object ids as a kernel hands them
    /// out (it never runs).
    fn ids(
        threads: usize,
        waits: usize,
        objects: usize,
    ) -> (Vec<ThreadId>, Vec<WaitId>, Vec<ShareId>) {
        let machine = MachineSpec::symmetric(2, Speed::FULL);
        let mut k = Kernel::new(machine, SchedPolicy::os_default(), 0);
        let tids = (0..threads)
            .map(|_| k.spawn(FnThread::new("t", |_| Step::Done), SpawnOptions::new()))
            .collect();
        let waits = (0..waits).map(|_| k.create_wait_queue()).collect();
        let objs = (0..objects)
            .map(|i| k.register_shared(&format!("o{i}")))
            .collect();
        (tids, waits, objs)
    }

    fn trace(
        machine: MachineSpec,
        policy: SchedPolicy,
        events: Vec<(SimTime, TraceEvent)>,
    ) -> KernelTrace {
        let mut trace = KernelTrace::new(machine, policy);
        trace.set_records(
            events
                .into_iter()
                .map(|(time, event)| TraceRecord { time, event }),
        );
        trace.shared_labels = (0..8).map(|i| format!("o{i}")).collect();
        trace
    }

    const CORES: usize = 4;

    /// A seeded stream over `threads` threads: spawns (each from a live
    /// parent), exits and joins, signal/wakeup pairs, queue, barrier and
    /// atomic traffic, plain accesses, and scheduler records. A plain
    /// access skips its lock with probability `racy`; a locked one sits
    /// between an atomic rmw and store of the word's lock.
    fn random_stream(seed: u64, threads: usize, racy: f64) -> Vec<(SimTime, TraceEvent)> {
        let (tids, waits, objs) = ids(threads, 6, 8);
        let (locks, data) = (objs[0], &objs[1..]);
        let mut rng = Rng::new(seed);
        let mut time = SimTime::ZERO;
        let mut out = Vec::new();
        let core = |rng: &mut Rng| CoreId(rng.index(CORES));
        let spawn = |tid, parent, core| TraceEvent::Spawn {
            tid,
            core,
            affinity: CoreMask::ALL,
            parent,
        };
        out.push((time, spawn(tids[0], None, CoreId(0))));
        let (mut live, mut dead, mut next) = (vec![tids[0]], Vec::new(), 1);
        while next < threads || out.len() < 40 * threads {
            time += SimDuration::from_micros(rng.below(40));
            if next < threads && rng.chance(0.1) {
                let parent = *rng.pick(&live);
                out.push((time, spawn(tids[next], Some(parent), core(&mut rng))));
                live.push(tids[next]);
                next += 1;
                continue;
            }
            let t = *rng.pick(&live);
            let wait = *rng.pick(&waits);
            let event = match rng.below(14) {
                0 if live.len() > 1 => {
                    live.retain(|&x| x != t);
                    dead.push(t);
                    TraceEvent::Done { tid: t }
                }
                1 if !dead.is_empty() => TraceEvent::ThreadJoin {
                    by: t,
                    of: *rng.pick(&dead),
                },
                2 => TraceEvent::Block { tid: t, wait },
                3 => TraceEvent::Signal {
                    waker: rng.chance(0.9).then_some(t),
                    wait,
                    woken: 1,
                },
                4 => TraceEvent::Wakeup {
                    tid: t,
                    core: core(&mut rng),
                    reason: if rng.chance(0.8) {
                        WakeReason::Signal
                    } else {
                        WakeReason::Timer
                    },
                },
                5 => TraceEvent::QueuePush {
                    tid: t,
                    queue: wait,
                },
                6 => TraceEvent::QueuePop {
                    tid: t,
                    queue: wait,
                },
                7 => TraceEvent::BarrierArrive {
                    tid: t,
                    barrier: wait,
                    released: rng.chance(0.3),
                },
                8 => TraceEvent::SharedAtomic {
                    tid: t,
                    obj: *rng.pick(data),
                    word: rng.below(4) as u32,
                    op: *rng.pick(&[AtomicOp::Load, AtomicOp::Store, AtomicOp::Rmw]),
                },
                9 | 10 => {
                    let (obj, word) = (*rng.pick(data), rng.below(16) as u32);
                    let lock = |op| TraceEvent::SharedAtomic {
                        tid: t,
                        obj: locks,
                        word: obj.index() as u32 * 16 + word,
                        op,
                    };
                    let locked = !rng.chance(racy);
                    if locked {
                        out.push((time, lock(AtomicOp::Rmw)));
                    }
                    let access = if rng.chance(0.5) {
                        TraceEvent::SharedRead { tid: t, obj, word }
                    } else {
                        TraceEvent::SharedWrite { tid: t, obj, word }
                    };
                    out.push((time, access));
                    if !locked {
                        continue;
                    }
                    lock(AtomicOp::Store)
                }
                11 => TraceEvent::Dispatch {
                    tid: t,
                    core: core(&mut rng),
                },
                12 => TraceEvent::Preempt {
                    tid: t,
                    core: core(&mut rng),
                    reason: PreemptReason::Quantum,
                },
                _ => {
                    let c = core(&mut rng);
                    match rng.below(4) {
                        0 => TraceEvent::SpeedChange {
                            core: c,
                            speed: Speed::fraction_of_full(rng.range(1, 5) as u32),
                        },
                        1 => TraceEvent::Rerank { core: c },
                        2 => TraceEvent::CoreOffline { core: c },
                        _ => TraceEvent::CoreOnline { core: c },
                    }
                }
            };
            out.push((time, event));
        }
        out
    }

    fn rendered(violations: &[Violation]) -> Vec<String> {
        violations.iter().map(ToString::to_string).collect()
    }

    /// The switching engine against the reference clocks, over racy and
    /// lock-disciplined streams of 256 threads (the switch to chunked
    /// clocks falls mid-stream) and of 40 (dense throughout): the same
    /// race reports, the same happens-before edges, the same clocks at
    /// the end. The suite's routed lints equal the lints run alone.
    #[test]
    fn switching_clocks_match_the_dense_reference() {
        let machine = MachineSpec::asymmetric(1, CORES - 1, Speed::fraction_of_full(4));
        let policies = [SchedPolicy::asymmetry_aware(), SchedPolicy::vruntime_fair()];
        let (mut races, mut clean) = (0, 0);
        for seed in 0..12 {
            let (threads, racy) = match seed % 4 {
                0 => (40, 0.3),
                1 => (256, 0.0),
                _ => (256, 0.05),
            };
            let events = random_stream(seed, threads, racy);
            let trace = trace(machine.clone(), policies[seed as usize % 2], events);
            let label = format!("seed {seed}, {threads} threads");

            let reference = LintFold::replay(&trace, HbCore::<RefClock>::new(true));
            let ref_clocks = clock_table(&reference.lint, threads);
            let expected = reference.lint.into_analysis(&reference.labels);
            let got = happens_before(&trace);
            assert_eq!(got.edges, expected.edges, "{label}: edges");
            assert_eq!(
                rendered(&got.races),
                rendered(&expected.races),
                "{label}: races"
            );
            assert_eq!(rendered(&check_races(&trace)), rendered(&expected.races));

            let (wide, clocks) = match LintFold::replay(&trace, HbLint::new(false)).lint {
                HbLint::Narrow(hb) => (false, clock_table(&hb, threads)),
                HbLint::Wide(hb) => (true, clock_table(&hb, threads)),
            };
            assert_eq!(wide, threads > DENSE_WIDTH, "{label}: widened");
            assert!(clocks == ref_clocks, "{label}: clocks");
            match expected.races.len() {
                0 => clean += 1,
                n => races += n,
            }

            let mut alone = check_races(&trace);
            alone.extend(check_stale_ranking(&trace));
            alone.extend(check_rerank_hygiene(&trace));
            alone.extend(check_starvation(&trace));
            let alone = crate::normalize_violations(alone);
            assert_eq!(
                rendered(&check_concurrency(&trace)),
                rendered(&alone),
                "{label}: suite"
            );
        }
        assert!(
            races > 0 && clean > 0,
            "racy and clean streams: {races} races, {clean} clean"
        );
    }

    /// A fork-join of 2,000 threads: the reference holds threads²/2
    /// components, the chunked clocks under an eighth of threads².
    #[test]
    fn wide_fork_join_shares_clock_chunks() {
        const T: usize = 2_000;
        let (tids, _, objs) = ids(T, 0, 1);
        let obj = objs[0];
        let at = SimTime::ZERO;
        let mut events = vec![(
            at,
            TraceEvent::Spawn {
                tid: tids[0],
                core: CoreId(0),
                affinity: CoreMask::ALL,
                parent: None,
            },
        )];
        for &tid in &tids[1..] {
            events.push((
                at,
                TraceEvent::Spawn {
                    tid,
                    core: CoreId(1),
                    affinity: CoreMask::ALL,
                    parent: Some(tids[0]),
                },
            ));
        }
        for &tid in &tids[1..] {
            let word = tid.index() as u32;
            events.push((
                at,
                TraceEvent::Dispatch {
                    tid,
                    core: CoreId(1),
                },
            ));
            events.push((at, TraceEvent::SharedWrite { tid, obj, word }));
            events.push((at, TraceEvent::Done { tid }));
        }
        for &tid in &tids[1..] {
            let (by, word) = (tids[0], tid.index() as u32);
            events.push((at, TraceEvent::ThreadJoin { by, of: tid }));
            events.push((at, TraceEvent::SharedRead { tid: by, obj, word }));
        }
        let trace = trace(
            MachineSpec::symmetric(2, Speed::FULL),
            SchedPolicy::os_default(),
            events,
        );
        assert!(check_races(&trace).is_empty());

        let reference = LintFold::replay(&trace, HbCore::<RefClock>::new(false)).lint;
        let dense: usize = clocks(&reference).map(|c| c.0.len()).sum();
        assert!(dense >= T * T / 2, "reference holds {dense} components");
        let HbLint::Wide(hb) = LintFold::replay(&trace, HbLint::new(false)).lint else {
            panic!("2,000 threads must widen the clocks");
        };
        let stored = stored_components(&hb);
        assert!(stored < T * T / 8, "{stored} components stored");
    }
}
