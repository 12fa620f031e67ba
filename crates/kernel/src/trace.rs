//! Trace capture: recording the complete [`TraceEvent`] stream of every
//! kernel built inside a closure, without touching workload code.
//!
//! Workloads construct their [`Kernel`](crate::Kernel)s internally, so a
//! checker cannot hook one by hand. [`capture_stream`] instead registers
//! a thread-local capture session: every kernel *created on the current
//! OS thread* while the closure runs gets a fresh [`TraceConsumer`], and
//! its events (and its final [`RunOutcome`]) are pushed into that
//! consumer as they are emitted. Sessions nest, and each OS thread has
//! its own session, so captured runs may execute on parallel worker
//! threads as the experiment harness does.
//!
//! This is the only way events leave a kernel. Trace memory is bounded
//! by the consumers' own state — O(1) for the hash and profile folds the
//! sweep engine uses. A buffered [`KernelTrace`] is just one more
//! consumer, which [`capture_traces`] installs for tests, fixtures and
//! tools that want the whole stream.

use crate::kernel::{RunOutcome, TraceEvent};
use crate::policy::SchedPolicy;
use asym_sim::{MachineSpec, SimTime, StableHasher};
use std::cell::RefCell;
use std::rc::Rc;

/// One captured trace event with its simulated timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// When the event happened.
    pub time: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

// ----------------------------------------------------------------------
// KernelTrace
// ----------------------------------------------------------------------

/// The complete event stream of one kernel run, buffered in memory as
/// plain [`TraceRecord`]s. [`capture_traces`] fills one per kernel (it
/// is a [`TraceConsumer`] like any other); fixtures build them by hand.
#[derive(Debug, Clone)]
pub struct KernelTrace {
    /// The machine the kernel managed.
    pub machine: MachineSpec,
    /// The scheduling policy in force.
    pub policy: SchedPolicy,
    /// Every trace event in emission order.
    records: Vec<TraceRecord>,
    /// How the most recent `run`/`run_until` call ended, if any.
    pub outcome: Option<RunOutcome>,
    /// True when the run was truncated by the kernel's sim-time budget
    /// (see [`Kernel::set_sim_time_budget`](crate::Kernel::set_sim_time_budget))
    /// rather than by a caller-chosen `run_until` limit — the signal the
    /// resilient harness uses to classify a run as over-budget instead of
    /// normally windowed.
    pub budget_exhausted: bool,
    /// Labels of the shared objects registered with
    /// [`Kernel::register_shared`](crate::Kernel::register_shared), indexed
    /// by [`ShareId`](crate::ShareId). Metadata for diagnostics only — not
    /// part of [`KernelTrace::stable_hash`].
    pub shared_labels: Vec<String>,
}

impl KernelTrace {
    /// An empty trace for `machine` under `policy` (no events, no
    /// outcome). The starting point for capture sessions and hand-built
    /// fixture traces alike.
    pub fn new(machine: MachineSpec, policy: SchedPolicy) -> Self {
        KernelTrace {
            machine,
            policy,
            records: Vec::new(),
            outcome: None,
            budget_exhausted: false,
            shared_labels: Vec::new(),
        }
    }

    /// Iterates the captured events in emission order.
    pub fn records(&self) -> std::iter::Copied<std::slice::Iter<'_, TraceRecord>> {
        self.records.iter().copied()
    }

    /// The captured events copied into a vector (for consumers that
    /// need random access or slicing).
    pub fn records_vec(&self) -> Vec<TraceRecord> {
        self.records.clone()
    }

    /// Replaces the event stream with `records` (fixture construction
    /// and trace surgery in tests).
    pub fn set_records(&mut self, records: impl IntoIterator<Item = TraceRecord>) {
        self.records = records.into_iter().collect();
    }

    /// Number of captured events.
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// The bytes the buffered records occupy,
    /// `num_records × size_of::<TraceRecord>()` (diagnostics).
    pub fn encoded_len(&self) -> usize {
        self.records.len() * std::mem::size_of::<TraceRecord>()
    }

    /// A platform-independent FNV-1a hash over the full event stream
    /// (timestamps, event payloads, and the final outcome). Two runs of
    /// the same seeded program must produce equal hashes — the
    /// determinism contract the cell engine's reports and the golden
    /// hashes pin. Equal to what
    /// a [`TraceHasher`] fed the same stream reports.
    pub fn stable_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        for r in self.records() {
            std::hash::Hash::hash(&r, &mut h);
        }
        std::hash::Hash::hash(&self.outcome, &mut h);
        std::hash::Hash::hash(&self.budget_exhausted, &mut h);
        std::hash::Hasher::finish(&h)
    }

    /// The registration label of shared object `obj`, when known (traces
    /// captured before the object was registered, or hand-built traces,
    /// may lack labels).
    pub fn shared_label(&self, obj: crate::ShareId) -> Option<&str> {
        self.shared_labels.get(obj.index()).map(String::as_str)
    }

    /// Feeds this trace to `consumer` as a streaming capture of the same
    /// run would: every shared-object label, every record in order, then
    /// [`on_close`](TraceConsumer::on_close) with the outcome. Labels all
    /// arrive first (a live stream interleaves them with events), which
    /// is equivalent for consumers that only read labels when they
    /// finish.
    pub fn replay<C: TraceConsumer + ?Sized>(&self, consumer: &mut C) {
        for label in &self.shared_labels {
            consumer.on_shared_label(label);
        }
        for r in self.records() {
            consumer.on_event(r.time, &r.event);
        }
        consumer.on_close(self.outcome, self.budget_exhausted);
    }
}

/// Incremental FNV-1a fold over a sequence of 64-bit hashes, used to
/// collapse the per-kernel [`KernelTrace::stable_hash`] values of one
/// run (or the per-run hashes of one sweep cell) into a single number.
/// Order matters, exactly as it does for the underlying event streams.
#[derive(Debug, Clone, Copy)]
pub struct TraceHashFold(StableHasher);

impl TraceHashFold {
    /// An empty fold (the FNV-1a offset basis).
    pub fn new() -> Self {
        TraceHashFold(StableHasher::new())
    }

    /// Folds the little-endian bytes of one 64-bit hash into the
    /// accumulator.
    pub fn push(&mut self, hash: u64) {
        // `write_u64` feeds native-endian bytes; this value's native
        // bytes are `hash`'s little-endian ones on every platform.
        std::hash::Hasher::write_u64(&mut self.0, u64::from_ne_bytes(hash.to_le_bytes()));
    }

    /// The folded hash.
    pub fn finish(&self) -> u64 {
        std::hash::Hasher::finish(&self.0)
    }
}

impl Default for TraceHashFold {
    fn default() -> Self {
        TraceHashFold::new()
    }
}

/// Folds the [`KernelTrace::stable_hash`] of every trace in `traces`
/// into one hash (kernel creation order matters). This is the per-cell
/// hash the golden-hash regression test and the sweep engine's JSON
/// sink both record.
pub fn fold_trace_hashes(traces: &[KernelTrace]) -> u64 {
    let mut fold = TraceHashFold::new();
    for t in traces {
        fold.push(t.stable_hash());
    }
    fold.finish()
}

// ----------------------------------------------------------------------
// Streaming consumers
// ----------------------------------------------------------------------

/// An incremental consumer of one kernel's trace stream, fed by
/// [`capture_stream`] as events are emitted. One consumer instance is
/// created per kernel (in creation order); at session end each receives
/// [`on_close`](TraceConsumer::on_close) with the kernel's final outcome
/// and is handed back to the caller.
pub trait TraceConsumer {
    /// One event, in emission order.
    fn on_event(&mut self, time: SimTime, event: &TraceEvent);

    /// A shared-object label registered via `Kernel::register_shared`
    /// (labels arrive in [`ShareId`](crate::ShareId) order). Default: ignored.
    fn on_shared_label(&mut self, label: &str) {
        let _ = label;
    }

    /// The kernel's final [`RunOutcome`] and budget-exhaustion flag,
    /// delivered exactly once when the capture session ends. Default:
    /// ignored.
    fn on_close(&mut self, outcome: Option<RunOutcome>, budget_exhausted: bool) {
        let _ = (outcome, budget_exhausted);
    }
}

/// Streaming equivalent of [`KernelTrace::stable_hash`]: feed it the
/// same event stream (and let [`on_close`](TraceConsumer::on_close)
/// deliver the outcome) and [`finish`](TraceHasher::finish) returns the
/// identical hash — without a buffered trace ever existing.
#[derive(Debug, Clone)]
pub struct TraceHasher {
    h: StableHasher,
    closed: bool,
}

impl TraceHasher {
    /// A fresh hasher (no events folded yet).
    pub fn new() -> Self {
        TraceHasher {
            h: StableHasher::new(),
            closed: false,
        }
    }

    /// The accumulated hash. Matches [`KernelTrace::stable_hash`] only
    /// after [`on_close`](TraceConsumer::on_close) has folded in the
    /// outcome (capture sessions always deliver it).
    pub fn finish(&self) -> u64 {
        std::hash::Hasher::finish(&self.h)
    }

    /// Whether [`on_close`](TraceConsumer::on_close) has been delivered.
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}

impl Default for TraceHasher {
    fn default() -> Self {
        TraceHasher::new()
    }
}

impl TraceConsumer for TraceHasher {
    fn on_event(&mut self, time: SimTime, event: &TraceEvent) {
        let record = TraceRecord {
            time,
            event: *event,
        };
        std::hash::Hash::hash(&record, &mut self.h);
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>, budget_exhausted: bool) {
        std::hash::Hash::hash(&outcome, &mut self.h);
        std::hash::Hash::hash(&budget_exhausted, &mut self.h);
        self.closed = true;
    }
}

/// Object-safe carrier for a streaming consumer: [`TraceConsumer`] plus
/// the downcast hook [`capture_stream`] uses to hand the concrete value
/// back at session end.
pub(crate) trait AnyConsumer: TraceConsumer {
    /// Converts into `Box<dyn Any>` for downcasting.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

impl<T: TraceConsumer + 'static> AnyConsumer for T {
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

impl TraceConsumer for KernelTrace {
    fn on_event(&mut self, time: SimTime, event: &TraceEvent) {
        self.records.push(TraceRecord {
            time,
            event: *event,
        });
    }

    fn on_shared_label(&mut self, label: &str) {
        self.shared_labels.push(label.to_string());
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>, budget_exhausted: bool) {
        self.outcome = outcome;
        self.budget_exhausted = budget_exhausted;
    }
}

// ----------------------------------------------------------------------
// Capture sessions
// ----------------------------------------------------------------------

/// Where one kernel's events go: its session's consumer, plus the
/// outcome latched for [`TraceConsumer::on_close`] at session end. The
/// kernel holds an `Rc` to its sink.
pub(crate) struct Sink {
    /// `None` once the session has handed the consumer back: a kernel
    /// that outlives its session drops its later events.
    consumer: Option<Box<dyn AnyConsumer>>,
    outcome: Option<RunOutcome>,
    budget_exhausted: bool,
}

impl Sink {
    pub(crate) fn push_record(&mut self, time: SimTime, event: &TraceEvent) {
        if let Some(consumer) = &mut self.consumer {
            consumer.on_event(time, event);
        }
    }

    pub(crate) fn push_shared_label(&mut self, label: &str) {
        if let Some(consumer) = &mut self.consumer {
            consumer.on_shared_label(label);
        }
    }

    pub(crate) fn set_outcome(&mut self, outcome: RunOutcome, budget_exhausted: bool) {
        self.outcome = Some(outcome);
        self.budget_exhausted = budget_exhausted;
    }
}

pub(crate) type TraceSink = Rc<RefCell<Sink>>;

/// Builds one streaming consumer per registered kernel.
type ConsumerFactory = Box<dyn FnMut(&MachineSpec, SchedPolicy) -> Box<dyn AnyConsumer>>;

/// One active capture session: the sinks of kernels created while it is
/// active, and the factory that builds their consumers.
struct Session {
    sinks: Rc<RefCell<Vec<TraceSink>>>,
    factory: Rc<RefCell<ConsumerFactory>>,
}

thread_local! {
    /// Stack of active capture sessions on this OS thread (innermost
    /// last). Each session collects the sinks of kernels created while
    /// it is active.
    static SESSIONS: RefCell<Vec<Session>> = const { RefCell::new(Vec::new()) };

    /// Whether kernels created on this OS thread emit shared-access
    /// annotation events. Defaults to on; flipped by
    /// [`set_access_tracing`] (e.g. by the regression test proving that
    /// access tracing never changes a scheduling decision).
    static ACCESS_TRACING: std::cell::Cell<bool> = const { std::cell::Cell::new(true) };
}

/// Enables or disables shared-access annotation events
/// (`SharedRead`/`SharedWrite`/`SharedAtomic`/`ThreadJoin`) for kernels
/// subsequently created on the calling OS thread; returns the previous
/// setting. Each kernel latches the flag at construction, so a run's
/// event stream is all-or-nothing. Annotation is on by default.
///
/// Scheduling is completely insensitive to this flag — it only controls
/// whether the annotation events appear in traces.
pub fn set_access_tracing(enabled: bool) -> bool {
    ACCESS_TRACING.with(|c| c.replace(enabled))
}

/// Whether shared-access annotation events are currently enabled on the
/// calling OS thread (see [`set_access_tracing`]).
pub fn access_tracing_enabled() -> bool {
    ACCESS_TRACING.with(std::cell::Cell::get)
}

/// Called by `Kernel::new`: if a capture session is active on this OS
/// thread, allocate a sink for the new kernel and register it.
pub(crate) fn register_kernel(machine: &MachineSpec, policy: SchedPolicy) -> Option<TraceSink> {
    // Clone the session handles out before touching user code (a
    // consumer factory must be free to use the trace API itself).
    let (sinks, factory) = SESSIONS.with(|s| {
        let sessions = s.borrow();
        sessions
            .last()
            .map(|sess| (sess.sinks.clone(), sess.factory.clone()))
    })?;
    let sink = Rc::new(RefCell::new(Sink {
        consumer: Some((factory.borrow_mut())(machine, policy)),
        outcome: None,
        budget_exhausted: false,
    }));
    sinks.borrow_mut().push(sink.clone());
    Some(sink)
}

/// Ends the innermost session on drop even if the closure panics, so a
/// poisoned session never leaks into later captures on the same thread.
struct SessionGuard;

impl Drop for SessionGuard {
    fn drop(&mut self) {
        SESSIONS.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Runs `f` with trace capture enabled and returns its result together
/// with the buffered trace of every kernel created (on this OS thread)
/// while it ran, in creation order: [`capture_stream`] with a
/// [`KernelTrace`] as each kernel's consumer.
///
/// Capture is transparent to the code under test: tracing never affects
/// scheduling decisions.
///
/// # Examples
///
/// ```
/// use asym_kernel::{capture_traces, FnThread, Kernel, SchedPolicy, SpawnOptions, Step};
/// use asym_sim::{Cycles, MachineSpec, Speed};
///
/// let ((), traces) = capture_traces(|| {
///     let machine = MachineSpec::symmetric(2, Speed::FULL);
///     let mut k = Kernel::new(machine, SchedPolicy::os_default(), 7);
///     k.spawn(
///         FnThread::new("w", |_cx| Step::Done),
///         SpawnOptions::new(),
///     );
///     k.run();
/// });
/// assert_eq!(traces.len(), 1);
/// assert!(traces[0].num_records() > 0);
/// ```
pub fn capture_traces<R>(f: impl FnOnce() -> R) -> (R, Vec<KernelTrace>) {
    capture_stream(
        |machine, policy| KernelTrace::new(machine.clone(), policy),
        f,
    )
}

/// Runs `f` with trace capture: every kernel created (on this OS thread)
/// while it runs gets a fresh consumer from `factory`, and its events are
/// fed into that consumer as they are emitted, so trace memory is bounded
/// by the consumers' own state.
///
/// At session end each consumer receives
/// [`on_close`](TraceConsumer::on_close) with its kernel's final
/// outcome, and the consumers are returned in kernel-creation order.
///
/// A kernel that outlives the capture scope keeps running but its later
/// events are dropped (the consumer was already handed back); kernels
/// run to completion inside the closure in every harness path, so this
/// is a correctness backstop, not an expected mode.
pub fn capture_stream<R, C, F>(mut factory: F, f: impl FnOnce() -> R) -> (R, Vec<C>)
where
    C: TraceConsumer + 'static,
    F: FnMut(&MachineSpec, SchedPolicy) -> C + 'static,
{
    let sinks: Rc<RefCell<Vec<TraceSink>>> = Rc::new(RefCell::new(Vec::new()));
    let erased: ConsumerFactory =
        Box::new(move |machine, policy| Box::new(factory(machine, policy)));
    SESSIONS.with(|s| {
        s.borrow_mut().push(Session {
            sinks: sinks.clone(),
            factory: Rc::new(RefCell::new(erased)),
        })
    });
    let guard = SessionGuard;
    let result = f();
    drop(guard);
    let consumers = sinks
        .take()
        .into_iter()
        .map(|sink| {
            // Taking the consumer detaches a kernel that outlived the
            // capture scope: its later events are dropped.
            let mut sink = sink.borrow_mut();
            let mut consumer = sink.consumer.take().expect("each consumer is taken once");
            consumer.on_close(sink.outcome, sink.budget_exhausted);
            *consumer
                .into_any()
                .downcast::<C>()
                .expect("streaming consumer downcast to its factory type")
        })
        .collect();
    (result, consumers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AtomicOp, PreemptReason, WakeReason};
    use crate::thread::{ShareId, ThreadId, WaitId};
    use asym_sim::SimDuration;
    use asym_sim::{CoreId, CoreMask, Speed};
    use std::hash::{Hash, Hasher};

    /// At least one record of every [`TraceEvent`] variant, with payloads
    /// at the codec's edges.
    #[allow(clippy::enum_glob_use)]
    fn every_variant() -> Vec<TraceRecord> {
        use TraceEvent::*;
        let t = |ns| SimTime::from_nanos(ns);
        vec![
            TraceRecord {
                time: t(0),
                event: Spawn {
                    tid: ThreadId(0),
                    core: CoreId(1),
                    affinity: CoreMask::ALL,
                    parent: None,
                },
            },
            TraceRecord {
                time: t(5),
                event: Spawn {
                    tid: ThreadId(700),
                    core: CoreId(63),
                    affinity: CoreMask::single(CoreId(3)),
                    parent: Some(ThreadId(0)),
                },
            },
            TraceRecord {
                time: t(5),
                event: Dispatch {
                    tid: ThreadId(1),
                    core: CoreId(0),
                },
            },
            TraceRecord {
                time: t(9),
                event: Migrate {
                    tid: ThreadId(1),
                    from: CoreId(0),
                    to: CoreId(3),
                },
            },
            TraceRecord {
                time: t(9),
                event: Preempt {
                    tid: ThreadId(1),
                    core: CoreId(3),
                    reason: PreemptReason::StepBoundary,
                },
            },
            TraceRecord {
                time: t(10),
                event: Steal {
                    tid: ThreadId(2),
                    from: CoreId(3),
                    to: CoreId(0),
                },
            },
            TraceRecord {
                time: t(11),
                event: Wakeup {
                    tid: ThreadId(2),
                    core: CoreId(0),
                    reason: WakeReason::Timer,
                },
            },
            TraceRecord {
                time: t(12),
                event: Block {
                    tid: ThreadId(2),
                    wait: WaitId(4),
                },
            },
            TraceRecord {
                time: t(13),
                event: Sleep { tid: ThreadId(2) },
            },
            TraceRecord {
                time: t(14),
                event: Signal {
                    waker: None,
                    wait: WaitId(4),
                    woken: 0,
                },
            },
            TraceRecord {
                time: t(14),
                event: Signal {
                    waker: Some(ThreadId(3)),
                    wait: WaitId(4),
                    woken: 129,
                },
            },
            TraceRecord {
                time: t(15),
                event: SetAffinity {
                    tid: ThreadId(3),
                    affinity: CoreMask::from_bits(0b1010),
                },
            },
            TraceRecord {
                time: t(16),
                event: Done { tid: ThreadId(3) },
            },
            TraceRecord {
                time: t(20),
                event: BarrierArrive {
                    tid: ThreadId(5),
                    barrier: WaitId(11),
                    released: false,
                },
            },
            TraceRecord {
                time: t(23),
                event: QueuePush {
                    tid: ThreadId(6),
                    queue: WaitId(13),
                },
            },
            TraceRecord {
                time: t(24),
                event: QueuePop {
                    tid: ThreadId(6),
                    queue: WaitId(13),
                },
            },
            TraceRecord {
                time: t(25),
                event: SpeedChange {
                    core: CoreId(2),
                    speed: Speed::new(0.375),
                },
            },
            TraceRecord {
                time: t(25),
                event: Rerank { core: CoreId(2) },
            },
            TraceRecord {
                time: t(26),
                event: CoreOffline { core: CoreId(1) },
            },
            TraceRecord {
                time: t(27),
                event: CoreOnline { core: CoreId(1) },
            },
            TraceRecord {
                time: t(28),
                event: AffinityOverride {
                    tid: ThreadId(7),
                    affinity: CoreMask::ALL,
                },
            },
            TraceRecord {
                time: t(29),
                event: ThreadKilled { tid: ThreadId(7) },
            },
            TraceRecord {
                time: t(30),
                event: SharedRead {
                    tid: ThreadId(8),
                    obj: ShareId(1),
                    word: 0,
                },
            },
            TraceRecord {
                time: t(31),
                event: SharedWrite {
                    tid: ThreadId(8),
                    obj: ShareId(1),
                    word: 300,
                },
            },
            TraceRecord {
                time: t(32),
                event: SharedAtomic {
                    tid: ThreadId(8),
                    obj: ShareId(2),
                    word: 7,
                    op: AtomicOp::Rmw,
                },
            },
            TraceRecord {
                time: t(33),
                event: ThreadJoin {
                    by: ThreadId(9),
                    of: ThreadId(8),
                },
            },
        ]
    }

    #[test]
    fn every_event_variant_roundtrips() {
        // A buffered trace is a consumer like any other: `replay` hands
        // on exactly what it took in, and its stable hash is the one a
        // `TraceHasher` fed the same stream reports.
        let records = every_variant();
        let machine = MachineSpec::symmetric(2, Speed::FULL);
        let mut trace = KernelTrace::new(machine.clone(), SchedPolicy::os_default());
        trace.on_shared_label("x");
        for r in &records {
            trace.on_event(r.time, &r.event);
        }
        trace.on_close(Some(RunOutcome::Deadlock(3)), true);
        let mut copy = KernelTrace::new(machine, SchedPolicy::os_default());
        trace.replay(&mut copy);
        let mut hasher = TraceHasher::new();
        trace.replay(&mut hasher);
        assert_eq!(copy.records_vec(), records);
        assert_eq!(copy.shared_labels, ["x"]);
        assert_eq!(copy.outcome, Some(RunOutcome::Deadlock(3)));
        assert!(copy.budget_exhausted);
        assert_eq!(copy.stable_hash(), trace.stable_hash());
        assert_eq!(hasher.finish(), trace.stable_hash());
        assert_eq!(
            trace.encoded_len(),
            records.len() * std::mem::size_of::<TraceRecord>()
        );
    }

    /// FNV-1a that implements only [`Hasher::write`], so every integer
    /// takes the default `write(&i.to_ne_bytes())` byte loop: the
    /// reference the word-wise [`StableHasher`] writes must reproduce.
    struct ByteLoopFnv(u64);

    impl ByteLoopFnv {
        fn new() -> Self {
            ByteLoopFnv(0xcbf2_9ce4_8422_2325)
        }
    }

    impl Hasher for ByteLoopFnv {
        fn finish(&self) -> u64 {
            self.0
        }

        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    #[test]
    fn every_variant_hashes_as_pinned() {
        // One fresh `TraceHasher` per record of `every_variant`. The
        // derived `Hash` feeds the enum discriminant, so these values
        // move if a variant's discriminant ever shifts; the golden
        // matrix alone does not reach every variant. Each value must
        // also equal the byte-loop reference, and so must the whole
        // stream, its close and the `TraceHashFold` of the values.
        let records = every_variant();
        let mut stream = TraceHasher::new();
        let mut stream_ref = ByteLoopFnv::new();
        let mut fold = TraceHashFold::new();
        let mut fold_ref = ByteLoopFnv::new();
        let mut hashes = Vec::new();
        for r in &records {
            let mut h = TraceHasher::new();
            h.on_event(r.time, &r.event);
            let mut h_ref = ByteLoopFnv::new();
            r.hash(&mut h_ref);
            assert_eq!(h.finish(), h_ref.finish(), "{r:?}");
            hashes.push(h.finish());
            fold.push(h.finish());
            fold_ref.write(&h.finish().to_le_bytes());
            stream.on_event(r.time, &r.event);
            r.hash(&mut stream_ref);
        }
        assert_eq!(hashes, PINNED_HASHES);
        assert_eq!(fold.finish(), fold_ref.finish());
        stream.on_close(Some(RunOutcome::Deadlock(3)), true);
        Some(RunOutcome::Deadlock(3)).hash(&mut stream_ref);
        true.hash(&mut stream_ref);
        assert_eq!(stream.finish(), stream_ref.finish());
    }

    /// Captured before the lock, condition-variable and semaphore events
    /// were removed, in `every_variant` order.
    const PINNED_HASHES: [u64; 26] = [
        0x0f75_fa5b_4948_a5fc,
        0x9c7d_f9dc_e85d_6824,
        0xc970_256a_c910_8540,
        0x6b83_9583_f741_23ac,
        0x1284_6e3d_222d_0b6c,
        0x5f3a_edab_7998_a80a,
        0x57fe_baf6_8bb7_eb88,
        0xefeb_8bc4_f7f8_1ce9,
        0xe0c6_45f0_a82e_f7ad,
        0x09b1_92b6_d688_5907,
        0xd530_fd19_e890_b1e4,
        0x6179_7359_828e_6c0a,
        0xa549_5848_74df_dd3c,
        0xfdfd_7542_4850_9e63,
        0x091c_bc59_c1cf_8f68,
        0xfacd_2ef5_8fab_2c44,
        0xf5d8_a098_2f8f_a7a8,
        0x0cfe_4ea5_9cf8_e0ea,
        0x12fc_6d87_b732_3dab,
        0x9d56_ae83_e6b3_3b09,
        0xbc5f_4e34_2050_eec1,
        0xd14d_35c3_91a9_4907,
        0x9ec9_b333_ce25_899b,
        0x67aa_297d_345d_e8ca,
        0x3f30_ec79_da34_e181,
        0x300f_d937_e9f9_9bd9,
    ];

    #[test]
    fn set_records_replaces_stream() {
        let machine = MachineSpec::symmetric(1, Speed::FULL);
        let mut trace = KernelTrace::new(machine, SchedPolicy::os_default());
        trace.on_event(
            SimTime::from_nanos(4),
            &TraceEvent::Sleep { tid: ThreadId(0) },
        );
        let replacement = vec![
            TraceRecord {
                time: SimTime::from_nanos(1),
                event: TraceEvent::Done { tid: ThreadId(2) },
            },
            TraceRecord {
                time: SimTime::from_nanos(2),
                event: TraceEvent::Done { tid: ThreadId(3) },
            },
        ];
        trace.set_records(replacement.clone());
        assert_eq!(trace.records_vec(), replacement);
    }

    /// Two compute threads on a 1f-1s machine, spawned but not run.
    fn two_workers() -> crate::Kernel {
        let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(4));
        let mut k = crate::Kernel::new(machine, SchedPolicy::asymmetry_aware(), 99);
        for _ in 0..2 {
            let mut bursts = 3u32;
            k.spawn(
                crate::FnThread::new("w", move |_cx| {
                    if bursts == 0 {
                        crate::Step::Done
                    } else {
                        bursts -= 1;
                        crate::Step::Compute(asym_sim::Cycles::from_millis_at_full_speed(0.2))
                    }
                }),
                crate::SpawnOptions::new(),
            );
        }
        k
    }

    #[test]
    fn kernel_outliving_its_capture_scope_is_detached() {
        let half = SimTime::ZERO + SimDuration::from_micros(300);
        let ((), stopped) = capture_traces(|| {
            two_workers().run_until(half);
        });
        let (mut kept, traces) = capture_traces(|| {
            let mut k = two_workers();
            k.run_until(half);
            k
        });
        assert_eq!(kept.run(), RunOutcome::AllDone);
        let (mut kept, hashers) = capture_stream(
            |_, _| TraceHasher::new(),
            || {
                let mut k = two_workers();
                k.run_until(half);
                k
            },
        );
        assert_eq!(kept.run(), RunOutcome::AllDone);
        // Both captures end where the scope did: the same events and
        // outcome as a run stopped there, and the same hash.
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].records_vec(), stopped[0].records_vec());
        assert_eq!(traces[0].outcome, Some(RunOutcome::TimeLimit));
        assert_eq!(traces[0].stable_hash(), stopped[0].stable_hash());
        assert_eq!(hashers.len(), 1);
        assert!(hashers[0].is_closed());
        assert_eq!(hashers[0].finish(), traces[0].stable_hash());
        // The run did go on past the scope.
        let ((), full) = capture_traces(|| {
            two_workers().run();
        });
        assert!(full[0].num_records() > traces[0].num_records());
    }
}
