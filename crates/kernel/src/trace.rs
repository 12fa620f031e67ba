//! Trace capture: recording the complete [`TraceEvent`] stream of every
//! kernel built inside a closure, without touching workload code.
//!
//! Workloads construct their [`Kernel`](crate::Kernel)s internally, so a
//! checker cannot install a tracer by hand. [`capture_traces`] instead
//! registers a thread-local capture session: every kernel *created on the
//! current OS thread* while the closure runs appends its events (and its
//! final [`RunOutcome`]) to a [`KernelTrace`]. Sessions nest, and each
//! OS thread has its own session, so captured runs may execute on
//! parallel worker threads as the experiment harness does.
//!
//! Two capture modes share the same sink plumbing:
//!
//! * **Buffered** ([`capture_traces`]) materializes one [`KernelTrace`]
//!   per kernel. Events are stored in a compact wire encoding
//!   (varint/delta timestamps, varint object ids — typically 4–6 bytes
//!   per event instead of the 56 of a [`TraceRecord`]), decoded on
//!   demand by [`KernelTrace::records`].
//! * **Streaming** ([`capture_stream`]) never buffers: each kernel's
//!   events are pushed into a caller-supplied [`TraceConsumer`] as they
//!   are emitted, bounding trace memory to the consumer's own state —
//!   O(1) for the profile folds the sweep engine uses.

use crate::kernel::{AtomicOp, PreemptReason, RunOutcome, TraceEvent, WakeReason};
use crate::policy::SchedPolicy;
use crate::thread::{ShareId, ThreadId, WaitId};
use asym_sim::{CoreId, CoreMask, MachineSpec, SimTime, Speed, StableHasher};
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
// Compact event encoding
// ----------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = more).
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Reads one LEB128 varint starting at `*pos`, advancing `*pos`.
fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn put_opt_tid(buf: &mut Vec<u8>, tid: Option<ThreadId>) {
    put_varint(buf, tid.map_or(0, |t| t.index() as u64 + 1));
}

fn get_opt_tid(bytes: &[u8], pos: &mut usize) -> Option<ThreadId> {
    match get_varint(bytes, pos) {
        0 => None,
        n => Some(ThreadId(n as usize - 1)),
    }
}

fn get_tid(bytes: &[u8], pos: &mut usize) -> ThreadId {
    ThreadId(get_varint(bytes, pos) as usize)
}

fn get_wait(bytes: &[u8], pos: &mut usize) -> WaitId {
    WaitId(get_varint(bytes, pos) as usize)
}

fn get_share(bytes: &[u8], pos: &mut usize) -> ShareId {
    ShareId(get_varint(bytes, pos) as usize)
}

fn get_core(bytes: &[u8], pos: &mut usize) -> CoreId {
    CoreId(get_varint(bytes, pos) as usize)
}

fn get_byte(bytes: &[u8], pos: &mut usize) -> u8 {
    let b = bytes[*pos];
    *pos += 1;
    b
}

/// Appends the tag byte and payload of `event` to `buf`. The inverse of
/// [`decode_event`]; both must enumerate variants in identical order.
#[allow(clippy::enum_glob_use)]
fn encode_event(buf: &mut Vec<u8>, event: &TraceEvent) {
    use TraceEvent::*;
    match *event {
        Spawn {
            tid,
            core,
            affinity,
            parent,
        } => {
            buf.push(0);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, core.0 as u64);
            put_varint(buf, affinity.bits());
            put_opt_tid(buf, parent);
        }
        Dispatch { tid, core } => {
            buf.push(1);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, core.0 as u64);
        }
        Migrate { tid, from, to } => {
            buf.push(2);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, from.0 as u64);
            put_varint(buf, to.0 as u64);
        }
        Preempt { tid, core, reason } => {
            buf.push(3);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, core.0 as u64);
            buf.push(match reason {
                PreemptReason::Quantum => 0,
                PreemptReason::StepBoundary => 1,
                PreemptReason::Yield => 2,
                PreemptReason::Interrupt => 3,
            });
        }
        Steal { tid, from, to } => {
            buf.push(4);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, from.0 as u64);
            put_varint(buf, to.0 as u64);
        }
        Wakeup { tid, core, reason } => {
            buf.push(5);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, core.0 as u64);
            buf.push(match reason {
                WakeReason::Signal => 0,
                WakeReason::Timer => 1,
            });
        }
        Block { tid, wait } => {
            buf.push(6);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, wait.index() as u64);
        }
        Sleep { tid } => {
            buf.push(7);
            put_varint(buf, tid.index() as u64);
        }
        Signal { waker, wait, woken } => {
            buf.push(8);
            put_opt_tid(buf, waker);
            put_varint(buf, wait.index() as u64);
            put_varint(buf, woken as u64);
        }
        SetAffinity { tid, affinity } => {
            buf.push(9);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, affinity.bits());
        }
        Done { tid } => {
            buf.push(10);
            put_varint(buf, tid.index() as u64);
        }
        BarrierArrive {
            tid,
            barrier,
            released,
        } => {
            buf.push(14);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, barrier.index() as u64);
            buf.push(u8::from(released));
        }
        QueuePush { tid, queue } => {
            buf.push(17);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, queue.index() as u64);
        }
        QueuePop { tid, queue } => {
            buf.push(18);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, queue.index() as u64);
        }
        SpeedChange { core, speed } => {
            buf.push(19);
            put_varint(buf, core.0 as u64);
            buf.extend_from_slice(&speed.factor().to_bits().to_le_bytes());
        }
        Rerank { core } => {
            buf.push(20);
            put_varint(buf, core.0 as u64);
        }
        CoreOffline { core } => {
            buf.push(21);
            put_varint(buf, core.0 as u64);
        }
        CoreOnline { core } => {
            buf.push(22);
            put_varint(buf, core.0 as u64);
        }
        AffinityOverride { tid, affinity } => {
            buf.push(23);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, affinity.bits());
        }
        ThreadKilled { tid } => {
            buf.push(24);
            put_varint(buf, tid.index() as u64);
        }
        SharedRead { tid, obj, word } => {
            buf.push(25);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, obj.index() as u64);
            put_varint(buf, u64::from(word));
        }
        SharedWrite { tid, obj, word } => {
            buf.push(26);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, obj.index() as u64);
            put_varint(buf, u64::from(word));
        }
        SharedAtomic { tid, obj, word, op } => {
            buf.push(27);
            put_varint(buf, tid.index() as u64);
            put_varint(buf, obj.index() as u64);
            put_varint(buf, u64::from(word));
            buf.push(match op {
                AtomicOp::Load => 0,
                AtomicOp::Store => 1,
                AtomicOp::Rmw => 2,
            });
        }
        ThreadJoin { by, of } => {
            buf.push(28);
            put_varint(buf, by.index() as u64);
            put_varint(buf, of.index() as u64);
        }
    }
}

/// Decodes one event starting at `*pos` (the tag byte), advancing `*pos`
/// past its payload.
///
/// # Panics
///
/// Panics on a malformed buffer — encoding is internal, so corruption is
/// a bug, not an input error.
#[allow(clippy::enum_glob_use)]
fn decode_event(bytes: &[u8], pos: &mut usize) -> TraceEvent {
    use TraceEvent::*;
    let tag = get_byte(bytes, pos);
    match tag {
        0 => Spawn {
            tid: get_tid(bytes, pos),
            core: get_core(bytes, pos),
            affinity: CoreMask::from_bits(get_varint(bytes, pos)),
            parent: get_opt_tid(bytes, pos),
        },
        1 => Dispatch {
            tid: get_tid(bytes, pos),
            core: get_core(bytes, pos),
        },
        2 => Migrate {
            tid: get_tid(bytes, pos),
            from: get_core(bytes, pos),
            to: get_core(bytes, pos),
        },
        3 => Preempt {
            tid: get_tid(bytes, pos),
            core: get_core(bytes, pos),
            reason: match get_byte(bytes, pos) {
                0 => PreemptReason::Quantum,
                1 => PreemptReason::StepBoundary,
                2 => PreemptReason::Yield,
                _ => PreemptReason::Interrupt,
            },
        },
        4 => Steal {
            tid: get_tid(bytes, pos),
            from: get_core(bytes, pos),
            to: get_core(bytes, pos),
        },
        5 => Wakeup {
            tid: get_tid(bytes, pos),
            core: get_core(bytes, pos),
            reason: match get_byte(bytes, pos) {
                0 => WakeReason::Signal,
                _ => WakeReason::Timer,
            },
        },
        6 => Block {
            tid: get_tid(bytes, pos),
            wait: get_wait(bytes, pos),
        },
        7 => Sleep {
            tid: get_tid(bytes, pos),
        },
        8 => Signal {
            waker: get_opt_tid(bytes, pos),
            wait: get_wait(bytes, pos),
            woken: get_varint(bytes, pos) as usize,
        },
        9 => SetAffinity {
            tid: get_tid(bytes, pos),
            affinity: CoreMask::from_bits(get_varint(bytes, pos)),
        },
        10 => Done {
            tid: get_tid(bytes, pos),
        },
        14 => BarrierArrive {
            tid: get_tid(bytes, pos),
            barrier: get_wait(bytes, pos),
            released: get_byte(bytes, pos) != 0,
        },
        17 => QueuePush {
            tid: get_tid(bytes, pos),
            queue: get_wait(bytes, pos),
        },
        18 => QueuePop {
            tid: get_tid(bytes, pos),
            queue: get_wait(bytes, pos),
        },
        19 => SpeedChange {
            core: get_core(bytes, pos),
            speed: {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&bytes[*pos..*pos + 8]);
                *pos += 8;
                Speed::new(f64::from_bits(u64::from_le_bytes(raw)))
            },
        },
        20 => Rerank {
            core: get_core(bytes, pos),
        },
        21 => CoreOffline {
            core: get_core(bytes, pos),
        },
        22 => CoreOnline {
            core: get_core(bytes, pos),
        },
        23 => AffinityOverride {
            tid: get_tid(bytes, pos),
            affinity: CoreMask::from_bits(get_varint(bytes, pos)),
        },
        24 => ThreadKilled {
            tid: get_tid(bytes, pos),
        },
        25 => SharedRead {
            tid: get_tid(bytes, pos),
            obj: get_share(bytes, pos),
            word: get_varint(bytes, pos) as u32,
        },
        26 => SharedWrite {
            tid: get_tid(bytes, pos),
            obj: get_share(bytes, pos),
            word: get_varint(bytes, pos) as u32,
        },
        27 => SharedAtomic {
            tid: get_tid(bytes, pos),
            obj: get_share(bytes, pos),
            word: get_varint(bytes, pos) as u32,
            op: match get_byte(bytes, pos) {
                0 => AtomicOp::Load,
                1 => AtomicOp::Store,
                _ => AtomicOp::Rmw,
            },
        },
        28 => ThreadJoin {
            by: get_tid(bytes, pos),
            of: get_tid(bytes, pos),
        },
        other => panic!("corrupt compact trace: unknown event tag {other}"),
    }
}

/// The compact wire form of an event stream: per record, a varint
/// wrapping-delta timestamp followed by a tag byte and varint payload.
/// Wrapping deltas make the encoding total — even a hand-built,
/// non-monotonic record sequence round-trips exactly.
#[derive(Debug, Clone, Default)]
struct CompactEvents {
    bytes: Vec<u8>,
    len: usize,
    last: u64,
}

impl CompactEvents {
    fn push(&mut self, time: SimTime, event: &TraceEvent) {
        let nanos = time.as_nanos();
        put_varint(&mut self.bytes, nanos.wrapping_sub(self.last));
        self.last = nanos;
        encode_event(&mut self.bytes, event);
        self.len += 1;
    }

    fn iter(&self) -> TraceRecords<'_> {
        TraceRecords {
            bytes: &self.bytes,
            pos: 0,
            remaining: self.len,
            last: 0,
        }
    }
}

/// Decoding iterator over a [`KernelTrace`]'s compactly encoded events,
/// yielding [`TraceRecord`]s in emission order. Created by
/// [`KernelTrace::records`].
#[derive(Debug, Clone)]
pub struct TraceRecords<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
    last: u64,
}

impl Iterator for TraceRecords<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.last = self
            .last
            .wrapping_add(get_varint(self.bytes, &mut self.pos));
        let event = decode_event(self.bytes, &mut self.pos);
        Some(TraceRecord {
            time: SimTime::from_nanos(self.last),
            event,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TraceRecords<'_> {}

// ----------------------------------------------------------------------
// KernelTrace
// ----------------------------------------------------------------------

/// The complete event stream of one kernel run, captured by
/// [`capture_traces`]. Events are held in a compact varint/delta
/// encoding; [`records`](KernelTrace::records) decodes them on demand.
#[derive(Debug, Clone)]
pub struct KernelTrace {
    /// The machine the kernel managed.
    pub machine: MachineSpec,
    /// The scheduling policy in force.
    pub policy: SchedPolicy,
    /// Every trace event in emission order, compactly encoded.
    events: CompactEvents,
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
    /// outcome). The starting point for capture sinks and hand-built
    /// fixture traces alike.
    pub fn new(machine: MachineSpec, policy: SchedPolicy) -> Self {
        KernelTrace {
            machine,
            policy,
            events: CompactEvents::default(),
            outcome: None,
            budget_exhausted: false,
            shared_labels: Vec::new(),
        }
    }

    /// Appends one event to the trace.
    pub fn push_record(&mut self, time: SimTime, event: &TraceEvent) {
        self.events.push(time, event);
    }

    /// Iterates the captured events in emission order, decoding each
    /// [`TraceRecord`] from the compact encoding. For random access,
    /// collect with [`records_vec`](KernelTrace::records_vec).
    pub fn records(&self) -> TraceRecords<'_> {
        self.events.iter()
    }

    /// The captured events materialized into a vector (for consumers
    /// that need random access or slicing).
    pub fn records_vec(&self) -> Vec<TraceRecord> {
        self.records().collect()
    }

    /// Replaces the event stream with `records` (fixture construction
    /// and trace surgery in tests).
    pub fn set_records(&mut self, records: impl IntoIterator<Item = TraceRecord>) {
        self.events = CompactEvents::default();
        for r in records {
            self.events.push(r.time, &r.event);
        }
    }

    /// Number of captured events.
    pub fn num_records(&self) -> usize {
        self.events.len
    }

    /// Size of the compact event encoding in bytes (diagnostics).
    pub fn encoded_len(&self) -> usize {
        self.events.bytes.len()
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
    /// (labels arrive in [`ShareId`] order). Default: ignored.
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

// ----------------------------------------------------------------------
// Capture sessions
// ----------------------------------------------------------------------

/// Where one kernel's events go. The kernel holds an `Rc` to its sink
/// and pushes through [`SinkKind`]'s methods, oblivious to the mode.
pub(crate) enum SinkKind {
    /// Buffered capture: materialize a [`KernelTrace`].
    Buffer(KernelTrace),
    /// Streaming capture: feed a consumer, latching the outcome so
    /// [`TraceConsumer::on_close`] can deliver it at session end.
    Stream {
        consumer: Box<dyn AnyConsumer>,
        outcome: Option<RunOutcome>,
        budget_exhausted: bool,
    },
    /// Tombstone left behind when a streaming kernel outlives its
    /// session: the consumer is gone, later events are dropped.
    Detached,
}

impl std::fmt::Debug for SinkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SinkKind::Buffer(trace) => f.debug_tuple("Buffer").field(trace).finish(),
            SinkKind::Stream {
                outcome,
                budget_exhausted,
                ..
            } => f
                .debug_struct("Stream")
                .field("outcome", outcome)
                .field("budget_exhausted", budget_exhausted)
                .finish_non_exhaustive(),
            SinkKind::Detached => f.write_str("Detached"),
        }
    }
}

impl SinkKind {
    pub(crate) fn push_record(&mut self, time: SimTime, event: &TraceEvent) {
        match self {
            SinkKind::Buffer(trace) => trace.push_record(time, event),
            SinkKind::Stream { consumer, .. } => consumer.on_event(time, event),
            SinkKind::Detached => {}
        }
    }

    pub(crate) fn push_shared_label(&mut self, label: &str) {
        match self {
            SinkKind::Buffer(trace) => trace.shared_labels.push(label.to_string()),
            SinkKind::Stream { consumer, .. } => consumer.on_shared_label(label),
            SinkKind::Detached => {}
        }
    }

    pub(crate) fn set_outcome(&mut self, outcome: RunOutcome, budget_exhausted: bool) {
        match self {
            SinkKind::Buffer(trace) => {
                trace.outcome = Some(outcome);
                trace.budget_exhausted = budget_exhausted;
            }
            SinkKind::Stream {
                outcome: latched,
                budget_exhausted: latched_budget,
                ..
            } => {
                *latched = Some(outcome);
                *latched_budget = budget_exhausted;
            }
            SinkKind::Detached => {}
        }
    }
}

pub(crate) type TraceSink = Rc<RefCell<SinkKind>>;

/// Builds one streaming consumer per registered kernel.
type ConsumerFactory = Box<dyn FnMut(&MachineSpec, SchedPolicy) -> Box<dyn AnyConsumer>>;

/// One active capture session: the sinks of kernels created while it is
/// active, plus (for streaming sessions) the consumer factory.
struct Session {
    sinks: Rc<RefCell<Vec<TraceSink>>>,
    factory: Option<Rc<RefCell<ConsumerFactory>>>,
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
    let kind = match factory {
        Some(make) => SinkKind::Stream {
            consumer: (make.borrow_mut())(machine, policy),
            outcome: None,
            budget_exhausted: false,
        },
        None => SinkKind::Buffer(KernelTrace::new(machine.clone(), policy)),
    };
    let sink = Rc::new(RefCell::new(kind));
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
/// with the trace of every kernel created (on this OS thread) while it
/// ran, in creation order.
///
/// Capture is transparent to the code under test: tracing never affects
/// scheduling decisions, and any tracer installed with
/// [`Kernel::set_tracer`](crate::Kernel::set_tracer) still runs.
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
    let sinks: Rc<RefCell<Vec<TraceSink>>> = Rc::new(RefCell::new(Vec::new()));
    SESSIONS.with(|s| {
        s.borrow_mut().push(Session {
            sinks: sinks.clone(),
            factory: None,
        })
    });
    let guard = SessionGuard;
    let result = f();
    drop(guard);
    let sinks = Rc::try_unwrap(sinks)
        .expect("capture session still referenced")
        .into_inner();
    let traces = sinks
        .into_iter()
        .map(|sink| {
            let kind = match Rc::try_unwrap(sink) {
                Ok(cell) => cell.into_inner(),
                // The kernel outlived the capture scope; snapshot its
                // trace (buffered sinks are cloneable).
                Err(shared) => match &*shared.borrow() {
                    SinkKind::Buffer(trace) => return trace.clone(),
                    _ => unreachable!("buffered session held a streaming sink"),
                },
            };
            match kind {
                SinkKind::Buffer(trace) => trace,
                _ => unreachable!("buffered session held a streaming sink"),
            }
        })
        .collect();
    (result, traces)
}

/// Runs `f` with *streaming* trace capture: every kernel created (on
/// this OS thread) while it runs gets a fresh consumer from `factory`,
/// and its events are fed into that consumer as they are emitted — no
/// [`KernelTrace`] is ever materialized, so trace memory is bounded by
/// the consumers' own state.
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
            factory: Some(Rc::new(RefCell::new(erased))),
        })
    });
    let guard = SessionGuard;
    let result = f();
    drop(guard);
    let sinks = Rc::try_unwrap(sinks)
        .expect("capture session still referenced")
        .into_inner();
    let consumers = sinks
        .into_iter()
        .map(|sink| {
            let kind = match Rc::try_unwrap(sink) {
                Ok(cell) => cell.into_inner(),
                // The kernel outlived the capture scope: detach it (its
                // later events are dropped) and take the consumer.
                Err(shared) => std::mem::replace(&mut *shared.borrow_mut(), SinkKind::Detached),
            };
            match kind {
                SinkKind::Stream {
                    mut consumer,
                    outcome,
                    budget_exhausted,
                } => {
                    consumer.on_close(outcome, budget_exhausted);
                    *consumer
                        .into_any()
                        .downcast::<C>()
                        .expect("streaming consumer downcast to its factory type")
                }
                _ => unreachable!("streaming session held a buffered sink"),
            }
        })
        .collect();
    (result, consumers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_sim::SimDuration;
    use std::hash::{Hash, Hasher};

    fn roundtrip(records: &[TraceRecord]) {
        let machine = MachineSpec::symmetric(2, Speed::FULL);
        let mut trace = KernelTrace::new(machine, SchedPolicy::os_default());
        for r in records {
            trace.push_record(r.time, &r.event);
        }
        assert_eq!(trace.records_vec(), records);
        assert_eq!(trace.num_records(), records.len());
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
    }

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
        roundtrip(&every_variant());
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
    fn non_monotonic_and_extreme_timestamps_roundtrip() {
        let records = vec![
            TraceRecord {
                time: SimTime::from_nanos(100),
                event: TraceEvent::Sleep { tid: ThreadId(0) },
            },
            TraceRecord {
                time: SimTime::from_nanos(0),
                event: TraceEvent::Sleep { tid: ThreadId(1) },
            },
            TraceRecord {
                time: SimTime::MAX,
                event: TraceEvent::Sleep { tid: ThreadId(2) },
            },
            TraceRecord {
                time: SimTime::from_nanos(17),
                event: TraceEvent::Sleep { tid: ThreadId(3) },
            },
        ];
        roundtrip(&records);
    }

    #[test]
    fn set_records_replaces_stream() {
        let machine = MachineSpec::symmetric(1, Speed::FULL);
        let mut trace = KernelTrace::new(machine, SchedPolicy::os_default());
        trace.push_record(
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

    #[test]
    fn reencoding_preserves_the_stable_hash_fold() {
        // Golden property of the compact codec: decoding a trace and
        // re-encoding the records yields the identical stable hash (and
        // therefore the identical fold across kernels) — the encoding
        // is invisible to every hash-pinned contract in the repo.
        let ((), traces) = capture_traces(|| {
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
            k.run();
        });
        let original = &traces[0];
        assert!(original.num_records() > 0);
        let mut rebuilt = KernelTrace::new(original.machine.clone(), original.policy);
        rebuilt.set_records(original.records());
        rebuilt.outcome = original.outcome;
        rebuilt.budget_exhausted = original.budget_exhausted;
        assert_eq!(original.stable_hash(), rebuilt.stable_hash());
        assert_eq!(
            fold_trace_hashes(std::slice::from_ref(original)),
            fold_trace_hashes(&[rebuilt])
        );
    }

    #[test]
    fn compact_encoding_is_compact() {
        let machine = MachineSpec::symmetric(2, Speed::FULL);
        let mut trace = KernelTrace::new(machine, SchedPolicy::os_default());
        let step = SimDuration::from_micros(10);
        let mut now = SimTime::ZERO;
        for i in 0..1000usize {
            trace.push_record(
                now,
                &TraceEvent::Dispatch {
                    tid: ThreadId(i % 8),
                    core: CoreId(i % 2),
                },
            );
            now += step;
        }
        // Delta-varint timestamps + varint ids: a dispatch event costs a
        // handful of bytes, not `size_of::<TraceRecord>()`.
        assert!(
            trace.encoded_len() <= 8 * trace.num_records(),
            "encoding too large: {} bytes for {} records",
            trace.encoded_len(),
            trace.num_records()
        );
    }
}
