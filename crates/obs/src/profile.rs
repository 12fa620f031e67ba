//! Trace replay: turning one [`KernelTrace`] into a [`RunProfile`].
//!
//! The replay walks the state-complete event stream exactly as the
//! `asym-analysis` checkers do, but instead of validating invariants it
//! *quantifies* them: how long each core was busy, idle, or offline; how
//! long full-speed cores sat idle while slower cores had runnable work
//! (the paper's §3.1.1 invariant as a duration, not a boolean); where
//! each thread's time went; and how long threads waited on each sync
//! object. All accounting is integer nanoseconds, so profiles of the
//! same seeded run are byte-identical however they are produced.

use crate::hist::Log2Histogram;
use asym_kernel::{
    KernelTrace, PreemptReason, RunOutcome, SchedPolicy, TraceConsumer, TraceEvent, WakeReason,
};
use asym_sim::{MachineSpec, SimDuration, SimTime, Speed};
use std::fmt;

/// Where one core's time went over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreProfile {
    /// The core index.
    pub core: usize,
    /// The core's speed when the run started (mid-run changes appear as
    /// [`RunProfile`] marks and are honoured by the accounting).
    pub speed: Speed,
    /// Time the core was online and executing a thread.
    pub busy: SimDuration,
    /// Time the core was online with an empty run slot.
    pub idle: SimDuration,
    /// Time the core was hotplugged off.
    pub offline: SimDuration,
    /// Number of slices dispatched onto the core.
    pub dispatches: u64,
    /// Time-weighted speed integral: the sum over online time of
    /// `nanoseconds × instantaneous speed` (speed as an integer
    /// per-myriad of full), so `speed_weighted / (busy + idle)` is the
    /// core's average speed over the run. Integer accumulation keeps
    /// the profile byte-deterministic under mid-run speed changes.
    pub speed_weighted: u64,
}

impl CoreProfile {
    /// Busy time as a fraction of online time, in hundredths of a percent
    /// (integer per-myriad, so formatting is deterministic). Returns 0
    /// for a core that was never online.
    pub fn utilization_permyriad(&self) -> u64 {
        permyriad(self.busy, self.busy + self.idle)
    }

    /// The core's time-weighted average speed over its online time, as
    /// per-myriad of full speed (10000 = never throttled). Returns 0
    /// for a core that was never online.
    pub fn avg_speed_permyriad(&self) -> u64 {
        let online = (self.busy + self.idle).as_nanos();
        if online == 0 {
            0
        } else {
            ((self.speed_weighted as u128) / online as u128) as u64
        }
    }
}

/// A speed as an integer per-myriad of full (deterministic rounding).
fn speed_permyriad(speed: Speed) -> u64 {
    (speed.factor() * 10_000.0).round() as u64
}

/// Where one simulated thread's time went over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadProfile {
    /// The thread index (stable for the kernel's lifetime).
    pub tid: usize,
    /// Time spent running on a core at the machine's (current) top speed.
    pub running_fast: SimDuration,
    /// Time spent running on a core slower than the current top speed.
    pub running_slow: SimDuration,
    /// Time spent runnable on a run queue, waiting for a core.
    pub runnable: SimDuration,
    /// Time spent blocked on wait queues.
    pub blocked: SimDuration,
    /// Time spent sleeping on timers.
    pub sleeping: SimDuration,
    /// Number of slices the thread was granted.
    pub dispatches: u64,
    /// Number of cross-core moves (counted at the dispatch that landed
    /// the thread on a different core, as the kernel does).
    pub migrations: u64,
    /// Runnable time accumulated in queued spells that ended in a
    /// cross-core dispatch — the wait the migrations induced.
    pub migration_wait: SimDuration,
    /// Times the thread was involuntarily taken off a core.
    pub preemptions: u64,
    /// Wakeups delivered by a wait-queue notification.
    pub wakeups_signal: u64,
    /// Wakeups delivered by a sleep timer.
    pub wakeups_timer: u64,
    /// `true` if the thread was killed by an injected fault.
    pub killed: bool,
}

impl ThreadProfile {
    fn new(tid: usize) -> Self {
        ThreadProfile {
            tid,
            running_fast: SimDuration::ZERO,
            running_slow: SimDuration::ZERO,
            runnable: SimDuration::ZERO,
            blocked: SimDuration::ZERO,
            sleeping: SimDuration::ZERO,
            dispatches: 0,
            migrations: 0,
            migration_wait: SimDuration::ZERO,
            preemptions: 0,
            wakeups_signal: 0,
            wakeups_timer: 0,
            killed: false,
        }
    }
}

/// What kind of synchronization object a kernel wait queue backs,
/// recovered from the `asym-sync` annotation events in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitKind {
    /// A `SimBarrier`.
    Barrier,
    /// A `SimQueue`.
    Queue,
    /// A raw wait queue with no sync-layer annotation.
    Other,
}

impl fmt::Display for WaitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WaitKind::Barrier => "barrier",
            WaitKind::Queue => "queue",
            WaitKind::Other => "wait",
        };
        f.write_str(s)
    }
}

/// Blocked-time attribution for one kernel wait queue.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitProfile {
    /// The wait queue's index within its kernel.
    pub wait: usize,
    /// The sync primitive the queue backs, when known.
    pub kind: WaitKind,
    /// Number of blocked spells on this queue (including spells still
    /// open when a truncated run ended).
    pub waits: u64,
    /// Total time threads spent blocked on this queue.
    pub total_wait: SimDuration,
    /// Longest single blocked spell.
    pub max_wait: SimDuration,
    /// Notifications delivered to the queue.
    pub signals: u64,
    /// Notifications that found nobody waiting.
    pub unconsumed_signals: u64,
}

impl WaitProfile {
    fn new(wait: usize) -> Self {
        WaitProfile {
            wait,
            kind: WaitKind::Other,
            waits: 0,
            total_wait: SimDuration::ZERO,
            max_wait: SimDuration::ZERO,
            signals: 0,
            unconsumed_signals: 0,
        }
    }
}

/// A completed (or truncated) run slice, kept for the Perfetto exporter.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Slice {
    pub(crate) core: usize,
    pub(crate) tid: usize,
    pub(crate) start: SimTime,
    pub(crate) dur: SimDuration,
    pub(crate) end: &'static str,
}

/// What an instantaneous mark records. Structured (rather than a
/// preformatted string) so the Perfetto exporter can intern the small
/// set of canonical names instead of emitting one unique string per
/// event — the details live on the counter tracks and flow events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MarkKind {
    /// A cross-core migration decision (the flow event carries the
    /// source/destination pairing).
    Migrate { tid: usize },
    /// A committed speed change (the speed counter track carries the
    /// new value).
    Speed,
    /// A ranking reorder.
    Rerank,
    /// A core hotplugged off.
    Offline,
    /// A core hotplugged back on.
    Online,
    /// A thread killed by an injected fault.
    Killed { tid: usize },
}

/// An instantaneous event of interest, kept for the Perfetto exporter.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Mark {
    pub(crate) core: usize,
    pub(crate) time: SimTime,
    pub(crate) kind: MarkKind,
}

/// Which per-core counter track a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CounterKind {
    /// Live core speed, as integer per-myriad of full (the applied
    /// environment/fault target — the kernel's hysteresis latch emits a
    /// `SpeedChange` exactly when a target commits).
    Speed,
    /// Runnable-queue depth: threads queued on the core, excluding the
    /// one running.
    Runnable,
}

/// One sample on a per-core counter track, kept for the Perfetto
/// exporter's `"C"` events.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CounterSample {
    pub(crate) core: usize,
    pub(crate) time: SimTime,
    pub(crate) kind: CounterKind,
    pub(crate) value: u64,
}

/// One flow pair (`"s"` start / `"f"` finish in the Perfetto export):
/// a migration decision linked to the dispatch that landed the thread
/// on its new core.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Flow {
    /// The migrating thread.
    pub(crate) tid: usize,
    pub(crate) src_core: usize,
    pub(crate) src_time: SimTime,
    pub(crate) dst_core: usize,
    pub(crate) dst_time: SimTime,
}

/// The Perfetto timeline of one run: every run slice, mark, counter
/// sample and migration flow, in event order. It grows with the event
/// count, so only [`ProfileFold::with_timeline`] records one; the
/// metrics fold the sweep engine streams ([`ProfileFold::new`]) never
/// does.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Timeline {
    pub(crate) slices: Vec<Slice>,
    pub(crate) marks: Vec<Mark>,
    pub(crate) counters: Vec<CounterSample>,
    pub(crate) flows: Vec<Flow>,
}

impl Timeline {
    /// An empty timeline with both counter tracks of every core seeded
    /// at t=0, so every core exports a track even if nothing ever
    /// changes on it.
    fn new(cores: &[CoreSt]) -> Self {
        let mut counters = Vec::with_capacity(2 * cores.len());
        for (c, st) in cores.iter().enumerate() {
            counters.push(CounterSample {
                core: c,
                time: SimTime::ZERO,
                kind: CounterKind::Speed,
                value: st.speed_pmy,
            });
            counters.push(CounterSample {
                core: c,
                time: SimTime::ZERO,
                kind: CounterKind::Runnable,
                value: 0,
            });
        }
        Timeline {
            slices: Vec::new(),
            marks: Vec::new(),
            counters,
            flows: Vec::new(),
        }
    }
}

/// The complete observability profile of one kernel run, derived purely
/// from its [`KernelTrace`].
///
/// # Examples
///
/// ```
/// use asym_kernel::{capture_traces, FnThread, Kernel, SchedPolicy, SpawnOptions, Step};
/// use asym_obs::RunProfile;
/// use asym_sim::{Cycles, MachineSpec, Speed};
///
/// let ((), traces) = capture_traces(|| {
///     let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
///     let mut k = Kernel::new(machine, SchedPolicy::os_default(), 7);
///     for _ in 0..2 {
///         let mut bursts = 3u32;
///         k.spawn(
///             FnThread::new("w", move |_cx| {
///                 if bursts == 0 {
///                     Step::Done
///                 } else {
///                     bursts -= 1;
///                     Step::Compute(Cycles::from_millis_at_full_speed(1.0))
///                 }
///             }),
///             SpawnOptions::new(),
///         );
///     }
///     k.run();
/// });
/// let profile = RunProfile::from_trace(&traces[0]);
/// assert_eq!(profile.cores.len(), 2);
/// assert_eq!(profile.threads.len(), 2);
/// assert!(profile.cores[0].busy > asym_sim::SimDuration::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunProfile {
    /// The scheduling policy the kernel ran.
    pub policy: SchedPolicy,
    /// How the run ended, if it ran at all.
    pub outcome: Option<RunOutcome>,
    /// Simulated length of the run (the timestamp of the last event).
    pub duration: SimDuration,
    /// Per-core time accounting, indexed by core.
    pub cores: Vec<CoreProfile>,
    /// Per-thread time accounting, indexed by thread.
    pub threads: Vec<ThreadProfile>,
    /// Blocked-time attribution per wait queue, ordered by queue index.
    pub waits: Vec<WaitProfile>,
    /// Total time during which at least one online top-speed core sat
    /// idle while at least one online slower core had a thread running
    /// or queued — the paper's §3.1.1 scheduling inefficiency, measured.
    pub fast_idle_slow_runnable: SimDuration,
    /// Mid-run speed changes observed (fault-injected throttles and
    /// committed environment targets alike).
    pub speed_changes: u64,
    /// Speed changes that reordered the online-core speed ranking
    /// ([`TraceEvent::Rerank`]).
    pub reranks: u64,
    /// Tracking lag: total thread-time spent running on a core strictly
    /// slower than some idle online core — the schedule has not yet
    /// caught up with the ranking the environment imposed. Thread-
    /// weighted: two lagging threads over one millisecond count twice.
    pub tracking_lag: SimDuration,
    /// Queued-to-dispatched latency of every completed dispatch.
    pub sched_latency: Log2Histogram,
    /// On-core duration of every completed run slice.
    pub run_quantum: Log2Histogram,
    /// Preemptions whose time slice expired.
    pub preempt_quantum: u64,
    /// Preemptions at a step boundary with others waiting.
    pub preempt_step: u64,
    /// Voluntary yields.
    pub preempt_yield: u64,
    /// Scheduler interruptions (balancing pulls, hotplug evacuation).
    pub preempt_interrupt: u64,
    /// Queued threads moved between run queues without running.
    pub steals: u64,
    /// The Perfetto timeline, present only on profiles built by
    /// [`ProfileFold::with_timeline`].
    pub(crate) timeline: Option<Timeline>,
}

/// Integer per-myriad (hundredths of a percent): `part / whole * 10_000`,
/// 0 when `whole` is zero.
fn permyriad(part: SimDuration, whole: SimDuration) -> u64 {
    if whole.is_zero() {
        0
    } else {
        // Scale in u128 to dodge overflow on long runs.
        ((part.as_nanos() as u128 * 10_000) / whole.as_nanos() as u128) as u64
    }
}

/// Formats an integer per-myriad as `NN.NN%`.
fn pct(permyriad: u64) -> String {
    format!("{}.{:02}%", permyriad / 100, permyriad % 100)
}

#[derive(Debug, Clone, Copy)]
enum ThSt {
    /// Not yet spawned, or already finished.
    Absent,
    Queued {
        core: usize,
        start: SimTime,
    },
    Running {
        core: usize,
        spell_start: SimTime,
        seg_start: SimTime,
    },
    Blocked {
        wait: usize,
        start: SimTime,
    },
    Sleeping {
        start: SimTime,
    },
}

#[derive(Debug, Clone, Copy)]
struct CoreSt {
    online: bool,
    speed: Speed,
    /// `speed` as integer per-myriad of full, kept beside it for the
    /// per-interval speed-weighted accrual.
    speed_pmy: u64,
    running: Option<usize>,
    queued: u64,
}

/// An *online* fold of one kernel's trace stream into a [`RunProfile`].
/// Feed it events in emission order (it implements
/// [`TraceConsumer`](asym_kernel::TraceConsumer), so
/// [`capture_stream`](asym_kernel::capture_stream) can drive it directly
/// off the hot path), then call [`finish`](ProfileFold::finish).
///
/// [`ProfileFold::new`] builds the *metrics fold*: its state is per
/// core, per thread and per wait queue only, so per-cell trace memory
/// stays O(1) in the event count. [`ProfileFold::with_timeline`] also
/// records the Perfetto timeline, whose slices, marks, counter samples
/// and flows grow with the run; the two folds' profiles are equal in
/// every other field.
pub struct ProfileFold {
    policy: SchedPolicy,
    outcome: Option<RunOutcome>,
    cores: Vec<CoreSt>,
    core_acc: Vec<CoreProfile>,
    threads: Vec<ThSt>,
    thread_acc: Vec<ThreadProfile>,
    /// Per-thread pending migration decision: `(decision time, source
    /// core)` set by `Migrate` and consumed by the dispatch that lands
    /// the thread, which counts the migration (and, on the timeline,
    /// links the flow arrow's two endpoints).
    migrating: Vec<Option<(SimTime, usize)>>,
    /// Blocked-time attribution, indexed by wait-queue id.
    waits: Vec<Option<WaitProfile>>,
    /// The instant the core accounting has been advanced to.
    accrued: SimTime,
    /// The timestamp of the last event seen: where `finish` closes the
    /// run.
    end: SimTime,
    /// The top speed across online cores, if any core is online.
    top: Option<Speed>,
    fast_idle_slow_runnable: SimDuration,
    speed_changes: u64,
    reranks: u64,
    tracking_lag: SimDuration,
    sched_latency: Log2Histogram,
    run_quantum: Log2Histogram,
    preempt_quantum: u64,
    preempt_step: u64,
    preempt_yield: u64,
    preempt_interrupt: u64,
    steals: u64,
    timeline: Option<Timeline>,
}

impl ProfileFold {
    /// A fresh metrics fold for one kernel on `machine` under `policy`
    /// (the two trace-independent inputs the profile needs).
    pub fn new(machine: &MachineSpec, policy: SchedPolicy) -> Self {
        let cores: Vec<CoreSt> = machine
            .speeds()
            .iter()
            .map(|&speed| CoreSt {
                online: true,
                speed,
                speed_pmy: speed_permyriad(speed),
                running: None,
                queued: 0,
            })
            .collect();
        let core_acc = machine
            .cores()
            .map(|(c, speed)| CoreProfile {
                core: c.0,
                speed,
                busy: SimDuration::ZERO,
                idle: SimDuration::ZERO,
                offline: SimDuration::ZERO,
                dispatches: 0,
                speed_weighted: 0,
            })
            .collect();
        // Every core starts online.
        let top = cores.iter().map(|c| c.speed).max();
        ProfileFold {
            policy,
            outcome: None,
            cores,
            core_acc,
            threads: Vec::new(),
            thread_acc: Vec::new(),
            migrating: Vec::new(),
            waits: Vec::new(),
            accrued: SimTime::ZERO,
            end: SimTime::ZERO,
            top,
            fast_idle_slow_runnable: SimDuration::ZERO,
            speed_changes: 0,
            reranks: 0,
            tracking_lag: SimDuration::ZERO,
            sched_latency: Log2Histogram::new(),
            run_quantum: Log2Histogram::new(),
            preempt_quantum: 0,
            preempt_step: 0,
            preempt_yield: 0,
            preempt_interrupt: 0,
            steals: 0,
            timeline: None,
        }
    }

    /// A fresh fold that also records the Perfetto timeline (what
    /// `asym_profile` and `asym_diff` stream their runs into).
    pub fn with_timeline(machine: &MachineSpec, policy: SchedPolicy) -> Self {
        let mut fold = ProfileFold::new(machine, policy);
        fold.timeline = Some(Timeline::new(&fold.cores));
        fold
    }

    fn ensure_thread(&mut self, tid: usize) {
        while self.threads.len() <= tid {
            let next = self.threads.len();
            self.threads.push(ThSt::Absent);
            self.thread_acc.push(ThreadProfile::new(next));
            self.migrating.push(None);
        }
    }

    /// Samples `core`'s runnable-queue-depth counter track at `time`,
    /// when a timeline is recorded.
    fn sample_queue(&mut self, core: usize, time: SimTime) {
        if let Some(tl) = self.timeline.as_mut() {
            tl.counters.push(CounterSample {
                core,
                time,
                kind: CounterKind::Runnable,
                value: self.cores[core].queued,
            });
        }
    }

    /// Records an instantaneous mark, when a timeline is recorded.
    fn mark(&mut self, core: usize, time: SimTime, kind: MarkKind) {
        if let Some(tl) = self.timeline.as_mut() {
            tl.marks.push(Mark { core, time, kind });
        }
    }

    fn wait_entry(&mut self, wait: usize) -> &mut WaitProfile {
        if self.waits.len() <= wait {
            self.waits.resize_with(wait + 1, || None);
        }
        self.waits[wait].get_or_insert_with(|| WaitProfile::new(wait))
    }

    fn classify(&mut self, wait: usize, kind: WaitKind) {
        let entry = self.wait_entry(wait);
        if entry.kind == WaitKind::Other {
            entry.kind = kind;
        }
    }

    /// The top speed across online cores, if any core is online.
    fn max_online_speed(&self) -> Option<Speed> {
        self.cores
            .iter()
            .filter(|c| c.online)
            .map(|c| c.speed)
            .max()
    }

    /// Accounts the interval `[self.accrued, now)` against the current
    /// core states in one pass over the cores: busy/idle/offline and
    /// speed-weighted time per core, plus the tracking-lag and
    /// fast-idle-while-slow-runnable conditions across the machine.
    fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_duration_since(self.accrued);
        self.accrued = now;
        if dt.is_zero() {
            return;
        }
        let dt_ns = dt.as_nanos();
        // Over online cores: the fastest idle one, the slowest running
        // one, and the slowest one holding work (running or queued).
        let mut best_idle: Option<Speed> = None;
        let mut slowest_running: Option<Speed> = None;
        let mut slowest_with_work: Option<Speed> = None;
        for (st, acc) in self.cores.iter().zip(self.core_acc.iter_mut()) {
            if !st.online {
                acc.offline += dt;
                continue;
            }
            acc.speed_weighted = acc
                .speed_weighted
                .saturating_add(dt_ns.saturating_mul(st.speed_pmy));
            if st.running.is_some() {
                acc.busy += dt;
                slowest_running = Some(slowest_running.map_or(st.speed, |s| s.min(st.speed)));
            } else {
                acc.idle += dt;
                best_idle = best_idle.max(Some(st.speed));
            }
            if st.running.is_some() || st.queued > 0 {
                slowest_with_work = Some(slowest_with_work.map_or(st.speed, |s| s.min(st.speed)));
            }
        }
        // Tracking lag: threads running on cores strictly slower than the
        // fastest idle online core are on a tier the schedule should have
        // re-ranked them out of.
        if let (Some(best), Some(slowest)) = (best_idle, slowest_running) {
            if slowest < best {
                let lagging = self
                    .cores
                    .iter()
                    .filter(|c| c.online && c.running.is_some() && c.speed < best)
                    .count() as u64;
                self.tracking_lag += dt * lagging;
            }
        }
        // A top-speed core idles exactly when the fastest idle core runs
        // at top speed.
        if let Some(top) = self.top {
            if best_idle == Some(top) && slowest_with_work.is_some_and(|s| s < top) {
                self.fast_idle_slow_runnable += dt;
            }
        }
    }

    /// Whether `core` currently runs at the machine's top online speed.
    fn core_is_fast(&self, core: usize) -> bool {
        self.top == Some(self.cores[core].speed)
    }

    /// Closes the fast/slow accounting segment of every running thread
    /// (without ending its slice), so a topology change — speed change,
    /// hotplug — re-classifies residency from this instant on.
    fn reseat_running_segments(&mut self, now: SimTime) {
        for tid in 0..self.threads.len() {
            if let ThSt::Running {
                core,
                spell_start,
                seg_start,
            } = self.threads[tid]
            {
                self.accrue_running(tid, core, seg_start, now);
                self.threads[tid] = ThSt::Running {
                    core,
                    spell_start,
                    seg_start: now,
                };
            }
        }
    }

    fn accrue_running(&mut self, tid: usize, core: usize, from: SimTime, to: SimTime) {
        let dur = to.saturating_duration_since(from);
        if self.core_is_fast(core) {
            self.thread_acc[tid].running_fast += dur;
        } else {
            self.thread_acc[tid].running_slow += dur;
        }
    }

    /// Ends a running spell: accrues the residency segment, records the
    /// quantum (unless the run was truncated mid-slice), emits the
    /// Perfetto slice when a timeline is recorded, and clears the core's
    /// run slot.
    fn end_running(&mut self, tid: usize, now: SimTime, end: &'static str, complete: bool) {
        let ThSt::Running {
            core,
            spell_start,
            seg_start,
        } = self.threads[tid]
        else {
            return;
        };
        self.accrue_running(tid, core, seg_start, now);
        let quantum = now.saturating_duration_since(spell_start);
        if complete {
            self.run_quantum.record(quantum);
        }
        if let Some(tl) = self.timeline.as_mut() {
            tl.slices.push(Slice {
                core,
                tid,
                start: spell_start,
                dur: quantum,
                end,
            });
        }
        if self.cores[core].running == Some(tid) {
            self.cores[core].running = None;
        }
        self.threads[tid] = ThSt::Absent;
    }

    /// Ends a queued spell, crediting runnable time (and migration wait
    /// when the spell ends in a cross-core dispatch). Returns the spell
    /// duration.
    fn end_queued(&mut self, tid: usize, now: SimTime) -> SimDuration {
        let ThSt::Queued { core, start } = self.threads[tid] else {
            return SimDuration::ZERO;
        };
        let dur = now.saturating_duration_since(start);
        self.thread_acc[tid].runnable += dur;
        self.cores[core].queued = self.cores[core].queued.saturating_sub(1);
        self.threads[tid] = ThSt::Absent;
        self.sample_queue(core, now);
        dur
    }

    fn enqueue(&mut self, tid: usize, core: usize, now: SimTime) {
        self.threads[tid] = ThSt::Queued { core, start: now };
        self.cores[core].queued += 1;
        self.sample_queue(core, now);
    }

    fn apply(&mut self, time: SimTime, event: &TraceEvent) {
        self.end = time;
        // These events leave every core and thread state unchanged, and
        // accrual is linear in elapsed time: the next state-changing
        // event (or `finish`) accounts their interval exactly, so the
        // most frequent events of the stream skip `advance` altogether.
        if matches!(
            event,
            TraceEvent::SharedRead { .. }
                | TraceEvent::SharedWrite { .. }
                | TraceEvent::SharedAtomic { .. }
                | TraceEvent::ThreadJoin { .. }
                | TraceEvent::SetAffinity { .. }
                | TraceEvent::AffinityOverride { .. }
        ) {
            return;
        }
        self.advance(time);
        match *event {
            TraceEvent::Spawn { tid, core, .. } => {
                self.ensure_thread(tid.index());
                self.enqueue(tid.index(), core.0, time);
            }
            TraceEvent::Dispatch { tid, core } => {
                let t = tid.index();
                self.ensure_thread(t);
                let waited = self.end_queued(t, time);
                self.sched_latency.record(waited);
                if let Some((src_time, src_core)) = self.migrating[t].take() {
                    self.thread_acc[t].migrations += 1;
                    self.thread_acc[t].migration_wait += waited;
                    if let Some(tl) = self.timeline.as_mut() {
                        tl.flows.push(Flow {
                            tid: t,
                            src_core,
                            src_time,
                            dst_core: core.0,
                            dst_time: time,
                        });
                    }
                }
                self.threads[t] = ThSt::Running {
                    core: core.0,
                    spell_start: time,
                    seg_start: time,
                };
                self.cores[core.0].running = Some(t);
                self.thread_acc[t].dispatches += 1;
                self.core_acc[core.0].dispatches += 1;
            }
            TraceEvent::Migrate { tid, from, to } => {
                let t = tid.index();
                self.ensure_thread(t);
                self.migrating[t] = Some((time, from.0));
                self.mark(to.0, time, MarkKind::Migrate { tid: t });
            }
            TraceEvent::Preempt { tid, core, reason } => {
                let t = tid.index();
                self.ensure_thread(t);
                let end = match reason {
                    PreemptReason::Quantum => {
                        self.preempt_quantum += 1;
                        "quantum"
                    }
                    PreemptReason::StepBoundary => {
                        self.preempt_step += 1;
                        "step"
                    }
                    PreemptReason::Yield => {
                        self.preempt_yield += 1;
                        "yield"
                    }
                    PreemptReason::Interrupt => {
                        self.preempt_interrupt += 1;
                        "interrupt"
                    }
                };
                self.end_running(t, time, end, true);
                self.thread_acc[t].preemptions += 1;
                self.enqueue(t, core.0, time);
            }
            TraceEvent::Steal { tid, from, to } => {
                let t = tid.index();
                self.ensure_thread(t);
                self.steals += 1;
                // The spell keeps its original start: scheduler latency
                // measures runnable-to-dispatched across queue moves.
                if let ThSt::Queued { core, start } = self.threads[t] {
                    debug_assert_eq!(core, from.0);
                    self.cores[from.0].queued = self.cores[from.0].queued.saturating_sub(1);
                    self.cores[to.0].queued += 1;
                    self.threads[t] = ThSt::Queued { core: to.0, start };
                    self.sample_queue(from.0, time);
                    self.sample_queue(to.0, time);
                }
            }
            TraceEvent::Wakeup { tid, core, reason } => {
                let t = tid.index();
                self.ensure_thread(t);
                self.end_wait_spell(t, time);
                match reason {
                    WakeReason::Signal => self.thread_acc[t].wakeups_signal += 1,
                    WakeReason::Timer => self.thread_acc[t].wakeups_timer += 1,
                }
                self.enqueue(t, core.0, time);
            }
            TraceEvent::Block { tid, wait } => {
                let t = tid.index();
                self.ensure_thread(t);
                self.end_running(t, time, "block", true);
                self.threads[t] = ThSt::Blocked {
                    wait: wait.index(),
                    start: time,
                };
                self.wait_entry(wait.index());
            }
            TraceEvent::Sleep { tid } => {
                let t = tid.index();
                self.ensure_thread(t);
                self.end_running(t, time, "sleep", true);
                self.threads[t] = ThSt::Sleeping { start: time };
            }
            TraceEvent::Done { tid } => {
                let t = tid.index();
                self.ensure_thread(t);
                match self.threads[t] {
                    ThSt::Running { .. } => self.end_running(t, time, "done", true),
                    ThSt::Queued { .. } => {
                        // Killed while runnable: credit the queue time but
                        // record no dispatch latency — it never ran again.
                        self.end_queued(t, time);
                    }
                    ThSt::Blocked { .. } | ThSt::Sleeping { .. } | ThSt::Absent => {
                        self.end_wait_spell(t, time);
                    }
                }
                self.threads[t] = ThSt::Absent;
                self.migrating[t] = None;
            }
            TraceEvent::Signal { wait, woken, .. } => {
                let w = self.wait_entry(wait.index());
                w.signals += 1;
                if woken == 0 {
                    w.unconsumed_signals += 1;
                }
            }
            TraceEvent::BarrierArrive { barrier, .. } => {
                self.classify(barrier.index(), WaitKind::Barrier);
            }
            TraceEvent::QueuePush { queue, .. } | TraceEvent::QueuePop { queue, .. } => {
                self.classify(queue.index(), WaitKind::Queue);
            }
            TraceEvent::SpeedChange { core, speed } => {
                self.reseat_running_segments(time);
                let pmy = speed_permyriad(speed);
                self.cores[core.0].speed = speed;
                self.cores[core.0].speed_pmy = pmy;
                self.top = self.max_online_speed();
                self.speed_changes += 1;
                self.mark(core.0, time, MarkKind::Speed);
                if let Some(tl) = self.timeline.as_mut() {
                    tl.counters.push(CounterSample {
                        core: core.0,
                        time,
                        kind: CounterKind::Speed,
                        value: pmy,
                    });
                }
            }
            TraceEvent::Rerank { core } => {
                self.reranks += 1;
                self.mark(core.0, time, MarkKind::Rerank);
            }
            TraceEvent::CoreOffline { core } => {
                self.reseat_running_segments(time);
                self.cores[core.0].online = false;
                self.top = self.max_online_speed();
                self.mark(core.0, time, MarkKind::Offline);
            }
            TraceEvent::CoreOnline { core } => {
                self.reseat_running_segments(time);
                self.cores[core.0].online = true;
                self.top = self.max_online_speed();
                self.mark(core.0, time, MarkKind::Online);
            }
            TraceEvent::ThreadKilled { tid } => {
                let t = tid.index();
                self.ensure_thread(t);
                self.thread_acc[t].killed = true;
                let core = match self.threads[t] {
                    ThSt::Running { core, .. } | ThSt::Queued { core, .. } => core,
                    _ => 0,
                };
                self.mark(core, time, MarkKind::Killed { tid: t });
            }
            // Returned before `advance` above.
            TraceEvent::SharedRead { .. }
            | TraceEvent::SharedWrite { .. }
            | TraceEvent::SharedAtomic { .. }
            | TraceEvent::ThreadJoin { .. }
            | TraceEvent::SetAffinity { .. }
            | TraceEvent::AffinityOverride { .. } => {}
        }
    }

    /// Closes every spell still open when the trace ends (time-limited,
    /// deadlocked, or stalled runs): residency is credited up to the end
    /// of the trace, but truncated spells enter no histogram — they were
    /// cut by the observation window, not by the scheduler.
    fn close_open_spells(&mut self, end: SimTime) {
        for tid in 0..self.threads.len() {
            match self.threads[tid] {
                ThSt::Running { .. } => self.end_running(tid, end, "end", false),
                ThSt::Queued { .. } => {
                    self.end_queued(tid, end);
                }
                ThSt::Blocked { .. } | ThSt::Sleeping { .. } | ThSt::Absent => {
                    self.end_wait_spell(tid, end);
                }
            }
            self.threads[tid] = ThSt::Absent;
        }
    }

    /// Credits `t`'s blocked or sleeping spell ending at `end`: a blocked
    /// spell to the thread's `blocked` time and to its wait queue's
    /// `waits`, `total_wait` and `max_wait`; a sleeping spell to the
    /// thread's `sleeping` time. Does nothing in any other state.
    fn end_wait_spell(&mut self, t: usize, end: SimTime) {
        match self.threads[t] {
            ThSt::Blocked { wait, start } => {
                let dur = end.saturating_duration_since(start);
                self.thread_acc[t].blocked += dur;
                let w = self.wait_entry(wait);
                w.waits += 1;
                w.total_wait += dur;
                w.max_wait = w.max_wait.max(dur);
            }
            ThSt::Sleeping { start } => {
                let dur = end.saturating_duration_since(start);
                self.thread_acc[t].sleeping += dur;
            }
            _ => {}
        }
    }

    /// Ends the fold: closes every open spell at the timestamp of the
    /// last event seen and returns the finished profile.
    pub fn finish(mut self) -> RunProfile {
        let end = self.end;
        self.advance(end);
        self.close_open_spells(end);
        RunProfile {
            policy: self.policy,
            outcome: self.outcome,
            duration: end.saturating_duration_since(SimTime::ZERO),
            cores: self.core_acc,
            threads: self.thread_acc,
            waits: self.waits.into_iter().flatten().collect(),
            fast_idle_slow_runnable: self.fast_idle_slow_runnable,
            speed_changes: self.speed_changes,
            reranks: self.reranks,
            tracking_lag: self.tracking_lag,
            sched_latency: self.sched_latency,
            run_quantum: self.run_quantum,
            preempt_quantum: self.preempt_quantum,
            preempt_step: self.preempt_step,
            preempt_yield: self.preempt_yield,
            preempt_interrupt: self.preempt_interrupt,
            steals: self.steals,
            timeline: self.timeline,
        }
    }
}

impl TraceConsumer for ProfileFold {
    fn on_event(&mut self, time: SimTime, event: &TraceEvent) {
        self.apply(time, event);
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>, _budget_exhausted: bool) {
        self.outcome = outcome;
    }
}

impl RunProfile {
    /// Replays `trace` into a profile, Perfetto timeline included:
    /// [`ProfileFold::with_timeline`] fed the buffered stream. Purely a
    /// function of the trace: equal traces produce equal profiles,
    /// whatever thread or process performed the replay.
    pub fn from_trace(trace: &KernelTrace) -> RunProfile {
        let mut fold = ProfileFold::with_timeline(&trace.machine, trace.policy);
        trace.replay(&mut fold);
        fold.finish()
    }

    /// Total cross-core migrations over all threads.
    pub fn migrations(&self) -> u64 {
        self.threads.iter().map(|t| t.migrations).sum()
    }

    /// Total preemptions over all threads.
    pub fn preemptions(&self) -> u64 {
        self.threads.iter().map(|t| t.preemptions).sum()
    }

    /// Total blocked time attributed to sync objects.
    pub fn total_sync_wait(&self) -> SimDuration {
        self.waits
            .iter()
            .fold(SimDuration::ZERO, |acc, w| acc + w.total_wait)
    }

    /// Fast-idle-while-slow-runnable time as per-myriad of the run.
    pub fn fast_idle_permyriad(&self) -> u64 {
        permyriad(self.fast_idle_slow_runnable, self.duration)
    }

    /// Tracking-lag time as per-myriad of the run (may exceed 10000 when
    /// several threads lag simultaneously — the metric is thread-
    /// weighted).
    pub fn tracking_lag_permyriad(&self) -> u64 {
        permyriad(self.tracking_lag, self.duration)
    }
}

impl fmt::Display for RunProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let outcome = match self.outcome {
            Some(o) => format!("{o:?}"),
            None => "NotRun".to_string(),
        };
        writeln!(
            f,
            "run: {} cores, policy {}, outcome {outcome}, simulated {}",
            self.cores.len(),
            self.policy,
            self.duration
        )?;
        writeln!(f, "cores:")?;
        for c in &self.cores {
            writeln!(
                f,
                "  cpu{} {:>7}  util {:>7}  busy {}  idle {}  offline {}  dispatches {}",
                c.core,
                c.speed.to_string(),
                pct(c.utilization_permyriad()),
                c.busy,
                c.idle,
                c.offline,
                c.dispatches
            )?;
        }
        writeln!(
            f,
            "fast idle while slow runnable: {} ({} of run)",
            self.fast_idle_slow_runnable,
            pct(self.fast_idle_permyriad())
        )?;
        writeln!(
            f,
            "speed changes {}  reranks {}  tracking lag {} ({} of run)",
            self.speed_changes,
            self.reranks,
            self.tracking_lag,
            pct(self.tracking_lag_permyriad())
        )?;
        writeln!(
            f,
            "migrations {} (wait {})  steals {}  preempts: quantum {} step {} yield {} interrupt {}",
            self.migrations(),
            self.threads
                .iter()
                .fold(SimDuration::ZERO, |acc, t| acc + t.migration_wait),
            self.steals,
            self.preempt_quantum,
            self.preempt_step,
            self.preempt_yield,
            self.preempt_interrupt
        )?;
        writeln!(f, "threads:")?;
        for t in &self.threads {
            writeln!(
                f,
                "  tid{:<3} fast {} slow {} runnable {} blocked {} sleeping {}  disp {} migr {} preempt {} wake {}+{}{}",
                t.tid,
                t.running_fast,
                t.running_slow,
                t.runnable,
                t.blocked,
                t.sleeping,
                t.dispatches,
                t.migrations,
                t.preemptions,
                t.wakeups_signal,
                t.wakeups_timer,
                if t.killed { "  [killed]" } else { "" }
            )?;
        }
        let waited: Vec<&WaitProfile> = self.waits.iter().filter(|w| w.waits > 0).collect();
        writeln!(f, "sync waits:")?;
        if waited.is_empty() {
            writeln!(f, "  (none)")?;
        }
        for w in waited {
            writeln!(
                f,
                "  wait{:<3} {:<9} waits {:>5}  total {}  max {}  signals {} ({} unconsumed)",
                w.wait,
                w.kind.to_string(),
                w.waits,
                w.total_wait,
                w.max_wait,
                w.signals,
                w.unconsumed_signals
            )?;
        }
        writeln!(f, "scheduler latency (runnable -> dispatched):")?;
        write!(f, "{}", self.sched_latency)?;
        writeln!(f, "run quantum (dispatched -> off core):")?;
        write!(f, "{}", self.run_quantum)
    }
}

/// The compact, mergeable metrics summary the sweep engine attaches to
/// each cell (one merged record per cell, folded over every kernel of
/// every run in the cell, in execution order).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileMetrics {
    /// Number of kernel runs folded into this record.
    pub kernels: u64,
    /// Total simulated time across those kernels, in nanoseconds.
    pub sim_ns: u64,
    /// Core-seconds busy, in nanoseconds (summed across cores).
    pub busy_ns: u64,
    /// Core-seconds idle while online, in nanoseconds.
    pub idle_ns: u64,
    /// Core-seconds offline, in nanoseconds.
    pub offline_ns: u64,
    /// Fast-idle-while-slow-runnable time, in nanoseconds.
    pub fast_idle_slow_runnable_ns: u64,
    /// Total cross-core migrations.
    pub migrations: u64,
    /// Runnable time induced by migrations, in nanoseconds.
    pub migration_wait_ns: u64,
    /// Total preemptions.
    pub preemptions: u64,
    /// Total blocked time on sync objects, in nanoseconds.
    pub sync_wait_ns: u64,
    /// Mid-run speed changes (faults and environment commits).
    pub speed_changes: u64,
    /// Speed changes that reordered the online-core speed ranking.
    pub reranks: u64,
    /// Thread-time on a core strictly slower than an idle online core,
    /// in nanoseconds (the schedule lagging the environment's ranking).
    pub tracking_lag_ns: u64,
    /// Queued-to-dispatched latency histogram.
    pub sched_latency: Log2Histogram,
    /// Run-quantum histogram.
    pub run_quantum: Log2Histogram,
}

impl ProfileMetrics {
    /// An empty record (the identity for [`ProfileMetrics::merge`]).
    pub fn new() -> Self {
        ProfileMetrics {
            kernels: 0,
            sim_ns: 0,
            busy_ns: 0,
            idle_ns: 0,
            offline_ns: 0,
            fast_idle_slow_runnable_ns: 0,
            migrations: 0,
            migration_wait_ns: 0,
            preemptions: 0,
            sync_wait_ns: 0,
            speed_changes: 0,
            reranks: 0,
            tracking_lag_ns: 0,
            sched_latency: Log2Histogram::new(),
            run_quantum: Log2Histogram::new(),
        }
    }

    /// Folds another record into this one (order-insensitive for every
    /// field, so any deterministic fold order gives the same bytes).
    pub fn merge(&mut self, other: &ProfileMetrics) {
        self.kernels += other.kernels;
        self.sim_ns = self.sim_ns.saturating_add(other.sim_ns);
        self.busy_ns = self.busy_ns.saturating_add(other.busy_ns);
        self.idle_ns = self.idle_ns.saturating_add(other.idle_ns);
        self.offline_ns = self.offline_ns.saturating_add(other.offline_ns);
        self.fast_idle_slow_runnable_ns = self
            .fast_idle_slow_runnable_ns
            .saturating_add(other.fast_idle_slow_runnable_ns);
        self.migrations += other.migrations;
        self.migration_wait_ns = self
            .migration_wait_ns
            .saturating_add(other.migration_wait_ns);
        self.preemptions += other.preemptions;
        self.sync_wait_ns = self.sync_wait_ns.saturating_add(other.sync_wait_ns);
        self.speed_changes += other.speed_changes;
        self.reranks += other.reranks;
        self.tracking_lag_ns = self.tracking_lag_ns.saturating_add(other.tracking_lag_ns);
        self.sched_latency.merge(&other.sched_latency);
        self.run_quantum.merge(&other.run_quantum);
    }

    /// SLO-violation counters over the scheduler-latency histogram: how
    /// many dispatches waited at least `threshold` before getting a
    /// core. Returns the `(certain, possible)` bracket of
    /// [`Log2Histogram::count_at_or_above`] — the bucket resolution
    /// bounds the answer from both sides.
    pub fn slo_violations(&self, threshold: SimDuration) -> (u64, u64) {
        self.sched_latency.count_at_or_above(threshold.as_nanos())
    }

    /// Busy core-time as per-myriad of online core-time.
    pub fn utilization_permyriad(&self) -> u64 {
        let online = self.busy_ns as u128 + self.idle_ns as u128;
        (self.busy_ns as u128 * 10_000)
            .checked_div(online)
            .unwrap_or(0) as u64
    }

    /// The JSON object embedded per cell in `BENCH_sweep.json`. Every
    /// field is an integer except `utilization_pct`, which is rendered
    /// from an integer per-myriad with two fixed decimals — the whole
    /// encoding is deterministic and finite by construction.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kernels\":{},\"sim_ns\":{},\"busy_ns\":{},\"idle_ns\":{},\"offline_ns\":{},\
             \"utilization_pct\":{}.{:02},\"fast_idle_slow_runnable_ns\":{},\"migrations\":{},\
             \"migration_wait_ns\":{},\"preemptions\":{},\"sync_wait_ns\":{},\
             \"speed_changes\":{},\"reranks\":{},\
             \"tracking_lag_ns\":{},\"sched_latency\":{},\"run_quantum\":{}}}",
            self.kernels,
            self.sim_ns,
            self.busy_ns,
            self.idle_ns,
            self.offline_ns,
            self.utilization_permyriad() / 100,
            self.utilization_permyriad() % 100,
            self.fast_idle_slow_runnable_ns,
            self.migrations,
            self.migration_wait_ns,
            self.preemptions,
            self.sync_wait_ns,
            self.speed_changes,
            self.reranks,
            self.tracking_lag_ns,
            self.sched_latency.to_json(),
            self.run_quantum.to_json()
        )
    }
}

impl Default for ProfileMetrics {
    fn default() -> Self {
        ProfileMetrics::new()
    }
}

impl RunProfile {
    /// The compact summary of this profile.
    pub fn metrics(&self) -> ProfileMetrics {
        let mut m = ProfileMetrics::new();
        m.kernels = 1;
        m.sim_ns = self.duration.as_nanos();
        for c in &self.cores {
            m.busy_ns = m.busy_ns.saturating_add(c.busy.as_nanos());
            m.idle_ns = m.idle_ns.saturating_add(c.idle.as_nanos());
            m.offline_ns = m.offline_ns.saturating_add(c.offline.as_nanos());
        }
        m.fast_idle_slow_runnable_ns = self.fast_idle_slow_runnable.as_nanos();
        m.migrations = self.migrations();
        for t in &self.threads {
            m.migration_wait_ns = m
                .migration_wait_ns
                .saturating_add(t.migration_wait.as_nanos());
        }
        m.preemptions = self.preemptions();
        m.sync_wait_ns = self.total_sync_wait().as_nanos();
        m.speed_changes = self.speed_changes;
        m.reranks = self.reranks;
        m.tracking_lag_ns = self.tracking_lag.as_nanos();
        m.sched_latency = self.sched_latency.clone();
        m.run_quantum = self.run_quantum.clone();
        m
    }
}

/// Folds the metrics of every kernel of a captured run into one record,
/// replaying each trace through the metrics fold (no timeline), as the
/// sweep engine streams it.
pub fn metrics_of_traces(traces: &[KernelTrace]) -> ProfileMetrics {
    let mut m = ProfileMetrics::new();
    for t in traces {
        let mut fold = ProfileFold::new(&t.machine, t.policy);
        t.replay(&mut fold);
        m.merge(&fold.finish().metrics());
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_kernel::{
        capture_traces, AtomicOp, FnThread, Kernel, ShareId, SpawnOptions, Step, ThreadId,
        TraceRecord,
    };
    use asym_sim::{CoreId, CoreMask, Cycles, MachineSpec};

    fn two_thread_trace() -> KernelTrace {
        let ((), traces) = capture_traces(|| {
            let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
            let mut k = Kernel::new(machine, SchedPolicy::os_default(), 11);
            for _ in 0..3 {
                let mut bursts = 4u32;
                k.spawn(
                    FnThread::new("w", move |_cx| {
                        if bursts == 0 {
                            Step::Done
                        } else {
                            bursts -= 1;
                            Step::Compute(Cycles::from_millis_at_full_speed(1.0))
                        }
                    }),
                    SpawnOptions::new(),
                );
            }
            k.run();
        });
        traces.into_iter().next().expect("one kernel")
    }

    #[test]
    fn incremental_fold_equals_post_hoc_replay() {
        use asym_kernel::TraceConsumer as _;
        let trace = two_thread_trace();
        let post_hoc = RunProfile::from_trace(&trace);
        // Feed the same stream event by event, the way the streaming
        // capture path does: the folded profile must be byte-identical
        // to the post-hoc replay, rendering included.
        let mut fold = ProfileFold::new(&trace.machine, trace.policy);
        for r in trace.records() {
            fold.on_event(r.time, &r.event);
        }
        fold.on_close(trace.outcome, trace.budget_exhausted);
        let streamed = fold.finish();
        // The metrics fold records no timeline; every other field
        // matches the replay's.
        assert!(post_hoc.timeline.is_some());
        assert!(streamed.timeline.is_none());
        assert_eq!(
            RunProfile {
                timeline: None,
                ..post_hoc.clone()
            },
            streamed
        );
        assert_eq!(post_hoc.metrics(), streamed.metrics());
        assert_eq!(post_hoc.to_string(), streamed.to_string());
    }

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    fn spawn(tid: ThreadId, core: usize) -> TraceEvent {
        TraceEvent::Spawn {
            tid,
            core: CoreId(core),
            affinity: CoreMask::from_bits(0b11),
            parent: None,
        }
    }

    fn dispatch(tid: ThreadId, core: usize) -> TraceEvent {
        TraceEvent::Dispatch {
            tid,
            core: CoreId(core),
        }
    }

    fn record(at_ms: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time: ms(at_ms),
            event,
        }
    }

    /// Profiles `records` on a 1f-1s machine (1/8-speed slow core) with
    /// both the metrics fold and the timeline replay, checks the two
    /// agree outside the timeline, and returns the replay.
    fn profile_forged(
        records: impl FnOnce(&[ThreadId], ShareId) -> Vec<TraceRecord>,
    ) -> RunProfile {
        // A genuine (never run) kernel supplies the machine, policy and
        // ids; the history is then written by hand.
        let ((tids, obj), mut traces) = capture_traces(|| {
            let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
            let mut k = Kernel::new(machine, SchedPolicy::os_default(), 1);
            let obj = k.register_shared("x");
            let tids: Vec<ThreadId> = (0..2)
                .map(|_| k.spawn(FnThread::new("w", |_cx| Step::Done), SpawnOptions::new()))
                .collect();
            (tids, obj)
        });
        let mut trace = traces.pop().expect("one kernel");
        trace.set_records(records(&tids, obj));
        let replayed = RunProfile::from_trace(&trace);
        let mut fold = ProfileFold::new(&trace.machine, trace.policy);
        trace.replay(&mut fold);
        let streamed = fold.finish();
        assert_eq!(
            RunProfile {
                timeline: None,
                ..replayed.clone()
            },
            streamed
        );
        for c in &replayed.cores {
            assert_eq!(c.busy + c.idle + c.offline, replayed.duration);
        }
        replayed
    }

    #[test]
    fn accounting_is_conserved() {
        let trace = two_thread_trace();
        let p = RunProfile::from_trace(&trace);
        // Each core's busy + idle + offline tiles the run exactly.
        for c in &p.cores {
            assert_eq!(
                (c.busy + c.idle + c.offline).as_nanos(),
                p.duration.as_nanos(),
                "core {} accounting must tile the run",
                c.core
            );
        }
        // Thread states likewise tile each thread's lifetime, which here
        // starts at t=0 for all three threads; threads can end early, so
        // the sum is bounded by the run length.
        for t in &p.threads {
            let lifetime = t.running_fast + t.running_slow + t.runnable + t.blocked + t.sleeping;
            assert!(lifetime.as_nanos() <= p.duration.as_nanos());
            assert!(lifetime > SimDuration::ZERO);
        }
        assert_eq!(p.outcome, Some(RunOutcome::AllDone));
        // Three compute-bound threads on two cores: both cores saw work.
        assert!(p.cores.iter().all(|c| c.busy > SimDuration::ZERO));
    }

    #[test]
    fn profiles_are_deterministic() {
        let a = RunProfile::from_trace(&two_thread_trace());
        let b = RunProfile::from_trace(&two_thread_trace());
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(a.metrics().to_json(), b.metrics().to_json());
    }

    #[test]
    fn histograms_fill_and_render() {
        let p = RunProfile::from_trace(&two_thread_trace());
        assert!(p.sched_latency.count() > 0);
        assert!(p.run_quantum.count() > 0);
        let text = p.to_string();
        assert!(text.contains("scheduler latency"), "got: {text}");
        assert!(
            text.contains("fast idle while slow runnable"),
            "got: {text}"
        );
    }

    #[test]
    fn metrics_merge_accumulates() {
        let p = RunProfile::from_trace(&two_thread_trace());
        let single = p.metrics();
        let mut doubled = ProfileMetrics::new();
        doubled.merge(&single);
        doubled.merge(&single);
        assert_eq!(doubled.kernels, 2);
        assert_eq!(doubled.sim_ns, single.sim_ns * 2);
        assert_eq!(doubled.busy_ns, single.busy_ns * 2);
        assert_eq!(
            doubled.sched_latency.count(),
            single.sched_latency.count() * 2
        );
        // Utilization is a ratio: merging identical records preserves it.
        assert_eq!(
            doubled.utilization_permyriad(),
            single.utilization_permyriad()
        );
    }

    #[test]
    fn empty_trace_profiles_to_zeros() {
        let ((), traces) = capture_traces(|| {
            let machine = MachineSpec::symmetric(2, Speed::FULL);
            let _k = Kernel::new(machine, SchedPolicy::os_default(), 1);
        });
        let p = RunProfile::from_trace(&traces[0]);
        assert_eq!(p.duration, SimDuration::ZERO);
        assert!(p.threads.is_empty());
        assert!(p.sched_latency.is_empty());
        assert_eq!(p.metrics().utilization_permyriad(), 0);
    }

    #[test]
    fn fast_idle_detected_on_starved_fast_core() {
        // One thread pinned to the slow core of a 1f-1s machine: the fast
        // core idles the whole time the slow core works — the entire run
        // is a §3.1.1 violation window.
        let ((), traces) = capture_traces(|| {
            let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
            let mut k = Kernel::new(machine, SchedPolicy::os_default(), 3);
            let mut bursts = 2u32;
            k.spawn(
                FnThread::new("pinned", move |_cx| {
                    if bursts == 0 {
                        Step::Done
                    } else {
                        bursts -= 1;
                        Step::Compute(Cycles::from_millis_at_full_speed(1.0))
                    }
                }),
                SpawnOptions::new().affinity(CoreMask::single(CoreId(1))),
            );
            k.run();
        });
        let p = RunProfile::from_trace(&traces[0]);
        assert_eq!(p.fast_idle_slow_runnable.as_nanos(), p.duration.as_nanos());
        assert!(p.threads[0].running_slow > SimDuration::ZERO);
        assert_eq!(p.threads[0].running_fast, SimDuration::ZERO);
    }

    #[test]
    fn trailing_annotations_set_the_run_end() {
        // The last scheduling event is at 1 ms; two atomics follow. The
        // fold skips `advance` on annotations, yet the run must still end
        // at the last record and close the open spell there.
        let p = profile_forged(|tids, obj| {
            let atomic = |time| TraceRecord {
                time,
                event: TraceEvent::SharedAtomic {
                    tid: tids[0],
                    obj,
                    word: 0,
                    op: AtomicOp::Rmw,
                },
            };
            vec![
                record(0, spawn(tids[0], 0)),
                record(1, dispatch(tids[0], 0)),
                atomic(ms(2)),
                atomic(ms(5)),
            ]
        });
        assert_eq!(p.duration, SimDuration::from_millis(5));
        assert_eq!(p.cores[0].busy, SimDuration::from_millis(4));
        assert_eq!(p.cores[0].idle, SimDuration::from_millis(1));
        assert_eq!(p.cores[1].idle, SimDuration::from_millis(5));
        assert_eq!(p.threads[0].running_fast, SimDuration::from_millis(4));
        assert_eq!(p.threads[0].runnable, SimDuration::from_millis(1));
        // The spell was cut by the end of the trace: no quantum.
        assert!(p.run_quantum.is_empty());
        let tl = p.timeline.as_ref().expect("replay records a timeline");
        let last = tl.slices.last().expect("the open spell is closed");
        assert_eq!(
            (last.start, last.dur, last.end),
            (ms(1), SimDuration::from_millis(4), "end")
        );
    }

    #[test]
    fn topology_changes_reseat_running_threads() {
        // Thread A runs on the fast core 0 and B on the slow core 1.
        // Core 0 throttles to the slow speed at 2 ms, B finishes and core
        // 1 goes offline at 3 ms, core 1 is re-clocked to full speed while
        // offline at 5 ms and comes back at 6 ms, and A finishes at 8 ms.
        let slow = Speed::fraction_of_full(8);
        let p = profile_forged(|tids, _| {
            let (a, b) = (tids[0], tids[1]);
            vec![
                record(0, spawn(a, 0)),
                record(0, spawn(b, 1)),
                record(1, dispatch(a, 0)),
                record(1, dispatch(b, 1)),
                record(
                    2,
                    TraceEvent::SpeedChange {
                        core: CoreId(0),
                        speed: slow,
                    },
                ),
                record(3, TraceEvent::Done { tid: b }),
                record(3, TraceEvent::CoreOffline { core: CoreId(1) }),
                record(
                    5,
                    TraceEvent::SpeedChange {
                        core: CoreId(1),
                        speed: Speed::FULL,
                    },
                ),
                record(6, TraceEvent::CoreOnline { core: CoreId(1) }),
                record(8, TraceEvent::Done { tid: a }),
            ]
        });
        let d = SimDuration::from_millis;
        assert_eq!(p.duration, d(8));
        let (c0, c1) = (&p.cores[0], &p.cores[1]);
        assert_eq!((c0.busy, c0.idle, c0.offline), (d(7), d(1), d(0)));
        assert_eq!((c1.busy, c1.idle, c1.offline), (d(2), d(3), d(3)));
        // Core 0: 2 ms at full speed, then 6 ms at 1/8; core 1: 3 ms at
        // 1/8 before going offline, then 2 ms at full speed.
        assert_eq!(c0.speed_weighted, 2_000_000 * 10_000 + 6_000_000 * 1_250);
        assert_eq!(c1.speed_weighted, 3_000_000 * 1_250 + 2_000_000 * 10_000);
        // A is on the top-speed core until core 1 returns at full speed
        // (the two cores tie from 2 ms to 3 ms, and core 0 is the only
        // online core from 3 ms to 6 ms).
        let (ta, tb) = (&p.threads[0], &p.threads[1]);
        assert_eq!((ta.running_fast, ta.running_slow), (d(5), d(2)));
        assert_eq!((tb.running_fast, tb.running_slow), (d(1), d(1)));
        assert_eq!(p.run_quantum.count(), 2);
        // The fast core idles with B queued on the slow one in [0, 1),
        // and the re-clocked core 1 idles while A runs slow in [6, 8).
        assert_eq!(p.fast_idle_slow_runnable, d(3));
        assert_eq!(p.tracking_lag, d(2));
        assert_eq!(p.speed_changes, 2);
        let tl = p.timeline.as_ref().expect("replay records a timeline");
        assert_eq!(tl.marks.len(), 4);
    }
}
