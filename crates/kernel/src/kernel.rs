//! The simulated kernel: event loop, run queues, dispatch, and balancing.

use crate::guard::current_guard;
use crate::placement::{placement_for, PlacementPolicy};
use crate::policy::SchedPolicy;
use crate::thread::{ShareId, SpawnOptions, Step, ThreadBody, ThreadId, ThreadStats, WaitId};
use crate::trace::{access_tracing_enabled, register_kernel, TraceSink};
use asym_sim::{
    CoreId, CoreMask, Cycles, EnvironmentPlan, EnvironmentState, EventKey, EventQueue, FaultKind,
    FaultPlan, MachineSpec, Rng, SimDuration, SimTime, Speed,
};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Default scheduler time slice (1 ms of wall time, as in tick-based
/// kernels of the paper's era).
pub const DEFAULT_QUANTUM: SimDuration = SimDuration::from_millis(1);

/// Default period of the load balancer.
pub const DEFAULT_BALANCE_PERIOD: SimDuration = SimDuration::from_millis(4);

/// Default cost charged to a thread when it is switched onto a core.
pub const DEFAULT_CONTEXT_SWITCH: Cycles = Cycles::new(2_000);

/// How long a queued thread stays "cache hot" and therefore immune to
/// idle stealing under the stock policy (the `task_hot` test of 2.6-era
/// kernels, whose default `cache_decay_ticks` was several milliseconds).
pub const CACHE_HOT_WINDOW: SimDuration = SimDuration::from_micros(5_000);

/// How many consecutive environment ticks a changed speed target must
/// persist before the kernel commits it (hysteresis: a target that
/// jitters back within the window is never applied, so a noisy DVFS
/// governor cannot cause migration thrash).
pub const ENV_CONFIRM_TICKS: u32 = 2;

/// Per-core floor on the spacing between committed environment speed
/// changes. Together with [`ENV_CONFIRM_TICKS`] this bounds the re-rank
/// rate: each core re-ranks at most once per interval, no matter how
/// fast the modeled environment oscillates.
pub const ENV_MIN_APPLY_INTERVAL: SimDuration = DEFAULT_BALANCE_PERIOD;

/// The events of the kernel's heap. Slice ends are not among them: each
/// core's running slice ends on its own timer (`Kernel::slice_ends`).
#[derive(Debug)]
enum Event {
    SleepDone {
        tid: ThreadId,
    },
    Balance,
    /// A scheduled fault from the kernel's [`FaultPlan`] fires.
    Fault(FaultKind),
    /// Periodic livelock check: did anything retire work since last time?
    Watchdog,
    /// Periodic environment evaluation: sample per-core utilization, step
    /// the [`EnvironmentState`], and commit confirmed speed targets.
    EnvTick,
}

/// Why a running thread was taken off its core and requeued (the
/// attribution carried by [`TraceEvent::Preempt`]). Observability
/// layers split context-switch accounting by these markers; without
/// them a quantum expiry, a voluntary yield, and a forced interruption
/// before a cross-core pull are indistinguishable in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreemptReason {
    /// The thread's time slice expired with compute still pending.
    Quantum,
    /// Round-robin at a step boundary: others were waiting when the
    /// thread produced its next compute step.
    StepBoundary,
    /// The thread yielded voluntarily ([`Step::Yield`](crate::Step)).
    Yield,
    /// The scheduler interrupted the thread mid-slice to move it (or
    /// clear its core) — balancing pulls and hotplug evacuation.
    Interrupt,
}

/// Why a thread became runnable (the attribution carried by
/// [`TraceEvent::Wakeup`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakeReason {
    /// A wait-queue notification ended a block.
    Signal,
    /// A sleep timer fired.
    Timer,
}

/// The flavour of a modeled atomic access carried by
/// [`TraceEvent::SharedAtomic`]. Atomic accesses are exempt from data-race
/// checking and instead contribute acquire/release edges to the
/// happens-before relation, mirroring C11 semantics: loads acquire, stores
/// release, and read-modify-writes do both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// An acquire load.
    Load,
    /// A release store.
    Store,
    /// An acquire-release read-modify-write.
    Rmw,
}

/// A scheduling event reported to a tracer installed with
/// [`Kernel::set_tracer`] and captured by
/// [`capture_traces`](crate::capture_traces). Useful for debugging
/// workload models, visualizing schedules, and driving the trace
/// analyses in `asym-analysis`.
///
/// The event stream is *state-complete*: replaying it reconstructs, at
/// every instant, which thread occupies each core, each core's run
/// queue, every thread's affinity mask, and which threads are blocked,
/// sleeping, or done.
///
/// The explicit discriminants are part of the trace-hash contract: the
/// derived `Hash` feeds each variant's discriminant (as an `isize`) into
/// [`KernelTrace::stable_hash`](crate::KernelTrace::stable_hash), so a
/// variant keeps its number for good, and a removed variant's number is
/// never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(isize)]
pub enum TraceEvent {
    /// A thread was created and enqueued on a core's run queue.
    Spawn {
        /// The new thread.
        tid: ThreadId,
        /// The core whose run queue received it.
        core: CoreId,
        /// The thread's affinity mask.
        affinity: CoreMask,
        /// The simulated thread that spawned this one ([`None`] for
        /// threads created by setup code outside the simulation). The
        /// happens-before analysis draws a spawn edge from the parent's
        /// spawn call to the child's first step.
        parent: Option<ThreadId>,
    } = 0,
    /// A thread started a slice on a core.
    Dispatch {
        /// The dispatched thread.
        tid: ThreadId,
        /// The core granted.
        core: CoreId,
    } = 1,
    /// A thread was moved between cores (steal, balance, or explicit
    /// migration).
    Migrate {
        /// The migrated thread.
        tid: ThreadId,
        /// Where it was.
        from: CoreId,
        /// Where it went.
        to: CoreId,
    } = 2,
    /// A running thread was taken off its core and put back on that
    /// core's run queue (quantum expiry, step-boundary round-robin,
    /// yield, or interruption before a cross-core move).
    Preempt {
        /// The preempted thread.
        tid: ThreadId,
        /// The core it was running on (and is now queued on).
        core: CoreId,
        /// Why the thread lost the core.
        reason: PreemptReason,
    } = 3,
    /// A *queued* thread was moved from one core's run queue to
    /// another's (idle stealing, periodic balancing, explicit pulls,
    /// affinity-forced requeues).
    Steal {
        /// The moved thread.
        tid: ThreadId,
        /// The queue it was taken from.
        from: CoreId,
        /// The queue it was pushed onto.
        to: CoreId,
    } = 4,
    /// A thread became runnable after blocking or sleeping.
    Wakeup {
        /// The woken thread.
        tid: ThreadId,
        /// The core it was enqueued on.
        core: CoreId,
        /// What made the thread runnable.
        reason: WakeReason,
    } = 5,
    /// A thread blocked on a wait queue.
    Block {
        /// The blocking thread.
        tid: ThreadId,
        /// The queue it blocked on.
        wait: WaitId,
    } = 6,
    /// A thread left the CPU to sleep until a timer fires.
    Sleep {
        /// The sleeping thread.
        tid: ThreadId,
    } = 7,
    /// A wait queue was notified (whether or not anyone was waiting) —
    /// the raw kernel-level signal under every `asym-sync` primitive.
    Signal {
        /// The notifying thread, when the notification came from a
        /// running simulated thread ([`None`] for timer/external wakes
        /// and setup code).
        waker: Option<ThreadId>,
        /// The notified wait queue.
        wait: WaitId,
        /// How many waiters were woken (zero when nobody was waiting —
        /// the signature of a lost wakeup).
        woken: usize,
    } = 8,
    /// A thread's affinity mask changed.
    SetAffinity {
        /// The re-pinned thread.
        tid: ThreadId,
        /// The new mask.
        affinity: CoreMask,
    } = 9,
    /// A thread finished.
    Done {
        /// The finished thread.
        tid: ThreadId,
    } = 10,
    /// A thread arrived at a `SimBarrier` (emitted by `asym-sync`).
    BarrierArrive {
        /// The arriving thread.
        tid: ThreadId,
        /// The barrier's wait queue.
        barrier: WaitId,
        /// Whether this arrival released the barrier.
        released: bool,
    } = 14,
    /// An item was pushed onto a `SimQueue` (emitted by `asym-sync`).
    QueuePush {
        /// The producing thread.
        tid: ThreadId,
        /// The queue's wait queue.
        queue: WaitId,
    } = 17,
    /// An item was popped from a `SimQueue` (emitted by `asym-sync`).
    QueuePop {
        /// The consuming thread.
        tid: ThreadId,
        /// The queue's wait queue.
        queue: WaitId,
    } = 18,
    /// A core's execution rate changed mid-run (injected throttling /
    /// DVFS / duty-cycle re-modulation). Replayers must use the new
    /// speed from this instant on.
    SpeedChange {
        /// The re-modulated core.
        core: CoreId,
        /// Its new speed.
        speed: Speed,
    } = 19,
    /// The speed order of the online cores changed: the immediately
    /// preceding `SpeedChange` on `core` moved it past at least one
    /// other online core. Placement and balancing decisions made after
    /// this instant see the new ranking; the staleness lint in
    /// `asym-analysis` requires every ranking-altering `SpeedChange` to
    /// be followed by its `Rerank` without delay.
    Rerank {
        /// The core whose speed change reordered the ranking.
        core: CoreId,
    } = 20,
    /// A core went offline (hotplug remove). Threads that were running
    /// or queued on it are migrated away by the immediately following
    /// `Preempt`/`Steal` events.
    CoreOffline {
        /// The departed core.
        core: CoreId,
    } = 21,
    /// A core came back online (hotplug add).
    CoreOnline {
        /// The returning core.
        core: CoreId,
    } = 22,
    /// The kernel widened a thread's affinity mask because the mask no
    /// longer covered any online core — the graceful-degradation
    /// alternative to stranding the thread forever.
    AffinityOverride {
        /// The re-pinned thread.
        tid: ThreadId,
        /// The widened mask now in force.
        affinity: CoreMask,
    } = 23,
    /// A thread was killed by an injected fault (always followed by a
    /// `Done` event for the same thread, keeping replay state-complete).
    ThreadKilled {
        /// The killed thread.
        tid: ThreadId,
    } = 24,
    /// A plain (non-atomic) read of a registered shared object (emitted
    /// by `asym-sync`'s `SimShared`). Subject to vector-clock data-race
    /// checking: the read must be ordered against every write of the same
    /// word by the happens-before relation.
    SharedRead {
        /// The reading thread.
        tid: ThreadId,
        /// The shared object.
        obj: ShareId,
        /// The word (slot) within the object that was read.
        word: u32,
    } = 25,
    /// A plain (non-atomic) write of a registered shared object (emitted
    /// by `asym-sync`'s `SimShared`). Subject to vector-clock data-race
    /// checking against all other accesses of the same word.
    SharedWrite {
        /// The writing thread.
        tid: ThreadId,
        /// The shared object.
        obj: ShareId,
        /// The word (slot) within the object that was written.
        word: u32,
    } = 26,
    /// A modeled atomic access of a registered shared object (emitted by
    /// `asym-sync`'s `SimShared`). Exempt from race checking; contributes
    /// acquire/release happens-before edges per (object, word).
    SharedAtomic {
        /// The accessing thread.
        tid: ThreadId,
        /// The shared object.
        obj: ShareId,
        /// The word (slot) within the object.
        word: u32,
        /// Load (acquire), store (release), or RMW (both).
        op: AtomicOp,
    } = 27,
    /// A thread observed another thread's completion via
    /// [`ThreadCx::join_check`] — the join half of an exit→join
    /// happens-before edge (everything the dead thread did is ordered
    /// before everything the observer does next).
    ThreadJoin {
        /// The observing (joining) thread.
        by: ThreadId,
        /// The thread observed to be finished.
        of: ThreadId,
    } = 28,
}

type Tracer = Box<dyn FnMut(SimTime, TraceEvent)>;

/// Why [`Kernel::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// Every thread reached [`Step::Done`].
    AllDone,
    /// The time limit was reached with work still in flight.
    TimeLimit,
    /// No events remain but threads are still blocked — a deadlock in the
    /// simulated program. The count is the number of live threads.
    Deadlock(usize),
    /// The watchdog (see [`Kernel::set_watchdog`]) observed a full window
    /// of simulated time in which no thread retired any work or finished,
    /// while threads were nominally runnable or sleeping — a livelock.
    /// The kernel can be resumed with `run_until`, which re-arms the
    /// watchdog.
    Stalled,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// The body must be asked for its next step.
    Fresh,
    /// Partially-executed compute work remains.
    Compute(Cycles),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    /// Queued on the given core's run queue.
    Runnable(usize),
    /// Currently executing on the given core.
    Running(usize),
    /// On a wait queue.
    Blocked(WaitId),
    /// Off-CPU until a timer fires.
    Sleeping,
    /// Finished.
    Done,
}

pub(crate) struct Thread {
    name: String,
    body: Option<Box<dyn ThreadBody>>,
    state: TState,
    pending: Pending,
    pub(crate) affinity: CoreMask,
    /// Shielded from injected `KillThread` faults (external clients,
    /// drivers, and supervisor processes).
    kill_exempt: bool,
    pub(crate) last_core: Option<usize>,
    state_since: SimTime,
    /// When the thread last executed on a core (cache-hotness clock).
    last_ran: SimTime,
    /// When the thread was last woken (blocked/sleeping -> runnable).
    last_wake: SimTime,
    stats: ThreadStats,
}

struct Running {
    tid: ThreadId,
    slice_start: SimTime,
    /// True when the slice ends because the compute step completes (rather
    /// than the quantum expiring).
    completes: bool,
}

pub(crate) struct Core {
    pub(crate) speed: Speed,
    /// False while the core is hotplugged out: it holds no work, accepts
    /// no dispatches, and is invisible to placement and balancing.
    online: bool,
    pub(crate) queue: VecDeque<ThreadId>,
    current: Option<Running>,
    /// Slice arithmetic at this core's speed, refreshed when the speed or
    /// the kernel's quantum changes.
    slicing: Slicing,
    /// True while a thread body is being stepped on this core (between
    /// slices, `current` is empty but the core is NOT idle — placement
    /// decisions must still count the occupant).
    executing: bool,
    /// When the core last became (and stayed) idle; cleared on dispatch.
    idle_since: Option<SimTime>,
    /// Exponentially decayed run-queue length, updated at balance ticks
    /// (2.6's cpu_load). The balancer compares these, so a core hosting
    /// only a low-duty thread still reads as nearly idle.
    load_avg: f64,
}

impl Core {
    pub(crate) fn load(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some() || self.executing)
    }
}

/// The slice arithmetic of one core at one `(speed, quantum)`, computed
/// once per change instead of once per slice.
#[derive(Debug, Clone, Copy)]
struct Slicing {
    speed: Speed,
    quantum: SimDuration,
    /// The policy's slice length at `speed` (`PlacementPolicy::slice_for`).
    slice: SimDuration,
    /// The cycles one full slice retires (`retired_over(speed, slice)`).
    per_slice: Cycles,
    /// The most work that completes within one slice: the largest `W`
    /// with `W.duration_at(speed) <= slice`. `duration_at` is monotone in
    /// `W`, so a slice completes its work exactly when it is `<= fits`.
    fits: Cycles,
}

impl Slicing {
    fn new(speed: Speed, quantum: SimDuration, slice: SimDuration) -> Self {
        let per_slice = Cycles::new(u64::MAX).retired_over(speed, slice);
        // `fits` lies within a cycle or two of `per_slice`: step up while
        // the next work still fits, then down until this one does.
        let fits_in = |w: u64| Cycles::new(w).duration_at(speed) <= slice;
        let mut fits = per_slice.get();
        while fits_in(fits + 1) {
            fits += 1;
        }
        while !fits_in(fits) {
            fits -= 1;
        }
        Slicing {
            speed,
            quantum,
            slice,
            per_slice,
            fits: Cycles::new(fits),
        }
    }

    /// The length of a slice that starts with `work` pending, and whether
    /// it completes that work (rather than running the full slice).
    fn slice_of(&self, work: Cycles) -> (SimDuration, bool) {
        if work <= self.fits {
            (work.duration_at(self.speed), true)
        } else {
            (self.slice, false)
        }
    }
}

/// Hysteresis bookkeeping for one core's environment speed target. The
/// evaluator reports a target once when it changes; the kernel keeps the
/// latest here and commits it only after it survives
/// [`ENV_CONFIRM_TICKS`] ticks and [`ENV_MIN_APPLY_INTERVAL`] since the
/// core's previous committed change.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EnvPending {
    /// The latest uncommitted target, if it differs from the live speed.
    pub(crate) target: Option<Speed>,
    /// Consecutive ticks the target has persisted unchanged.
    streak: u32,
    /// When this core last committed an environment speed change.
    last_apply: Option<SimTime>,
}

/// Aggregate kernel counters, observable after a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Total dispatches across all cores.
    pub dispatches: u64,
    /// Cross-core thread migrations (wakeup placement changes, balancing,
    /// and explicit slow→fast pulls).
    pub migrations: u64,
    /// Times the periodic balancer ran.
    pub balance_runs: u64,
    /// Events processed by the main loop.
    pub events: u64,
    /// Faults applied from the fault plan (skipped/no-op faults included).
    pub faults_injected: u64,
    /// Threads terminated by injected `KillThread` faults. Workloads read
    /// this after a run to report lost workers instead of asserting
    /// all-done completion.
    pub threads_killed: u64,
    /// Times the kernel widened an unschedulable affinity mask.
    pub affinity_overrides: u64,
    /// Environment evaluation ticks processed (see
    /// [`Kernel::set_environment`]).
    pub env_ticks: u64,
    /// Speed changes committed from the environment model (after
    /// hysteresis and rate bounding; injected `SetSpeed` faults are
    /// counted under `faults_injected` instead).
    pub env_speed_changes: u64,
    /// Applied speed changes (fault or environment) that reordered the
    /// online-core speed ranking — each emitted a
    /// [`TraceEvent::Rerank`].
    pub reranks: u64,
    /// Per-core busy time, indexed by core.
    pub core_busy: Vec<SimDuration>,
}

/// The simulated operating-system kernel.
///
/// A `Kernel` owns a machine, a scheduling policy, the simulated threads,
/// and the event loop. Construct it, spawn initial threads, then call
/// [`Kernel::run`] or [`Kernel::run_until`].
///
/// # Examples
///
/// ```
/// use asym_kernel::{Kernel, SchedPolicy, SpawnOptions, Step, FnThread};
/// use asym_sim::{Cycles, MachineSpec, Speed};
///
/// let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(4));
/// let mut kernel = Kernel::new(machine, SchedPolicy::os_default(), 42);
/// let mut left = 3u32;
/// kernel.spawn(
///     FnThread::new("worker", move |_cx| {
///         if left == 0 {
///             Step::Done
///         } else {
///             left -= 1;
///             Step::Compute(Cycles::from_millis_at_full_speed(1.0))
///         }
///     }),
///     SpawnOptions::new(),
/// );
/// let outcome = kernel.run();
/// assert_eq!(outcome, asym_kernel::RunOutcome::AllDone);
/// ```
pub struct Kernel {
    machine: MachineSpec,
    policy: SchedPolicy,
    /// Strategy object resolved from `policy.kind()` at construction; the
    /// seat of every policy-sensitive decision (see `placement.rs`).
    placement: Rc<dyn PlacementPolicy>,
    time: SimTime,
    events: EventQueue<Event>,
    /// Each core's running slice ends at `(end, key)`: a timer outside
    /// the heap whose key is reserved from the heap's sequence when the
    /// slice starts, so it fires in exactly the `(time, key)` order a
    /// heap event scheduled then would have. `None` while no slice runs.
    slice_ends: Vec<Option<(SimTime, EventKey)>>,
    pub(crate) rng: Rng,
    pub(crate) threads: Vec<Thread>,
    waits: Vec<VecDeque<ThreadId>>,
    pub(crate) cores: Vec<Core>,
    pending_dispatch: VecDeque<usize>,
    pending_set: Vec<bool>,
    live_threads: usize,
    blocked_threads: usize,
    quantum: SimDuration,
    balance_period: SimDuration,
    balance_scheduled: bool,
    context_switch: Cycles,
    tracer: Option<Tracer>,
    /// Trace sink registered by an active [`crate::capture_traces`]
    /// session, if any.
    capture: Option<TraceSink>,
    /// Livelock-watchdog window, if armed.
    watchdog: Option<SimDuration>,
    watchdog_scheduled: bool,
    /// Monotonic count of retirement milestones (slices that retired
    /// cycles, thread completions). The watchdog compares snapshots.
    progress: u64,
    /// The `progress` value at the last watchdog check.
    watchdog_mark: u64,
    /// Set by the watchdog event; the run loop turns it into
    /// [`RunOutcome::Stalled`].
    stalled: bool,
    /// Absolute sim-time ceiling from [`Kernel::set_sim_time_budget`].
    budget: Option<SimTime>,
    /// True once a run was truncated by `budget` (as opposed to a
    /// caller-chosen `run_until` limit).
    budget_exhausted: bool,
    /// Continuous speed dynamics from [`Kernel::set_environment`], if any.
    environment: Option<EnvironmentState>,
    env_scheduled: bool,
    /// Per-core hysteresis state for environment speed targets.
    pub(crate) env_pending: Vec<EnvPending>,
    /// Per-core busy samples of the latest environment tick, kept so
    /// ticks do not allocate.
    env_busy: Vec<bool>,
    /// Waiter list of the running `notify_all_from`, kept so wakeups do
    /// not allocate.
    notify_buf: Vec<ThreadId>,
    /// Number of shared objects registered via [`Kernel::register_shared`].
    shared_count: usize,
    /// Whether shared-access annotation events (`SharedRead`/`SharedWrite`/
    /// `SharedAtomic`/`ThreadJoin`) are emitted. Latched from the
    /// thread-local [`set_access_tracing`](crate::set_access_tracing) flag
    /// at construction so one kernel's stream is all-or-nothing.
    annotate: bool,
    stats: KernelStats,
}

impl Kernel {
    /// Creates a kernel for `machine` under `policy`, with all randomness
    /// derived from `seed`.
    ///
    /// If the calling OS thread is inside
    /// [`with_run_guard`](crate::with_run_guard), the guard's watchdog,
    /// sim-time budget, and fault plan are applied to the new kernel —
    /// the mechanism the resilient experiment harness uses to bound and
    /// perturb runs of workloads that construct their kernels internally.
    pub fn new(machine: MachineSpec, policy: SchedPolicy, seed: u64) -> Self {
        let placement = placement_for(policy);
        let cores = machine
            .speeds()
            .iter()
            .map(|&speed| Core {
                speed,
                online: true,
                queue: VecDeque::new(),
                current: None,
                slicing: Slicing::new(
                    speed,
                    DEFAULT_QUANTUM,
                    placement.slice_for(DEFAULT_QUANTUM, speed),
                ),
                executing: false,
                idle_since: None,
                load_avg: 0.0,
            })
            .collect::<Vec<_>>();
        let n = cores.len();
        let capture = register_kernel(&machine, policy);
        let mut kernel = Kernel {
            machine,
            policy,
            placement,
            time: SimTime::ZERO,
            events: EventQueue::new(),
            slice_ends: vec![None; n],
            rng: Rng::new(seed),
            threads: Vec::new(),
            waits: Vec::new(),
            cores,
            pending_dispatch: VecDeque::new(),
            pending_set: vec![false; n],
            live_threads: 0,
            blocked_threads: 0,
            quantum: DEFAULT_QUANTUM,
            balance_period: DEFAULT_BALANCE_PERIOD,
            balance_scheduled: false,
            context_switch: DEFAULT_CONTEXT_SWITCH,
            tracer: None,
            capture,
            watchdog: None,
            watchdog_scheduled: false,
            progress: 0,
            watchdog_mark: 0,
            stalled: false,
            budget: None,
            budget_exhausted: false,
            environment: None,
            env_scheduled: false,
            env_pending: vec![EnvPending::default(); n],
            env_busy: Vec::new(),
            notify_buf: Vec::new(),
            shared_count: 0,
            annotate: access_tracing_enabled(),
            stats: KernelStats {
                core_busy: vec![SimDuration::ZERO; n],
                ..KernelStats::default()
            },
        };
        if let Some(guard) = current_guard() {
            if let Some(window) = guard.watchdog {
                kernel.set_watchdog(window);
            }
            if let Some(budget) = guard.sim_time_budget {
                kernel.set_sim_time_budget(budget);
            }
            if let Some(plan) = &guard.fault_plan {
                kernel.set_fault_plan(plan);
            }
            if let Some(plan) = &guard.environment {
                kernel.set_environment(plan);
            }
        }
        kernel
    }

    /// Sets the scheduler time slice. Must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn set_quantum(&mut self, quantum: SimDuration) -> &mut Self {
        assert!(!quantum.is_zero(), "quantum must be non-zero");
        self.quantum = quantum;
        self
    }

    /// Sets the periodic load-balancing interval.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn set_balance_period(&mut self, period: SimDuration) -> &mut Self {
        assert!(!period.is_zero(), "balance period must be non-zero");
        self.balance_period = period;
        self
    }

    /// Sets the per-dispatch context-switch cost.
    pub fn set_context_switch(&mut self, cost: Cycles) -> &mut Self {
        self.context_switch = cost;
        self
    }

    /// Arms the livelock watchdog: if a full `window` of simulated time
    /// passes in which no thread retires any work or finishes — while
    /// threads are nominally runnable or sleeping — `run`/`run_until`
    /// returns [`RunOutcome::Stalled`] instead of spinning forever.
    ///
    /// Choose `window` larger than any legitimate all-idle phase of the
    /// workload (think-time sleeps, warm-up gaps), or healthy runs will
    /// be reported as stalled.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn set_watchdog(&mut self, window: SimDuration) -> &mut Self {
        assert!(!window.is_zero(), "watchdog window must be non-zero");
        self.watchdog = Some(window);
        self
    }

    /// Caps total simulated time at `budget` (measured from time zero).
    /// Any `run`/`run_until` call that would pass the cap returns
    /// [`RunOutcome::TimeLimit`] at the cap, and the truncation is
    /// recorded on the captured trace as `budget_exhausted` so harnesses
    /// can tell a budget overrun apart from a workload's own measurement
    /// window ending.
    pub fn set_sim_time_budget(&mut self, budget: SimDuration) -> &mut Self {
        self.budget = Some(SimTime::ZERO + budget);
        self
    }

    /// Schedules every fault in `plan` for injection at its timestamp.
    /// Records whose time is already in the past are ignored. Faults are
    /// part of the deterministic event stream: the same seed and plan
    /// always replay identically.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> &mut Self {
        for r in plan.records() {
            if r.at >= self.time {
                self.events.schedule(r.at, Event::Fault(r.kind));
            }
        }
        self
    }

    /// Drives per-core speeds from `plan` for the rest of the run: every
    /// [`tick_period`](EnvironmentPlan::tick_period) the kernel samples
    /// which cores are busy, steps the plan's DVFS/thermal/co-tenant
    /// models, and commits confirmed speed targets through the same
    /// re-modulation path injected `SetSpeed` faults use. Hysteresis
    /// ([`ENV_CONFIRM_TICKS`]) and rate bounding
    /// ([`ENV_MIN_APPLY_INTERVAL`]) stand between a computed target and
    /// its commit, so jittery targets never thrash the schedule. A
    /// static plan (no models, no bursts) is a no-op and costs nothing.
    pub fn set_environment(&mut self, plan: &EnvironmentPlan) -> &mut Self {
        if plan.is_static() {
            return self;
        }
        let base = self.machine.speeds().to_vec();
        self.environment = Some(EnvironmentState::new(plan.clone(), &base));
        self.env_pending = vec![EnvPending::default(); self.cores.len()];
        if !self.env_scheduled {
            self.events
                .schedule(self.time + plan.tick_period(), Event::EnvTick);
            self.env_scheduled = true;
        }
        self
    }

    /// Returns `true` while `core` is online (not hotplugged out).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_online(&self, core: CoreId) -> bool {
        self.cores[core.0].online
    }

    fn online_mask(&self) -> CoreMask {
        CoreMask::from_cores(
            (0..self.cores.len())
                .filter(|&i| self.cores[i].online)
                .map(CoreId),
        )
    }

    /// Installs a tracer invoked on every scheduling event (dispatches,
    /// migrations, wakeups, blocks, thread exits) with the simulated
    /// timestamp. Pass a closure that records or prints; tracing has no
    /// effect on scheduling decisions.
    pub fn set_tracer(&mut self, tracer: impl FnMut(SimTime, TraceEvent) + 'static) -> &mut Self {
        self.tracer = Some(Box::new(tracer));
        self
    }

    fn trace(&mut self, event: TraceEvent) {
        if let Some(sink) = &self.capture {
            sink.borrow_mut().push_record(self.time, &event);
        }
        if let Some(tracer) = &mut self.tracer {
            tracer(self.time, event);
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The machine this kernel manages.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// The active scheduling policy.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Aggregate kernel counters.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Per-thread accounting for `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` does not belong to this kernel.
    pub fn thread_stats(&self, tid: ThreadId) -> &ThreadStats {
        &self.threads[tid.0].stats
    }

    /// The number of threads that have not yet finished.
    pub fn live_threads(&self) -> usize {
        self.live_threads
    }

    /// Creates a wait queue for use with [`Step::Block`].
    pub fn create_wait_queue(&mut self) -> WaitId {
        self.waits.push(VecDeque::new());
        WaitId(self.waits.len() - 1)
    }

    /// Registers a shared object for access tracing; `label` names it in
    /// diagnostics (recorded on the captured trace's
    /// [`shared_labels`](crate::KernelTrace::shared_labels), outside the
    /// hashed event stream). Ids are sequential per kernel.
    pub fn register_shared(&mut self, label: &str) -> ShareId {
        let id = ShareId(self.shared_count);
        self.shared_count += 1;
        if let Some(sink) = &self.capture {
            sink.borrow_mut().push_shared_label(label);
        }
        id
    }

    /// Spawns a thread; it becomes runnable immediately (placement happens
    /// through the active policy).
    pub fn spawn(&mut self, body: impl ThreadBody + 'static, opts: SpawnOptions) -> ThreadId {
        self.spawn_boxed(Box::new(body), opts)
    }

    /// Spawns an already-boxed thread body.
    ///
    /// An affinity mask that covers no online core of the machine (empty,
    /// disjoint, or all-offline) is widened to every online core, with an
    /// [`TraceEvent::AffinityOverride`] recording the change — the thread
    /// is never silently stranded.
    pub fn spawn_boxed(&mut self, body: Box<dyn ThreadBody>, opts: SpawnOptions) -> ThreadId {
        self.spawn_on(body, opts, None)
    }

    fn spawn_on(
        &mut self,
        body: Box<dyn ThreadBody>,
        opts: SpawnOptions,
        parent: Option<(ThreadId, usize)>,
    ) -> ThreadId {
        let parent_core = parent.map(|(_, core)| core);
        let tid = ThreadId(self.threads.len());
        self.threads.push(Thread {
            name: body.name().to_string(),
            body: Some(body),
            state: TState::Runnable(0), // placed below
            pending: Pending::Fresh,
            affinity: opts.affinity,
            kill_exempt: opts.kill_exempt,
            last_core: None,
            state_since: self.time,
            last_ran: self.time,
            last_wake: SimTime::ZERO,
            stats: ThreadStats::default(),
        });
        self.live_threads += 1;
        let core = match parent_core {
            // Fork semantics only apply when the policy honors them.
            // Speed-aware schedulers must place even forked children
            // through their speed-aware chooser: starting a child on a
            // slow parent's core while a faster core idles would break
            // the "fast cores never idle while slower cores hold runnable
            // work" invariant for up to a whole balance period.
            Some(c)
                if opts.on_parent_core
                    && self.placement.honors_fork_placement()
                    && opts.affinity.contains(CoreId(c)) =>
            {
                c
            }
            // exec-balanced: least-loaded core, but ties keep the child
            // with its parent (sched_exec only migrates when strictly
            // better).
            other => self.place_thread_prefer(tid, other),
        };
        self.threads[tid.0].state = TState::Runnable(core);
        self.cores[core].queue.push_back(tid);
        // Trace the affinity actually in force: if the requested mask was
        // unschedulable, placement above widened it (emitting an
        // `AffinityOverride` just before this `Spawn`).
        let affinity = self.threads[tid.0].affinity;
        self.trace(TraceEvent::Spawn {
            tid,
            core: CoreId(core),
            affinity,
            parent: parent.map(|(ptid, _)| ptid),
        });
        self.mark_dispatch(core);
        tid
    }

    /// Wakes one waiter on `wait`; returns the thread woken, if any.
    pub fn notify_one(&mut self, wait: WaitId) -> Option<ThreadId> {
        self.notify_one_from(wait, None, None)
    }

    fn notify_one_from(
        &mut self,
        wait: WaitId,
        waker_core: Option<usize>,
        waker: Option<ThreadId>,
    ) -> Option<ThreadId> {
        let woken = self.waits[wait.0].pop_front();
        self.trace(TraceEvent::Signal {
            waker,
            wait,
            woken: usize::from(woken.is_some()),
        });
        let tid = woken?;
        self.wakeup(tid, waker_core);
        Some(tid)
    }

    /// Wakes every waiter on `wait`; returns how many were woken.
    pub fn notify_all(&mut self, wait: WaitId) -> usize {
        self.notify_all_from(wait, None, None)
    }

    fn notify_all_from(
        &mut self,
        wait: WaitId,
        waker_core: Option<usize>,
        waker: Option<ThreadId>,
    ) -> usize {
        // Taken, not borrowed: a wakeup that notifies again finds an
        // empty buffer of its own instead of this one.
        let mut waiters = std::mem::take(&mut self.notify_buf);
        waiters.extend(self.waits[wait.0].drain(..));
        let n = waiters.len();
        self.trace(TraceEvent::Signal {
            waker,
            wait,
            woken: n,
        });
        for &tid in &waiters {
            self.wakeup(tid, waker_core);
        }
        waiters.clear();
        self.notify_buf = waiters;
        n
    }

    /// The number of threads currently blocked on `wait`.
    pub fn waiter_count(&self, wait: WaitId) -> usize {
        self.waits[wait.0].len()
    }

    /// Runs the simulation until every thread finishes, it deadlocks or
    /// stalls, or the sim-time budget (if any) is exhausted.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Runs the simulation up to `limit` (or the sim-time budget,
    /// whichever is earlier).
    ///
    /// Returns [`RunOutcome::TimeLimit`] if simulated time would pass
    /// the effective limit; the kernel is left there and can be resumed
    /// by calling `run_until` again with a later limit.
    pub fn run_until(&mut self, limit: SimTime) -> RunOutcome {
        let outcome = self.run_until_inner(limit);
        if let Some(sink) = &self.capture {
            sink.borrow_mut()
                .set_outcome(outcome, self.budget_exhausted);
        }
        outcome
    }

    fn run_until_inner(&mut self, limit: SimTime) -> RunOutcome {
        let effective = match self.budget {
            Some(budget) if budget < limit => budget,
            _ => limit,
        };
        if !self.balance_scheduled {
            self.events
                .schedule(self.time + self.balance_period, Event::Balance);
            self.balance_scheduled = true;
        }
        if let Some(window) = self.watchdog {
            if !self.watchdog_scheduled {
                self.events.schedule(self.time + window, Event::Watchdog);
                self.watchdog_scheduled = true;
                self.watchdog_mark = self.progress;
            }
        }
        if let Some(state) = &self.environment {
            if !self.env_scheduled {
                let period = state.plan().tick_period();
                self.events.schedule(self.time + period, Event::EnvTick);
                self.env_scheduled = true;
            }
        }
        loop {
            self.drain_dispatch();
            if self.stalled {
                self.stalled = false;
                return RunOutcome::Stalled;
            }
            if self.live_threads == 0 {
                return RunOutcome::AllDone;
            }
            if self.blocked_threads == self.live_threads {
                // Every remaining thread waits on a queue nobody will
                // notify: the simulated program has deadlocked.
                return RunOutcome::Deadlock(self.live_threads);
            }
            // A renewal traces nothing, dispatches nothing and schedules
            // nothing, so the checks above and the heap's top stay as
            // they are across a run of renewals: only the slice ends
            // need another look between them.
            let next_event = self.events.peek();
            loop {
                // The next event is the heap's top or the earliest slice
                // end, whichever comes first in `(time, key)` order.
                let (next, slice_core) = match (next_event, self.next_slice_end()) {
                    (None, None) => return RunOutcome::Deadlock(self.live_threads),
                    (Some(event), Some((end, core))) if end < event => (end.0, Some(core)),
                    (Some(event), _) => (event.0, None),
                    (None, Some((end, core))) => (end.0, Some(core)),
                };
                if next > effective {
                    self.time = effective;
                    if effective < limit {
                        self.budget_exhausted = true;
                    }
                    return RunOutcome::TimeLimit;
                }
                debug_assert!(next >= self.time, "time went backwards");
                self.time = next;
                self.stats.events += 1;
                let Some(core) = slice_core else {
                    let (_, ev) = self.events.pop().expect("peeked event exists");
                    self.handle_event(ev);
                    break;
                };
                if !self.handle_slice_end(core) {
                    break;
                }
            }
        }
    }

    /// The earliest pending slice end and its core.
    fn next_slice_end(&self) -> Option<((SimTime, EventKey), usize)> {
        let ends = self.slice_ends.iter().enumerate();
        ends.filter_map(|(core, end)| Some(((*end)?, core))).min()
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::SleepDone { tid } => {
                // A sleeping thread may have been killed by a fault while
                // its timer was pending; the stale timer is ignored.
                if self.threads[tid.0].state == TState::Sleeping {
                    self.wakeup(tid, None);
                }
            }
            Event::Fault(kind) => self.handle_fault(kind),
            Event::Watchdog => self.handle_watchdog(),
            Event::EnvTick => self.handle_env_tick(),
            Event::Balance => {
                self.stats.balance_runs += 1;
                for core in &mut self.cores {
                    let inst = core.load() as f64;
                    core.load_avg = 0.75 * core.load_avg + 0.25 * inst;
                }
                self.balance();
                if self.live_threads > 0 {
                    self.events
                        .schedule(self.time + self.balance_period, Event::Balance);
                } else {
                    self.balance_scheduled = false;
                }
            }
        }
    }

    /// Takes the running slice off `core`, with its timer.
    fn take_slice(&mut self, core: usize) -> Option<Running> {
        self.slice_ends[core] = None;
        self.cores[core].current.take()
    }

    /// Ends the running slice on `core`. Returns `true` when that only
    /// renewed it: the quantum ran out, work is left and nobody waits for
    /// the core, so the same thread runs on and nothing is traced,
    /// dispatched or scheduled on the heap.
    fn handle_slice_end(&mut self, core: usize) -> bool {
        let running = self.take_slice(core).expect("slice end on an idle core");
        let tid = running.tid;
        let slicing = self.slicing(core);
        let elapsed = self.time.duration_since(running.slice_start);
        self.stats.core_busy[core] += elapsed;
        // Every slice end retires cycles (slices are only started for
        // non-zero pending compute) — that is forward progress.
        self.progress += 1;
        {
            let th = &mut self.threads[tid.0];
            th.last_ran = self.time;
            th.stats.cpu_time += elapsed;
            match th.pending {
                Pending::Compute(remaining) => {
                    if running.completes {
                        th.stats.cycles_retired += remaining;
                        th.pending = Pending::Fresh;
                    } else {
                        // A full slice retires the cached `per_slice`;
                        // only a quantum change mid-slice ends one at
                        // another length.
                        let retired = if elapsed == slicing.slice {
                            slicing.per_slice.min(remaining)
                        } else {
                            remaining.retired_over(slicing.speed, elapsed)
                        };
                        th.stats.cycles_retired += retired;
                        let left = remaining.saturating_sub(retired);
                        th.pending = if left.is_zero() {
                            Pending::Fresh
                        } else {
                            Pending::Compute(left)
                        };
                    }
                }
                Pending::Fresh => unreachable!("running thread always has compute pending"),
            }
        }

        if self.threads[tid.0].pending == Pending::Fresh {
            // Compute step finished: ask the body for its next step while
            // the thread still notionally owns the core.
            self.step_thread_on_core(tid, core);
        } else if self.cores[core].queue.is_empty() {
            // Quantum expired mid-compute with nobody waiting: renew.
            self.start_slice(core, tid);
            return true;
        } else {
            // Quantum expired mid-compute: go to the back of the queue.
            let th = &mut self.threads[tid.0];
            th.stats.preemptions += 1;
            th.state = TState::Runnable(core);
            th.state_since = self.time;
            self.cores[core].queue.push_back(tid);
            self.trace(TraceEvent::Preempt {
                tid,
                core: CoreId(core),
                reason: PreemptReason::Quantum,
            });
            self.mark_dispatch(core);
        }
        false
    }

    /// Drives `tid` (which currently owns `core` but has no pending
    /// compute) through body steps until it either starts computing, leaves
    /// the CPU, or finishes.
    fn step_thread_on_core(&mut self, tid: ThreadId, core: usize) {
        debug_assert!(self.cores[core].current.is_none());
        self.cores[core].executing = true;
        self.step_thread_on_core_inner(tid, core);
        self.cores[core].executing = false;
    }

    fn step_thread_on_core_inner(&mut self, tid: ThreadId, core: usize) {
        let mut zero_steps = 0u32;
        loop {
            let step = self.run_body(tid, core);
            match step {
                Step::Compute(c) if !c.is_zero() => {
                    self.threads[tid.0].pending = Pending::Compute(c);
                    // Round-robin at step boundaries too: if others wait,
                    // requeue instead of monopolizing the core.
                    if self.cores[core].queue.is_empty() {
                        let th = &mut self.threads[tid.0];
                        th.state = TState::Running(core);
                        self.start_slice(core, tid);
                    } else {
                        let th = &mut self.threads[tid.0];
                        th.state = TState::Runnable(core);
                        th.state_since = self.time;
                        self.cores[core].queue.push_back(tid);
                        self.trace(TraceEvent::Preempt {
                            tid,
                            core: CoreId(core),
                            reason: PreemptReason::StepBoundary,
                        });
                        self.mark_dispatch(core);
                    }
                    return;
                }
                Step::Compute(_) => {
                    zero_steps += 1;
                    assert!(
                        zero_steps < 100_000,
                        "thread {} ({}) issued 100000 zero-cycle computes in a row (livelock)",
                        tid,
                        self.threads[tid.0].name
                    );
                }
                Step::Sleep(d) => {
                    let th = &mut self.threads[tid.0];
                    th.state = TState::Sleeping;
                    th.state_since = self.time;
                    self.events
                        .schedule(self.time + d, Event::SleepDone { tid });
                    self.trace(TraceEvent::Sleep { tid });
                    self.mark_dispatch(core);
                    return;
                }
                Step::Block(w) => {
                    assert!(
                        w.0 < self.waits.len(),
                        "Step::Block on unknown wait queue {w}"
                    );
                    let th = &mut self.threads[tid.0];
                    th.state = TState::Blocked(w);
                    th.state_since = self.time;
                    self.blocked_threads += 1;
                    self.waits[w.0].push_back(tid);
                    self.trace(TraceEvent::Block { tid, wait: w });
                    self.mark_dispatch(core);
                    return;
                }
                Step::Yield => {
                    let th = &mut self.threads[tid.0];
                    th.state = TState::Runnable(core);
                    th.state_since = self.time;
                    self.cores[core].queue.push_back(tid);
                    self.trace(TraceEvent::Preempt {
                        tid,
                        core: CoreId(core),
                        reason: PreemptReason::Yield,
                    });
                    self.mark_dispatch(core);
                    return;
                }
                Step::Done => {
                    let th = &mut self.threads[tid.0];
                    th.state = TState::Done;
                    th.stats.finished_at = Some(self.time);
                    th.body = None;
                    self.live_threads -= 1;
                    self.progress += 1;
                    self.trace(TraceEvent::Done { tid });
                    self.mark_dispatch(core);
                    return;
                }
            }
        }
    }

    fn run_body(&mut self, tid: ThreadId, core: usize) -> Step {
        let mut body = self.threads[tid.0]
            .body
            .take()
            .expect("running a finished thread");
        let mut cx = ThreadCx {
            kernel: self,
            tid,
            core: CoreId(core),
        };
        let step = body.run(&mut cx);
        self.threads[tid.0].body = Some(body);
        step
    }

    /// The slice arithmetic of `core` at its current speed and the
    /// kernel's current quantum.
    fn slicing(&mut self, core: usize) -> Slicing {
        let c = &mut self.cores[core];
        if c.slicing.speed != c.speed || c.slicing.quantum != self.quantum {
            let slice = self.placement.slice_for(self.quantum, c.speed);
            c.slicing = Slicing::new(c.speed, self.quantum, slice);
        }
        c.slicing
    }

    /// Begins a compute slice for `tid` on `core`. The thread must have
    /// pending compute work.
    fn start_slice(&mut self, core: usize, tid: ThreadId) {
        let Pending::Compute(remaining) = self.threads[tid.0].pending else {
            unreachable!("start_slice without pending compute");
        };
        let (len, completes) = self.slicing(core).slice_of(remaining);
        self.slice_ends[core] = Some((self.time + len, self.events.reserve_key()));
        self.threads[tid.0].state = TState::Running(core);
        self.cores[core].current = Some(Running {
            tid,
            slice_start: self.time,
            completes,
        });
    }

    // ------------------------------------------------------------------
    // Fault injection and graceful degradation
    // ------------------------------------------------------------------

    fn handle_fault(&mut self, kind: FaultKind) {
        self.stats.faults_injected += 1;
        match kind {
            FaultKind::SetSpeed { core, speed } => self.fault_set_speed(core.0, speed),
            FaultKind::CoreOffline { core } => self.fault_core_offline(core.0),
            FaultKind::CoreOnline { core } => self.fault_core_online(core.0),
            FaultKind::KillThread { victim } => self.fault_kill(victim),
        }
    }

    /// Re-modulates `core` to `speed` mid-run (injected `SetSpeed`
    /// fault). Plans generated for a different machine may name
    /// out-of-range cores — those faults are no-ops.
    fn fault_set_speed(&mut self, c: usize, speed: Speed) {
        if c >= self.cores.len() {
            return;
        }
        self.apply_speed_change(c, speed);
    }

    /// The online cores in speed order (fastest first, index-tiebroken) —
    /// the ranking placement and balancing respond to. Compared before
    /// and after each applied speed change to decide whether a
    /// [`TraceEvent::Rerank`] must follow.
    fn speed_ranking(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.cores.len())
            .filter(|&i| self.cores[i].online)
            .collect();
        order.sort_by(|&a, &b| {
            self.cores[b]
                .speed
                .cmp(&self.cores[a].speed)
                .then(a.cmp(&b))
        });
        order
    }

    /// The shared mid-run re-modulation path for injected faults and
    /// committed environment targets. Work in flight is re-accounted at
    /// the old rate up to this instant and re-sliced at the new rate; the
    /// thread keeps the core (no preemption). If the change reorders the
    /// online-core speed ranking, a [`TraceEvent::Rerank`] follows the
    /// [`TraceEvent::SpeedChange`] immediately.
    fn apply_speed_change(&mut self, c: usize, speed: Speed) {
        if self.cores[c].speed == speed {
            return;
        }
        let ranking_before = self.speed_ranking();
        let old_speed = self.cores[c].speed;
        let resume = self.take_slice(c).map(|running| {
            let elapsed = self.time.duration_since(running.slice_start);
            self.stats.core_busy[c] += elapsed;
            let th = &mut self.threads[running.tid.0];
            th.last_ran = self.time;
            th.stats.cpu_time += elapsed;
            if let Pending::Compute(remaining) = th.pending {
                let retired = remaining.retired_over(old_speed, elapsed);
                th.stats.cycles_retired += retired;
                if !retired.is_zero() {
                    self.progress += 1;
                }
                let left = remaining.saturating_sub(retired);
                th.pending = if left.is_zero() {
                    Pending::Fresh
                } else {
                    Pending::Compute(left)
                };
            }
            running.tid
        });
        self.cores[c].speed = speed;
        self.machine.set_speed(CoreId(c), speed);
        self.trace(TraceEvent::SpeedChange {
            core: CoreId(c),
            speed,
        });
        if self.speed_ranking() != ranking_before {
            self.stats.reranks += 1;
            self.trace(TraceEvent::Rerank { core: CoreId(c) });
        }
        if let Some(tid) = resume {
            match self.threads[tid.0].pending {
                Pending::Compute(_) => self.start_slice(c, tid),
                Pending::Fresh => self.step_thread_on_core(tid, c),
            }
        }
        // The fast/slow sets just changed: let every idle online core
        // re-evaluate its pull options against the new speeds (the
        // asymmetry-aware policy reads live core speeds, so placement and
        // the next balance pass pick up the new order automatically).
        for i in 0..self.cores.len() {
            if self.cores[i].online && self.cores[i].current.is_none() && !self.cores[i].executing {
                self.mark_dispatch(i);
            }
        }
    }

    /// Hotplug-removes `core`: its running thread is interrupted and its
    /// queue drained, each thread re-placed on the remaining online cores
    /// (widening affinity masks where needed). The last online core is
    /// never taken down, and offlining an offline core is a no-op.
    fn fault_core_offline(&mut self, c: usize) {
        if c >= self.cores.len() || !self.cores[c].online {
            return;
        }
        let online = (0..self.cores.len())
            .filter(|&i| self.cores[i].online)
            .count();
        if online <= 1 {
            return;
        }
        self.cores[c].online = false;
        self.cores[c].idle_since = None;
        self.trace(TraceEvent::CoreOffline { core: CoreId(c) });
        if self.cores[c].current.is_some() {
            let tid = self.interrupt_running(c);
            self.requeue_from(tid, c);
        }
        while let Some(tid) = self.cores[c].queue.pop_front() {
            self.requeue_from(tid, c);
        }
    }

    /// Hotplug-adds `core` back. Its load average restarts from zero and
    /// the dispatcher immediately considers it for stealing work.
    fn fault_core_online(&mut self, c: usize) {
        if c >= self.cores.len() || self.cores[c].online {
            return;
        }
        self.cores[c].online = true;
        self.cores[c].load_avg = 0.0;
        self.cores[c].idle_since = None;
        self.trace(TraceEvent::CoreOnline { core: CoreId(c) });
        self.mark_dispatch(c);
    }

    /// Kills one live, non-exempt thread, chosen as `victim` modulo the
    /// killable count (deterministic given the injection time). The thread
    /// is removed from whatever structure holds it — core, run queue, wait
    /// queue, or sleep timer — and marked done. Every wait queue is then
    /// notified so survivors blocked on the dead thread (barrier peers,
    /// lock waiters, queue consumers) re-check their predicates and
    /// observe the loss; the universal recheck-loop discipline makes those
    /// spurious wakeups safe.
    fn fault_kill(&mut self, victim: u64) {
        let live: Vec<ThreadId> = (0..self.threads.len())
            .map(ThreadId)
            .filter(|t| self.threads[t.0].state != TState::Done && !self.threads[t.0].kill_exempt)
            .collect();
        if live.is_empty() {
            return;
        }
        let tid = live[(victim % live.len() as u64) as usize];
        match self.threads[tid.0].state {
            TState::Running(core) => {
                let t = self.interrupt_running(core);
                debug_assert_eq!(t, tid);
                self.mark_dispatch(core);
            }
            TState::Runnable(core) => {
                let pos = self.cores[core]
                    .queue
                    .iter()
                    .position(|&t| t == tid)
                    .expect("runnable thread is queued");
                self.cores[core].queue.remove(pos);
            }
            TState::Blocked(w) => {
                if let Some(pos) = self.waits[w.0].iter().position(|&t| t == tid) {
                    self.waits[w.0].remove(pos);
                }
                self.blocked_threads -= 1;
            }
            // The pending SleepDone timer will find the thread dead and
            // ignore it.
            TState::Sleeping => {}
            TState::Done => unreachable!("filtered above"),
        }
        let th = &mut self.threads[tid.0];
        th.state = TState::Done;
        th.stats.finished_at = Some(self.time);
        th.body = None;
        self.live_threads -= 1;
        self.stats.threads_killed += 1;
        self.trace(TraceEvent::ThreadKilled { tid });
        self.trace(TraceEvent::Done { tid });
        // Kill broadcast: wake everyone so recovery code in workloads and
        // sync primitives can run (deterministic: queues in index order).
        for w in 0..self.waits.len() {
            if !self.waits[w].is_empty() {
                self.notify_all_from(WaitId(w), None, None);
            }
        }
    }

    /// Re-places a thread displaced from `from` (offlined) onto an online
    /// core, widening its affinity if the mask no longer covers one.
    fn requeue_from(&mut self, tid: ThreadId, from: usize) {
        let dst = self.place_thread(tid);
        let th = &mut self.threads[tid.0];
        th.state = TState::Runnable(dst);
        th.state_since = self.time;
        self.cores[dst].queue.push_back(tid);
        self.trace(TraceEvent::Steal {
            tid,
            from: CoreId(from),
            to: CoreId(dst),
        });
        self.mark_dispatch(dst);
    }

    fn handle_watchdog(&mut self) {
        let Some(window) = self.watchdog else {
            self.watchdog_scheduled = false;
            return;
        };
        if self.live_threads == 0 {
            self.watchdog_scheduled = false;
            return;
        }
        if self.progress == self.watchdog_mark && self.blocked_threads < self.live_threads {
            // A whole window passed with runnable or sleeping threads yet
            // nothing retired any work: livelock. (The all-blocked case is
            // left to the deadlock detector in the run loop.)
            self.stalled = true;
            self.watchdog_scheduled = false;
        } else {
            self.watchdog_mark = self.progress;
            self.events.schedule(self.time + window, Event::Watchdog);
        }
    }

    // ------------------------------------------------------------------
    // Environment dynamics
    // ------------------------------------------------------------------

    /// One environment evaluation tick: sample busy cores, step the
    /// DVFS/thermal/co-tenant models, and commit targets that survived
    /// hysteresis and rate bounding (see [`Kernel::set_environment`]).
    fn handle_env_tick(&mut self) {
        if self.environment.is_none() {
            self.env_scheduled = false;
            return;
        }
        self.stats.env_ticks += 1;
        // Binary utilization feedback: a core is busy when a thread holds
        // it at the tick instant (mid-slice or being stepped).
        self.env_busy.clear();
        self.env_busy.extend(
            self.cores
                .iter()
                .map(|core| core.online && (core.current.is_some() || core.executing)),
        );
        let state = self.environment.as_mut().expect("checked above");
        let targets = state.tick(self.time, &self.env_busy);
        let period = state.plan().tick_period();
        for (core, speed) in targets {
            let p = &mut self.env_pending[core.0];
            if p.target != Some(speed) {
                p.target = Some(speed);
                p.streak = 0;
            }
        }
        for c in 0..self.cores.len() {
            let Some(target) = self.env_pending[c].target else {
                continue;
            };
            if target == self.cores[c].speed {
                // The live speed caught up some other way (an injected
                // SetSpeed fault, or the model swung back before the
                // hysteresis window closed): nothing left to commit.
                self.env_pending[c].target = None;
                self.env_pending[c].streak = 0;
                continue;
            }
            self.env_pending[c].streak += 1;
            let confirmed = self.env_pending[c].streak >= ENV_CONFIRM_TICKS;
            let spaced = match self.env_pending[c].last_apply {
                None => true,
                Some(at) => self.time.duration_since(at) >= ENV_MIN_APPLY_INTERVAL,
            };
            if confirmed && spaced {
                self.env_pending[c].target = None;
                self.env_pending[c].streak = 0;
                self.env_pending[c].last_apply = Some(self.time);
                self.stats.env_speed_changes += 1;
                self.apply_speed_change(c, target);
            }
        }
        if self.live_threads > 0 {
            self.events.schedule(self.time + period, Event::EnvTick);
        } else {
            self.env_scheduled = false;
        }
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn mark_dispatch(&mut self, core: usize) {
        if self.cores[core].online && !self.pending_set[core] {
            self.pending_set[core] = true;
            self.pending_dispatch.push_back(core);
        }
    }

    fn drain_dispatch(&mut self) {
        let mut guard = 0u64;
        while let Some(core) = self.pending_dispatch.pop_front() {
            self.pending_set[core] = false;
            // The core may have gone offline after being marked.
            if !self.cores[core].online {
                continue;
            }
            loop {
                guard += 1;
                assert!(
                    guard < 50_000_000,
                    "dispatch livelock: threads must not spin on Step::Yield"
                );
                if self.cores[core].current.is_some() {
                    break;
                }
                let Some(tid) = self.take_next(core) else {
                    if !self.idle_pull(core) {
                        if self.cores[core].idle_since.is_none() {
                            self.cores[core].idle_since = Some(self.time);
                        }
                        break;
                    }
                    continue;
                };
                self.cores[core].idle_since = None;
                self.dispatch(core, tid);
            }
        }
    }

    /// Removes and returns the thread `core` should dispatch next, per
    /// the policy's queue discipline (FIFO unless overridden).
    fn take_next(&mut self, core: usize) -> Option<ThreadId> {
        if self.cores[core].queue.is_empty() {
            return None;
        }
        let placement = Rc::clone(&self.placement);
        let idx = placement.select_next(self, core);
        self.cores[core].queue.remove(idx)
    }

    fn dispatch(&mut self, core: usize, tid: ThreadId) {
        let mut migrated_from = None;
        {
            let th = &mut self.threads[tid.0];
            debug_assert!(matches!(th.state, TState::Runnable(_)));
            th.stats.queued_time += self.time.saturating_duration_since(th.state_since);
            th.stats.dispatches += 1;
            if let Some(prev) = th.last_core {
                if prev != core {
                    th.stats.migrations += 1;
                    self.stats.migrations += 1;
                    migrated_from = Some(prev);
                }
            }
            th.last_core = Some(core);
            th.state = TState::Running(core);
        }
        if let Some(prev) = migrated_from {
            self.trace(TraceEvent::Migrate {
                tid,
                from: CoreId(prev),
                to: CoreId(core),
            });
        }
        self.stats.dispatches += 1;
        self.trace(TraceEvent::Dispatch {
            tid,
            core: CoreId(core),
        });
        // Charge the context-switch cost by prepending it to the pending
        // compute (a fresh thread is charged on its first compute instead).
        if !self.context_switch.is_zero() {
            if let Pending::Compute(c) = self.threads[tid.0].pending {
                self.threads[tid.0].pending = Pending::Compute(c + self.context_switch);
            }
        }
        match self.threads[tid.0].pending {
            Pending::Compute(_) => self.start_slice(core, tid),
            Pending::Fresh => self.step_thread_on_core(tid, core),
        }
    }

    fn wakeup(&mut self, tid: ThreadId, waker_core: Option<usize>) {
        let core = self.place_wakeup(tid, waker_core);
        if matches!(self.threads[tid.0].state, TState::Blocked(_)) {
            self.blocked_threads -= 1;
        }
        let th = &mut self.threads[tid.0];
        let reason = match th.state {
            TState::Blocked(_) => {
                th.stats.blocked_time += self.time.saturating_duration_since(th.state_since);
                WakeReason::Signal
            }
            TState::Sleeping => WakeReason::Timer,
            other => panic!("wakeup of thread in state {other:?}"),
        };
        th.state = TState::Runnable(core);
        th.state_since = self.time;
        th.last_wake = self.time;
        self.cores[core].queue.push_back(tid);
        self.trace(TraceEvent::Wakeup {
            tid,
            core: CoreId(core),
            reason,
        });
        self.mark_dispatch(core);
        // Policy preemption hook: e.g. static-priority interrupts a
        // lower-priority thread running on the wakee's core.
        let placement = Rc::clone(&self.placement);
        placement.after_wakeup(self, tid, core);
    }

    /// The thread currently mid-slice on `core`, if any (`None` while the
    /// core is idle or stepping a body between slices).
    pub(crate) fn running_tid(&self, core: usize) -> Option<ThreadId> {
        self.cores[core].current.as_ref().map(|r| r.tid)
    }

    /// Interrupts the thread running on `core` and requeues it on that
    /// same core (policy-initiated preemption; the dispatcher then
    /// re-selects by queue discipline).
    pub(crate) fn preempt_current_to_queue(&mut self, core: usize) {
        let tid = self.interrupt_running(core);
        self.threads[tid.0].state = TState::Runnable(core);
        self.threads[tid.0].state_since = self.time;
        self.cores[core].queue.push_back(tid);
        self.mark_dispatch(core);
    }

    // ------------------------------------------------------------------
    // Placement and balancing
    // ------------------------------------------------------------------

    /// Wakeup placement: the policy may redirect a sync wakeup (e.g. the
    /// stock wake-affine pull to the waker's core when the wakee's
    /// previous core is busy and the waker's has room, 2.6's wake-affine
    /// migration). Otherwise standard placement applies.
    fn place_wakeup(&mut self, tid: ThreadId, waker_core: Option<usize>) -> usize {
        let placement = Rc::clone(&self.placement);
        if let Some(core) = placement.wake_target(self, tid, waker_core) {
            return core;
        }
        self.place_thread(tid)
    }

    /// Chooses a core for a newly runnable thread, per the active policy.
    fn place_thread(&mut self, tid: ThreadId) -> usize {
        self.place_thread_prefer(tid, None)
    }

    /// Like [`Kernel::place_thread`] but, under the stock policy, breaks
    /// least-loaded ties in favour of `prefer` (used for exec placement:
    /// a child stays near its parent unless somewhere is strictly less
    /// loaded).
    fn place_thread_prefer(&mut self, tid: ThreadId, prefer: Option<usize>) -> usize {
        let mut candidates = self.threads[tid.0]
            .affinity
            .intersection(self.online_mask());
        if candidates.is_empty() {
            // The mask covers no online core (empty at spawn, disjoint
            // from the machine, or every allowed core hotplugged out).
            // Stranding the thread forever would be a silent hang; widen
            // to all online cores and say so in the trace.
            candidates = self.widen_affinity(tid);
        }
        debug_assert!(!candidates.is_empty(), "one core is always online");
        let placement = Rc::clone(&self.placement);
        placement.choose_core(self, tid, prefer, candidates)
    }

    /// Widens `tid`'s affinity to all online cores, tracing the override,
    /// and returns the new mask.
    fn widen_affinity(&mut self, tid: ThreadId) -> CoreMask {
        let widened = self.online_mask();
        self.threads[tid.0].affinity = widened;
        self.stats.affinity_overrides += 1;
        self.trace(TraceEvent::AffinityOverride {
            tid,
            affinity: widened,
        });
        widened
    }

    /// Called when `core` has nothing to run: try to pull work from
    /// elsewhere. Returns `true` if a thread was pulled into this core's
    /// queue.
    fn idle_pull(&mut self, core: usize) -> bool {
        let placement = Rc::clone(&self.placement);
        placement.idle_pull(self, core)
    }

    /// Returns `true` when `tid` may be idle-stolen to `for_core`: it must
    /// be affine to the target and, under cache-hot-honoring policies,
    /// cache-cold (not run or enqueued within [`CACHE_HOT_WINDOW`]).
    pub(crate) fn can_idle_steal(&self, tid: ThreadId, for_core: usize) -> bool {
        let th = &self.threads[tid.0];
        if !th.affinity.contains(CoreId(for_core)) {
            return false;
        }
        if self.placement.bypasses_cache_hot() {
            return true;
        }

        // task_hot(): a task is cache-hot if it executed recently. A
        // task that was hot when it was enqueued on its own core stays
        // protected while it waits there (waiting in a runqueue does not
        // invalidate the cache it is waiting next to); a task that went
        // cold while blocked or sleeping is fair game.
        // task_hot(), 2.6-style: the hot clock refreshes when the task
        // last *ran* and when it was last *woken* — a freshly woken task
        // is left near its cache for one window before anyone may steal
        // it, even if the core it returned to is busy. Sitting in a run
        // queue does not refresh the clock, so threads stuck waiting
        // longer than the window become fair game. Strands (short waits,
        // refreshed every request) persist; clumps (long waits) dissolve.
        let hot_clock = th.last_wake.max(th.last_ran);
        self.time.saturating_duration_since(hot_clock) >= CACHE_HOT_WINDOW
    }

    /// The core (≠ `for_core`) with the longest non-empty queue holding at
    /// least one thread allowed to run on `for_core`, ties broken randomly
    /// under the stock policy. The ties are counted, not collected: one
    /// `rng.index(ties)` draw picks the n-th in core order.
    pub(crate) fn busiest_queue(&mut self, for_core: usize) -> Option<usize> {
        let is_source = |k: &Kernel, i: usize| {
            i != for_core
                && k.cores[i]
                    .queue
                    .iter()
                    .any(|&t| k.can_idle_steal(t, for_core))
        };
        let (mut best_len, mut ties) = (0usize, 0usize);
        for i in 0..self.cores.len() {
            if !is_source(self, i) {
                continue;
            }
            let len = self.cores[i].queue.len();
            if len > best_len {
                best_len = len;
                ties = 1;
            } else if len == best_len {
                ties += 1;
            }
        }
        if ties == 0 {
            return None;
        }
        let pick = if ties > 1 && self.policy.random_tie_break() {
            self.rng.index(ties)
        } else {
            0
        };
        (0..self.cores.len())
            .filter(|&i| self.cores[i].queue.len() == best_len && is_source(self, i))
            .nth(pick)
    }

    /// Moves the most recently queued eligible thread from `src`'s queue to
    /// `dst`'s queue. Idle stealing honours the cache-hot window under the
    /// stock policy; the periodic balancer overrides it (as real kernels
    /// do once imbalance persists).
    pub(crate) fn steal_queued(&mut self, src: usize, dst: usize, honor_cache_hot: bool) -> bool {
        let pos = self.cores[src].queue.iter().rposition(|t| {
            if honor_cache_hot {
                self.can_idle_steal(*t, dst)
            } else {
                self.threads[t.0].affinity.contains(CoreId(dst))
            }
        });
        let Some(pos) = pos else { return false };
        let tid = self.cores[src].queue.remove(pos).expect("position valid");
        self.threads[tid.0].state = TState::Runnable(dst);
        self.cores[dst].queue.push_back(tid);
        self.trace(TraceEvent::Steal {
            tid,
            from: CoreId(src),
            to: CoreId(dst),
        });
        self.mark_dispatch(dst);
        true
    }

    /// Pulls the running thread off the slowest strictly-slower busy core
    /// onto idle core `dst`. Implements the paper's "a process is
    /// explicitly migrated from a slow core to an idle fast core".
    pub(crate) fn pull_running_from_slower(&mut self, dst: usize) -> bool {
        let dst_speed = self.cores[dst].speed;
        let src = (0..self.cores.len())
            .filter(|&i| i != dst && self.cores[i].speed < dst_speed)
            .filter(|&i| {
                self.cores[i]
                    .current
                    .as_ref()
                    .is_some_and(|r| self.threads[r.tid.0].affinity.contains(CoreId(dst)))
            })
            .min_by(|&a, &b| {
                self.cores[a]
                    .speed
                    .cmp(&self.cores[b].speed)
                    .then(a.cmp(&b))
            });
        let Some(src) = src else { return false };
        let tid = self.interrupt_running(src);
        self.threads[tid.0].state = TState::Runnable(dst);
        self.threads[tid.0].state_since = self.time;
        self.cores[dst].queue.push_back(tid);
        self.trace(TraceEvent::Steal {
            tid,
            from: CoreId(src),
            to: CoreId(dst),
        });
        self.mark_dispatch(dst);
        self.mark_dispatch(src);
        true
    }

    /// Stops the thread currently running on `core` mid-slice, accounting
    /// for partial progress, and returns it (in `Runnable`-ready form; the
    /// caller re-queues it).
    fn interrupt_running(&mut self, core: usize) -> ThreadId {
        let running = self
            .take_slice(core)
            .expect("interrupt_running on idle core");
        let elapsed = self.time.duration_since(running.slice_start);
        self.stats.core_busy[core] += elapsed;
        let speed = self.cores[core].speed;
        let th = &mut self.threads[running.tid.0];
        th.last_ran = self.time;
        th.stats.cpu_time += elapsed;
        th.stats.preemptions += 1;
        if let Pending::Compute(remaining) = th.pending {
            let retired = remaining.retired_over(speed, elapsed);
            th.stats.cycles_retired += retired;
            if !retired.is_zero() {
                self.progress += 1;
            }
            let left = remaining.saturating_sub(retired);
            th.pending = if left.is_zero() {
                Pending::Fresh
            } else {
                Pending::Compute(left)
            };
        }
        let tid = running.tid;
        // For replay purposes the interrupted thread is momentarily back
        // on its own core's queue; the caller's Steal event records where
        // it actually went.
        self.trace(TraceEvent::Preempt {
            tid,
            core: CoreId(core),
            reason: PreemptReason::Interrupt,
        });
        tid
    }

    /// The periodic balancer.
    fn balance(&mut self) {
        let placement = Rc::clone(&self.placement);
        placement.balance(self);
        // Any core that is idle with work available elsewhere re-checks.
        for i in 0..self.cores.len() {
            if self.cores[i].online && self.cores[i].current.is_none() {
                self.mark_dispatch(i);
            }
        }
    }

    /// Equalize decayed load averages, ignoring core speeds (stock
    /// kernel). Steals respect cache hotness.
    pub(crate) fn balance_stock(&mut self) {
        for _ in 0..self.threads.len().max(4) {
            let (mut max_i, mut min_i) = (0usize, 0usize);
            let (mut max_l, mut min_l) = (f64::MIN, f64::MAX);
            let offset = if self.policy.random_tie_break() {
                self.rng.index(self.cores.len())
            } else {
                0
            };
            for k in 0..self.cores.len() {
                let i = (k + offset) % self.cores.len();
                if !self.cores[i].online {
                    continue;
                }
                // Imbalance is judged on the decayed load average, biased
                // by the instantaneous queue so there is actually
                // something to steal from the busiest core.
                let l = self.cores[i]
                    .load_avg
                    .max(self.cores[i].load() as f64 * 0.5);
                if l > max_l {
                    max_l = l;
                    max_i = i;
                }
                if l < min_l {
                    min_l = l;
                    min_i = i;
                }
            }
            if max_l - min_l < 1.75 || self.cores[max_i].queue.is_empty() {
                break;
            }
            if !self.steal_queued(max_i, min_i, true) {
                break;
            }
        }
    }

    /// Speed-weighted balancing: minimize the maximum of load/speed, and
    /// never leave a fast core idle while a slower core has queued work.
    pub(crate) fn balance_aware(&mut self) {
        // Phase 1: fill idle cores, fastest first. Only *surplus* threads
        // (cores with load ≥ 2) are stolen; otherwise an idle faster core
        // may pull the running thread off a strictly slower core. The
        // strict direction prevents ping-ponging a single thread between
        // an idle slow core and a fast core within one balance pass.
        for _ in 0..2 * self.cores.len() {
            let idle = (0..self.cores.len())
                .filter(|&i| self.cores[i].online && self.cores[i].load() == 0)
                .max_by(|&a, &b| {
                    self.cores[a]
                        .speed
                        .cmp(&self.cores[b].speed)
                        .then(b.cmp(&a))
                });
            let Some(dst) = idle else { break };
            let src = (0..self.cores.len())
                .filter(|&i| {
                    i != dst && self.cores[i].load() >= 2 && !self.cores[i].queue.is_empty()
                })
                .min_by(|&a, &b| {
                    self.cores[a]
                        .speed
                        .cmp(&self.cores[b].speed)
                        .then(a.cmp(&b))
                });
            let moved = match src {
                Some(src) => self.steal_queued(src, dst, false),
                None => false,
            };
            if !moved {
                if self.policy.migrate_running() && self.pull_running_from_slower(dst) {
                    continue;
                }
                break;
            }
        }
        // Phase 2: density equalization — move queued threads from the
        // densest core to wherever they'd run "lighter".
        for _ in 0..self.threads.len().max(4) {
            let Some(src) = (0..self.cores.len())
                .filter(|&i| !self.cores[i].queue.is_empty())
                .max_by(|&a, &b| {
                    let da = self.cores[a].load() as f64 / self.cores[a].speed.factor();
                    let db = self.cores[b].load() as f64 / self.cores[b].speed.factor();
                    da.partial_cmp(&db).expect("finite").then(b.cmp(&a))
                })
            else {
                return;
            };
            let src_density = self.cores[src].load() as f64 / self.cores[src].speed.factor();
            let Some(dst) = (0..self.cores.len())
                .filter(|&i| i != src && self.cores[i].online)
                .min_by(|&a, &b| {
                    let da = (self.cores[a].load() + 1) as f64 / self.cores[a].speed.factor();
                    let db = (self.cores[b].load() + 1) as f64 / self.cores[b].speed.factor();
                    da.partial_cmp(&db)
                        .expect("finite")
                        .then(self.cores[b].speed.cmp(&self.cores[a].speed))
                        .then(a.cmp(&b))
                })
            else {
                return;
            };
            let dst_density = (self.cores[dst].load() + 1) as f64 / self.cores[dst].speed.factor();
            if dst_density + 1e-9 >= src_density {
                return;
            }
            if !self.steal_queued(src, dst, false) {
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection helpers for tests and higher layers
    // ------------------------------------------------------------------

    /// The load (queued + running) of each core, indexed by core.
    pub fn core_loads(&self) -> Vec<usize> {
        self.cores.iter().map(Core::load).collect()
    }

    /// The core a thread last ran (or is running) on.
    pub fn thread_core(&self, tid: ThreadId) -> Option<CoreId> {
        self.threads[tid.0].last_core.map(CoreId)
    }

    /// Returns `true` once `tid` has finished.
    pub fn is_finished(&self, tid: ThreadId) -> bool {
        self.threads[tid.0].state == TState::Done
    }

    /// Changes a thread's affinity mask. If the thread currently sits on a
    /// now-disallowed core it is moved at once.
    ///
    /// A mask that covers no online core is widened to every online core
    /// with a traced [`TraceEvent::AffinityOverride`] rather than
    /// stranding the thread (or panicking).
    pub fn set_affinity(&mut self, tid: ThreadId, mask: CoreMask) {
        self.threads[tid.0].affinity = mask;
        self.trace(TraceEvent::SetAffinity {
            tid,
            affinity: mask,
        });
        let schedulable = mask
            .cores_on(self.cores.len())
            .any(|c| self.cores[c.0].online);
        let mask = if schedulable {
            mask
        } else {
            self.widen_affinity(tid)
        };
        match self.threads[tid.0].state {
            TState::Running(core) if !mask.contains(CoreId(core)) => {
                let tid = {
                    let t = self.interrupt_running(core);
                    debug_assert_eq!(t, tid);
                    t
                };
                let dst = self.place_thread(tid);
                self.threads[tid.0].state = TState::Runnable(dst);
                self.threads[tid.0].state_since = self.time;
                self.cores[dst].queue.push_back(tid);
                self.trace(TraceEvent::Steal {
                    tid,
                    from: CoreId(core),
                    to: CoreId(dst),
                });
                self.mark_dispatch(dst);
                self.mark_dispatch(core);
            }
            TState::Runnable(core) if !mask.contains(CoreId(core)) => {
                let pos = self.cores[core]
                    .queue
                    .iter()
                    .position(|&t| t == tid)
                    .expect("runnable thread is queued");
                self.cores[core].queue.remove(pos);
                let dst = self.place_thread(tid);
                self.threads[tid.0].state = TState::Runnable(dst);
                self.cores[dst].queue.push_back(tid);
                self.trace(TraceEvent::Steal {
                    tid,
                    from: CoreId(core),
                    to: CoreId(dst),
                });
                self.mark_dispatch(dst);
            }
            _ => {}
        }
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("time", &self.time)
            .field("policy", &self.policy)
            .field("threads", &self.threads.len())
            .field("live", &self.live_threads)
            .field("cores", &self.cores.len())
            .finish()
    }
}

/// The per-step execution context handed to [`ThreadBody::run`].
///
/// Offers the instantaneous kernel services a thread may invoke at a step
/// boundary: spawning, waking waiters, reading the clock, and drawing
/// deterministic randomness.
pub struct ThreadCx<'k> {
    kernel: &'k mut Kernel,
    tid: ThreadId,
    core: CoreId,
}

impl ThreadCx<'_> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.time
    }

    /// The calling thread's id.
    pub fn thread_id(&self) -> ThreadId {
        self.tid
    }

    /// The core the calling thread is executing on.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The speed of the core the calling thread is executing on.
    pub fn core_speed(&self) -> Speed {
        self.kernel.machine.speed(self.core)
    }

    /// The machine description.
    pub fn machine(&self) -> &MachineSpec {
        &self.kernel.machine
    }

    /// Deterministic randomness (shared kernel stream).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.kernel.rng
    }

    /// Spawns a new thread; it becomes runnable immediately. With
    /// [`SpawnOptions::on_parent_core`] the child starts on this thread's
    /// core, as a forked process would.
    pub fn spawn(&mut self, body: impl ThreadBody + 'static, opts: SpawnOptions) -> ThreadId {
        let (tid, core) = (self.tid, self.core.0);
        self.kernel
            .spawn_on(Box::new(body), opts, Some((tid, core)))
    }

    /// Creates a wait queue.
    pub fn create_wait_queue(&mut self) -> WaitId {
        self.kernel.create_wait_queue()
    }

    /// Wakes one waiter on `wait` (a sync wakeup from this thread's core).
    pub fn notify_one(&mut self, wait: WaitId) -> Option<ThreadId> {
        let (core, tid) = (self.core.0, self.tid);
        self.kernel.notify_one_from(wait, Some(core), Some(tid))
    }

    /// Wakes all waiters on `wait`; returns the count woken.
    pub fn notify_all(&mut self, wait: WaitId) -> usize {
        let (core, tid) = (self.core.0, self.tid);
        self.kernel.notify_all_from(wait, Some(core), Some(tid))
    }

    /// Wakes one waiter without sync-wakeup affinity — for events that
    /// arrive from outside the machine (network interrupts, remote
    /// drivers), where there is no meaningful waker core.
    pub fn notify_one_remote(&mut self, wait: WaitId) -> Option<ThreadId> {
        let tid = self.tid;
        self.kernel.notify_one_from(wait, None, Some(tid))
    }

    /// Wakes all waiters without sync-wakeup affinity (see
    /// [`ThreadCx::notify_one_remote`]).
    pub fn notify_all_remote(&mut self, wait: WaitId) -> usize {
        let tid = self.tid;
        self.kernel.notify_all_from(wait, None, Some(tid))
    }

    /// Records a trace event on behalf of the calling thread, stamped
    /// with the current simulated time. Used by `asym-sync` to annotate
    /// the kernel stream with primitive-level events (barrier arrivals,
    /// queue pushes and pops, shared accesses); tracing never affects
    /// scheduling.
    pub fn trace(&mut self, event: TraceEvent) {
        self.kernel.trace(event);
    }

    /// The number of threads currently blocked on `wait`.
    pub fn waiter_count(&self, wait: WaitId) -> usize {
        self.kernel.waiter_count(wait)
    }

    /// Returns `true` once `tid` has finished (normally or by an injected
    /// kill) — the probe workload supervisors use to reap lost workers.
    pub fn is_finished(&self, tid: ThreadId) -> bool {
        self.kernel.is_finished(tid)
    }

    /// Like [`ThreadCx::is_finished`], but when the probe observes the
    /// completion it also records a [`TraceEvent::ThreadJoin`] — giving
    /// trace analyses the exit→join happens-before edge that justifies
    /// the observer's subsequent reads of the dead thread's state.
    /// Supervisors that salvage a corpse's results should use this
    /// instead of `is_finished`.
    pub fn join_check(&mut self, tid: ThreadId) -> bool {
        let done = self.kernel.is_finished(tid);
        if done && self.kernel.annotate {
            let by = self.tid;
            self.kernel.trace(TraceEvent::ThreadJoin { by, of: tid });
        }
        done
    }

    /// Registers a shared object for access tracing (see
    /// [`Kernel::register_shared`]).
    pub fn register_shared(&mut self, label: &str) -> ShareId {
        self.kernel.register_shared(label)
    }

    /// Records a plain read of word `word` of shared object `obj` by the
    /// calling thread. No-op when access tracing is disabled.
    pub fn trace_shared_read(&mut self, obj: ShareId, word: u32) {
        if self.kernel.annotate {
            let tid = self.tid;
            self.kernel.trace(TraceEvent::SharedRead { tid, obj, word });
        }
    }

    /// Records a plain write of word `word` of shared object `obj` by the
    /// calling thread. No-op when access tracing is disabled.
    pub fn trace_shared_write(&mut self, obj: ShareId, word: u32) {
        if self.kernel.annotate {
            let tid = self.tid;
            self.kernel
                .trace(TraceEvent::SharedWrite { tid, obj, word });
        }
    }

    /// Records a modeled atomic access of word `word` of shared object
    /// `obj` by the calling thread. No-op when access tracing is disabled.
    pub fn trace_shared_atomic(&mut self, obj: ShareId, word: u32, op: AtomicOp) {
        if self.kernel.annotate {
            let tid = self.tid;
            self.kernel
                .trace(TraceEvent::SharedAtomic { tid, obj, word, op });
        }
    }

    /// How many threads injected faults have killed so far. Supervisors
    /// compare snapshots of this counter to trigger reap passes only when
    /// something actually died.
    pub fn killed_count(&self) -> u64 {
        self.kernel.stats.threads_killed
    }

    /// Changes a thread's CPU affinity.
    pub fn set_affinity(&mut self, tid: ThreadId, mask: CoreMask) {
        self.kernel.set_affinity(tid, mask);
    }
}

impl fmt::Debug for ThreadCx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadCx")
            .field("tid", &self.tid)
            .field("core", &self.core)
            .field("now", &self.kernel.time)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::FnThread;

    /// `fits` is exactly the largest work that completes within one
    /// slice, and `per_slice` what a full slice retires, for the paper's
    /// speeds, arbitrary ones, and slices from 1 ns to the speed-slice cap.
    #[test]
    fn slicing_matches_duration_and_retirement() {
        let mut rng = Rng::new(11);
        let mut speeds: Vec<Speed> = (1..=8).map(Speed::fraction_of_full).collect();
        speeds.extend((0..32).map(|_| Speed::new(1.0 - rng.next_f64() * 0.99)));
        for speed in speeds {
            for nanos in [1, 7, 1_000, 999_999, 1_000_000, 4_000_000, 8_000_000] {
                let slice = SimDuration::from_nanos(nanos);
                let s = Slicing::new(speed, DEFAULT_QUANTUM, slice);
                assert!(s.fits.duration_at(speed) <= slice, "{speed:?} {nanos}");
                assert!((s.fits + Cycles::new(1)).duration_at(speed) > slice);
                assert_eq!(
                    s.per_slice,
                    Cycles::new(u64::MAX).retired_over(speed, slice)
                );
            }
        }
    }

    /// A kernel on `per_core.len()` equal cores with `per_core[i]`
    /// threads queued on core `i`, none running and all past the
    /// cache-hot window, plus one never-run thread in no queue.
    fn queued_kernel(policy: SchedPolicy, seed: u64, per_core: &[usize]) -> (Kernel, ThreadId) {
        let machine = MachineSpec::symmetric(per_core.len(), Speed::FULL);
        let mut k = Kernel::new(machine, policy, seed);
        let total: usize = per_core.iter().sum();
        let tids: Vec<ThreadId> = (0..=total)
            .map(|_| k.spawn(FnThread::new("t", |_| Step::Done), SpawnOptions::new()))
            .collect();
        for core in &mut k.cores {
            core.queue.clear();
        }
        let mut next = tids.into_iter();
        for (core, &count) in per_core.iter().enumerate() {
            for tid in next.by_ref().take(count) {
                k.threads[tid.0].state = TState::Runnable(core);
                k.cores[core].queue.push_back(tid);
            }
        }
        k.time = SimTime::from_nanos(CACHE_HOT_WINDOW.as_nanos());
        let extra = next.next().expect("one thread left over");
        (k, extra)
    }

    /// `stock_choose` as it was: collect the least-loaded candidates,
    /// then draw an index into them.
    fn collected_stock_pick(k: &Kernel, rng: &mut Rng, candidates: &[usize]) -> usize {
        let min = candidates.iter().map(|&i| k.cores[i].load()).min();
        let ties: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| Some(k.cores[i].load()) == min)
            .collect();
        if k.policy.random_tie_break() && ties.len() > 1 {
            ties[rng.index(ties.len())]
        } else {
            ties[0]
        }
    }

    /// `busiest_queue` as it was: collect the longest queues holding a
    /// movable thread, then draw an index into them.
    fn collected_busiest(k: &Kernel, rng: &mut Rng, for_core: usize) -> Option<usize> {
        let mut best = Vec::new();
        let mut best_len = 0;
        for i in (0..k.cores.len()).filter(|&i| i != for_core) {
            let q = &k.cores[i].queue;
            if q.iter().filter(|&&t| k.can_idle_steal(t, for_core)).count() == 0 {
                continue;
            }
            if q.len() > best_len {
                best_len = q.len();
                best = vec![i];
            } else if q.len() == best_len {
                best.push(i);
            }
        }
        match best.len() {
            0 => None,
            1 => Some(best[0]),
            n if k.policy.random_tie_break() => Some(best[rng.index(n)]),
            _ => Some(best[0]),
        }
    }

    /// The RNG after exactly one draw from `rng`.
    fn one_draw(rng: &Rng) -> Rng {
        let mut r = rng.clone();
        r.next_u64();
        r
    }

    #[test]
    fn stock_placement_counts_ties_with_one_draw() {
        let mut picks = Vec::new();
        for seed in 0..64 {
            // Cores 0, 2 and 3 tie at load 1; core 1 is busier.
            let (mut k, tid) = queued_kernel(SchedPolicy::os_default(), seed, &[1, 2, 1, 1]);
            let mut reference = k.rng.clone();
            let expected = collected_stock_pick(&k, &mut reference, &[0, 1, 2, 3]);
            assert_eq!(reference, one_draw(&k.rng));
            let (placement, online) = (Rc::clone(&k.placement), k.online_mask());
            let got = placement.choose_core(&mut k, tid, None, online);
            assert_eq!(got, expected, "seed {seed}");
            assert_eq!(k.rng, reference, "seed {seed}: not exactly one draw");
            picks.push(got);
        }
        picks.sort_unstable();
        picks.dedup();
        assert_eq!(picks, [0, 2, 3], "the draw must reach every tie");

        let (mut k, tid) = queued_kernel(SchedPolicy::os_default_deterministic(), 7, &[1, 2, 1, 1]);
        let before = k.rng.clone();
        let (placement, online) = (Rc::clone(&k.placement), k.online_mask());
        assert_eq!(placement.choose_core(&mut k, tid, None, online), 0);
        assert_eq!(k.rng, before, "deterministic placement draws nothing");
    }

    #[test]
    fn busiest_queue_counts_ties_with_one_draw() {
        let mut picks = Vec::new();
        for seed in 0..64 {
            // Cores 1, 2 and 3 tie at two queued threads; core 4 has one.
            let (mut k, _) = queued_kernel(SchedPolicy::os_default(), seed, &[0, 2, 2, 2, 1]);
            let mut reference = k.rng.clone();
            let expected = collected_busiest(&k, &mut reference, 0);
            assert_eq!(reference, one_draw(&k.rng));
            let got = k.busiest_queue(0);
            assert_eq!(got, expected, "seed {seed}");
            assert_eq!(k.rng, reference, "seed {seed}: not exactly one draw");
            picks.extend(got);
        }
        picks.sort_unstable();
        picks.dedup();
        assert_eq!(picks, [1, 2, 3], "the draw must reach every tie");

        let (mut k, _) =
            queued_kernel(SchedPolicy::os_default_deterministic(), 7, &[0, 2, 2, 2, 1]);
        let before = k.rng.clone();
        assert_eq!(k.busiest_queue(0), Some(1));
        assert_eq!(k.rng, before, "deterministic stealing draws nothing");
    }
}
