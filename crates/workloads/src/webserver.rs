//! Apache and Zeus web-server models (§3.4), driven ApacheBench-style:
//! a fixed number of concurrent connections, a fixed request total,
//! single static file.
//!
//! **Apache** pre-forks worker processes that take connections from a
//! shared accept queue. The processes are ordinary kernel threads, so
//! placement is the kernel's business — under light load some cores idle
//! and the placement lottery makes throughput unstable; the
//! asymmetry-aware kernel fixes it (Figure 6(b)). A worker recycles
//! (exits and is re-forked) after `recycle_limit` requests; reducing that
//! limit to ~50 is the paper's fine-grained-threading experiment — many
//! short-lived processes give the scheduler constant re-placement
//! opportunities, restoring stability at a throughput cost.
//!
//! **Zeus** runs a small fixed set of single-threaded event-loop
//! processes, each multiplexing many connections. Client *sessions* are
//! assigned to a process by the accept race (modelled as a uniformly
//! random draw) and stay there — Zeus's own userspace scheduling. The
//! kernel never sees the imbalance, so the asymmetry-aware kernel cannot
//! help: sessions stranded on the slow-core process make throughput
//! unstable under both light and heavy load (Figure 7).

use asym_core::{Direction, RunResult, RunSetup, Workload};
use asym_kernel::{Kernel, SpawnOptions, Step, ThreadBody, ThreadCx, ThreadId};
use asym_sim::{Cycles, Rng, SimDuration, SimTime};
use asym_sync::{SimQueue, SimShared, TryPop};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// ApacheBench-style load level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadLevel {
    /// Concurrent connections kept in flight.
    pub concurrency: usize,
    /// Total requests to serve.
    pub total_requests: u64,
}

impl LoadLevel {
    /// The paper's light load (10 concurrent), scaled down 10× in total
    /// volume to keep simulations fast (documented in EXPERIMENTS.md).
    pub fn light() -> Self {
        LoadLevel {
            concurrency: 10,
            total_requests: 10_000,
        }
    }

    /// The paper's heavy load (60 concurrent), scaled down in volume.
    pub fn heavy() -> Self {
        LoadLevel {
            concurrency: 60,
            total_requests: 50_000,
        }
    }
}

// =====================================================================
// Apache
// =====================================================================

/// Tuning constants for the Apache model.
#[derive(Debug, Clone)]
pub struct ApacheParams {
    /// Pre-forked worker processes.
    pub pool_size: usize,
    /// Mean request-processing cost at full speed.
    pub request_cost: Cycles,
    /// Relative jitter on request cost (uniform ±).
    pub jitter: f64,
    /// Cost for the control process to fork a replacement worker.
    pub fork_cost: Cycles,
    /// Client-side network round trip between a response and the next
    /// connection on that slot (keeps light load below CPU saturation,
    /// as on the paper's gigabit testbed).
    pub client_rtt: SimDuration,
}

impl Default for ApacheParams {
    fn default() -> Self {
        ApacheParams {
            pool_size: 16,
            request_cost: Cycles::from_micros_at_full_speed(500.0),
            jitter: 0.3,
            fork_cost: Cycles::from_micros_at_full_speed(400.0),
            client_rtt: SimDuration::from_micros(1_200),
        }
    }
}

/// The Apache workload. Primary metric: requests per second.
#[derive(Debug, Clone)]
pub struct Apache {
    /// Load level.
    pub load: LoadLevel,
    /// Requests a worker serves before recycling (the paper's optimal
    /// setting is 5000; 50 is the fine-grained-threading experiment).
    pub recycle_limit: u64,
    /// Model constants.
    pub params: ApacheParams,
}

impl Apache {
    /// Apache under the given load with the optimal recycling threshold.
    pub fn new(load: LoadLevel) -> Self {
        Apache {
            load,
            recycle_limit: 5_000,
            params: ApacheParams::default(),
        }
    }

    /// Sets the per-worker recycling threshold.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn recycle_limit(mut self, limit: u64) -> Self {
        assert!(limit > 0, "recycle limit must be positive");
        self.recycle_limit = limit;
        self
    }
}

#[derive(Debug, Clone, Copy)]
struct Request {
    /// Which closed-loop client issued the connection.
    client: usize,
}

/// Per-worker connection hand-off state: each pre-forked worker has a
/// one-slot inbox; arriving connections are assigned to the
/// longest-idle worker (FIFO), exactly like prefork workers queuing in
/// `accept()`. A connection assigned to a worker stays with it even if a
/// faster core is (or becomes) idle — the paper's stranding mechanism.
struct HttpShared {
    /// Workers waiting in accept(), most recently idled last. Hand-off
    /// is LIFO (`pop_back`), like the accept-mutex convoy in real
    /// prefork servers: the most recently idled worker usually wins the
    /// race. LIFO keeps a persistent "hot set" of workers whose core
    /// placement decides the run's fortune.
    /// Modeled atomic: the accept mutex serializes this structure in a
    /// real prefork server.
    idle: SimShared<VecDeque<usize>>,
    /// One-slot connection inboxes, indexed by worker slot. Socket
    /// hand-offs — modeled atomic, one word per slot.
    inbox: SimShared<Vec<Option<Request>>>,
    /// Per-worker-slot wakeups.
    worker_wait: RefCell<Vec<asym_kernel::WaitId>>,
    /// Connections that arrived while every worker was busy. Modeled
    /// atomic like `idle` (same accept-mutex discipline).
    overflow: SimShared<VecDeque<Request>>,
    mgmt: SimQueue<()>,
    /// Per-client completion wakeups.
    client_wait: RefCell<Vec<asym_kernel::WaitId>>,
    /// Modeled atomic counter: workers increment concurrently.
    served: SimShared<u64>,
    total: u64,
    /// Modeled atomic flag: polled by every thread.
    done: SimShared<bool>,
    finished_at: RefCell<Option<SimTime>>,
    /// Per-slot registry of the request each worker is serving, so the
    /// control process can salvage requests from faulted workers. Plain
    /// per-slot words: only the owning worker touches a live slot, and
    /// the control process reads it only after joining the dead owner.
    serving: SimShared<Vec<Option<Request>>>,
    /// The kernel thread occupying each slot; cleared once reaped.
    slot_tid: RefCell<Vec<Option<ThreadId>>>,
    /// Set when a worker exits normally (recycle or shutdown), so the
    /// control process can tell a retirement from a kill. Modeled atomic
    /// flags, one word per slot.
    retired: SimShared<Vec<bool>>,
}

impl HttpShared {
    fn new_slot(&self, cx: &mut ThreadCx<'_>, kernel_wait: asym_kernel::WaitId) -> usize {
        let slot = self.inbox.peek(|i| i.len());
        self.inbox.store_at(cx, slot as u32, |i| i.push(None));
        self.worker_wait.borrow_mut().push(kernel_wait);
        self.serving.write_at(cx, slot as u32, |s| s.push(None));
        self.slot_tid.borrow_mut().push(None);
        self.retired.store_at(cx, slot as u32, |r| r.push(false));
        slot
    }

    /// Delivers a connection to the most recently idled worker (the
    /// accept race), or parks it in the overflow queue when all workers
    /// are busy.
    fn deliver(&self, cx: &mut ThreadCx<'_>, request: Request) {
        if let Some(slot) = self.idle.rmw(cx, |q| q.pop_back()) {
            self.inbox
                .store_at(cx, slot as u32, |i| i[slot] = Some(request));
            let wait = self.worker_wait.borrow()[slot];
            // Connections arrive over the network: no sync-wakeup
            // affinity toward the (remote) client.
            cx.notify_all_remote(wait);
        } else {
            self.overflow.rmw(cx, |q| q.push_back(request));
        }
    }

    /// Called by a worker when it finishes a request: counts it and
    /// notifies the owning client, which will reconnect after a network
    /// round trip.
    fn complete_one(&self, cx: &mut ThreadCx<'_>, request: Request) {
        let served = self.served.rmw(cx, |c| {
            *c += 1;
            *c
        });
        if served == self.total {
            *self.finished_at.borrow_mut() = Some(cx.now());
            self.done.store(cx, |d| *d = true);
            // Wake everyone so they can observe shutdown.
            let waits: Vec<asym_kernel::WaitId> = self
                .worker_wait
                .borrow()
                .iter()
                .chain(self.client_wait.borrow().iter())
                .copied()
                .collect();
            for w in waits {
                cx.notify_all(w);
            }
            self.mgmt.close(cx);
            return;
        }
        let wait = self.client_wait.borrow()[request.client];
        cx.notify_all(wait);
    }

    fn is_done(&self, cx: &mut ThreadCx<'_>) -> bool {
        self.done.load(cx, |d| *d)
    }
}

struct ApacheWorker {
    shared: Rc<HttpShared>,
    slot: usize,
    cost: Cycles,
    jitter: f64,
    recycle_limit: u64,
    served_here: u64,
    in_flight: Option<Request>,
    queued_idle: bool,
    rng: Rng,
    name: String,
}

impl ApacheWorker {
    /// Marks a normal exit so the control process never mistakes a
    /// recycled or shut-down worker for a fault victim.
    fn retire(&self, cx: &mut ThreadCx<'_>) -> Step {
        let slot = self.slot;
        self.shared
            .retired
            .store_at(cx, slot as u32, |r| r[slot] = true);
        Step::Done
    }
}

impl ThreadBody for ApacheWorker {
    fn run(&mut self, cx: &mut ThreadCx<'_>) -> Step {
        let slot = self.slot;
        if self.shared.is_done(cx) {
            return self.retire(cx);
        }
        if let Some(request) = self.in_flight.take() {
            self.shared
                .serving
                .write_at(cx, slot as u32, |s| s[slot] = None);
            self.shared.complete_one(cx, request);
            self.served_here += 1;
            if self.shared.is_done(cx) {
                return self.retire(cx);
            }
            if self.served_here >= self.recycle_limit {
                // Recycle: tell the control process to fork a
                // replacement, then exit.
                self.shared.mgmt.push(cx, ());
                return self.retire(cx);
            }
        }
        // Serve a waiting connection if one exists; otherwise join
        // the accept queue and block.
        let next = self
            .shared
            .inbox
            .rmw_at(cx, slot as u32, |i| i[slot].take())
            .or_else(|| self.shared.overflow.rmw(cx, |q| q.pop_front()));
        match next {
            Some(request) => {
                self.queued_idle = false;
                self.in_flight = Some(request);
                self.shared
                    .serving
                    .write_at(cx, slot as u32, |s| s[slot] = Some(request));
                let jitter = 1.0 + self.jitter * (2.0 * self.rng.next_f64() - 1.0);
                Step::Compute(Cycles::new((self.cost.get() as f64 * jitter) as u64))
            }
            None => {
                if !self.queued_idle {
                    self.queued_idle = true;
                    self.shared.idle.rmw(cx, |q| q.push_back(slot));
                }
                return Step::Block(self.shared.worker_wait.borrow()[slot]);
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

struct ApacheControl {
    shared: Rc<HttpShared>,
    params: ApacheParams,
    recycle_limit: u64,
    initial_pool: usize,
    forking: bool,
    spawned: u64,
    killed_seen: u64,
    rng: Rng,
}

impl ApacheControl {
    /// Forks one worker. Children start on the control process's core,
    /// as forked processes do, and are spread out by the load balancer —
    /// the distribution that emerges is the per-run placement lottery.
    fn fork_worker(&mut self, cx: &mut ThreadCx<'_>) {
        self.spawned += 1;
        let wait = cx.create_wait_queue();
        let slot = self.shared.new_slot(cx, wait);
        let tid = cx.spawn(
            ApacheWorker {
                shared: self.shared.clone(),
                slot,
                cost: self.params.request_cost,
                jitter: self.params.jitter,
                recycle_limit: self.recycle_limit,
                served_here: 0,
                in_flight: None,
                queued_idle: false,
                rng: self.rng.fork(),
                name: format!("httpd-{}", self.spawned),
            },
            SpawnOptions::new().on_parent_core(),
        );
        self.shared.slot_tid.borrow_mut()[slot] = Some(tid);
    }

    /// Finds workers killed by faults (finished but never retired),
    /// removes them from the accept queue, and salvages the requests
    /// sitting in their inbox or in service. Returns how many died —
    /// real prefork Apache re-forks children lost to signals the same
    /// way.
    fn reap_dead(&mut self, cx: &mut ThreadCx<'_>) -> u64 {
        if cx.killed_count() == self.killed_seen {
            return 0;
        }
        self.killed_seen = cx.killed_count();
        let nslots = self.shared.slot_tid.borrow().len();
        let mut dead = 0;
        for slot in 0..nslots {
            let Some(tid) = self.shared.slot_tid.borrow()[slot] else {
                continue;
            };
            if self.shared.retired.load_at(cx, slot as u32, |r| r[slot]) || !cx.join_check(tid) {
                continue;
            }
            self.shared.slot_tid.borrow_mut()[slot] = None;
            dead += 1;
            self.shared.idle.rmw(cx, |q| q.retain(|&s| s != slot));
            let lost_inbox = self
                .shared
                .inbox
                .rmw_at(cx, slot as u32, |i| i[slot].take());
            let lost_serving = self
                .shared
                .serving
                .write_at(cx, slot as u32, |s| s[slot].take());
            for request in [lost_inbox, lost_serving].into_iter().flatten() {
                self.shared.deliver(cx, request);
            }
        }
        dead
    }
}

impl ThreadBody for ApacheControl {
    fn run(&mut self, cx: &mut ThreadCx<'_>) -> Step {
        if self.initial_pool > 0 {
            // Pre-fork the worker pool at startup.
            let n = self.initial_pool;
            self.initial_pool = 0;
            for _ in 0..n {
                self.fork_worker(cx);
            }
            return Step::Compute(Cycles::new(self.params.fork_cost.get() * n as u64));
        }
        if self.forking {
            self.forking = false;
            self.fork_worker(cx);
        }
        let dead = self.reap_dead(cx);
        if dead > 0 && !self.shared.is_done(cx) {
            for _ in 0..dead {
                self.fork_worker(cx);
            }
            return Step::Compute(Cycles::new(self.params.fork_cost.get() * dead));
        }
        match self.shared.mgmt.try_pop(cx) {
            TryPop::Item(()) => {
                self.forking = true;
                Step::Compute(self.params.fork_cost)
            }
            TryPop::Empty(step) => step,
            TryPop::Closed => Step::Done,
        }
    }

    fn name(&self) -> &str {
        "httpd-control"
    }
}

impl Workload for Apache {
    fn name(&self) -> &str {
        "Apache"
    }

    fn spec_key(&self) -> String {
        format!("{} {:?}", self.name(), self)
    }

    fn unit(&self) -> &str {
        "req/s"
    }

    fn direction(&self) -> Direction {
        Direction::HigherIsBetter
    }

    fn run(&self, setup: &RunSetup) -> RunResult {
        let mut kernel = Kernel::new(setup.config.machine(), setup.policy, setup.seed);
        let mut seed_rng = Rng::new(setup.seed ^ 0xa9ac_0000_0000_0004);
        let shared = Rc::new(HttpShared {
            idle: SimShared::new(&mut kernel, "apache.idle", VecDeque::new()),
            inbox: SimShared::new(&mut kernel, "apache.inbox", Vec::new()),
            worker_wait: RefCell::new(Vec::new()),
            overflow: SimShared::new(&mut kernel, "apache.overflow", VecDeque::new()),
            mgmt: SimQueue::new(&mut kernel),
            client_wait: RefCell::new(Vec::new()),
            served: SimShared::new(&mut kernel, "apache.served", 0),
            total: self.load.total_requests,
            done: SimShared::new(&mut kernel, "apache.done", false),
            finished_at: RefCell::new(None),
            serving: SimShared::new(&mut kernel, "apache.serving", Vec::new()),
            slot_tid: RefCell::new(Vec::new()),
            retired: SimShared::new(&mut kernel, "apache.retired", Vec::new()),
        });
        // The control process is Apache's parent: it supervises the pool
        // and re-forks children lost to faults, so it is never a victim.
        kernel.spawn(
            ApacheControl {
                shared: shared.clone(),
                params: self.params.clone(),
                recycle_limit: self.recycle_limit,
                initial_pool: self.params.pool_size,
                forking: false,
                spawned: 0,
                killed_seen: 0,
                rng: seed_rng.fork(),
            },
            SpawnOptions::new().kill_exempt(),
        );
        // One closed-loop client thread per concurrency slot. Clients
        // consume no CPU (they sleep and block), standing in for the
        // ApacheBench driver machine. They start 1 ms in so the pool has
        // pre-forked.
        for c in 0..self.load.concurrency {
            let wait = kernel.create_wait_queue();
            shared.client_wait.borrow_mut().push(wait);
            let shared = shared.clone();
            let rtt = self.params.client_rtt;
            let mut rng = seed_rng.fork();
            let mut phase = 0u32;
            kernel.spawn(
                asym_kernel::FnThread::new(format!("client{c}"), move |cx: &mut ThreadCx<'_>| {
                    if shared.is_done(cx) {
                        return Step::Done;
                    }
                    phase += 1;
                    match phase % 3 {
                        1 => {
                            // Connection setup / think gap.
                            let jitter = 0.5 + rng.next_f64();
                            Step::Sleep(SimDuration::from_nanos(
                                (rtt.as_nanos() as f64 * jitter) as u64,
                            ))
                        }
                        2 => {
                            shared.deliver(cx, Request { client: c });
                            Step::Block(wait)
                        }
                        _ => {
                            // Woken: response received; loop to reconnect.
                            phase = 0;
                            Step::Sleep(SimDuration::ZERO)
                        }
                    }
                }),
                // Clients model the ApacheBench driver machine — outside
                // the server, so server-side faults never kill them.
                SpawnOptions::new().kill_exempt(),
            );
        }
        let outcome = kernel.run();
        let lost_workers = kernel.stats().threads_killed as f64;
        if outcome.is_cut_short() {
            // Throughput so far; the harness classifies the cut run.
            let elapsed = kernel.now().as_secs_f64();
            let served = shared.served.peek(|n| *n) as f64;
            return RunResult::new(served / elapsed)
                .with_extra("elapsed_s", elapsed)
                .with_extra("lost_workers", lost_workers);
        }
        let finished = shared
            .finished_at
            .borrow()
            .expect("benchmark served all requests");
        let elapsed = finished.as_secs_f64();
        RunResult::new(self.load.total_requests as f64 / elapsed)
            .with_extra("elapsed_s", elapsed)
            .with_extra("lost_workers", lost_workers)
    }
}

// =====================================================================
// Zeus
// =====================================================================

/// Tuning constants for the Zeus model.
#[derive(Debug, Clone)]
pub struct ZeusParams {
    /// Number of single-threaded event-loop processes ("a small, fixed
    /// number"), each bound to a processor.
    pub event_processes: usize,
    /// Mean request-processing cost (Zeus serves a static file several
    /// times faster than Apache in the paper's measurements).
    pub request_cost: Cycles,
    /// Relative jitter on request cost (uniform ±).
    pub jitter: f64,
    /// Mean requests per client session (pipelined keep-alive bursts; a
    /// session stays on the process that accepted it).
    pub session_length: u64,
    /// Accept-race weight of an idle event process relative to a busy
    /// one. Idle processes sit in the event loop and usually win the
    /// race — but not always, and a busy slow-core process that wins
    /// strands the whole session.
    pub idle_accept_weight: f64,
}

impl Default for ZeusParams {
    fn default() -> Self {
        ZeusParams {
            event_processes: 4,
            request_cost: Cycles::from_micros_at_full_speed(200.0),
            jitter: 0.2,
            session_length: 60,
            idle_accept_weight: 3.0,
        }
    }
}

/// The Zeus workload. Primary metric: requests per second.
///
/// Zeus multiplexes client *sessions* (pipelined keep-alive request
/// bursts) over a small fixed set of event-loop processes, each bound to
/// a processor. A session is assigned to whichever process wins the
/// accept race — usually an idle one, but busy processes poll the listen
/// socket too. That userspace decision is invisible to the kernel, and a
/// session that lands on a slow-core process is stranded there for its
/// whole lifetime. On symmetric machines mis-assignments are harmless
/// (every core serves at the same rate); on asymmetric machines they
/// make throughput unstable under both light and heavy load (Figure 7),
/// and no kernel scheduling policy can reach the decision (§3.4.1).
#[derive(Debug, Clone)]
pub struct Zeus {
    /// Load level (`concurrency` = concurrent client sessions).
    pub load: LoadLevel,
    /// Model constants.
    pub params: ZeusParams,
}

impl Zeus {
    /// Zeus under the given load.
    pub fn new(load: LoadLevel) -> Self {
        Zeus {
            load,
            params: ZeusParams::default(),
        }
    }
}

/// A client session: a burst of pipelined requests bound to one process.
#[derive(Debug, Clone, Copy)]
struct Session {
    remaining: u64,
}

struct ZeusShared {
    /// Per-event-process session queues: Zeus's internal scheduling.
    queues: Vec<SimQueue<Session>>,
    /// Whether each process currently has a session in service. Modeled
    /// atomic flags, one word per process: the accept race polls them.
    busy: SimShared<Vec<bool>>,
    /// Modeled atomic counter: every process increments it.
    served: SimShared<u64>,
    total: u64,
    /// Modeled atomic flag: polled by every process.
    done: SimShared<bool>,
    finished_at: RefCell<Option<SimTime>>,
    session_length: u64,
    idle_accept_weight: f64,
    /// The accept-race draw, serialized by the listen socket's kernel
    /// lock — modeled as an atomic read-modify-write.
    rng: SimShared<Rng>,
    /// Event-process threads by index; cleared once reaped.
    tids: RefCell<Vec<Option<ThreadId>>>,
    /// Processes confirmed killed by faults — weight zero in the accept
    /// race, since a dead process no longer polls the listen socket.
    /// Modeled atomic flags, one word per process.
    dead: SimShared<Vec<bool>>,
    /// The session each process is currently serving (with its live
    /// remaining-request count), for salvage by surviving peers. Plain
    /// per-process words: only the owner touches a live entry, and a
    /// reaper reads it only after joining the dead owner.
    serving: SimShared<Vec<Option<Session>>>,
    /// Modeled atomic: any survivor may bump it while reaping.
    killed_seen: SimShared<u64>,
}

impl ZeusShared {
    fn is_done(&self, cx: &mut ThreadCx<'_>) -> bool {
        self.done.load(cx, |d| *d)
    }

    /// Runs the accept race for a new session: idle processes usually
    /// win, busy ones sometimes do. Blind to core speed — but dead
    /// processes no longer poll the listen socket at all.
    fn assign_new_session(&self, cx: &mut ThreadCx<'_>) {
        let mut weights = Vec::with_capacity(self.queues.len());
        for (i, q) in self.queues.iter().enumerate() {
            let is_dead = self.dead.load_at(cx, i as u32, |d| d[i]);
            let is_busy = self.busy.load_at(cx, i as u32, |b| b[i]);
            weights.push(if is_dead {
                0.0
            } else if !is_busy && q.is_empty() {
                self.idle_accept_weight
            } else {
                1.0
            });
        }
        let session_length = self.session_length;
        let (idx, remaining) = self.rng.rmw(cx, |rng| {
            let idx = rng.weighted_index(&weights);
            let jitter = 0.5 + rng.next_f64();
            (idx, ((session_length as f64 * jitter) as u64).max(1))
        });
        self.queues[idx].push(cx, Session { remaining });
    }

    fn finish_all(&self, cx: &mut ThreadCx<'_>) {
        *self.finished_at.borrow_mut() = Some(cx.now());
        self.done.store(cx, |d| *d = true);
        for q in &self.queues {
            q.close(cx);
        }
    }
}

struct EventProcess {
    shared: Rc<ZeusShared>,
    index: usize,
    cost: Cycles,
    jitter: f64,
    current: Option<Session>,
    in_flight: bool,
    rng: Rng,
    name: String,
}

impl EventProcess {
    /// Adopts the sessions of peers killed by faults: their queued
    /// sessions and the one in service migrate to this process's queue.
    /// Zeus has no supervisor, so the surviving event loops notice dead
    /// peers themselves (in reality, via the shared listen socket).
    fn reap_dead(&mut self, cx: &mut ThreadCx<'_>) {
        let killed = cx.killed_count();
        if self.shared.is_done(cx) || killed == self.shared.killed_seen.load(cx, |k| *k) {
            return;
        }
        self.shared.killed_seen.store(cx, |k| *k = killed);
        for i in 0..self.shared.queues.len() {
            if i == self.index {
                continue;
            }
            let Some(tid) = self.shared.tids.borrow()[i] else {
                continue;
            };
            if !cx.join_check(tid) {
                continue;
            }
            self.shared.tids.borrow_mut()[i] = None;
            self.shared.dead.store_at(cx, i as u32, |d| d[i] = true);
            let mut salvaged = self.shared.queues[i].drain(cx);
            if let Some(session) = self.shared.serving.write_at(cx, i as u32, |s| s[i].take()) {
                salvaged.push(session);
            }
            for session in salvaged {
                self.shared.queues[self.index].push(cx, session);
            }
        }
    }
}

impl ThreadBody for EventProcess {
    fn run(&mut self, cx: &mut ThreadCx<'_>) -> Step {
        self.reap_dead(cx);
        let index = self.index;
        if self.in_flight {
            self.in_flight = false;
            let served = self.shared.served.rmw(cx, |c| {
                *c += 1;
                *c
            });
            if served >= self.shared.total {
                if !self.shared.is_done(cx) {
                    self.shared.finish_all(cx);
                }
                return Step::Done;
            }
            let session = self.current.as_mut().expect("request had a session");
            session.remaining -= 1;
            if session.remaining == 0 {
                self.current = None;
                self.shared
                    .serving
                    .write_at(cx, index as u32, |s| s[index] = None);
                self.shared
                    .busy
                    .store_at(cx, index as u32, |b| b[index] = false);
                // The finished client reconnects at once; the accept
                // race decides who gets it.
                self.shared.assign_new_session(cx);
            } else {
                let current = self.current;
                self.shared
                    .serving
                    .write_at(cx, index as u32, |s| s[index] = current);
            }
        }
        if self.shared.is_done(cx) {
            return Step::Done;
        }
        if self.current.is_none() {
            match self.shared.queues[self.index].try_pop(cx) {
                TryPop::Item(s) => {
                    self.current = Some(s);
                    self.shared
                        .serving
                        .write_at(cx, index as u32, |v| v[index] = Some(s));
                    self.shared
                        .busy
                        .store_at(cx, index as u32, |b| b[index] = true);
                }
                TryPop::Empty(step) => {
                    self.shared
                        .busy
                        .store_at(cx, index as u32, |b| b[index] = false);
                    return step;
                }
                TryPop::Closed => return Step::Done,
            }
        }
        self.in_flight = true;
        let jitter = 1.0 + self.jitter * (2.0 * self.rng.next_f64() - 1.0);
        Step::Compute(Cycles::new((self.cost.get() as f64 * jitter) as u64))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl Workload for Zeus {
    fn name(&self) -> &str {
        "Zeus"
    }

    fn spec_key(&self) -> String {
        format!("{} {:?}", self.name(), self)
    }

    fn unit(&self) -> &str {
        "req/s"
    }

    fn direction(&self) -> Direction {
        Direction::HigherIsBetter
    }

    fn run(&self, setup: &RunSetup) -> RunResult {
        let mut kernel = Kernel::new(setup.config.machine(), setup.policy, setup.seed);
        let mut seed_rng = Rng::new(setup.seed ^ 0x2e05_0000_0000_0005);
        let queues: Vec<SimQueue<Session>> = (0..self.params.event_processes)
            .map(|_| SimQueue::new(&mut kernel))
            .collect();
        let nprocs = self.params.event_processes;
        let shared = Rc::new(ZeusShared {
            queues,
            busy: SimShared::new(&mut kernel, "zeus.busy", vec![false; nprocs]),
            served: SimShared::new(&mut kernel, "zeus.served", 0),
            total: self.load.total_requests,
            done: SimShared::new(&mut kernel, "zeus.done", false),
            finished_at: RefCell::new(None),
            session_length: self.params.session_length,
            idle_accept_weight: self.params.idle_accept_weight,
            rng: SimShared::new(&mut kernel, "zeus.accept_rng", seed_rng.fork()),
            tids: RefCell::new(Vec::new()),
            dead: SimShared::new(&mut kernel, "zeus.dead", vec![false; nprocs]),
            serving: SimShared::new(&mut kernel, "zeus.serving", vec![None; nprocs]),
            killed_seen: SimShared::new(&mut kernel, "zeus.killed_seen", 0),
        });
        let ncores = setup.config.num_cores() as usize;
        for i in 0..nprocs {
            // Zeus binds each event loop to a processor — its own
            // scheduling, invisible to (and unfixable by) the kernel.
            let core = asym_sim::CoreId(i % ncores);
            let tid = kernel.spawn(
                EventProcess {
                    shared: shared.clone(),
                    index: i,
                    cost: self.params.request_cost,
                    jitter: self.params.jitter,
                    current: None,
                    in_flight: false,
                    rng: seed_rng.fork(),
                    name: format!("zeus{i}"),
                },
                SpawnOptions::new().affinity(asym_sim::CoreMask::single(core)),
            );
            shared.tids.borrow_mut().push(Some(tid));
        }
        // Seed the concurrent sessions.
        {
            let shared = shared.clone();
            let sessions = self.load.concurrency;
            let mut primed = false;
            kernel.spawn(
                asym_kernel::FnThread::new("zb-driver", move |cx: &mut ThreadCx<'_>| {
                    if primed {
                        return Step::Done;
                    }
                    primed = true;
                    for _ in 0..sessions {
                        shared.assign_new_session(cx);
                    }
                    Step::Done
                }),
                // The benchmark driver runs on a separate machine.
                SpawnOptions::new().kill_exempt(),
            );
        }
        kernel.run();
        // If faults killed every event process the benchmark cannot
        // finish; report throughput up to the point service stopped
        // instead of panicking.
        let (elapsed, served) = match *shared.finished_at.borrow() {
            Some(t) => (t.as_secs_f64(), self.load.total_requests),
            None => (kernel.now().as_secs_f64(), shared.served.peek(|c| *c)),
        };
        RunResult::new(served as f64 / elapsed)
            .with_extra("elapsed_s", elapsed)
            .with_extra("lost_workers", kernel.stats().threads_killed as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_core::AsymConfig;
    use asym_kernel::SchedPolicy;

    fn small(load: LoadLevel, total: u64) -> LoadLevel {
        LoadLevel {
            concurrency: load.concurrency,
            total_requests: total,
        }
    }

    fn spread(vals: &[f64]) -> f64 {
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        (vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min))
            / mean
    }

    fn apache_runs(
        load: LoadLevel,
        recycle: u64,
        config: AsymConfig,
        policy: SchedPolicy,
        n: u64,
    ) -> Vec<f64> {
        (0..n)
            .map(|s| {
                Apache::new(load)
                    .recycle_limit(recycle)
                    .run(&RunSetup::new(config, policy, s))
                    .value
            })
            .collect()
    }

    fn zeus_runs(load: LoadLevel, config: AsymConfig, policy: SchedPolicy, n: u64) -> Vec<f64> {
        (0..n)
            .map(|s| Zeus::new(load).run(&RunSetup::new(config, policy, s)).value)
            .collect()
    }

    #[test]
    fn apache_symmetric_is_stable_and_scales() {
        let light = small(LoadLevel::light(), 3_000);
        let fast = apache_runs(
            light,
            5_000,
            AsymConfig::new(4, 0, 1),
            SchedPolicy::os_default(),
            3,
        );
        let slow = apache_runs(
            light,
            5_000,
            AsymConfig::new(0, 4, 8),
            SchedPolicy::os_default(),
            3,
        );
        // 4f-0s carries a mild wobble at light load (worker-pile modes on
        // equal-speed cores); it stays far below the asymmetric spreads.
        assert!(spread(&fast) < 0.20, "fast {fast:?}");
        // The all-slow machine saturates; throughput is capacity-bound and
        // repeatable within a wider (but still modest) band at this small
        // request total.
        assert!(spread(&slow) < 0.25, "slow {slow:?}");
        let f = fast.iter().sum::<f64>() / 3.0;
        let s = slow.iter().sum::<f64>() / 3.0;
        assert!(
            f > 2.0 * s,
            "throughput should scale with power: {f} vs {s}"
        );
    }

    #[test]
    fn apache_light_load_unstable_on_asymmetric() {
        let light = small(LoadLevel::light(), 3_000);
        let runs = apache_runs(
            light,
            5_000,
            AsymConfig::new(3, 1, 8),
            SchedPolicy::os_default(),
            6,
        );
        assert!(
            spread(&runs) > 0.08,
            "light load should be unstable: {runs:?}"
        );
    }

    #[test]
    fn apache_heavy_load_is_stable() {
        let heavy = small(LoadLevel::heavy(), 8_000);
        let runs = apache_runs(
            heavy,
            5_000,
            AsymConfig::new(3, 1, 8),
            SchedPolicy::os_default(),
            4,
        );
        assert!(
            spread(&runs) < 0.08,
            "heavy load should be stable: {runs:?}"
        );
    }

    #[test]
    fn asymmetry_aware_kernel_stabilizes_apache() {
        let light = small(LoadLevel::light(), 3_000);
        let stock = apache_runs(
            light,
            5_000,
            AsymConfig::new(3, 1, 8),
            SchedPolicy::os_default(),
            6,
        );
        let aware = apache_runs(
            light,
            5_000,
            AsymConfig::new(3, 1, 8),
            SchedPolicy::asymmetry_aware(),
            6,
        );
        assert!(
            spread(&aware) < 0.5 * spread(&stock),
            "kernel fix should stabilize Apache: stock {stock:?} aware {aware:?}"
        );
        // And the aware kernel is also faster on average.
        let sm = stock.iter().sum::<f64>() / stock.len() as f64;
        let am = aware.iter().sum::<f64>() / aware.len() as f64;
        assert!(am > sm, "aware {am} should beat stock {sm}");
    }

    #[test]
    fn fine_grained_recycling_stabilizes_but_slows() {
        let light = small(LoadLevel::light(), 3_000);
        let config = AsymConfig::new(3, 1, 8);
        let coarse = apache_runs(light, 5_000, config, SchedPolicy::os_default(), 6);
        let fine = apache_runs(light, 50, config, SchedPolicy::os_default(), 6);
        let coarse_best = coarse.iter().cloned().fold(f64::MIN, f64::max);
        let fine_best = fine.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            fine_best < coarse_best,
            "recycling overhead should cost peak throughput: fine {fine_best} coarse {coarse_best}"
        );
        assert!(
            spread(&fine) < spread(&coarse),
            "fine-grained should be more stable: fine {fine:?} coarse {coarse:?}"
        );
    }

    #[test]
    fn zeus_outperforms_apache() {
        let light = small(LoadLevel::light(), 3_000);
        let a = apache_runs(
            light,
            5_000,
            AsymConfig::new(4, 0, 1),
            SchedPolicy::os_default(),
            2,
        );
        let z = zeus_runs(
            small(LoadLevel::light(), 10_000),
            AsymConfig::new(4, 0, 1),
            SchedPolicy::os_default(),
            2,
        );
        let am = a.iter().sum::<f64>() / a.len() as f64;
        let zm = z.iter().sum::<f64>() / z.len() as f64;
        assert!(zm > 2.0 * am, "Zeus should be much faster: {zm} vs {am}");
    }

    #[test]
    fn zeus_unstable_under_both_loads_on_asymmetric() {
        let config = AsymConfig::new(3, 1, 8);
        let light = zeus_runs(
            small(LoadLevel::light(), 10_000),
            config,
            SchedPolicy::os_default(),
            6,
        );
        let heavy = zeus_runs(
            small(LoadLevel::heavy(), 25_000),
            config,
            SchedPolicy::os_default(),
            6,
        );
        assert!(
            spread(&light) > 0.08,
            "Zeus light should be unstable: {light:?}"
        );
        assert!(
            spread(&heavy) > 0.05,
            "Zeus heavy should be unstable: {heavy:?}"
        );
    }

    #[test]
    fn kernel_fix_does_not_stabilize_zeus() {
        let config = AsymConfig::new(2, 2, 8);
        let load = small(LoadLevel::light(), 10_000);
        let stock = zeus_runs(load, config, SchedPolicy::os_default(), 6);
        let aware = zeus_runs(load, config, SchedPolicy::asymmetry_aware(), 6);
        // Pinned event processes are invisible to the kernel: identical
        // results under both policies.
        assert_eq!(stock, aware, "kernel policy must not affect pinned Zeus");
        assert!(spread(&aware) > 0.08, "instability persists: {aware:?}");
    }

    #[test]
    fn zeus_symmetric_is_stable() {
        for config in [AsymConfig::new(4, 0, 1), AsymConfig::new(0, 4, 8)] {
            let runs = zeus_runs(
                small(LoadLevel::light(), 10_000),
                config,
                SchedPolicy::os_default(),
                4,
            );
            assert!(
                spread(&runs) < 0.06,
                "symmetric Zeus should be stable on {config}: {runs:?}"
            );
        }
    }
}
