//! Pluggable placement, balancing, and preemption policies.
//!
//! [`PlacementPolicy`] is the strategy object behind every scheduling
//! decision the kernel makes that is not pure mechanism: where a spawned
//! or woken thread goes, which queued thread a core dispatches next, how
//! long a slice lasts, what an idle core may steal, and what the periodic
//! balancer does. The kernel resolves the trait object once from the
//! [`SchedPolicy`] kind at construction; all mechanism (queue surgery,
//! trace emission, accounting) stays in `kernel.rs` as `pub(crate)`
//! helpers the strategies call into, so every policy produces the same
//! state-complete trace vocabulary.
//!
//! The stock and asymmetry-aware strategies are verbatim transplants of
//! the former hardcoded `PolicyKind` match arms — including their RNG
//! draw order — so golden trace hashes are unchanged by the refactor.
//! The zoo competitors (DESIGN.md §11) only add behavior behind the new
//! hooks.

use crate::kernel::Kernel;
use crate::policy::{PolicyKind, SchedPolicy};
use crate::thread::ThreadId;
use asym_sim::{CoreId, CoreMask, SimDuration, Speed};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Strategy interface consulted at every policy-sensitive decision point.
///
/// Methods taking `&mut Kernel` may draw from the kernel RNG and call the
/// `pub(crate)` mechanism helpers (`steal_queued`, `interrupt_running`,
/// ...); they must never bypass those helpers, which keep traces
/// state-complete. Defaults encode the common case so a minimal policy
/// only provides placement, idle pulling, and balancing.
pub(crate) trait PlacementPolicy {
    /// Whether `SpawnOptions::on_parent_core` is honored (fork semantics).
    /// Speed-aware policies decline: starting a child on a slow parent's
    /// core while a faster core idles breaks their placement invariant.
    fn honors_fork_placement(&self) -> bool {
        false
    }

    /// Whether idle stealing ignores the stock cache-hot window
    /// ([`crate::CACHE_HOT_WINDOW`]).
    fn bypasses_cache_hot(&self) -> bool {
        false
    }

    /// An overriding core for a sync wakeup (the stock wake-affine pull),
    /// or `None` to fall through to normal placement.
    fn wake_target(
        &self,
        _k: &Kernel,
        _tid: ThreadId,
        _waker_core: Option<usize>,
    ) -> Option<usize> {
        None
    }

    /// Picks the core for a newly runnable `tid` from `candidates`
    /// (affinity ∩ online, never empty; iterated in index order).
    /// `prefer` is the exec-placement hint: the parent's core at spawn.
    /// Runs on every spawn and wakeup, so it must not allocate.
    fn choose_core(
        &self,
        k: &mut Kernel,
        tid: ThreadId,
        prefer: Option<usize>,
        candidates: CoreMask,
    ) -> usize;

    /// Called when `core` runs dry: pull work from elsewhere. Returns
    /// `true` if a thread landed in this core's queue.
    fn idle_pull(&self, k: &mut Kernel, core: usize) -> bool;

    /// The periodic balancer body (load averages are already decayed).
    fn balance(&self, k: &mut Kernel);

    /// Index into `core`'s (non-empty) run queue of the thread to
    /// dispatch next. The default is FIFO.
    fn select_next(&self, _k: &Kernel, _core: usize) -> usize {
        0
    }

    /// The slice length granted on a core of `speed`, given the
    /// configured base quantum.
    fn slice_for(&self, base: SimDuration, _speed: Speed) -> SimDuration {
        base
    }

    /// Hook after `tid` was woken and enqueued on `core` — the preemption
    /// decision point (e.g. priority preemption).
    fn after_wakeup(&self, _k: &mut Kernel, _tid: ThreadId, _core: usize) {}
}

/// Resolves the strategy object for `policy`.
pub(crate) fn placement_for(policy: SchedPolicy) -> Rc<dyn PlacementPolicy> {
    match policy.kind() {
        PolicyKind::LoadBalancing => Rc::new(Stock),
        PolicyKind::AsymmetryAware => Rc::new(Aware),
        PolicyKind::VruntimeFair => Rc::new(VrtFair::default()),
        PolicyKind::StaticPriority => Rc::new(StaticPrio),
        PolicyKind::SpeedSlice => Rc::new(SpeedSliceQuantum),
        PolicyKind::WorkStealing => Rc::new(StealAware),
        PolicyKind::TemperatureAware => Rc::new(TempAware),
    }
}

// ----------------------------------------------------------------------
// Shared decision bodies (flag-driven, reused across families)
// ----------------------------------------------------------------------

/// The stock wake-affine pull: a sync wakeup lands on the waker's core
/// when the wakee's previous core is busy and the waker's has room.
fn stock_wake_target(k: &Kernel, tid: ThreadId, waker_core: Option<usize>) -> Option<usize> {
    if !k.policy().wake_affine() {
        return None;
    }
    let waker = waker_core?;
    let prev = k.threads[tid.0].last_core?;
    let affinity = k.threads[tid.0].affinity;
    let prev_busy = affinity.contains(CoreId(prev)) && k.cores[prev].load() >= 1;
    let waker_has_room = affinity.contains(CoreId(waker)) && k.cores[waker].load() <= 1;
    (prev_busy && waker_has_room && waker != prev).then_some(waker)
}

/// Stock placement: least-loaded with wake affinity, exec preference,
/// and (under `random_tie_break`) randomized tie-breaking. The ties form
/// a mask, not a `Vec`: one `rng.index(n)` draw picks the n-th.
fn stock_choose(
    k: &mut Kernel,
    tid: ThreadId,
    prefer: Option<usize>,
    candidates: CoreMask,
) -> usize {
    let min_load = candidates
        .iter()
        .map(|c| k.cores[c.0].load())
        .min()
        .expect("non-empty candidates");
    let ties = CoreMask::from_cores(
        candidates
            .iter()
            .filter(|c| k.cores[c.0].load() == min_load),
    );
    if k.policy().wake_affine() {
        // Cache-affine wakeups with the classic one-task imbalance
        // tolerance: a woken thread returns to the core it last ran on —
        // regardless of that core's SPEED, which is precisely how a
        // thread ends up "on a slower core even though a faster core is
        // available" (§3.4.1) — unless that core is more than one task
        // busier than the least-loaded alternative.
        if let Some(prev) = k.threads[tid.0].last_core {
            if candidates.contains(CoreId(prev)) {
                return prev;
            }
        }
    }
    if let Some(p) = prefer {
        if ties.contains(CoreId(p)) {
            return p;
        }
    }
    let n = ties.iter().count();
    let pick = if k.policy().random_tie_break() && n > 1 {
        k.rng.index(n)
    } else {
        0
    };
    ties.iter()
        .nth(pick)
        .expect("pick is below the tie count")
        .0
}

/// Asymmetry-aware placement over `speed_of`: fastest idle core first;
/// otherwise minimize `(load+1)/speed`.
fn aware_choose(
    k: &Kernel,
    candidates: CoreMask,
    speed_of: impl Fn(&Kernel, usize) -> Speed,
) -> usize {
    let idle: Option<usize> = candidates
        .iter()
        .map(|c| c.0)
        .filter(|&i| k.cores[i].load() == 0)
        .max_by(|&a, &b| {
            speed_of(k, a).cmp(&speed_of(k, b)).then(b.cmp(&a)) // prefer lowest index on ties
        });
    if let Some(i) = idle {
        return i;
    }
    candidates
        .iter()
        .map(|c| c.0)
        .min_by(|&a, &b| {
            let da = (k.cores[a].load() + 1) as f64 / speed_of(k, a).factor();
            let db = (k.cores[b].load() + 1) as f64 / speed_of(k, b).factor();
            da.partial_cmp(&db)
                .expect("densities are finite")
                .then(speed_of(k, b).cmp(&speed_of(k, a)))
                .then(a.cmp(&b))
        })
        .expect("non-empty candidates")
}

/// Stock idle pull: steal one *queued* thread from the longest queue
/// (the stock kernel never moves a running thread).
fn stock_idle_pull(k: &mut Kernel, core: usize) -> bool {
    if let Some(src) = k.busiest_queue(core) {
        return k.steal_queued(src, core, true);
    }
    false
}

/// Aware idle pull: longest queue first, then (with `migrate_running`)
/// the running thread of a strictly slower core — "fast cores never go
/// idle before slower cores".
fn aware_idle_pull(k: &mut Kernel, core: usize) -> bool {
    if let Some(src) = k.busiest_queue(core) {
        if k.steal_queued(src, core, true) {
            return true;
        }
    }
    if k.policy().migrate_running() {
        return k.pull_running_from_slower(core);
    }
    false
}

// ----------------------------------------------------------------------
// The registered strategies
// ----------------------------------------------------------------------

/// `stock`: the speed-agnostic load balancer (and its `(+det)` ablation).
struct Stock;

impl PlacementPolicy for Stock {
    fn honors_fork_placement(&self) -> bool {
        true
    }
    fn wake_target(&self, k: &Kernel, tid: ThreadId, waker_core: Option<usize>) -> Option<usize> {
        stock_wake_target(k, tid, waker_core)
    }
    fn choose_core(
        &self,
        k: &mut Kernel,
        tid: ThreadId,
        prefer: Option<usize>,
        candidates: CoreMask,
    ) -> usize {
        stock_choose(k, tid, prefer, candidates)
    }
    fn idle_pull(&self, k: &mut Kernel, core: usize) -> bool {
        stock_idle_pull(k, core)
    }
    fn balance(&self, k: &mut Kernel) {
        k.balance_stock();
    }
}

/// `asym-aware`: the paper's §3.1.1 scheduler (and its `(-mig)` ablation).
struct Aware;

impl PlacementPolicy for Aware {
    fn bypasses_cache_hot(&self) -> bool {
        true
    }
    fn choose_core(
        &self,
        k: &mut Kernel,
        _tid: ThreadId,
        _prefer: Option<usize>,
        candidates: CoreMask,
    ) -> usize {
        aware_choose(k, candidates, |k, i| k.cores[i].speed)
    }
    fn idle_pull(&self, k: &mut Kernel, core: usize) -> bool {
        aware_idle_pull(k, core)
    }
    fn balance(&self, k: &mut Kernel) {
        k.balance_aware();
    }
}

/// `vrt-fair`: CFS-like fairness on speed-scaled retired work. A
/// thread's vruntime is its retired-cycle count (retirement is the
/// speed-scaled virtual clock, so a thread stuck on a slow core accrues
/// vruntime slowly and is favored thereafter) plus a per-thread offset.
/// Every enqueue floors the offset so the effective vruntime is at least
/// the smallest effective vruntime already on the destination core — the
/// CFS "max with min_vruntime" rule — so a stream of freshly spawned
/// (zero-cycle) threads cannot perpetually undercut and starve the
/// core's incumbents. Dispatch picks the least effective vruntime;
/// placement and balancing are deterministic stock-style.
#[derive(Default)]
struct VrtFair {
    /// Per-thread vruntime boost, only ever raised (on enqueue).
    offsets: RefCell<HashMap<ThreadId, u64>>,
}

impl VrtFair {
    fn effective(&self, k: &Kernel, tid: ThreadId) -> u64 {
        let base = k.thread_stats(tid).cycles_retired.get();
        base.saturating_add(self.offsets.borrow().get(&tid).copied().unwrap_or(0))
    }

    /// The enqueue floor: raise `tid`'s offset until its effective
    /// vruntime is no less than the minimum effective vruntime among the
    /// threads already queued on or running on `core`.
    fn floor_on_enqueue(&self, k: &Kernel, tid: ThreadId, core: usize) {
        let floor = k.cores[core]
            .queue
            .iter()
            .copied()
            .chain(k.running_tid(core))
            .filter(|&t| t != tid)
            .map(|t| self.effective(k, t))
            .min();
        let Some(floor) = floor else { return };
        let base = k.thread_stats(tid).cycles_retired.get();
        let mut offsets = self.offsets.borrow_mut();
        let off = offsets.entry(tid).or_insert(0);
        *off = (*off).max(floor.saturating_sub(base));
    }
}

impl PlacementPolicy for VrtFair {
    fn choose_core(
        &self,
        k: &mut Kernel,
        tid: ThreadId,
        _prefer: Option<usize>,
        candidates: CoreMask,
    ) -> usize {
        let core = candidates
            .iter()
            .map(|c| c.0)
            .min_by(|&a, &b| {
                k.cores[a]
                    .load()
                    .cmp(&k.cores[b].load())
                    .then(k.cores[b].speed.cmp(&k.cores[a].speed))
                    .then(a.cmp(&b))
            })
            .expect("non-empty candidates");
        self.floor_on_enqueue(k, tid, core);
        core
    }
    fn idle_pull(&self, k: &mut Kernel, core: usize) -> bool {
        stock_idle_pull(k, core)
    }
    fn balance(&self, k: &mut Kernel) {
        k.balance_stock();
    }
    fn select_next(&self, k: &Kernel, core: usize) -> usize {
        let queue = &k.cores[core].queue;
        (0..queue.len())
            .min_by_key(|&i| (self.effective(k, queue[i]), i))
            .expect("select_next on non-empty queue")
    }
    fn after_wakeup(&self, k: &mut Kernel, tid: ThreadId, core: usize) {
        self.floor_on_enqueue(k, tid, core);
    }
}

/// `static-prio`: fixed synthetic priority classes (`tid % 4`, 0 is
/// highest — a stand-in for nice levels, which the workload models do
/// not assign). Dispatch is best-class FIFO and a woken higher-priority
/// thread preempts a lower-priority running one.
struct StaticPrio;

fn prio(tid: ThreadId) -> usize {
    tid.0 % 4
}

impl PlacementPolicy for StaticPrio {
    fn honors_fork_placement(&self) -> bool {
        true
    }
    fn wake_target(&self, k: &Kernel, tid: ThreadId, waker_core: Option<usize>) -> Option<usize> {
        stock_wake_target(k, tid, waker_core)
    }
    fn choose_core(
        &self,
        k: &mut Kernel,
        tid: ThreadId,
        prefer: Option<usize>,
        candidates: CoreMask,
    ) -> usize {
        stock_choose(k, tid, prefer, candidates)
    }
    fn idle_pull(&self, k: &mut Kernel, core: usize) -> bool {
        stock_idle_pull(k, core)
    }
    fn balance(&self, k: &mut Kernel) {
        k.balance_stock();
    }
    fn select_next(&self, k: &Kernel, core: usize) -> usize {
        let queue = &k.cores[core].queue;
        (0..queue.len())
            .min_by_key(|&i| (prio(queue[i]), i))
            .expect("select_next on non-empty queue")
    }
    fn after_wakeup(&self, k: &mut Kernel, tid: ThreadId, core: usize) {
        if let Some(running) = k.running_tid(core) {
            if prio(tid) < prio(running) {
                k.preempt_current_to_queue(core);
            }
        }
    }
}

/// `speed-slice`: stock-deterministic placement with the quantum scaled
/// by the inverse of core speed (capped at 8× the base), so every slice
/// retires roughly the same work on fast and slow cores.
struct SpeedSliceQuantum;

impl PlacementPolicy for SpeedSliceQuantum {
    fn honors_fork_placement(&self) -> bool {
        true
    }
    fn wake_target(&self, k: &Kernel, tid: ThreadId, waker_core: Option<usize>) -> Option<usize> {
        stock_wake_target(k, tid, waker_core)
    }
    fn choose_core(
        &self,
        k: &mut Kernel,
        tid: ThreadId,
        prefer: Option<usize>,
        candidates: CoreMask,
    ) -> usize {
        stock_choose(k, tid, prefer, candidates)
    }
    fn idle_pull(&self, k: &mut Kernel, core: usize) -> bool {
        stock_idle_pull(k, core)
    }
    fn balance(&self, k: &mut Kernel) {
        k.balance_stock();
    }
    fn slice_for(&self, base: SimDuration, speed: Speed) -> SimDuration {
        let scaled = (base.as_nanos() as f64 / speed.factor()).round() as u64;
        let cap = base.as_nanos().saturating_mul(8);
        SimDuration::from_nanos(scaled.clamp(1, cap))
    }
}

/// `steal-aware`: speed-aware work stealing. Placement is purely local
/// (previous core, then the parent's core, then the fastest affine
/// core); there is no periodic balancer; an idle core steals from the
/// queue with the highest per-speed density — preferring loaded *slow*
/// cores, where queued work pays the largest speed penalty — and may
/// pull the running thread off a strictly slower core.
struct StealAware;

impl PlacementPolicy for StealAware {
    fn honors_fork_placement(&self) -> bool {
        true
    }
    fn bypasses_cache_hot(&self) -> bool {
        true
    }
    fn choose_core(
        &self,
        k: &mut Kernel,
        tid: ThreadId,
        prefer: Option<usize>,
        candidates: CoreMask,
    ) -> usize {
        if let Some(prev) = k.threads[tid.0].last_core {
            if candidates.contains(CoreId(prev)) {
                return prev;
            }
        }
        if let Some(p) = prefer {
            if candidates.contains(CoreId(p)) {
                return p;
            }
        }
        candidates
            .iter()
            .map(|c| c.0)
            .max_by(|&a, &b| k.cores[a].speed.cmp(&k.cores[b].speed).then(b.cmp(&a)))
            .expect("non-empty candidates")
    }
    fn idle_pull(&self, k: &mut Kernel, core: usize) -> bool {
        let mut best: Option<(f64, usize)> = None;
        for i in 0..k.cores.len() {
            if i == core {
                continue;
            }
            let movable = k.cores[i].queue.iter().any(|&t| k.can_idle_steal(t, core));
            if !movable {
                continue;
            }
            let density = k.cores[i].queue.len() as f64 / k.cores[i].speed.factor();
            if best.is_none_or(|(d, _)| density > d) {
                best = Some((density, i));
            }
        }
        if let Some((_, src)) = best {
            if k.steal_queued(src, core, true) {
                return true;
            }
        }
        if k.policy().migrate_running() {
            return k.pull_running_from_slower(core);
        }
        false
    }
    fn balance(&self, _k: &mut Kernel) {
        // Stealing is purely demand-driven; there is no periodic pass.
    }
}

/// `temp-aware`: asymmetry-aware placement ranked by *committed-future*
/// speed — the minimum of a core's live speed and its pending
/// environment target — so new work avoids a fast core the thermal
/// model is about to throttle (PR 7's negative-absorption regime).
struct TempAware;

/// A core's speed discounted by any uncommitted environment target.
fn effective_speed(k: &Kernel, i: usize) -> Speed {
    match k.env_pending[i].target {
        Some(target) => k.cores[i].speed.min(target),
        None => k.cores[i].speed,
    }
}

impl PlacementPolicy for TempAware {
    fn bypasses_cache_hot(&self) -> bool {
        true
    }
    fn choose_core(
        &self,
        k: &mut Kernel,
        _tid: ThreadId,
        _prefer: Option<usize>,
        candidates: CoreMask,
    ) -> usize {
        aware_choose(k, candidates, effective_speed)
    }
    fn idle_pull(&self, k: &mut Kernel, core: usize) -> bool {
        aware_idle_pull(k, core)
    }
    fn balance(&self, k: &mut Kernel) {
        k.balance_aware();
    }
}
