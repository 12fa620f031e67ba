//! H.264 multithreaded media encoding model (§3.6).
//!
//! The workload follows the paper's description: a main thread performs
//! serial pre-processing and post-processing per frame (2–5% of CPU time),
//! and four encoder threads process macro-block tasks with the standard
//! H.264 spatial wavefront dependence (a block needs its upper
//! neighbours) plus temporal parallelism across a window of in-flight
//! frames.
//!
//! Because encoder threads pick up whatever macro-block rows are *ready*
//! — on-demand, not statically partitioned — the application is stable
//! and predictably scalable, and a single fast core visibly helps: the
//! paper's point 3, "an asymmetric chip multiprocessor is better than a
//! chip multiprocessor where all cores are slow."

use asym_core::{Direction, RunResult, RunSetup, Workload};
use asym_kernel::{Kernel, SpawnOptions, Step, ThreadBody, ThreadCx, ThreadId, WaitId};
use asym_sim::{Cycles, Rng};
use asym_sync::{SimQueue, SimShared, TryPop};
use std::rc::Rc;

/// Tuning constants for the H.264 model. Runtimes are scaled ~10× down
/// from Figure 9(a); the configuration shape is the result.
#[derive(Debug, Clone)]
pub struct H264Params {
    /// Frames to encode.
    pub frames: u32,
    /// Macro-block rows per frame (720p has 45).
    pub rows: u32,
    /// Segments each row is split into; the wavefront dependence runs at
    /// segment granularity, giving a diagonal front of parallel work.
    pub segments: u32,
    /// Encoder threads (the paper's application has 4 + the main thread).
    pub encoder_threads: usize,
    /// Frames that may be in flight concurrently (temporal parallelism).
    pub frame_window: u32,
    /// Cost of one half-row task at full speed.
    pub task_cost: Cycles,
    /// Relative jitter on task cost (uniform ±).
    pub jitter: f64,
    /// Serial pre-processing per frame (main thread).
    pub pre_cost: Cycles,
    /// Serial post-processing per frame (main thread).
    pub post_cost: Cycles,
}

impl Default for H264Params {
    fn default() -> Self {
        H264Params {
            frames: 80,
            rows: 45,
            segments: 8,
            encoder_threads: 4,
            frame_window: 6,
            task_cost: Cycles::from_micros_at_full_speed(112.0),
            jitter: 0.25,
            pre_cost: Cycles::from_micros_at_full_speed(300.0),
            post_cost: Cycles::from_micros_at_full_speed(600.0),
        }
    }
}

/// The H.264 encoder workload. Primary metric: runtime in seconds.
#[derive(Debug, Clone, Default)]
pub struct H264 {
    /// Model constants.
    pub params: H264Params,
}

impl H264 {
    /// The default encoding job.
    pub fn new() -> Self {
        H264::default()
    }

    /// Scales the frame count (for fast tests).
    pub fn frames(mut self, frames: u32) -> Self {
        self.params.frames = frames;
        self
    }
}

/// One row-segment encoding task.
#[derive(Debug, Clone, Copy)]
struct Task {
    frame: u32,
    row: u32,
    seg: u32,
}

struct EncShared {
    ready: SimQueue<Task>,
    /// Per-frame count of completed tasks. Modeled atomic, one word per
    /// window slot: encoders on different rows increment concurrently.
    frame_done_tasks: SimShared<Vec<u32>>,
    /// Completion state of each (frame, row, segment) within the window.
    /// Modeled atomic (word = window slot): real wavefront encoders use
    /// atomic dependence flags, and neighbours poll them unordered.
    done: SimShared<Vec<Vec<Vec<bool>>>>,
    rows: u32,
    segments: u32,
    tasks_per_frame: u32,
    /// Modeled atomic counter.
    frames_completed: SimShared<u64>,
    /// Per-frame completion flags (frames can finish out of order).
    /// Modeled atomic, one word per frame.
    complete_flags: SimShared<Vec<bool>>,
    /// Frames completed *consecutively* from frame 0 — the temporal
    /// window gates on this, so a slot is never reset under a
    /// still-incomplete older frame. Modeled atomic.
    watermark: SimShared<u64>,
    main_wake: WaitId,
    /// Per-encoder in-flight task, published before each compute burst so
    /// the main thread can requeue the work of a killed encoder. Plain
    /// per-encoder words: only the owner touches a live slot, and the
    /// main thread reads it only after joining the dead encoder.
    serving: SimShared<Vec<Option<Task>>>,
}

impl EncShared {
    fn frame_slot(&self, frame: u32) -> usize {
        (frame as usize) % self.done.peek(|d| d.len())
    }

    fn reset_frame(&self, cx: &mut ThreadCx<'_>, frame: u32) {
        let slot = self.frame_slot(frame);
        self.done.store_at(cx, slot as u32, |done| {
            for row in done[slot].iter_mut() {
                row.fill(false);
            }
        });
        self.frame_done_tasks
            .store_at(cx, slot as u32, |c| c[slot] = 0);
    }

    fn is_done(&self, cx: &mut ThreadCx<'_>, frame: u32, row: u32, seg: u32) -> bool {
        let slot = self.frame_slot(frame);
        self.done
            .load_at(cx, slot as u32, |d| d[slot][row as usize][seg as usize])
    }

    /// Marks a task done; returns the (at most three) newly-ready
    /// successor tasks and whether the frame is now complete.
    ///
    /// A segment `(r, s)` depends on its left neighbour `(r, s-1)` and,
    /// for the motion-estimation context, on the upper-right segment
    /// `(r-1, min(s+1, last))` — the standard macro-block wavefront.
    fn complete(&self, cx: &mut ThreadCx<'_>, t: Task) -> ([Option<Task>; 3], bool) {
        let slot = self.frame_slot(t.frame);
        self.done.store_at(cx, slot as u32, |done| {
            assert!(
                !done[slot][t.row as usize][t.seg as usize],
                "task f{} r{} s{} executed twice",
                t.frame, t.row, t.seg
            );
            done[slot][t.row as usize][t.seg as usize] = true;
        });
        let last = self.segments - 1;
        let mut ready = [None; 3];
        // Right neighbour in the same row (we are its left predecessor).
        if t.seg < last && self.pred_done(cx, t.frame, t.row, t.seg + 1) {
            ready[0] = Some(Task {
                frame: t.frame,
                row: t.row,
                seg: t.seg + 1,
            });
        }
        // Next-row segments for which we are the upper-right context:
        // (r+1, s-1) always; additionally (r+1, last) when we are the
        // last segment (its context is clamped to us).
        if t.row + 1 < self.rows {
            let candidates = [t.seg.checked_sub(1), (t.seg == last).then_some(last)];
            for (out, seg) in ready[1..].iter_mut().zip(candidates) {
                if let Some(seg) = seg.filter(|&seg| self.pred_done(cx, t.frame, t.row + 1, seg)) {
                    *out = Some(Task {
                        frame: t.frame,
                        row: t.row + 1,
                        seg,
                    });
                }
            }
        }
        let tasks_per_frame = self.tasks_per_frame;
        let frame_complete = self.frame_done_tasks.rmw_at(cx, slot as u32, |c| {
            c[slot] += 1;
            c[slot] == tasks_per_frame
        });
        if frame_complete {
            self.frames_completed.rmw(cx, |c| *c += 1);
            let frame = t.frame as usize;
            self.complete_flags
                .store_at(cx, t.frame, |f| f[frame] = true);
            let nframes = self.complete_flags.peek(|f| f.len());
            loop {
                let wm = self.watermark.load(cx, |w| *w) as usize;
                if wm >= nframes || !self.complete_flags.load_at(cx, wm as u32, |f| f[wm]) {
                    break;
                }
                self.watermark.rmw(cx, |w| *w += 1);
            }
        }
        (ready, frame_complete)
    }

    /// All predecessors of (frame, row, seg) are complete (and the task
    /// itself has not already run).
    fn pred_done(&self, cx: &mut ThreadCx<'_>, frame: u32, row: u32, seg: u32) -> bool {
        if self.is_done(cx, frame, row, seg) {
            return false; // already executed
        }
        let last = self.segments - 1;
        let left_ok = seg == 0 || self.is_done(cx, frame, row, seg - 1);
        let up_ok = row == 0 || self.is_done(cx, frame, row - 1, (seg + 1).min(last));
        left_ok && up_ok
    }
}

struct Encoder {
    shared: Rc<EncShared>,
    /// This encoder's slot in `EncShared::serving` (doubles as the
    /// in-flight task store, so a kill mid-compute leaves the task
    /// visible for requeueing).
    slot: usize,
    cost: Cycles,
    jitter: f64,
    rng: Rng,
    name: String,
}

impl ThreadBody for Encoder {
    fn run(&mut self, cx: &mut ThreadCx<'_>) -> Step {
        let slot = self.slot;
        let in_flight = self
            .shared
            .serving
            .write_at(cx, slot as u32, |s| s[slot].take());
        if let Some(task) = in_flight {
            let (ready, frame_complete) = self.shared.complete(cx, task);
            for t in ready.into_iter().flatten() {
                self.shared.ready.push(cx, t);
            }
            if frame_complete {
                cx.notify_all(self.shared.main_wake);
            }
        }
        match self.shared.ready.try_pop(cx) {
            TryPop::Item(task) => {
                self.shared
                    .serving
                    .write_at(cx, slot as u32, |s| s[slot] = Some(task));
                let jitter = 1.0 + self.jitter * (2.0 * self.rng.next_f64() - 1.0);
                Step::Compute(Cycles::new((self.cost.get() as f64 * jitter) as u64))
            }
            TryPop::Empty(step) => step,
            TryPop::Closed => Step::Done,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MainPhase {
    PreProcess,
    Seed,
    WaitWindow,
    PostProcess,
    Finish,
}

/// The main thread: serial pre/post-processing and frame-window control.
/// Doubles as the supervisor under injected kills: it requeues the task a
/// dead encoder was holding and, if the whole pool dies, encodes the
/// remaining tasks itself so the job still completes.
struct MainThread {
    shared: Rc<EncShared>,
    frames: u32,
    window: u32,
    next_frame: u32,
    posted_frames: u32,
    phase: MainPhase,
    pre: Cycles,
    post: Cycles,
    encoder_tids: Vec<ThreadId>,
    reaped: Vec<bool>,
    killed_seen: u64,
    /// Task the main thread itself is encoding (pool-exhausted fallback).
    fallback: Option<Task>,
    task_cost: Cycles,
}

impl MainThread {
    /// Requeues the in-flight work of encoders killed by injected faults.
    fn reap_dead(&mut self, cx: &mut ThreadCx<'_>) {
        let killed = cx.killed_count();
        if killed == self.killed_seen {
            return;
        }
        self.killed_seen = killed;
        for e in 0..self.encoder_tids.len() {
            if !self.reaped[e] && cx.join_check(self.encoder_tids[e]) {
                self.reaped[e] = true;
                let lost = self.shared.serving.write_at(cx, e as u32, |s| s[e].take());
                if let Some(task) = lost {
                    self.shared.ready.push(cx, task);
                }
            }
        }
    }

    fn pool_dead(&self) -> bool {
        self.reaped.iter().all(|&r| r)
    }

    /// When no encoder survives, the main thread works the wavefront
    /// itself; returns the compute step for the next task, if any.
    fn encode_fallback(&mut self, cx: &mut ThreadCx<'_>) -> Option<Step> {
        if !self.pool_dead() {
            return None;
        }
        match self.shared.ready.try_pop(cx) {
            TryPop::Item(task) => {
                self.fallback = Some(task);
                Some(Step::Compute(self.task_cost))
            }
            TryPop::Empty(_) | TryPop::Closed => None,
        }
    }
}

impl ThreadBody for MainThread {
    fn run(&mut self, cx: &mut ThreadCx<'_>) -> Step {
        self.reap_dead(cx);
        if let Some(task) = self.fallback.take() {
            let (ready, _) = self.shared.complete(cx, task);
            for t in ready.into_iter().flatten() {
                self.shared.ready.push(cx, t);
            }
        }
        loop {
            match self.phase {
                MainPhase::PreProcess => {
                    // Post-processing of completed frames takes priority
                    // (it interleaves with pre-processing of later ones).
                    if self.posted_frames < self.shared.watermark.load(cx, |w| *w) as u32 {
                        self.posted_frames += 1;
                        return Step::Compute(self.post);
                    }
                    if self.next_frame == self.frames {
                        self.phase = MainPhase::PostProcess;
                        continue;
                    }
                    // Respect the temporal window, gated on the oldest
                    // incomplete frame.
                    if self.next_frame
                        >= self.shared.watermark.load(cx, |w| *w) as u32 + self.window
                    {
                        self.phase = MainPhase::WaitWindow;
                        continue;
                    }
                    self.phase = MainPhase::Seed;
                    return Step::Compute(self.pre);
                }
                MainPhase::Seed => {
                    let frame = self.next_frame;
                    self.next_frame += 1;
                    self.shared.reset_frame(cx, frame);
                    self.shared.ready.push(
                        cx,
                        Task {
                            frame,
                            row: 0,
                            seg: 0,
                        },
                    );
                    self.phase = MainPhase::PreProcess;
                }
                MainPhase::WaitWindow => {
                    if self.next_frame < self.shared.watermark.load(cx, |w| *w) as u32 + self.window
                    {
                        self.phase = MainPhase::PreProcess;
                        continue;
                    }
                    if let Some(step) = self.encode_fallback(cx) {
                        return step;
                    }
                    return Step::Block(self.shared.main_wake);
                }
                MainPhase::PostProcess => {
                    // Post-process every completed frame (serial work),
                    // then either wait for more or finish.
                    if self.posted_frames < self.shared.watermark.load(cx, |w| *w) as u32 {
                        self.posted_frames += 1;
                        return Step::Compute(self.post);
                    }
                    if self.posted_frames == self.frames {
                        self.phase = MainPhase::Finish;
                        continue;
                    }
                    if self.next_frame < self.frames {
                        self.phase = MainPhase::PreProcess;
                        continue;
                    }
                    if let Some(step) = self.encode_fallback(cx) {
                        return step;
                    }
                    return Step::Block(self.shared.main_wake);
                }
                MainPhase::Finish => {
                    self.shared.ready.close(cx);
                    return Step::Done;
                }
            }
        }
    }

    fn name(&self) -> &str {
        "h264-main"
    }
}

impl Workload for H264 {
    fn name(&self) -> &str {
        "H.264"
    }

    fn spec_key(&self) -> String {
        format!("{} {:?}", self.name(), self)
    }

    fn unit(&self) -> &str {
        "seconds"
    }

    fn direction(&self) -> Direction {
        Direction::LowerIsBetter
    }

    fn run(&self, setup: &RunSetup) -> RunResult {
        let p = &self.params;
        assert!(
            p.frames > 0 && p.rows > 1 && p.segments > 0,
            "H.264 needs frames, rows, and segments"
        );
        let mut kernel = Kernel::new(setup.config.machine(), setup.policy, setup.seed);
        let mut seed_rng = Rng::new(setup.seed ^ 0x4264_0000_0000_0006);

        let main_wake = kernel.create_wait_queue();
        let window = p.frame_window.max(1) as usize;
        let shared = Rc::new(EncShared {
            ready: SimQueue::new(&mut kernel),
            frame_done_tasks: SimShared::new(&mut kernel, "h264.frame_done_tasks", vec![0; window]),
            done: SimShared::new(
                &mut kernel,
                "h264.wavefront_done",
                vec![vec![vec![false; p.segments as usize]; p.rows as usize]; window],
            ),
            rows: p.rows,
            segments: p.segments,
            tasks_per_frame: p.rows * p.segments,
            frames_completed: SimShared::new(&mut kernel, "h264.frames_completed", 0),
            complete_flags: SimShared::new(
                &mut kernel,
                "h264.complete_flags",
                vec![false; p.frames as usize],
            ),
            watermark: SimShared::new(&mut kernel, "h264.watermark", 0),
            main_wake,
            serving: SimShared::new(&mut kernel, "h264.serving", vec![None; p.encoder_threads]),
        });

        let mut encoder_tids = Vec::new();
        let ncores = setup.config.num_cores() as usize;
        for e in 0..p.encoder_threads {
            // The multithreaded encoder the paper references sets thread
            // affinity: one encoder thread per processor.
            let core = asym_sim::CoreId(e % ncores);
            let tid = kernel.spawn(
                Encoder {
                    shared: shared.clone(),
                    slot: e,
                    cost: p.task_cost,
                    jitter: p.jitter,
                    rng: seed_rng.fork(),
                    name: format!("encoder{e}"),
                },
                SpawnOptions::new().affinity(asym_sim::CoreMask::single(core)),
            );
            encoder_tids.push(tid);
        }
        // The main thread is the supervisor process: injected kills take
        // encoders, never the control thread that reaps them.
        let main_tid = kernel.spawn(
            MainThread {
                shared: shared.clone(),
                frames: p.frames,
                window: p.frame_window,
                next_frame: 0,
                posted_frames: 0,
                phase: MainPhase::PreProcess,
                pre: p.pre_cost,
                post: p.post_cost,
                encoder_tids: encoder_tids.clone(),
                reaped: vec![false; p.encoder_threads],
                killed_seen: 0,
                fallback: None,
                task_cost: p.task_cost,
            },
            SpawnOptions::new().kill_exempt(),
        );

        let outcome = kernel.run();
        let lost_workers = kernel.stats().threads_killed;
        if outcome.is_cut_short() {
            return RunResult::new(kernel.now().as_secs_f64())
                .with_extra("lost_workers", lost_workers as f64);
        }
        if outcome != asym_kernel::RunOutcome::AllDone {
            eprintln!(
                "H264 DEADLOCK: completed={} ready_len={} counts={:?}",
                shared.frames_completed.peek(|c| *c),
                shared.ready.len(),
                shared.frame_done_tasks.peek(|c| c.clone())
            );
        }
        assert_eq!(
            outcome,
            asym_kernel::RunOutcome::AllDone,
            "H.264 encode did not complete"
        );
        assert_eq!(shared.frames_completed.peek(|c| *c), u64::from(p.frames));
        let main_stats = kernel.thread_stats(main_tid);
        let encoder_migrations: u64 = encoder_tids
            .iter()
            .map(|&t| kernel.thread_stats(t).migrations)
            .sum();
        RunResult::new(kernel.now().as_secs_f64())
            .with_extra("main_cpu_s", main_stats.cpu_time.as_secs_f64())
            .with_extra("main_blocked_s", main_stats.blocked_time.as_secs_f64())
            .with_extra("encoder_migrations", encoder_migrations as f64)
            .with_extra("lost_workers", lost_workers as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_core::AsymConfig;
    use asym_kernel::SchedPolicy;

    fn quick(config: AsymConfig, seed: u64) -> f64 {
        H264::new()
            .frames(16)
            .run(&RunSetup::new(config, SchedPolicy::os_default(), seed))
            .value
    }

    #[test]
    fn encodes_all_frames_and_scales() {
        let fast = quick(AsymConfig::new(4, 0, 1), 1);
        let slow = quick(AsymConfig::new(0, 4, 8), 1);
        assert!(slow > 5.0 * fast, "fast {fast} slow {slow}");
    }

    #[test]
    fn stable_across_runs_even_on_asymmetric() {
        // Steady-state run (short runs carry pipeline fill/drain noise).
        let runs: Vec<f64> = (0..4)
            .map(|s| {
                H264::new()
                    .frames(40)
                    .run(&RunSetup::new(
                        AsymConfig::new(2, 2, 8),
                        SchedPolicy::os_default(),
                        s,
                    ))
                    .value
            })
            .collect();
        let mean = runs.iter().sum::<f64>() / runs.len() as f64;
        let spread = (runs.iter().cloned().fold(f64::MIN, f64::max)
            - runs.iter().cloned().fold(f64::MAX, f64::min))
            / mean;
        assert!(spread < 0.08, "H.264 should be stable: {runs:?}");
    }

    #[test]
    fn one_fast_core_beats_all_slow() {
        // 1f-3s/8 (power 1.375) must clearly beat 0f-4s/8 (0.5) and even
        // 0f-4s/4 (1.0): the fast core takes over work (paper §3.6).
        let one_fast = quick(AsymConfig::new(1, 3, 8), 2);
        let all_slow4 = quick(AsymConfig::new(0, 4, 4), 2);
        let all_slow8 = quick(AsymConfig::new(0, 4, 8), 2);
        assert!(one_fast < all_slow8, "{one_fast} vs {all_slow8}");
        assert!(one_fast < all_slow4, "{one_fast} vs {all_slow4}");
    }

    #[test]
    fn wavefront_allows_real_parallelism() {
        // 4 cores should be at least 2.5x faster than 1 core.
        let quad = quick(AsymConfig::new(4, 0, 1), 3);
        let uni = quick(AsymConfig::new(1, 0, 1), 3);
        assert!(
            uni > 2.5 * quad,
            "wavefront parallelism missing: {uni} vs {quad}"
        );
    }
}
