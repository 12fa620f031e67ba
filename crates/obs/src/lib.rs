//! # asym-obs
//!
//! Trace-derived observability for the asymmetric-multicore simulator:
//! this crate folds the state-complete event streams the kernel already
//! emits (streamed by [`capture_stream`](asym_kernel::capture_stream), or
//! replayed from a buffered [`KernelTrace`](asym_kernel::KernelTrace))
//! into the quantities the source paper
//! (*The Impact of Performance Asymmetry in Emerging Multicore
//! Architectures*, ISCA 2005) reasons with:
//!
//! * [`RunProfile`] — per-core busy/idle/offline timelines and
//!   utilization, per-thread state accounting split by fast/slow core
//!   residency, migration counts and migration-induced wait, sync-object
//!   wait attribution, and the paper's §3.1.1 "fast core idle while a
//!   slow core has runnable work" invariant measured as a duration;
//! * [`Log2Histogram`] — fixed log2-bucketed scheduler-latency and
//!   run-quantum histograms with no floats in the accumulation path;
//! * [`ProfileMetrics`] — the compact mergeable summary the sweep engine
//!   attaches per cell in `BENCH_sweep.json`, streamed through the
//!   metrics fold [`ProfileFold`], whose state is O(1) in the event
//!   count;
//! * [`perfetto_trace`] — a Chrome/Perfetto `trace.json` exporter for
//!   timeline inspection of any run folded by
//!   [`ProfileFold::with_timeline`], with per-core counter tracks
//!   (live speed, runnable-queue depth) and flow arrows linking
//!   migration decisions to landing dispatches;
//! * [`ProfileDiff`] / [`DiffAttribution`] — the differential causality
//!   view: align two runs of the same (workload, config, seed, plan)
//!   under different policies and attribute the wall-time delta into
//!   exact machine-time buckets, with [`perfetto_diff_trace`] rendering
//!   both timelines side by side from a shared origin.
//!
//! Everything here is a pure function of the event stream: equal
//! streams produce byte-identical profiles, reports, and exports,
//! whatever host thread produced them — the same determinism contract
//! the golden-hash tests already enforce for the traces themselves.
//!
//! # Examples
//!
//! ```
//! use asym_kernel::{capture_stream, FnThread, Kernel, SchedPolicy, SpawnOptions, Step};
//! use asym_obs::ProfileFold;
//! use asym_sim::{Cycles, MachineSpec, Speed};
//!
//! let ((), folds) = capture_stream(ProfileFold::with_timeline, || {
//!     let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
//!     let mut k = Kernel::new(machine, SchedPolicy::asymmetry_aware(), 42);
//!     let mut bursts = 3u32;
//!     k.spawn(
//!         FnThread::new("worker", move |_cx| {
//!             if bursts == 0 {
//!                 Step::Done
//!             } else {
//!                 bursts -= 1;
//!                 Step::Compute(Cycles::from_millis_at_full_speed(1.0))
//!             }
//!         }),
//!         SpawnOptions::new(),
//!     );
//!     k.run();
//! });
//! let profile = folds.into_iter().next().unwrap().finish();
//! // The asymmetry-aware policy keeps the lone thread on the fast core.
//! assert!(profile.threads[0].running_slow.is_zero());
//! println!("{profile}");
//! ```

#![warn(missing_docs)]

mod diff;
mod hist;
mod perfetto;
mod profile;

pub use diff::{DiffAttribution, DiffError, ProfileDiff, ThreadDelta};
pub use hist::{HistogramPartsError, Log2Histogram, PercentileBound, HIST_BUCKETS};
pub use perfetto::{perfetto_diff_trace, perfetto_runs, perfetto_trace};
pub use profile::{
    metrics_of_traces, CoreProfile, ProfileFold, ProfileMetrics, RunProfile, ThreadProfile,
    WaitKind, WaitProfile,
};
