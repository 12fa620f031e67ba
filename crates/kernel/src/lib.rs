//! # asym-kernel
//!
//! A simulated operating-system kernel for studying performance-asymmetric
//! multicores, as in *"The Impact of Performance Asymmetry in Emerging
//! Multicore Architectures"* (ISCA 2005).
//!
//! The crate provides:
//!
//! * [`Kernel`] — per-core run queues, a dispatch loop, time slicing,
//!   periodic and idle load balancing, affinity, and full accounting;
//! * [`SchedPolicy`] — the stock speed-agnostic scheduler and the paper's
//!   asymmetry-aware scheduler ("faster cores never go idle before slower
//!   cores"), plus ablation variants;
//! * [`ThreadBody`] / [`Step`] — the state-machine representation of
//!   simulated threads.
//!
//! # Examples
//!
//! Run two compute-bound threads on a 1-fast/1-slow machine and observe
//! that the asymmetry-aware policy migrates the laggard onto the fast core
//! when it frees up:
//!
//! ```
//! use asym_kernel::{FnThread, Kernel, RunOutcome, SchedPolicy, SpawnOptions, Step};
//! use asym_sim::{Cycles, MachineSpec, Speed};
//!
//! let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
//! let mut kernel = Kernel::new(machine, SchedPolicy::asymmetry_aware(), 1);
//! for t in 0..2 {
//!     let mut bursts = 5u32;
//!     kernel.spawn(
//!         FnThread::new(format!("worker{t}"), move |_cx| {
//!             if bursts == 0 {
//!                 Step::Done
//!             } else {
//!                 bursts -= 1;
//!                 Step::Compute(Cycles::from_millis_at_full_speed(1.0))
//!             }
//!         }),
//!         SpawnOptions::new(),
//!     );
//! }
//! assert_eq!(kernel.run(), RunOutcome::AllDone);
//! // Both threads finish far faster than 8x the fast-only runtime because
//! // the fast core never idles.
//! assert!(kernel.now().as_secs_f64() < 0.02);
//! ```

#![warn(missing_docs)]

mod guard;
mod kernel;
mod placement;
mod policy;
mod thread;
mod trace;

pub use guard::{with_run_guard, RunGuard};
pub use kernel::{
    AtomicOp, Kernel, KernelStats, PreemptReason, RunOutcome, ThreadCx, TraceEvent, WakeReason,
    CACHE_HOT_WINDOW, DEFAULT_BALANCE_PERIOD, DEFAULT_CONTEXT_SWITCH, DEFAULT_QUANTUM,
    ENV_CONFIRM_TICKS, ENV_MIN_APPLY_INTERVAL,
};
pub use policy::{PolicyKind, SchedPolicy};
pub use thread::{
    FnThread, ShareId, SpawnOptions, Step, ThreadBody, ThreadId, ThreadStats, WaitId,
};
pub use trace::{
    access_tracing_enabled, capture_stream, capture_traces, fold_trace_hashes, set_access_tracing,
    KernelTrace, TraceConsumer, TraceHashFold, TraceHasher, TraceRecord,
};
