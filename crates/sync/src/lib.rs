//! # asym-sync
//!
//! Synchronization primitives for simulated threads running under
//! [`asym_kernel`]: cyclic barriers, countdown latches, blocking MPMC
//! queues, and traced shared objects.
//!
//! Because simulated thread bodies are state machines (see
//! [`asym_kernel::ThreadBody`]), blocking operations follow a
//! **try/block/retry** convention: an operation either succeeds
//! immediately or hands back the [`Step`](asym_kernel::Step) the body must
//! return; when the thread is woken it retries the operation. This is the
//! same recheck-loop discipline real condition-variable code uses.
//!
//! There is no mutex, condition variable or semaphore: none of the
//! modeled workloads takes a lock, so none is provided.
//!
//! # Examples
//!
//! A producer/consumer pair over a [`SimQueue`]:
//!
//! ```
//! use asym_kernel::{FnThread, Kernel, SchedPolicy, SpawnOptions, Step};
//! use asym_sim::{Cycles, MachineSpec, Speed};
//! use asym_sync::{SimQueue, TryPop};
//!
//! let mut k = Kernel::new(
//!     MachineSpec::symmetric(2, Speed::FULL),
//!     SchedPolicy::os_default(),
//!     1,
//! );
//! let q: SimQueue<u32> = SimQueue::new(&mut k);
//!
//! let tx = q.clone();
//! let mut left = 5u32;
//! k.spawn(
//!     FnThread::new("producer", move |cx| {
//!         if left == 0 {
//!             tx.close(cx);
//!             return Step::Done;
//!         }
//!         left -= 1;
//!         tx.push(cx, left);
//!         Step::Compute(Cycles::new(100))
//!     }),
//!     SpawnOptions::new(),
//! );
//!
//! let rx = q.clone();
//! k.spawn(
//!     FnThread::new("consumer", move |cx| match rx.try_pop(cx) {
//!         TryPop::Item(_) => Step::Compute(Cycles::new(500)),
//!         TryPop::Empty(step) => step,
//!         TryPop::Closed => Step::Done,
//!     }),
//!     SpawnOptions::new(),
//! );
//! assert_eq!(k.run(), asym_kernel::RunOutcome::AllDone);
//! ```

#![warn(missing_docs)]

mod barrier;
mod channel;
mod host;
mod latch;
mod shared;

pub use barrier::{Arrival, SimBarrier};
pub use channel::{SimQueue, TryPop};
pub use host::SyncHost;
pub use latch::SimLatch;
pub use shared::SimShared;
