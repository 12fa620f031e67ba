//! # asym-sim
//!
//! Deterministic discrete-event simulation primitives for studying
//! performance-asymmetric multicore systems, reproducing the substrate of
//! *"The Impact of Performance Asymmetry in Emerging Multicore
//! Architectures"* (ISCA 2005).
//!
//! The paper emulates asymmetry on real hardware by modulating each Xeon
//! processor's clock duty cycle. This crate provides the corresponding
//! simulated building blocks:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-granularity simulated time;
//! * [`Cycles`], [`Speed`], [`DutyCycle`] — work and per-core execution
//!   rates (duty cycle ⇒ speed factor);
//! * [`MachineSpec`], [`CoreId`], [`CoreMask`] — machine shape and affinity;
//! * [`EventQueue`] — a deterministic `(time, key)` min-heap of events,
//!   whose keys can also be reserved for timers kept outside it;
//! * [`Rng`] — a seedable SplitMix64 generator so each run is a pure
//!   function of its seed;
//! * [`StableHasher`] — a platform-independent FNV-1a hasher for trace
//!   fingerprints;
//! * [`FaultPlan`] — a deterministic, seed-derived schedule of dynamic
//!   asymmetry events (throttling, core hotplug, thread kills).
//!
//! Higher layers (`asym-kernel`, `asym-sync`, `asym-omp`) build the
//! simulated OS and threading runtimes on top.
//!
//! # Examples
//!
//! ```
//! use asym_sim::{Cycles, MachineSpec, Speed};
//!
//! // The paper's 1f-3s/8 configuration: one fast core, three at 1/8 speed.
//! let machine = MachineSpec::asymmetric(1, 3, Speed::fraction_of_full(8));
//! assert_eq!(machine.total_compute_power(), 1.375);
//!
//! // A 1 ms transaction takes 8 ms on a slow core.
//! let tx = Cycles::from_millis_at_full_speed(1.0);
//! let slow = machine.speed(asym_sim::CoreId(3));
//! assert_eq!(tx.duration_at(slow).as_nanos(), 8_000_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod environment;
mod event;
mod fault;
mod hash;
mod machine;
mod rng;
mod time;
mod work;

pub use environment::{
    BurstRecord, DvfsParams, EnvironmentError, EnvironmentPlan, EnvironmentProfile,
    EnvironmentState, ThermalParams, DEFAULT_ENV_TICK,
};
pub use event::{EventKey, EventQueue};
pub use fault::{FaultKind, FaultPlan, FaultPlanError, FaultProfile, FaultRecord};
pub use hash::StableHasher;
pub use machine::{CoreId, CoreMask, MachineSpec, MachineSpecError};
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
pub use work::{Cycles, DutyCycle, InvalidDutyCycleError, Speed, BASE_CYCLES_PER_NANO};
