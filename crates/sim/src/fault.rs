//! Deterministic fault plans: seed-derived schedules of dynamic-asymmetry
//! events injected into a run.
//!
//! The paper emulates asymmetry *statically* — each Xeon is modulated to a
//! duty cycle before the benchmark starts. Real deployments are dynamic:
//! thermal throttling and DVFS re-modulate cores mid-run, and hotplug
//! takes cores away entirely. A [`FaultPlan`] captures such a schedule as
//! plain data so the kernel can replay it deterministically: the same seed
//! and profile always produce the same plan, and a plan injected into two
//! identically seeded runs yields identical traces.
//!
//! # Examples
//!
//! ```
//! use asym_sim::{FaultPlan, FaultProfile, SimDuration};
//!
//! let profile = FaultProfile::hotplug_and_throttle(SimDuration::from_secs(2));
//! let plan = FaultPlan::generate(42, 4, &profile);
//! assert_eq!(plan, FaultPlan::generate(42, 4, &profile)); // pure in the seed
//! assert!(!plan.is_empty());
//! ```

use crate::machine::CoreId;
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use crate::work::{DutyCycle, Speed};
use std::fmt;

/// One kind of mid-run fault the kernel can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Re-modulate `core` to `speed` — thermal throttling / DVFS. Work
    /// already running on the core is re-sliced at the new rate.
    SetSpeed {
        /// The core whose duty cycle changes.
        core: CoreId,
        /// The new execution rate.
        speed: Speed,
    },
    /// Take `core` offline (hotplug remove). Running and queued threads
    /// migrate to the remaining online cores. The kernel never offlines
    /// its last online core.
    CoreOffline {
        /// The core to take offline.
        core: CoreId,
    },
    /// Bring `core` back online (hotplug add).
    CoreOnline {
        /// The core to bring back.
        core: CoreId,
    },
    /// Kill one live thread, chosen deterministically as `victim` modulo
    /// the number of live threads at injection time.
    KillThread {
        /// Selector reduced modulo the live-thread count.
        victim: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::SetSpeed { core, speed } => write!(f, "set-speed {core} -> {speed}"),
            FaultKind::CoreOffline { core } => write!(f, "offline {core}"),
            FaultKind::CoreOnline { core } => write!(f, "online {core}"),
            FaultKind::KillThread { victim } => write!(f, "kill-thread #{victim}"),
        }
    }
}

/// A fault with its injection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultRecord {
    /// Simulated time at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Errors from [`FaultPlan::try_generate`] and [`FaultPlan::validate`] —
/// the fault-plan analogue of
/// [`MachineSpecError`](crate::MachineSpecError). The kernel degrades
/// gracefully at injection time regardless; this surfaces bad plans to
/// the caller instead of silently skipping records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// The machine has no cores to fault.
    NoCores,
    /// The profile's horizon was zero: no window to draw times from.
    ZeroHorizon,
    /// A record names a core the machine does not have.
    CoreOutOfRange {
        /// The offending core index.
        core: usize,
        /// The machine's core count.
        num_cores: usize,
    },
    /// A record fires past the plan's horizon.
    PastHorizon {
        /// The offending injection time.
        at: SimTime,
    },
    /// Replaying the plan's hotplug records would take the last online
    /// core offline at `at`.
    OfflinesLastCore {
        /// When the machine would go dark.
        at: SimTime,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::NoCores => write!(f, "fault plan needs at least one core"),
            FaultPlanError::ZeroHorizon => write!(f, "fault profile horizon must be nonzero"),
            FaultPlanError::CoreOutOfRange { core, num_cores } => {
                write!(f, "fault names core {core} on a {num_cores}-core machine")
            }
            FaultPlanError::PastHorizon { at } => {
                write!(f, "fault at {at} fires past the horizon")
            }
            FaultPlanError::OfflinesLastCore { at } => {
                write!(f, "hotplug at {at} would offline the last online core")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic schedule of faults, sorted by injection time.
///
/// Plans are plain data: build one by hand with [`FaultPlan::inject`], or
/// derive one from a seed with [`FaultPlan::generate`]. The kernel applies
/// every record at its timestamp during `run`/`run_until`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    records: Vec<FaultRecord>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at `at`, keeping the plan sorted by time. Faults at
    /// equal times keep their insertion order.
    pub fn inject(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        let pos = self.records.partition_point(|r| r.at <= at);
        self.records.insert(pos, FaultRecord { at, kind });
        self
    }

    /// The scheduled faults in time order.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Returns `true` when the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The number of scheduled faults.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Derives a plan from `seed` for a machine with `num_cores` cores.
    ///
    /// The plan is a pure function of `(seed, num_cores, profile)`:
    /// throttle events re-modulate random cores to random duty-cycle
    /// steps at random times inside the horizon, and hotplug cycles are
    /// laid out in disjoint time slots so at most one core is offline at
    /// any instant (machines with a single core get no hotplug). Thread
    /// kills, if requested, land in the middle half of the horizon.
    ///
    /// # Panics
    ///
    /// Panics on degenerate inputs (zero cores, zero horizon); use
    /// [`FaultPlan::try_generate`] for a fallible version.
    pub fn generate(seed: u64, num_cores: usize, profile: &FaultProfile) -> FaultPlan {
        FaultPlan::try_generate(seed, num_cores, profile)
            .unwrap_or_else(|e| panic!("invalid fault plan request: {e}"))
    }

    /// Fallible [`FaultPlan::generate`]: validates the request, clamps
    /// every drawn time to the horizon, and checks the finished plan
    /// with [`FaultPlan::validate`] instead of silently skipping bad
    /// records.
    pub fn try_generate(
        seed: u64,
        num_cores: usize,
        profile: &FaultProfile,
    ) -> Result<FaultPlan, FaultPlanError> {
        if num_cores == 0 {
            return Err(FaultPlanError::NoCores);
        }
        if profile.horizon.is_zero()
            && (profile.throttle_events > 0
                || profile.hotplug_cycles > 0
                || profile.thread_kills > 0)
        {
            return Err(FaultPlanError::ZeroHorizon);
        }
        let mut rng = Rng::new(seed ^ 0xfa17_fa17_fa17_fa17);
        let mut plan = FaultPlan::new();
        let horizon = profile.horizon.as_nanos().max(1);
        // Every drawn time is clamped into [0, horizon): the draws below
        // already satisfy this by construction, so the clamp is a
        // defensive invariant, not a behavior change.
        let clamp = |nanos: u64| nanos.min(horizon - 1);

        for _ in 0..profile.throttle_events {
            let at = SimTime::ZERO + SimDuration::from_nanos(clamp(rng.below(horizon)));
            let core = CoreId(rng.index(num_cores));
            let step = DutyCycle::new(rng.range(1, 9) as u8).expect("step in 1..=8");
            plan.inject(
                at,
                FaultKind::SetSpeed {
                    core,
                    speed: Speed::from(step),
                },
            );
        }

        if num_cores > 1 && profile.hotplug_cycles > 0 {
            // Disjoint slots: slot k covers [k, k+1) / cycles of the
            // horizon; the core goes down in the first half of its slot
            // and comes back in the second, so outages never overlap.
            let cycles = profile.hotplug_cycles as u64;
            let slot = horizon / cycles;
            for k in 0..cycles {
                let base = k * slot;
                let down = base + rng.below((slot / 2).max(1));
                let up = base + slot / 2 + rng.below((slot / 2).max(1));
                let core = CoreId(rng.index(num_cores));
                plan.inject(
                    SimTime::ZERO + SimDuration::from_nanos(clamp(down)),
                    FaultKind::CoreOffline { core },
                );
                plan.inject(
                    SimTime::ZERO + SimDuration::from_nanos(clamp(up)),
                    FaultKind::CoreOnline { core },
                );
            }
        }

        for _ in 0..profile.thread_kills {
            let at = SimTime::ZERO
                + SimDuration::from_nanos(clamp(horizon / 4 + rng.below(horizon / 2)));
            plan.inject(
                at,
                FaultKind::KillThread {
                    victim: rng.next_u64(),
                },
            );
        }

        plan.validate(num_cores, profile.horizon)?;
        Ok(plan)
    }

    /// Checks the plan against a `num_cores`-core machine and an
    /// injection `horizon`: every record must fire inside the horizon,
    /// every hotplug/throttle record must name a real core, and
    /// replaying the hotplug records (under the kernel's refuse-to-
    /// offline-the-last-core rule) must never need that refusal — i.e.
    /// the plan as written never offlines the last online core.
    ///
    /// Hand-built plans (via [`FaultPlan::inject`]) are not validated on
    /// construction; run this before trusting one.
    pub fn validate(&self, num_cores: usize, horizon: SimDuration) -> Result<(), FaultPlanError> {
        if num_cores == 0 {
            return Err(FaultPlanError::NoCores);
        }
        let end = SimTime::ZERO + horizon;
        let mut online = vec![true; num_cores];
        for r in &self.records {
            if r.at >= end {
                return Err(FaultPlanError::PastHorizon { at: r.at });
            }
            match r.kind {
                FaultKind::SetSpeed { core, .. } if core.0 >= num_cores => {
                    return Err(FaultPlanError::CoreOutOfRange {
                        core: core.0,
                        num_cores,
                    });
                }
                FaultKind::CoreOffline { core } | FaultKind::CoreOnline { core }
                    if core.0 >= num_cores =>
                {
                    return Err(FaultPlanError::CoreOutOfRange {
                        core: core.0,
                        num_cores,
                    });
                }
                FaultKind::CoreOffline { core } => {
                    if online[core.0] && online.iter().filter(|&&o| o).count() == 1 {
                        return Err(FaultPlanError::OfflinesLastCore { at: r.at });
                    }
                    online[core.0] = false;
                }
                FaultKind::CoreOnline { core } => online[core.0] = true,
                _ => {}
            }
        }
        Ok(())
    }

    /// A copy of the plan with every [`FaultKind::KillThread`] record
    /// removed — the first rung of the resilient harness's softening
    /// ladder when a run stalls under faults.
    pub fn without_kills(&self) -> FaultPlan {
        FaultPlan {
            records: self
                .records
                .iter()
                .filter(|r| !matches!(r.kind, FaultKind::KillThread { .. }))
                .copied()
                .collect(),
        }
    }

    /// A copy of the plan with every hotplug record
    /// ([`FaultKind::CoreOffline`] / [`FaultKind::CoreOnline`]) removed,
    /// leaving only throttles and kills — the second softening rung.
    pub fn without_hotplug(&self) -> FaultPlan {
        FaultPlan {
            records: self
                .records
                .iter()
                .filter(|r| {
                    !matches!(
                        r.kind,
                        FaultKind::CoreOffline { .. } | FaultKind::CoreOnline { .. }
                    )
                })
                .copied()
                .collect(),
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} faults", self.records.len())?;
        for r in &self.records {
            write!(f, "; {} {}", r.at, r.kind)?;
        }
        Ok(())
    }
}

/// Shape parameters for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultProfile {
    /// The window faults are drawn from, starting at time zero. Faults
    /// scheduled past the end of the actual run simply never fire.
    pub horizon: SimDuration,
    /// How many random [`FaultKind::SetSpeed`] events to draw.
    pub throttle_events: u32,
    /// How many offline→online hotplug cycles to lay out.
    pub hotplug_cycles: u32,
    /// How many [`FaultKind::KillThread`] faults to draw.
    pub thread_kills: u32,
}

impl FaultProfile {
    /// A profile with no faults at all over `horizon`.
    pub fn quiet(horizon: SimDuration) -> Self {
        FaultProfile {
            horizon,
            throttle_events: 0,
            hotplug_cycles: 0,
            thread_kills: 0,
        }
    }

    /// The standard sweep profile: a few throttle events plus one hotplug
    /// cycle over `horizon`, no thread kills (workloads are expected to
    /// finish, just degraded).
    pub fn hotplug_and_throttle(horizon: SimDuration) -> Self {
        FaultProfile {
            horizon,
            throttle_events: 4,
            hotplug_cycles: 1,
            thread_kills: 0,
        }
    }

    /// The hostile sweep profile: the standard throttle/hotplug mix plus
    /// `kills` thread kills landing in the middle half of `horizon`.
    /// Workloads must survive losing workers (reporting them as lost)
    /// rather than assert all-done completion.
    pub fn with_kills(horizon: SimDuration, kills: u32) -> Self {
        FaultProfile {
            thread_kills: kills,
            ..FaultProfile::hotplug_and_throttle(horizon)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_pure_in_the_seed() {
        let profile = FaultProfile::hotplug_and_throttle(SimDuration::from_secs(1));
        let a = FaultPlan::generate(7, 4, &profile);
        let b = FaultPlan::generate(7, 4, &profile);
        assert_eq!(a, b);
        let c = FaultPlan::generate(8, 4, &profile);
        assert_ne!(a, c);
    }

    #[test]
    fn records_are_time_sorted() {
        let profile = FaultProfile {
            horizon: SimDuration::from_secs(1),
            throttle_events: 16,
            hotplug_cycles: 3,
            thread_kills: 2,
        };
        let plan = FaultPlan::generate(99, 8, &profile);
        assert_eq!(plan.len(), 16 + 2 * 3 + 2);
        assert!(plan.records().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn hotplug_outages_never_overlap() {
        let profile = FaultProfile {
            horizon: SimDuration::from_secs(4),
            throttle_events: 0,
            hotplug_cycles: 4,
            thread_kills: 0,
        };
        for seed in 0..32 {
            let plan = FaultPlan::generate(seed, 4, &profile);
            let mut down = 0u32;
            for r in plan.records() {
                match r.kind {
                    FaultKind::CoreOffline { .. } => {
                        down += 1;
                        assert!(down <= 1, "seed {seed}: overlapping outages");
                    }
                    FaultKind::CoreOnline { .. } => down -= 1,
                    _ => {}
                }
            }
            assert_eq!(down, 0);
        }
    }

    #[test]
    fn single_core_machines_get_no_hotplug() {
        let profile = FaultProfile::hotplug_and_throttle(SimDuration::from_secs(1));
        let plan = FaultPlan::generate(3, 1, &profile);
        assert!(plan.records().iter().all(|r| !matches!(
            r.kind,
            FaultKind::CoreOffline { .. } | FaultKind::CoreOnline { .. }
        )));
    }

    /// Replays a plan's hotplug records and returns the minimum number of
    /// online cores ever reachable, assuming the kernel's rule of
    /// refusing to offline the last online core.
    fn min_online_during(plan: &FaultPlan, num_cores: usize) -> usize {
        let mut online = vec![true; num_cores];
        let mut min_online = num_cores;
        for r in plan.records() {
            match r.kind {
                FaultKind::CoreOffline { core } => {
                    let up = online.iter().filter(|&&o| o).count();
                    if up > 1 && core.0 < num_cores {
                        online[core.0] = false;
                    }
                }
                FaultKind::CoreOnline { core } if core.0 < num_cores => {
                    online[core.0] = true;
                }
                _ => {}
            }
            min_online = min_online.min(online.iter().filter(|&&o| o).count());
        }
        min_online
    }

    /// Hand-rolled property sweep (no proptest in this offline workspace):
    /// across many seeds, machine sizes, and a hostile profile, generated
    /// plans are time-ordered, never leave the machine with zero online
    /// cores, and regenerate bit-identically from the same seed.
    #[test]
    fn generated_plans_hold_invariants_across_seeds() {
        let profile = FaultProfile {
            horizon: SimDuration::from_secs(2),
            throttle_events: 6,
            hotplug_cycles: 3,
            thread_kills: 2,
        };
        for seed in 0..128u64 {
            for num_cores in [1usize, 2, 4, 8] {
                let plan = FaultPlan::generate(seed, num_cores, &profile);
                assert!(
                    plan.records().windows(2).all(|w| w[0].at <= w[1].at),
                    "seed {seed}, {num_cores} cores: records out of time order"
                );
                assert!(
                    min_online_during(&plan, num_cores) >= 1,
                    "seed {seed}, {num_cores} cores: plan can offline the last core"
                );
                // Offline records only ever name in-range cores, so the
                // last-core rule above is the only thing keeping a core up.
                for r in plan.records() {
                    if let FaultKind::CoreOffline { core } | FaultKind::CoreOnline { core } = r.kind
                    {
                        assert!(core.0 < num_cores, "seed {seed}: out-of-range hotplug");
                    }
                }
                let again = FaultPlan::generate(seed, num_cores, &profile);
                assert_eq!(
                    plan, again,
                    "seed {seed}, {num_cores} cores: regeneration not bit-identical"
                );
            }
        }
    }

    #[test]
    fn softening_strips_only_the_targeted_faults() {
        let profile = FaultProfile::with_kills(SimDuration::from_secs(2), 3);
        for seed in 0..32u64 {
            let plan = FaultPlan::generate(seed, 4, &profile);
            let no_kills = plan.without_kills();
            assert!(no_kills
                .records()
                .iter()
                .all(|r| !matches!(r.kind, FaultKind::KillThread { .. })));
            assert_eq!(
                no_kills.len(),
                plan.len() - 3,
                "seed {seed}: exactly the kills are removed"
            );
            let no_hotplug = no_kills.without_hotplug();
            assert!(no_hotplug.records().iter().all(|r| !matches!(
                r.kind,
                FaultKind::CoreOffline { .. } | FaultKind::CoreOnline { .. }
            )));
            assert!(no_hotplug.records().windows(2).all(|w| w[0].at <= w[1].at));
        }
    }

    #[test]
    fn with_kills_extends_the_standard_profile() {
        let horizon = SimDuration::from_secs(1);
        let hostile = FaultProfile::with_kills(horizon, 2);
        let standard = FaultProfile::hotplug_and_throttle(horizon);
        assert_eq!(hostile.throttle_events, standard.throttle_events);
        assert_eq!(hostile.hotplug_cycles, standard.hotplug_cycles);
        assert_eq!(hostile.thread_kills, 2);
    }

    #[test]
    fn try_generate_rejects_degenerate_requests() {
        let profile = FaultProfile::hotplug_and_throttle(SimDuration::from_secs(1));
        assert_eq!(
            FaultPlan::try_generate(0, 0, &profile),
            Err(FaultPlanError::NoCores)
        );
        let zero = FaultProfile::hotplug_and_throttle(SimDuration::from_nanos(0));
        assert_eq!(
            FaultPlan::try_generate(0, 4, &zero),
            Err(FaultPlanError::ZeroHorizon)
        );
        // A zero-horizon *quiet* profile is a valid empty plan.
        assert_eq!(
            FaultPlan::try_generate(0, 4, &FaultProfile::quiet(SimDuration::from_nanos(0))),
            Ok(FaultPlan::new())
        );
    }

    #[test]
    fn generated_plans_validate_clean_across_seeds() {
        let profile = FaultProfile::with_kills(SimDuration::from_secs(2), 2);
        for seed in 0..64u64 {
            for num_cores in [1usize, 2, 4, 8] {
                let plan = FaultPlan::generate(seed, num_cores, &profile);
                assert_eq!(
                    plan.validate(num_cores, profile.horizon),
                    Ok(()),
                    "seed {seed}, {num_cores} cores"
                );
                assert_eq!(
                    FaultPlan::try_generate(seed, num_cores, &profile).as_ref(),
                    Ok(&plan)
                );
            }
        }
    }

    #[test]
    fn validate_reports_typed_errors_for_bad_hand_built_plans() {
        let horizon = SimDuration::from_millis(10);
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);

        let mut late = FaultPlan::new();
        late.inject(t(20), FaultKind::KillThread { victim: 0 });
        assert_eq!(
            late.validate(4, horizon),
            Err(FaultPlanError::PastHorizon { at: t(20) })
        );

        let mut wild = FaultPlan::new();
        wild.inject(
            t(1),
            FaultKind::SetSpeed {
                core: CoreId(9),
                speed: Speed::FULL,
            },
        );
        assert_eq!(
            wild.validate(4, horizon),
            Err(FaultPlanError::CoreOutOfRange {
                core: 9,
                num_cores: 4
            })
        );

        // Offlining both cores of a two-core machine goes dark at the
        // second record.
        let mut dark = FaultPlan::new();
        dark.inject(t(1), FaultKind::CoreOffline { core: CoreId(0) });
        dark.inject(t(2), FaultKind::CoreOffline { core: CoreId(1) });
        assert_eq!(
            dark.validate(2, horizon),
            Err(FaultPlanError::OfflinesLastCore { at: t(2) })
        );
        // Bringing the first back in between makes the same records legal.
        let mut ok = FaultPlan::new();
        ok.inject(t(1), FaultKind::CoreOffline { core: CoreId(0) });
        ok.inject(t(2), FaultKind::CoreOnline { core: CoreId(0) });
        ok.inject(t(3), FaultKind::CoreOffline { core: CoreId(1) });
        assert_eq!(ok.validate(2, horizon), Ok(()));
        assert!(format!("{}", FaultPlanError::OfflinesLastCore { at: t(2) }).contains("last"));
    }

    #[test]
    fn inject_keeps_time_order() {
        let mut plan = FaultPlan::new();
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        plan.inject(t(5), FaultKind::KillThread { victim: 0 });
        plan.inject(t(1), FaultKind::CoreOffline { core: CoreId(0) });
        plan.inject(t(3), FaultKind::CoreOnline { core: CoreId(0) });
        let times: Vec<_> = plan.records().iter().map(|r| r.at).collect();
        assert_eq!(times, vec![t(1), t(3), t(5)]);
    }
}
