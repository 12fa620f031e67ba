//! Continuous environment models: deterministic, seed-derived timelines
//! of per-core speed trajectories.
//!
//! [`FaultPlan`](crate::FaultPlan) models asymmetry that changes at
//! discrete, precomputed instants. Real machines drift *continuously*:
//! DVFS governors walk frequency ladders in response to utilization,
//! silicon heats while busy and throttles past a cap, and co-tenant
//! virtual machines steal cycles in bursts. An [`EnvironmentPlan`]
//! captures such a regime as plain data — ladder shapes, thermal
//! constants, and a seed-derived burst schedule — and an
//! [`EnvironmentState`] evaluates it tick by tick against observed
//! per-core busyness, producing quantized duty-cycle targets.
//!
//! Determinism contract: the plan is a pure function of
//! `(seed, num_cores, profile)`, and the state's tick outputs are a pure
//! function of the plan, the base speeds, and the busy samples fed in.
//! Two identically seeded runs observing identical schedules therefore
//! see identical environments.
//!
//! The kernel owns *when* targets are applied (hysteresis and bounded-
//! rate re-ranking live there); this module owns *what* the environment
//! wants each core's speed to be at each tick.
//!
//! # Examples
//!
//! ```
//! use asym_sim::{EnvironmentPlan, EnvironmentProfile, SimDuration};
//!
//! let profile = EnvironmentProfile::co_tenant(SimDuration::from_secs(2));
//! let plan = EnvironmentPlan::generate(42, 4, &profile);
//! assert_eq!(plan, EnvironmentPlan::generate(42, 4, &profile)); // pure in the seed
//! assert!(!plan.is_static());
//! ```

use crate::machine::CoreId;
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use crate::work::{DutyCycle, Speed};
use std::fmt;

/// DVFS governor parameters: a stepwise duty-cycle ladder driven by
/// sampled utilization, one governor per core.
///
/// The governor idles *down*: after [`down_ticks`](Self::down_ticks)
/// consecutive idle samples the core descends one duty step (saving
/// power), down to at most [`floor_steps`](Self::floor_steps) below its
/// base duty; after [`up_ticks`](Self::up_ticks) consecutive busy
/// samples it climbs one step back toward base. A core that ramps down
/// and is then handed work runs *slow until the governor catches up* —
/// exactly the dynamic-asymmetry hazard the scheduler must track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DvfsParams {
    /// Consecutive busy ticks required before stepping one duty step up.
    pub up_ticks: u32,
    /// Consecutive idle ticks required before stepping one duty step
    /// down.
    pub down_ticks: u32,
    /// Maximum duty steps the governor may descend below the core's
    /// base duty.
    pub floor_steps: u8,
}

/// Thermal model parameters: integer heat accumulation while busy,
/// recovery while idle, and a throttle curve past the cap.
///
/// Heat is a per-core integer. Every busy tick adds
/// [`heat_per_busy_tick`](Self::heat_per_busy_tick); every idle tick
/// removes [`cool_per_idle_tick`](Self::cool_per_idle_tick) (floored at
/// zero). While heat exceeds [`throttle_at`](Self::throttle_at), the
/// core is throttled by one duty step per
/// [`steps_per_excess`](Self::steps_per_excess) units of excess heat —
/// a piecewise-linear throttle curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThermalParams {
    /// Heat units added per busy tick.
    pub heat_per_busy_tick: u32,
    /// Heat units removed per idle tick.
    pub cool_per_idle_tick: u32,
    /// Heat threshold above which throttling begins.
    pub throttle_at: u32,
    /// Excess heat units per duty step of throttle (must be nonzero).
    pub steps_per_excess: u32,
}

/// One co-tenant interference burst: while active, the victim core's
/// effective duty is dilated to `dilation` eighths of its undisturbed
/// value (a co-scheduled tenant stealing cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BurstRecord {
    /// When the burst begins.
    pub start: SimTime,
    /// When the burst ends (exclusive).
    pub end: SimTime,
    /// The core the co-tenant lands on.
    pub core: CoreId,
    /// Remaining share of the victim's duty while the burst is active.
    pub dilation: DutyCycle,
}

/// Errors from [`EnvironmentPlan::generate`] parameter validation —
/// the environment analogue of
/// [`MachineSpecError`](crate::MachineSpecError).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvironmentError {
    /// The profile's tick period was zero.
    ZeroTick,
    /// The machine has no cores to model.
    NoCores,
    /// The thermal throttle curve divides by `steps_per_excess = 0`.
    ZeroThrottleCurve,
}

impl fmt::Display for EnvironmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvironmentError::ZeroTick => write!(f, "environment tick period must be nonzero"),
            EnvironmentError::NoCores => write!(f, "environment needs at least one core"),
            EnvironmentError::ZeroThrottleCurve => {
                write!(f, "thermal steps_per_excess must be nonzero")
            }
        }
    }
}

impl std::error::Error for EnvironmentError {}

/// A deterministic dynamic-environment regime: tick period, optional
/// DVFS and thermal components, and a precomputed co-tenant burst
/// schedule.
///
/// Plans are plain data, derived once per run by
/// [`EnvironmentPlan::generate`] and evaluated by an
/// [`EnvironmentState`]. They compose freely with a
/// [`FaultPlan`](crate::FaultPlan): faults fire at their instants, the
/// environment re-targets at every tick, and both funnel through the
/// kernel's single mid-run speed-change path.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct EnvironmentPlan {
    /// Evaluation period: the kernel samples busyness and re-targets
    /// speeds once per tick.
    tick: SimDuration,
    /// DVFS governor, if the regime has one.
    dvfs: Option<DvfsParams>,
    /// Thermal model, if the regime has one.
    thermal: Option<ThermalParams>,
    /// Seed-derived co-tenant bursts, sorted by start time.
    bursts: Vec<BurstRecord>,
}

impl EnvironmentPlan {
    /// An empty plan: no components, never changes any speed.
    pub fn new() -> Self {
        EnvironmentPlan::default()
    }

    /// The evaluation tick period ([`SimDuration::ZERO`] for an empty
    /// plan, meaning "never tick").
    pub fn tick_period(&self) -> SimDuration {
        self.tick
    }

    /// `true` when the plan can never change a speed (no components).
    pub fn is_static(&self) -> bool {
        self.dvfs.is_none() && self.thermal.is_none() && self.bursts.is_empty()
    }

    /// The precomputed co-tenant bursts, sorted by start time.
    pub fn bursts(&self) -> &[BurstRecord] {
        &self.bursts
    }

    /// Derives a plan from `seed` for a machine with `num_cores` cores.
    ///
    /// The plan is a pure function of `(seed, num_cores, profile)`: the
    /// DVFS and thermal components copy the profile's parameters
    /// verbatim (their dynamics come from runtime busy feedback), and
    /// the co-tenant component draws `profile.bursts` bursts with
    /// seed-derived start time, duration, victim core, and dilation
    /// inside the horizon.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid; use
    /// [`EnvironmentPlan::try_generate`] for a fallible version.
    pub fn generate(seed: u64, num_cores: usize, profile: &EnvironmentProfile) -> EnvironmentPlan {
        EnvironmentPlan::try_generate(seed, num_cores, profile)
            .unwrap_or_else(|e| panic!("invalid environment profile: {e}"))
    }

    /// Fallible [`EnvironmentPlan::generate`]: validates the profile
    /// instead of panicking.
    pub fn try_generate(
        seed: u64,
        num_cores: usize,
        profile: &EnvironmentProfile,
    ) -> Result<EnvironmentPlan, EnvironmentError> {
        if num_cores == 0 {
            return Err(EnvironmentError::NoCores);
        }
        if profile.tick.is_zero() {
            return Err(EnvironmentError::ZeroTick);
        }
        if let Some(t) = &profile.thermal {
            if t.steps_per_excess == 0 {
                return Err(EnvironmentError::ZeroThrottleCurve);
            }
        }
        let mut rng = Rng::new(seed ^ 0xe271_e271_e271_e271);
        let horizon = profile.horizon.as_nanos().max(1);
        let mut bursts = Vec::with_capacity(profile.bursts as usize);
        for _ in 0..profile.bursts {
            let start = rng.below(horizon);
            // Bursts last between 1/64 and 1/8 of the horizon, clipped
            // to it, so several can overlap on different victims but
            // none outlives the window.
            let len = horizon / 64 + rng.below((horizon / 8).max(1));
            let end = (start + len.max(1)).min(horizon);
            let core = CoreId(rng.index(num_cores));
            // Dilation between 1/8 and 6/8 of the victim's duty: always
            // a real slowdown, never a full stop.
            let dilation = DutyCycle::new(rng.range(1, 7) as u8).expect("step in 1..=6");
            bursts.push(BurstRecord {
                start: SimTime::ZERO + SimDuration::from_nanos(start),
                end: SimTime::ZERO + SimDuration::from_nanos(end),
                core,
                dilation,
            });
        }
        bursts.sort_by_key(|b| (b.start, b.end, b.core.0));
        Ok(EnvironmentPlan {
            tick: profile.tick,
            dvfs: profile.dvfs,
            thermal: profile.thermal,
            bursts,
        })
    }
}

impl fmt::Display for EnvironmentPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.dvfs.is_some() {
            parts.push("dvfs".to_string());
        }
        if self.thermal.is_some() {
            parts.push("thermal".to_string());
        }
        if !self.bursts.is_empty() {
            parts.push(format!("{} co-tenant burst(s)", self.bursts.len()));
        }
        if parts.is_empty() {
            write!(f, "static environment")
        } else {
            write!(
                f,
                "dynamic environment ({}) tick {}",
                parts.join(" + "),
                self.tick
            )
        }
    }
}

/// Shape parameters for [`EnvironmentPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvironmentProfile {
    /// The window co-tenant bursts are drawn from, starting at time
    /// zero. DVFS and thermal dynamics keep running past it.
    pub horizon: SimDuration,
    /// Evaluation tick period.
    pub tick: SimDuration,
    /// DVFS governor component.
    pub dvfs: Option<DvfsParams>,
    /// Thermal component.
    pub thermal: Option<ThermalParams>,
    /// Number of co-tenant bursts to draw.
    pub bursts: u32,
}

/// The default evaluation tick: 500 µs — half the kernel's scheduling
/// quantum, so the environment re-targets faster than threads migrate.
pub const DEFAULT_ENV_TICK: SimDuration = SimDuration::from_micros(500);

impl EnvironmentProfile {
    /// A static profile over `horizon`: ticks but never changes a speed.
    pub fn quiet(horizon: SimDuration) -> Self {
        EnvironmentProfile {
            horizon,
            tick: DEFAULT_ENV_TICK,
            dvfs: None,
            thermal: None,
            bursts: 0,
        }
    }

    /// The DVFS regime: an ondemand-style governor that ramps each core
    /// down after ~2 ms idle and back up after ~1 ms busy, up to three
    /// duty steps below base.
    pub fn dvfs(horizon: SimDuration) -> Self {
        EnvironmentProfile {
            dvfs: Some(DvfsParams {
                up_ticks: 2,
                down_ticks: 4,
                floor_steps: 3,
            }),
            ..EnvironmentProfile::quiet(horizon)
        }
    }

    /// The thermal regime: sustained busy work overheats a core in
    /// ~8 ms, throttling deepens one duty step per 4 excess heat units,
    /// and idle cooling runs twice as fast as heating.
    pub fn thermal(horizon: SimDuration) -> Self {
        EnvironmentProfile {
            thermal: Some(ThermalParams {
                heat_per_busy_tick: 1,
                cool_per_idle_tick: 2,
                throttle_at: 16,
                steps_per_excess: 4,
            }),
            ..EnvironmentProfile::quiet(horizon)
        }
    }

    /// The co-tenant regime: six seed-derived interference bursts over
    /// the horizon, each dilating one victim core's duty.
    pub fn co_tenant(horizon: SimDuration) -> Self {
        EnvironmentProfile {
            bursts: 6,
            ..EnvironmentProfile::quiet(horizon)
        }
    }

    /// Every component at once — the chaos-soak regime.
    pub fn combined(horizon: SimDuration) -> Self {
        EnvironmentProfile {
            dvfs: EnvironmentProfile::dvfs(horizon).dvfs,
            thermal: EnvironmentProfile::thermal(horizon).thermal,
            bursts: EnvironmentProfile::co_tenant(horizon).bursts,
            ..EnvironmentProfile::quiet(horizon)
        }
    }

    /// Overrides the evaluation tick period.
    pub fn tick(mut self, tick: SimDuration) -> Self {
        self.tick = tick;
        self
    }
}

/// Per-core evaluator state for one component-composed plan.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CoreEnv {
    /// Base duty in eighths (quantized from the machine's configured
    /// speed), the ceiling every component works below.
    base_eighths: u8,
    /// Current DVFS descent below base, in duty steps.
    dvfs_down: u8,
    /// Consecutive busy ticks observed.
    busy_streak: u32,
    /// Consecutive idle ticks observed.
    idle_streak: u32,
    /// Accumulated heat units.
    heat: u32,
}

/// The deterministic tick-by-tick evaluator of an [`EnvironmentPlan`].
///
/// Constructed once per kernel from the plan and the machine's base
/// speeds; [`EnvironmentState::tick`] consumes one busy sample per core
/// and returns the quantized target speed of every core whose target
/// changed since the previous tick. Outputs are a pure function of the
/// inputs — no hidden clocks, no randomness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvironmentState {
    plan: EnvironmentPlan,
    cores: Vec<CoreEnv>,
    /// The last target emitted per core, in eighths, to suppress
    /// no-change outputs.
    last_eighths: Vec<u8>,
}

/// Quantizes a speed factor to duty eighths (1..=8), rounding to the
/// nearest step. `Speed` is in (0, 1], so the result is always a valid
/// [`DutyCycle`] step.
fn quantize_eighths(speed: Speed) -> u8 {
    let e = (speed.factor() * 8.0).round() as i64;
    e.clamp(1, 8) as u8
}

impl EnvironmentState {
    /// An evaluator over `plan` for a machine whose cores start at
    /// `base_speeds`.
    pub fn new(plan: EnvironmentPlan, base_speeds: &[Speed]) -> Self {
        let cores: Vec<CoreEnv> = base_speeds
            .iter()
            .map(|&s| CoreEnv {
                base_eighths: quantize_eighths(s),
                dvfs_down: 0,
                busy_streak: 0,
                idle_streak: 0,
                heat: 0,
            })
            .collect();
        let last_eighths = cores.iter().map(|c| c.base_eighths).collect();
        EnvironmentState {
            plan,
            cores,
            last_eighths,
        }
    }

    /// The plan under evaluation.
    pub fn plan(&self) -> &EnvironmentPlan {
        &self.plan
    }

    /// Advances one tick at simulated time `now` with one busy sample
    /// per core, returning `(core, target)` for every core whose
    /// quantized target differs from the previous tick's.
    ///
    /// # Panics
    ///
    /// Panics if `busy.len()` differs from the number of cores the
    /// evaluator was built with.
    pub fn tick(&mut self, now: SimTime, busy: &[bool]) -> Vec<(CoreId, Speed)> {
        assert_eq!(
            busy.len(),
            self.cores.len(),
            "one busy sample per core required"
        );
        let mut changes = Vec::new();
        for (i, core) in self.cores.iter_mut().enumerate() {
            if busy[i] {
                core.busy_streak += 1;
                core.idle_streak = 0;
            } else {
                core.idle_streak += 1;
                core.busy_streak = 0;
            }

            if let Some(d) = &self.plan.dvfs {
                if busy[i] && core.busy_streak >= d.up_ticks && core.dvfs_down > 0 {
                    core.dvfs_down -= 1;
                    core.busy_streak = 0;
                } else if !busy[i] && core.idle_streak >= d.down_ticks {
                    let floor = d.floor_steps.min(core.base_eighths - 1);
                    if core.dvfs_down < floor {
                        core.dvfs_down += 1;
                    }
                    core.idle_streak = 0;
                }
            }

            let mut thermal_steps = 0u32;
            if let Some(t) = &self.plan.thermal {
                if busy[i] {
                    core.heat = core.heat.saturating_add(t.heat_per_busy_tick);
                } else {
                    core.heat = core.heat.saturating_sub(t.cool_per_idle_tick);
                }
                if core.heat > t.throttle_at {
                    thermal_steps = (core.heat - t.throttle_at).div_ceil(t.steps_per_excess);
                }
            }

            let mut eighths = core
                .base_eighths
                .saturating_sub(core.dvfs_down)
                .saturating_sub(thermal_steps.min(7) as u8)
                .max(1);

            for b in &self.plan.bursts {
                if b.core.0 == i && b.start <= now && now < b.end {
                    // Dilate: remaining share of the current duty, in
                    // integer eighths, never below one step.
                    eighths =
                        ((u16::from(eighths) * u16::from(b.dilation.eighths())) / 8).max(1) as u8;
                }
            }

            if eighths != self.last_eighths[i] {
                self.last_eighths[i] = eighths;
                let duty = DutyCycle::new(eighths).expect("eighths clamped to 1..=8");
                changes.push((CoreId(i), Speed::from(duty)));
            }
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(n: usize) -> Vec<Speed> {
        vec![Speed::FULL; n]
    }

    #[test]
    fn generate_is_pure_in_the_seed() {
        let profile = EnvironmentProfile::combined(SimDuration::from_secs(2));
        let a = EnvironmentPlan::generate(7, 4, &profile);
        let b = EnvironmentPlan::generate(7, 4, &profile);
        assert_eq!(a, b);
        let c = EnvironmentPlan::generate(8, 4, &profile);
        assert_ne!(a, c);
    }

    #[test]
    fn validation_rejects_degenerate_profiles() {
        let horizon = SimDuration::from_secs(1);
        assert_eq!(
            EnvironmentPlan::try_generate(0, 0, &EnvironmentProfile::quiet(horizon)),
            Err(EnvironmentError::NoCores)
        );
        let zero_tick = EnvironmentProfile::quiet(horizon).tick(SimDuration::from_nanos(0));
        assert_eq!(
            EnvironmentPlan::try_generate(0, 2, &zero_tick),
            Err(EnvironmentError::ZeroTick)
        );
        let mut bad_thermal = EnvironmentProfile::thermal(horizon);
        bad_thermal.thermal.as_mut().unwrap().steps_per_excess = 0;
        assert_eq!(
            EnvironmentPlan::try_generate(0, 2, &bad_thermal),
            Err(EnvironmentError::ZeroThrottleCurve)
        );
        assert!(format!("{}", EnvironmentError::ZeroTick).contains("tick"));
    }

    #[test]
    fn bursts_stay_inside_the_horizon_and_name_real_cores() {
        let horizon = SimDuration::from_secs(2);
        let end = SimTime::ZERO + horizon;
        for seed in 0..64u64 {
            let plan = EnvironmentPlan::generate(seed, 3, &EnvironmentProfile::co_tenant(horizon));
            for b in plan.bursts() {
                assert!(b.start < b.end, "seed {seed}: empty burst");
                assert!(b.end <= end, "seed {seed}: burst outlives horizon");
                assert!(b.core.0 < 3, "seed {seed}: out-of-range victim");
                assert!(b.dilation.eighths() < 8, "seed {seed}: no-op dilation");
            }
            assert!(plan.bursts().windows(2).all(|w| w[0].start <= w[1].start));
        }
    }

    #[test]
    fn quiet_plans_are_static_and_emit_nothing() {
        let plan =
            EnvironmentPlan::generate(1, 2, &EnvironmentProfile::quiet(SimDuration::from_secs(1)));
        assert!(plan.is_static());
        let mut state = EnvironmentState::new(plan, &base(2));
        for i in 0..100 {
            let now = SimTime::ZERO + DEFAULT_ENV_TICK * i;
            assert!(state.tick(now, &[i % 2 == 0, true]).is_empty());
        }
    }

    #[test]
    fn dvfs_ramps_down_when_idle_and_back_up_when_busy() {
        let profile = EnvironmentProfile::dvfs(SimDuration::from_secs(1));
        let plan = EnvironmentPlan::generate(0, 1, &profile);
        let mut state = EnvironmentState::new(plan, &base(1));
        let mut t = SimTime::ZERO;
        let mut step = || {
            t += DEFAULT_ENV_TICK;
            t
        };
        // Four idle ticks -> one step down (7/8).
        let mut last = None;
        for _ in 0..4 {
            let now = step();
            for c in state.tick(now, &[false]) {
                last = Some(c);
            }
        }
        let (core, speed) = last.expect("governor stepped down");
        assert_eq!(core, CoreId(0));
        assert_eq!(quantize_eighths(speed), 7);
        // Sustained idle bottoms out at the floor (8 - 3 = 5/8).
        for _ in 0..40 {
            let now = step();
            for c in state.tick(now, &[false]) {
                last = Some(c);
            }
        }
        assert_eq!(quantize_eighths(last.unwrap().1), 5);
        // Busy ticks climb back to full.
        for _ in 0..40 {
            let now = step();
            for c in state.tick(now, &[true]) {
                last = Some(c);
            }
        }
        assert_eq!(quantize_eighths(last.unwrap().1), 8);
    }

    #[test]
    fn thermal_throttles_past_the_cap_and_recovers_when_idle() {
        let profile = EnvironmentProfile::thermal(SimDuration::from_secs(1));
        let plan = EnvironmentPlan::generate(0, 1, &profile);
        let mut state = EnvironmentState::new(plan, &base(1));
        let mut t = SimTime::ZERO;
        let mut last = None;
        // 17 busy ticks: heat 17 > 16 -> first throttle step.
        for _ in 0..17 {
            t += DEFAULT_ENV_TICK;
            for c in state.tick(t, &[true]) {
                last = Some(c);
            }
        }
        assert_eq!(quantize_eighths(last.expect("throttled").1), 7);
        // Deeper heat -> deeper throttle (heat 21, excess 5 -> 2 steps).
        for _ in 0..4 {
            t += DEFAULT_ENV_TICK;
            for c in state.tick(t, &[true]) {
                last = Some(c);
            }
        }
        assert_eq!(quantize_eighths(last.unwrap().1), 6);
        // Idle cooling restores full speed.
        for _ in 0..20 {
            t += DEFAULT_ENV_TICK;
            for c in state.tick(t, &[false]) {
                last = Some(c);
            }
        }
        assert_eq!(quantize_eighths(last.unwrap().1), 8);
    }

    #[test]
    fn co_tenant_bursts_dilate_only_their_window_and_victim() {
        let horizon = SimDuration::from_secs(1);
        let plan = EnvironmentPlan::generate(11, 2, &EnvironmentProfile::co_tenant(horizon));
        let bursts = plan.bursts().to_vec();
        assert!(!bursts.is_empty());
        let b = bursts[0];
        let mut state = EnvironmentState::new(plan, &base(2));
        // Inside the burst window the victim is dilated...
        let inside = state.tick(b.start, &[false, false]);
        assert!(inside.iter().any(|(c, s)| *c == b.core && !s.is_full()));
        // ...and after every burst ends, a late tick restores base.
        let after_all = bursts.iter().map(|b| b.end).max().unwrap();
        let restored = state.tick(after_all, &[false, false]);
        assert!(restored.iter().all(|(_, s)| s.is_full()));
    }

    #[test]
    fn evaluation_is_a_pure_function_of_plan_and_samples() {
        let profile = EnvironmentProfile::combined(SimDuration::from_secs(1));
        let run = || {
            let plan = EnvironmentPlan::generate(3, 4, &profile);
            let mut state = EnvironmentState::new(plan, &base(4));
            let mut out = Vec::new();
            for i in 0..200u64 {
                let now = SimTime::ZERO + DEFAULT_ENV_TICK * i;
                let busy: Vec<bool> = (0..4).map(|c| (i + c) % 3 != 0).collect();
                out.extend(state.tick(now, &busy));
            }
            out
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.is_empty());
    }

    #[test]
    fn targets_quantize_to_duty_steps_and_respect_base() {
        // A slow core at 1/8 duty can never be pushed below one eighth.
        let profile = EnvironmentProfile::combined(SimDuration::from_secs(1));
        let plan = EnvironmentPlan::generate(5, 2, &profile);
        let slow = Speed::fraction_of_full(8);
        let mut state = EnvironmentState::new(plan, &[Speed::FULL, slow]);
        for i in 0..300u64 {
            let now = SimTime::ZERO + DEFAULT_ENV_TICK * i;
            for (core, speed) in state.tick(now, &[true, false]) {
                let e = quantize_eighths(speed);
                assert!((1..=8).contains(&e));
                if core == CoreId(1) {
                    assert!(e <= 1, "slow core can only stay at its base step");
                }
            }
        }
    }
}
