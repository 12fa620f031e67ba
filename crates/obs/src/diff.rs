//! Differential profiling: attributing the wall-time delta between two
//! runs of the *same* (workload, config, seed, fault/env plan) under
//! different scheduling policies.
//!
//! The paper's sweeps report scalar deltas (absorption, stability);
//! this module answers *where* a stock run loses time relative to the
//! asymmetry-aware run on the identical seed. Two layers:
//!
//! * [`ProfileDiff`] — the rich per-run view built from two
//!   [`RunProfile`] sets: an exact machine-time partition (fast-core
//!   busy, slow-core busy, fast-idle-while-slow-runnable, other idle,
//!   offline — five buckets whose sum is identically `wall_delta ×
//!   cores`), demand-side wait deltas, and a per-thread table. Its
//!   `Display` is the deterministic text report of `asym_sweep --diff`.
//! * [`DiffAttribution`] — the compact integer summary derived from two
//!   merged [`ProfileMetrics`] records, embedded per differential cell
//!   in `BENCH_sweep.json`.
//!
//! All quantities are signed integer nanoseconds (A − B), so reports
//! and JSON are byte-deterministic and the bucket identities are exact
//! — no epsilon anywhere.

use crate::profile::{ProfileMetrics, RunProfile};
use std::fmt;

/// Why two runs could not be aligned for a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffError {
    /// The runs spawned different numbers of kernels.
    KernelCountMismatch {
        /// Kernels in run A.
        a: usize,
        /// Kernels in run B.
        b: usize,
    },
    /// Some kernel pair ran on machines with different core counts.
    CoreCountMismatch {
        /// The kernel index that differed.
        kernel: usize,
        /// Cores in run A's kernel.
        a: usize,
        /// Cores in run B's kernel.
        b: usize,
    },
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DiffError::KernelCountMismatch { a, b } => {
                write!(f, "cannot diff runs with {a} vs {b} kernels")
            }
            DiffError::CoreCountMismatch { kernel, a, b } => {
                write!(f, "kernel {kernel} ran on {a} vs {b} cores")
            }
        }
    }
}

impl std::error::Error for DiffError {}

/// The compact integer attribution record for one differential cell:
/// every field is `A − B` (conventionally stock − aware, so positive
/// numbers are time the baseline lost). Derived from two merged
/// [`ProfileMetrics`] records, embedded as the `"diff"` object in
/// `BENCH_sweep.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffAttribution {
    /// Simulated wall-time delta, ns (summed across kernels).
    pub wall_delta_ns: i64,
    /// Core-busy time delta, core-ns.
    pub busy_delta_ns: i64,
    /// Online-idle time delta, core-ns.
    pub idle_delta_ns: i64,
    /// Offline time delta, core-ns.
    pub offline_delta_ns: i64,
    /// Fast-idle-while-slow-runnable delta, ns (§3.1.1 inefficiency).
    pub fast_idle_delta_ns: i64,
    /// Migration count delta.
    pub migrations_delta: i64,
    /// Migration-induced wait delta, ns.
    pub migration_wait_delta_ns: i64,
    /// Sync-object blocked-time delta, ns.
    pub sync_wait_delta_ns: i64,
    /// Total scheduler-latency (runnable → dispatched) delta, ns.
    pub sched_wait_delta_ns: i64,
    /// Scheduler-latency p99 upper-bound delta, ns.
    pub sched_p99_delta_ns: i64,
    /// Tracking-lag delta, ns.
    pub tracking_lag_delta_ns: i64,
}

/// `a − b` as i64, saturating at the i64 range edges.
fn delta(a: u64, b: u64) -> i64 {
    let d = a as i128 - b as i128;
    d.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

impl DiffAttribution {
    /// The attribution of `a` (baseline, e.g. stock) against `b`
    /// (comparison, e.g. asymmetry-aware): every field is `a − b`.
    pub fn from_metrics(a: &ProfileMetrics, b: &ProfileMetrics) -> Self {
        let p99 = |m: &ProfileMetrics| m.sched_latency.p99().map_or(0, |p| p.high);
        DiffAttribution {
            wall_delta_ns: delta(a.sim_ns, b.sim_ns),
            busy_delta_ns: delta(a.busy_ns, b.busy_ns),
            idle_delta_ns: delta(a.idle_ns, b.idle_ns),
            offline_delta_ns: delta(a.offline_ns, b.offline_ns),
            fast_idle_delta_ns: delta(a.fast_idle_slow_runnable_ns, b.fast_idle_slow_runnable_ns),
            migrations_delta: delta(a.migrations, b.migrations),
            migration_wait_delta_ns: delta(a.migration_wait_ns, b.migration_wait_ns),
            sync_wait_delta_ns: delta(a.sync_wait_ns, b.sync_wait_ns),
            sched_wait_delta_ns: delta(
                a.sched_latency.total_nanos(),
                b.sched_latency.total_nanos(),
            ),
            sched_p99_delta_ns: delta(p99(a), p99(b)),
            tracking_lag_delta_ns: delta(a.tracking_lag_ns, b.tracking_lag_ns),
        }
    }

    /// The `"diff"` JSON object for `BENCH_sweep.json` — all integer
    /// values, fixed key order, byte-deterministic.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"wall_delta_ns\":{},\"busy_delta_ns\":{},\"idle_delta_ns\":{},\
             \"offline_delta_ns\":{},\"fast_idle_delta_ns\":{},\"migrations_delta\":{},\
             \"migration_wait_delta_ns\":{},\"sync_wait_delta_ns\":{},\
             \"sched_wait_delta_ns\":{},\"sched_p99_delta_ns\":{},\"tracking_lag_delta_ns\":{}}}",
            self.wall_delta_ns,
            self.busy_delta_ns,
            self.idle_delta_ns,
            self.offline_delta_ns,
            self.fast_idle_delta_ns,
            self.migrations_delta,
            self.migration_wait_delta_ns,
            self.sync_wait_delta_ns,
            self.sched_wait_delta_ns,
            self.sched_p99_delta_ns,
            self.tracking_lag_delta_ns,
        )
    }
}

/// One thread's wait/residency deltas (A − B), ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadDelta {
    /// Thread index (aligned by tid — spawn order is deterministic for
    /// equal seeds, so tids correspond across the two runs).
    pub tid: usize,
    /// Fast-core residency delta.
    pub running_fast: i64,
    /// Slow-core residency delta.
    pub running_slow: i64,
    /// Runnable (queued) time delta.
    pub runnable: i64,
    /// Blocked-on-sync time delta.
    pub blocked: i64,
}

impl ThreadDelta {
    /// The magnitude used to rank threads in the report.
    fn weight(&self) -> i64 {
        self.running_slow
            .abs()
            .saturating_add(self.runnable.abs())
            .saturating_add(self.blocked.abs())
    }

    fn is_zero(&self) -> bool {
        self.running_fast == 0 && self.running_slow == 0 && self.runnable == 0 && self.blocked == 0
    }
}

/// The full differential view of two aligned runs. Build with
/// [`ProfileDiff::new`]; render with `Display` (the deterministic text
/// report `asym_sweep --diff` prints and CI byte-compares).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    /// Label of run A (the baseline, e.g. `stock`).
    pub label_a: String,
    /// Label of run B (the comparison, e.g. `asym-aware`).
    pub label_b: String,
    /// Total simulated wall time of run A, ns (summed over kernels).
    pub wall_a_ns: u64,
    /// Total simulated wall time of run B, ns.
    pub wall_b_ns: u64,
    /// Total cores across kernels (equal on both sides by alignment).
    pub cores: u64,
    /// Machine-time bucket: fast-core busy delta, core-ns.
    pub fast_busy: i64,
    /// Machine-time bucket: slow-core busy delta, core-ns (computed as
    /// total busy minus fast busy, so the five buckets tile exactly).
    pub slow_busy: i64,
    /// Machine-time bucket: fast-idle-while-slow-runnable delta, ns.
    pub fast_idle: i64,
    /// Machine-time bucket: remaining idle delta, core-ns.
    pub other_idle: i64,
    /// Machine-time bucket: offline delta, core-ns.
    pub offline: i64,
    /// Demand-side: total runnable (scheduler-latency) delta, ns.
    pub sched_wait: i64,
    /// Demand-side: migration-induced wait delta, ns.
    pub migration_wait: i64,
    /// Demand-side: migration count delta.
    pub migrations: i64,
    /// Demand-side: sync blocked-time delta, ns.
    pub sync_wait: i64,
    /// Demand-side: sleeping-time delta, ns.
    pub sleeping: i64,
    /// Tracking-lag delta, ns.
    pub tracking_lag: i64,
    /// Scheduler-latency p99 upper bounds of the two runs, ns.
    pub sched_p99: (u64, u64),
    /// Per-thread deltas, tid order, zero rows elided.
    pub threads: Vec<ThreadDelta>,
    /// The compact metrics-level attribution (what sweeps embed).
    pub attribution: DiffAttribution,
}

/// Sums `f` over every kernel's profile.
fn total(profiles: &[RunProfile], f: impl Fn(&RunProfile) -> u64) -> u64 {
    profiles.iter().map(f).fold(0u64, u64::saturating_add)
}

impl ProfileDiff {
    /// Aligns two runs kernel-by-kernel and computes the diff. Both
    /// runs must have the same kernel count and per-kernel core counts
    /// (they do whenever both executed the same workload × config).
    pub fn new(
        a: &[RunProfile],
        b: &[RunProfile],
        label_a: &str,
        label_b: &str,
    ) -> Result<ProfileDiff, DiffError> {
        if a.len() != b.len() {
            return Err(DiffError::KernelCountMismatch {
                a: a.len(),
                b: b.len(),
            });
        }
        for (k, (pa, pb)) in a.iter().zip(b).enumerate() {
            if pa.cores.len() != pb.cores.len() {
                return Err(DiffError::CoreCountMismatch {
                    kernel: k,
                    a: pa.cores.len(),
                    b: pb.cores.len(),
                });
            }
        }
        let cores = a.iter().map(|p| p.cores.len() as u64).sum::<u64>();
        let wall_a_ns = total(a, |p| p.duration.as_nanos());
        let wall_b_ns = total(b, |p| p.duration.as_nanos());
        let busy = |ps: &[RunProfile]| {
            total(ps, |p| {
                p.cores
                    .iter()
                    .fold(0u64, |acc, c| acc.saturating_add(c.busy.as_nanos()))
            })
        };
        let idle = |ps: &[RunProfile]| {
            total(ps, |p| {
                p.cores
                    .iter()
                    .fold(0u64, |acc, c| acc.saturating_add(c.idle.as_nanos()))
            })
        };
        let offline = |ps: &[RunProfile]| {
            total(ps, |p| {
                p.cores
                    .iter()
                    .fold(0u64, |acc, c| acc.saturating_add(c.offline.as_nanos()))
            })
        };
        let fast = |ps: &[RunProfile]| {
            total(ps, |p| {
                p.threads
                    .iter()
                    .fold(0u64, |acc, t| acc.saturating_add(t.running_fast.as_nanos()))
            })
        };
        let fis = |ps: &[RunProfile]| total(ps, |p| p.fast_idle_slow_runnable.as_nanos());
        let fast_busy = delta(fast(a), fast(b));
        let busy_delta = delta(busy(a), busy(b));
        let fast_idle = delta(fis(a), fis(b));
        let idle_delta = delta(idle(a), idle(b));
        // Per-thread table: align by tid; a thread the shorter run never
        // spawned contributes zeros on that side.
        let nthreads = a
            .iter()
            .map(|p| p.threads.len())
            .sum::<usize>()
            .max(b.iter().map(|p| p.threads.len()).sum::<usize>());
        // Multi-kernel runs are rare; align threads within each kernel
        // pair and offset tids by kernel to keep rows unambiguous.
        let mut threads = Vec::new();
        let mut tid_base = 0usize;
        for (pa, pb) in a.iter().zip(b) {
            let n = pa.threads.len().max(pb.threads.len());
            for i in 0..n {
                let za = pa.threads.get(i);
                let zb = pb.threads.get(i);
                let g = |t: Option<&crate::profile::ThreadProfile>,
                         f: fn(&crate::profile::ThreadProfile) -> u64| {
                    t.map_or(0, f)
                };
                let row = ThreadDelta {
                    tid: tid_base + i,
                    running_fast: delta(
                        g(za, |t| t.running_fast.as_nanos()),
                        g(zb, |t| t.running_fast.as_nanos()),
                    ),
                    running_slow: delta(
                        g(za, |t| t.running_slow.as_nanos()),
                        g(zb, |t| t.running_slow.as_nanos()),
                    ),
                    runnable: delta(
                        g(za, |t| t.runnable.as_nanos()),
                        g(zb, |t| t.runnable.as_nanos()),
                    ),
                    blocked: delta(
                        g(za, |t| t.blocked.as_nanos()),
                        g(zb, |t| t.blocked.as_nanos()),
                    ),
                };
                if !row.is_zero() {
                    threads.push(row);
                }
            }
            tid_base += n;
        }
        debug_assert!(threads.len() <= nthreads);
        let metrics = |ps: &[RunProfile]| {
            let mut m = ProfileMetrics::new();
            for p in ps {
                m.merge(&p.metrics());
            }
            m
        };
        let ma = metrics(a);
        let mb = metrics(b);
        let p99 = |m: &ProfileMetrics| m.sched_latency.p99().map_or(0, |p| p.high);
        Ok(ProfileDiff {
            label_a: label_a.to_string(),
            label_b: label_b.to_string(),
            wall_a_ns,
            wall_b_ns,
            cores,
            fast_busy,
            slow_busy: busy_delta - fast_busy,
            fast_idle,
            other_idle: idle_delta - fast_idle,
            offline: delta(offline(a), offline(b)),
            sched_wait: delta(
                ma.sched_latency.total_nanos(),
                mb.sched_latency.total_nanos(),
            ),
            migration_wait: delta(ma.migration_wait_ns, mb.migration_wait_ns),
            migrations: delta(ma.migrations, mb.migrations),
            sync_wait: delta(ma.sync_wait_ns, mb.sync_wait_ns),
            sleeping: {
                let sl = |ps: &[RunProfile]| {
                    total(ps, |p| {
                        p.threads
                            .iter()
                            .fold(0u64, |acc, t| acc.saturating_add(t.sleeping.as_nanos()))
                    })
                };
                delta(sl(a), sl(b))
            },
            tracking_lag: delta(ma.tracking_lag_ns, mb.tracking_lag_ns),
            sched_p99: (p99(&ma), p99(&mb)),
            threads,
            attribution: DiffAttribution::from_metrics(&ma, &mb),
        })
    }

    /// The wall-time delta `A − B`, ns (positive: A was slower).
    pub fn wall_delta_ns(&self) -> i64 {
        delta(self.wall_a_ns, self.wall_b_ns)
    }

    /// Sum of the five machine-time buckets, core-ns. By the per-core
    /// tiling identity (`busy + idle + offline` tiles every core's
    /// run exactly) this equals `wall_delta_ns × cores` — the report
    /// prints the residual, which is 0 for well-formed profiles.
    pub fn bucket_sum(&self) -> i64 {
        self.fast_busy + self.slow_busy + self.fast_idle + self.other_idle + self.offline
    }

    /// `bucket_sum − wall_delta × cores`: 0 when the attribution is
    /// exact (the acceptance bound is one sim tick; integer accounting
    /// makes it identically zero).
    pub fn residual_ns(&self) -> i64 {
        self.bucket_sum() - self.wall_delta_ns().saturating_mul(self.cores as i64)
    }
}

/// Formats a signed ns delta with an explicit sign (deterministic).
fn sgn(ns: i64) -> String {
    format!("{ns:+}ns")
}

impl fmt::Display for ProfileDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile diff: A={} vs B={} ({} cores)",
            self.label_a, self.label_b, self.cores
        )?;
        writeln!(
            f,
            "wall: A {}ns  B {}ns  delta {} ({})",
            self.wall_a_ns,
            self.wall_b_ns,
            sgn(self.wall_delta_ns()),
            if self.wall_delta_ns() > 0 {
                "A slower"
            } else if self.wall_delta_ns() < 0 {
                "B slower"
            } else {
                "tie"
            }
        )?;
        writeln!(
            f,
            "machine time (core-ns, A-B; sum {} = wall delta x cores, residual {}):",
            sgn(self.bucket_sum()),
            sgn(self.residual_ns())
        )?;
        writeln!(f, "  fast-core busy          {}", sgn(self.fast_busy))?;
        writeln!(f, "  slow-core busy          {}", sgn(self.slow_busy))?;
        writeln!(f, "  fast idle, slow runnable{}", sgn(self.fast_idle))?;
        writeln!(f, "  other idle              {}", sgn(self.other_idle))?;
        writeln!(f, "  offline                 {}", sgn(self.offline))?;
        writeln!(f, "waits (thread-ns, A-B):")?;
        writeln!(f, "  scheduler latency       {}", sgn(self.sched_wait))?;
        writeln!(
            f,
            "  migration wait          {} (migrations {:+})",
            sgn(self.migration_wait),
            self.migrations
        )?;
        writeln!(f, "  sync wait               {}", sgn(self.sync_wait))?;
        writeln!(f, "  sleeping                {}", sgn(self.sleeping))?;
        writeln!(f, "tracking lag              {}", sgn(self.tracking_lag))?;
        writeln!(
            f,
            "sched latency p99 (upper bound): A {}ns  B {}ns  delta {}",
            self.sched_p99.0,
            self.sched_p99.1,
            sgn(delta(self.sched_p99.0, self.sched_p99.1))
        )?;
        writeln!(f, "threads (A-B, zero rows elided, top 16 by wait delta):")?;
        if self.threads.is_empty() {
            writeln!(f, "  (identical)")?;
        }
        let mut ranked: Vec<&ThreadDelta> = self.threads.iter().collect();
        ranked.sort_by_key(|t| (std::cmp::Reverse(t.weight()), t.tid));
        for t in ranked.iter().take(16) {
            writeln!(
                f,
                "  tid{:<4} fast {:>15} slow {:>15} runnable {:>15} blocked {:>15}",
                t.tid,
                sgn(t.running_fast),
                sgn(t.running_slow),
                sgn(t.runnable),
                sgn(t.blocked)
            )?;
        }
        if ranked.len() > 16 {
            writeln!(f, "  ... and {} more", ranked.len() - 16)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_kernel::{capture_traces, FnThread, Kernel, SchedPolicy, SpawnOptions, Step};
    use asym_sim::{Cycles, MachineSpec, Speed};

    fn run(policy: SchedPolicy) -> Vec<RunProfile> {
        let ((), traces) = capture_traces(|| {
            let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
            let mut k = Kernel::new(machine, policy, 17);
            for _ in 0..3 {
                let mut bursts = 4u32;
                k.spawn(
                    FnThread::new("w", move |_cx| {
                        if bursts == 0 {
                            Step::Done
                        } else {
                            bursts -= 1;
                            Step::Compute(Cycles::from_millis_at_full_speed(1.0))
                        }
                    }),
                    SpawnOptions::new(),
                );
            }
            k.run();
        });
        traces.iter().map(RunProfile::from_trace).collect()
    }

    #[test]
    fn bucket_sum_equals_wall_delta_exactly() {
        let a = run(SchedPolicy::os_default());
        let b = run(SchedPolicy::asymmetry_aware());
        let d = ProfileDiff::new(&a, &b, "stock", "aware").unwrap();
        // The machine-time partition is exact: zero residual, not "one
        // tick" — integer accounting owes nothing to rounding.
        assert_eq!(d.residual_ns(), 0, "partition must tile the wall delta");
        assert_eq!(
            d.bucket_sum(),
            d.wall_delta_ns() * d.cores as i64,
            "five buckets must sum to wall delta x cores"
        );
    }

    #[test]
    fn self_diff_is_all_zeros() {
        let a = run(SchedPolicy::os_default());
        let d = ProfileDiff::new(&a, &a, "x", "x").unwrap();
        assert_eq!(d.wall_delta_ns(), 0);
        assert_eq!(d.bucket_sum(), 0);
        assert!(d.threads.is_empty(), "self-diff elides every thread row");
        assert_eq!(d.attribution.wall_delta_ns, 0);
        assert_eq!(d.attribution.migrations_delta, 0);
        let j = d.attribution.to_json();
        assert!(j.contains("\"wall_delta_ns\":0"), "got: {j}");
    }

    #[test]
    fn report_is_deterministic() {
        let a = run(SchedPolicy::os_default());
        let b = run(SchedPolicy::asymmetry_aware());
        let d1 = ProfileDiff::new(&a, &b, "stock", "aware").unwrap();
        let d2 = ProfileDiff::new(
            &run(SchedPolicy::os_default()),
            &run(SchedPolicy::asymmetry_aware()),
            "stock",
            "aware",
        )
        .unwrap();
        assert_eq!(d1, d2);
        assert_eq!(d1.to_string(), d2.to_string());
        assert_eq!(d1.attribution.to_json(), d2.attribution.to_json());
        let text = d1.to_string();
        assert!(text.contains("machine time"), "got: {text}");
        assert!(text.contains("residual +0ns"), "got: {text}");
    }

    #[test]
    fn misaligned_runs_are_rejected() {
        let a = run(SchedPolicy::os_default());
        let err = ProfileDiff::new(&a, &[], "a", "b").unwrap_err();
        assert_eq!(err, DiffError::KernelCountMismatch { a: 1, b: 0 });
        let ((), traces) = capture_traces(|| {
            let mut k = Kernel::new(
                MachineSpec::symmetric(4, Speed::FULL),
                SchedPolicy::os_default(),
                1,
            );
            k.spawn(FnThread::new("w", |_cx| Step::Done), SpawnOptions::new());
            k.run();
        });
        let c: Vec<RunProfile> = traces.iter().map(RunProfile::from_trace).collect();
        let err = ProfileDiff::new(&a, &c, "a", "b").unwrap_err();
        assert!(matches!(err, DiffError::CoreCountMismatch { .. }));
        assert!(err.to_string().contains("2 vs 4 cores"), "got: {err}");
    }

    #[test]
    fn attribution_from_metrics_matches_manual_deltas() {
        let a = run(SchedPolicy::os_default());
        let b = run(SchedPolicy::asymmetry_aware());
        let mut ma = ProfileMetrics::new();
        for p in &a {
            ma.merge(&p.metrics());
        }
        let mut mb = ProfileMetrics::new();
        for p in &b {
            mb.merge(&p.metrics());
        }
        let att = DiffAttribution::from_metrics(&ma, &mb);
        assert_eq!(att.wall_delta_ns, ma.sim_ns as i64 - mb.sim_ns as i64);
        assert_eq!(att.busy_delta_ns, ma.busy_ns as i64 - mb.busy_ns as i64);
        assert_eq!(
            att.migrations_delta,
            ma.migrations as i64 - mb.migrations as i64
        );
        // The identity the JSON consumers rely on: busy + idle + offline
        // deltas sum to wall delta x cores (2 cores here).
        assert_eq!(
            att.busy_delta_ns + att.idle_delta_ns + att.offline_delta_ns,
            att.wall_delta_ns * 2
        );
    }
}
