//! The traced per-layer run.
//!
//! The program is not instrumented: every number here comes from spans
//! the benchmark records around calls into the crates' public functions.
//! Layers interleave inside `CellRunner::run`, so the run separates them
//! by replaying each executed cell through the same public calls one
//! layer at a time, serially on this thread:
//!
//! * `workloads.<model>.run` — `Workload::run` with capture off;
//! * `kernel.capture` — the same run under `capture_traces` (the
//!   capture cost is this minus the plain run);
//! * `kernel.hash` — `KernelTrace::stable_hash` of every trace;
//! * `kernel.scan` — record counts, encoded sizes and simulated time;
//! * `obs.fold` — `RunProfile::from_trace` + `metrics()` (cells that
//!   derive metrics);
//! * `analysis.races` / `analysis.lockset` / `analysis.lints` — the
//!   checkers `check_concurrency` runs (checked workloads).
//!
//! Cache costs come from extra whole-plan runs with a filled cache, a
//! fresh cache and none; a workload whose phase runs uncached fills a
//! cache of its own plan for them. The replayed trace hashes must equal the
//! engine's, which checks that the replay is faithful.

use crate::names::{LAYERS, PER_LAYER};
use crate::procfs::{cache_fingerprint, dir_usage};
use crate::trace::Tracer;
use crate::{
    build_sweep, check_phase, compare_with_reference, run_phase, Expected, Sweep, Verdict,
    Workload, JOBS,
};
use asym_analysis::hb::{
    check_locksets, check_races, check_rerank_hygiene, check_stale_ranking, check_starvation,
};
use asym_analysis::normalize_violations;
use asym_core::{CellCache, CellRunner, RunSetup, SpecMode, SweepReport};
use asym_kernel::{capture_traces, fold_trace_hashes, with_run_guard, RunGuard, SchedPolicy};
use asym_kernel::{KernelTrace, TraceHashFold};
use asym_obs::metrics_of_traces;
use asym_sim::{EnvironmentPlan, FaultPlan, SimDuration};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-layer metrics, the output checks, and the recorded spans.
pub struct LayerRun {
    /// Every [`PER_LAYER`] metric by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Output checks of the traced phase and the replay.
    pub verdict: Verdict,
    /// The spans.
    pub tracer: Tracer,
    /// The code fingerprint read back from a cache entry, if any.
    pub cache_fingerprint: Option<String>,
}

/// The `workloads.*` span a workload's plain runs are recorded under.
fn model_span(workload_name: &str) -> &'static str {
    match workload_name {
        "SPECjbb" => "workloads.specjbb.run",
        "SPECjAppServer" => "workloads.japps.run",
        "TPC-H" => "workloads.tpch.run",
        "Apache" => "workloads.apache.run",
        "Zeus" => "workloads.zeus.run",
        "H.264" => "workloads.h264.run",
        "PMAKE" => "workloads.pmake.run",
        "micro-burst" => "workloads.micro.run",
        // SPEC OMP workloads are named after their benchmark (`swim`, ...).
        _ => "workloads.specomp.run",
    }
}

/// One run of a cell, with the guard the engine's first attempt uses.
struct Leg {
    setup: RunSetup,
    guarded: bool,
    budget: Option<SimDuration>,
    watchdog: Option<SimDuration>,
    faults: Option<FaultPlan>,
    environment: Option<EnvironmentPlan>,
}

impl Leg {
    fn run(&self, workload: &dyn asym_core::Workload) -> asym_core::RunResult {
        if !self.guarded {
            return workload.run(&self.setup);
        }
        let mut guard = RunGuard::new();
        if let Some(w) = self.watchdog {
            guard = guard.watchdog(w);
        }
        if let Some(b) = self.budget {
            guard = guard.sim_time_budget(b);
        }
        if let Some(p) = &self.faults {
            guard = guard.fault_plan(p.clone());
        }
        if let Some(e) = &self.environment {
            guard = guard.environment(e.clone());
        }
        with_run_guard(guard, || workload.run(&self.setup))
    }
}

/// The first-attempt runs of one cell: one for clean and resilient
/// cells, four (stock/aware × clean/faulted) for differential cells.
fn legs_of(mode: &SpecMode, setup: RunSetup) -> Vec<Leg> {
    match mode {
        SpecMode::Clean { policy, .. } => vec![Leg {
            setup: RunSetup {
                policy: *policy,
                ..setup
            },
            guarded: false,
            budget: None,
            watchdog: None,
            faults: None,
            environment: None,
        }],
        SpecMode::Resilient { policy, options } => {
            let setup = RunSetup {
                policy: *policy,
                ..setup
            };
            vec![Leg {
                setup,
                guarded: true,
                budget: options.sim_time_budget,
                watchdog: options.watchdog,
                faults: options.planner.as_ref().map(|p| p(&setup)),
                environment: options.env_planner.as_ref().map(|p| p(&setup)),
            }]
        }
        SpecMode::Differential { options } => {
            let cell = RunSetup {
                policy: SchedPolicy::os_default(),
                ..setup
            };
            let faults = options.planner.as_ref().map(|p| p(&cell));
            let environment = options.env_planner.as_ref().map(|p| p(&cell));
            let leg = |policy: SchedPolicy, disturbed: bool| Leg {
                setup: RunSetup { policy, ..setup },
                guarded: true,
                budget: options.sim_time_budget,
                watchdog: options.watchdog,
                faults: if disturbed { faults.clone() } else { None },
                environment: if disturbed { environment.clone() } else { None },
            };
            let (stock, aware) = (SchedPolicy::os_default(), SchedPolicy::asymmetry_aware());
            vec![
                leg(stock, false),
                leg(stock, true),
                leg(aware, false),
                leg(aware, true),
            ]
        }
    }
}

fn runs_of(mode: &SpecMode) -> (usize, u64) {
    match mode {
        SpecMode::Clean { options, .. } => (options.runs, options.base_seed),
        SpecMode::Resilient { options, .. } | SpecMode::Differential { options } => {
            (options.runs, options.base_seed)
        }
    }
}

/// Counts gathered while replaying.
#[derive(Default)]
struct Counts {
    kernels: u64,
    records: u64,
    sim_ns: u128,
    trace_bytes: u64,
    violations: u64,
}

fn analyze(t: &mut Tracer, traces: &[KernelTrace]) -> u64 {
    let mut total = 0;
    for tr in traces {
        let mut found = t.span("analysis.races", |_| check_races(tr));
        found.extend(t.span("analysis.lockset", |_| check_locksets(tr)));
        found.extend(t.span("analysis.lints", |_| {
            let mut v = check_stale_ranking(tr);
            v.extend(check_rerank_hygiene(tr));
            v.extend(check_starvation(tr));
            v
        }));
        total += normalize_violations(found).len() as u64;
    }
    total
}

/// Replays every cell the phase executed (neither memoized nor restored
/// from the cache), one layer per span, and fails cells whose replayed
/// trace hash differs from the engine's.
fn replay(
    t: &mut Tracer,
    w: Workload,
    sweep: &Sweep,
    report: &SweepReport,
    v: &mut Verdict,
) -> Counts {
    let mut counts = Counts::default();
    let mut k = 0usize;
    for s in &sweep.sections {
        let workload = s.workload.as_ref();
        let run_span = model_span(workload.name());
        let (runs, base_seed) = runs_of(&s.mode);
        let differential = matches!(s.mode, SpecMode::Differential { .. });
        for (j, &config) in s.configs.iter().enumerate() {
            for i in 0..runs {
                let Some(cell) = report.cells.get(k) else {
                    v.fail_all(format!("report has fewer cells than the plan ({k})"));
                    return counts;
                };
                let id = k;
                k += 1;
                if cell.memoized || cell.cached {
                    continue;
                }
                let seed = base_seed
                    .wrapping_add(j as u64 * 1000)
                    .wrapping_add(i as u64);
                let legs = legs_of(
                    &s.mode,
                    RunSetup::new(config, SchedPolicy::os_default(), seed),
                );
                let cell_id = u32::try_from(id).expect("fewer than 2^32 cells");
                let hash = t.span_cell("cell", Some(cell_id), |t| {
                    let mut fold = TraceHashFold::new();
                    let mut last = 0;
                    for leg in &legs {
                        t.span(run_span, |_| black_box(leg.run(workload)));
                        let (_, traces) =
                            t.span("kernel.capture", |_| capture_traces(|| leg.run(workload)));
                        last = t.span("kernel.hash", |_| fold_trace_hashes(&traces));
                        fold.push(last);
                        t.span("kernel.scan", |_| {
                            for tr in &traces {
                                counts.kernels += 1;
                                counts.records += tr.num_records() as u64;
                                counts.trace_bytes += tr.encoded_len() as u64;
                                counts.sim_ns += u128::from(
                                    tr.records().last().map_or(0, |r| r.time.as_nanos()),
                                );
                            }
                        });
                        if w.report() || differential {
                            t.span("obs.fold", |_| black_box(metrics_of_traces(&traces)));
                        }
                        if w.checked() {
                            counts.violations += analyze(t, &traces);
                        }
                    }
                    if differential {
                        fold.finish()
                    } else {
                        last
                    }
                });
                let baseline = if differential { 4 } else { 1 };
                if cell.attempts == baseline && cell.trace_hash != Some(hash) {
                    v.failed_cells[id] = true;
                    v.notes.push(format!(
                        "cell {id} {} {} seed {}: replayed trace hash {hash:016x} != engine {:?}",
                        cell.spec, cell.config, cell.seed, cell.trace_hash
                    ));
                }
            }
        }
    }
    if k != report.cells.len() {
        v.fail_all(format!(
            "plan replay covered {k} cells, report has {}",
            report.cells.len()
        ));
    }
    counts
}

/// The wall time of a whole-plan `CellRunner::run` outside the phase
/// (the cache experiments), recorded as span `name`.
fn extra_run(
    t: &mut Tracer,
    w: Workload,
    seed: u64,
    cache: Option<CellCache>,
    name: &'static str,
) -> Duration {
    let sweep = t.span("bench.replan", |_| build_sweep(w, seed));
    let (plan, _) = t.span("bench.replan", |_| sweep.plan(&w.plan_name()));
    let mut runner = CellRunner::new(JOBS).with_metrics(w.report());
    if let Some(cache) = cache {
        runner = runner.with_cache(cache);
    }
    let start = Instant::now();
    t.span(name, |_| runner.run(plan));
    start.elapsed()
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

fn self_metric(layer: &str) -> &'static str {
    match layer {
        "bench" => "bench.self_s",
        "core" => "core.self_s",
        "workloads" => "workloads.self_s",
        "kernel" => "kernel.self_s",
        "obs" => "obs.self_s",
        _ => "analysis.self_s",
    }
}

/// Runs workload `w` once untraced (the reference for the tracing
/// overhead) and once traced, plus the cache experiments and the cell
/// replay, inside `work`; returns every [`PER_LAYER`] metric.
pub fn traced_run(
    w: Workload,
    seed: u64,
    work: &Path,
    expected: Option<Expected>,
) -> io::Result<LayerRun> {
    let cache_dir = work.join("cache");
    let cold_dir = work.join("cold");
    let untraced_dir = work.join("untraced");
    let traced_dir = work.join("traced");
    for d in [&cache_dir, &cold_dir, &untraced_dir, &traced_dir] {
        fresh_dir(d)?;
    }
    let open_cache = || w.cached().then(|| CellCache::open(&cache_dir)).transpose();

    // Set-up: scale-warm reads the cache a cold phase filled.
    let mut cold_run = None;
    if w == Workload::ScaleWarm {
        let fill = run_phase(
            Workload::ScaleCold,
            seed,
            open_cache()?,
            &cold_dir,
            &mut Tracer::off(),
        )?;
        cold_run = Some(fill.times.run);
    }
    let untraced = run_phase(w, seed, open_cache()?, &untraced_dir, &mut Tracer::off())?.wall;
    if w == Workload::ScaleCold {
        fresh_dir(&cache_dir)?;
    }

    let mut t = Tracer::on();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (phase, mut verdict, counts) = t.span("trace", |t| -> io::Result<_> {
        let phase = t.span("phase", |t| {
            run_phase(w, seed, open_cache()?, &traced_dir, t)
        })?;
        // Workloads whose phase runs uncached fill a cache of their own
        // plan here, so every workload measures the cache's cost.
        let cold = match (w, cold_run) {
            (Workload::ScaleCold, _) => phase.times.run,
            (_, Some(cold)) => cold,
            _ => extra_run(
                t,
                w,
                seed,
                Some(CellCache::open(&cache_dir)?),
                "core.run_cold",
            ),
        };
        let load = if w == Workload::ScaleWarm {
            phase.times.run
        } else {
            extra_run(
                t,
                w,
                seed,
                Some(CellCache::open(&cache_dir)?),
                "core.run_warm",
            )
        };
        let none = extra_run(t, w, seed, None, "core.run_uncached");
        m.insert("core.cache_load_s", load.as_secs_f64());
        m.insert(
            "core.cache_store_s",
            cold.as_secs_f64() - none.as_secs_f64(),
        );
        let (bytes, files) = t.span("core.cache_scan", |_| dir_usage(&cache_dir));
        m.insert("core.cache_mb", bytes as f64 / (1u64 << 20) as f64);
        m.insert("core.cache_files", files as f64);
        let sweep = t.span("bench.replan", |_| build_sweep(w, seed));
        let mut v = check_phase(&phase, expected);
        let counts = t.span("replay", |t| replay(t, w, &sweep, &phase.report, &mut v));
        Ok((phase, v, counts))
    })?;
    if w == Workload::ScaleWarm {
        compare_with_reference(&phase, &cold_dir, &mut verdict);
    }

    let report = &phase.report;
    let cells = report.cells.len() as f64;
    let executed = report
        .cells
        .iter()
        .filter(|c| !c.memoized && !c.cached)
        .count() as f64;
    let exec_s = report.cells_wall_ms() / 1e3;
    let run_wall = report.wall_ms / 1e3;
    m.insert("bench.plan_s", t.total_named("bench.plan"));
    m.insert("bench.render_s", t.total_named("bench.render"));
    m.insert("core.cells", cells);
    m.insert("core.cells_executed", executed);
    m.insert("core.cells_memoized", report.memoized_cells() as f64);
    m.insert("core.retries", f64::from(report.total_retries()));
    m.insert("core.exec_s", exec_s);
    m.insert(
        "core.pool_busy_frac",
        if run_wall > 0.0 {
            exec_s / (run_wall * JOBS as f64)
        } else {
            0.0
        },
    );
    if let Some(c) = &report.cache {
        let probes = c.hits + c.misses + c.invalidations;
        m.insert("core.cache_hits", c.hits as f64);
        m.insert("core.cache_misses", c.misses as f64);
        m.insert("core.cache_stores", c.stores as f64);
        m.insert(
            "core.cache_hit_ratio",
            if probes > 0 {
                c.hits as f64 / probes as f64
            } else {
                0.0
            },
        );
    }
    m.insert("core.emit_s", t.total_named("core.emit"));
    m.insert(
        "core.json_mb",
        phase.json.as_ref().map_or(0, String::len) as f64 / (1u64 << 20) as f64,
    );
    let run_s = t.total(|n| n.starts_with("workloads.") && n.ends_with(".run"));
    m.insert("workloads.run_s", run_s);
    for metric in PER_LAYER {
        if let Some(model) = metric
            .name
            .strip_prefix("workloads.")
            .and_then(|n| n.strip_suffix(".run_s"))
        {
            let span = format!("workloads.{model}.run");
            m.insert(metric.name, t.total_named(&span));
        }
    }
    m.insert("kernel.kernels", counts.kernels as f64);
    m.insert("kernel.records", counts.records as f64);
    m.insert("kernel.sim_s", counts.sim_ns as f64 / 1e9);
    m.insert(
        "kernel.records_per_s",
        if run_s > 0.0 {
            counts.records as f64 / run_s
        } else {
            0.0
        },
    );
    m.insert("kernel.capture_s", t.total_named("kernel.capture") - run_s);
    m.insert(
        "kernel.trace_mb",
        counts.trace_bytes as f64 / (1u64 << 20) as f64,
    );
    m.insert("kernel.hash_s", t.total_named("kernel.hash"));
    m.insert("obs.fold_s", t.total_named("obs.fold"));
    let races = t.total_named("analysis.races");
    let lockset = t.total_named("analysis.lockset");
    let lints = t.total_named("analysis.lints");
    m.insert("analysis.races_s", races);
    m.insert("analysis.lockset_s", lockset);
    m.insert("analysis.lints_s", lints);
    m.insert("analysis.check_s", races + lockset + lints);
    m.insert("analysis.violations", counts.violations as f64);

    let total = t.total_named("trace");
    let layer_self = t.layer_self_times();
    let attributed: f64 = layer_self.values().sum();
    for layer in LAYERS {
        m.insert(self_metric(layer), layer_self[layer]);
    }
    let traced = phase.wall.as_secs_f64();
    m.insert("trace.wall_s", traced);
    m.insert("trace.untraced_wall_s", untraced.as_secs_f64());
    m.insert("trace.overhead_frac", traced / untraced.as_secs_f64() - 1.0);
    m.insert("trace.total_s", total);
    m.insert("trace.other_s", total - attributed);
    m.insert("trace.coverage_frac", attributed / total);
    m.insert("trace.spans", t.spans().len() as f64);
    for metric in PER_LAYER {
        m.entry(metric.name).or_insert(0.0);
    }
    debug_assert_eq!(m.len(), PER_LAYER.len(), "every metric is catalogued");

    let cache_fingerprint = cache_fingerprint(&cache_dir);
    t.write_csv(&work.join("spans.csv"))?;
    Ok(LayerRun {
        metrics: m,
        verdict,
        tracer: t,
        cache_fingerprint,
    })
}
