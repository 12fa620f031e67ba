//! Host-time benchmark of the asym-multicore sweep stack.
//!
//! A *workload* is a fixed selection of registered sweep specs run the
//! way `asym_sweep` runs them: one merged [`ExperimentPlan`] on a
//! [`JOBS`]-thread [`CellRunner`], then the figure text and (for specs
//! that want it) the JSON report. [`run_phase`] times that phase;
//! [`check_phase`] checks what it produced. The traced per-layer run
//! lives in [`layers`].
//!
//! Only host time is measured. Every simulated statistic is a pure
//! function of the seed, so the checks pin trace hashes and figure text
//! rather than tolerate drift.

pub mod layers;
pub mod names;
pub mod procfs;
pub mod stats;
pub mod trace;

use asym_bench::{registry, RenderFn, Section, SweepContext};
use asym_core::{CellCache, CellRunner, ExperimentPlan, RunClass, SpecMode, SweepReport};
use asym_kernel::TraceHashFold;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Host threads every sweep runs on.
pub const JOBS: usize = 2;

/// How far one unit of the benchmark seed moves every section's base
/// seed. Larger than any in-section offset (`j * 1000 + i`, plus retry
/// strides), so distinct benchmark seeds never share a run seed.
pub const SEED_STRIDE: u64 = 1_000_003;

/// File name of the JSON report a phase writes.
pub const REPORT_FILE: &str = "report.json";

/// File name of the figure text a phase writes.
pub const FIGURE_FILE: &str = "figure.txt";

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `table1` plus the quick `extra_absorption` cells: the paper's own
    /// study with profile metrics on and no cache.
    Paper,
    /// `fig10` under the concurrency checker; metrics and cache off.
    Check,
    /// `extra_scale` in full, with the JSON report, into an empty cache.
    ScaleCold,
    /// `extra_scale` again, against the cache a cold run filled.
    ScaleWarm,
    /// The small `mini` spec, for the benchmark's own tests.
    Mini,
}

impl Workload {
    /// Every workload the benchmark command accepts.
    pub const ALL: [Workload; 5] = [
        Workload::Paper,
        Workload::Check,
        Workload::ScaleCold,
        Workload::ScaleWarm,
        Workload::Mini,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Check => "check",
            Workload::ScaleCold => "scale-cold",
            Workload::ScaleWarm => "scale-warm",
            Workload::Mini => "mini",
        }
    }

    /// The registry specs merged into the workload's plan, each with the
    /// `--quick` flag it is built under.
    pub fn specs(self) -> &'static [(&'static str, bool)] {
        match self {
            Workload::Paper => &[("table1", false), ("extra_absorption", true)],
            Workload::Check => &[("fig10", false)],
            Workload::ScaleCold | Workload::ScaleWarm => &[("extra_scale", false)],
            Workload::Mini => &[("mini", false)],
        }
    }

    /// The plan's name, as `asym_sweep` names it: the spec names joined by `+`.
    pub fn plan_name(self) -> String {
        let names: Vec<&str> = self.specs().iter().map(|(n, _)| *n).collect();
        names.join("+")
    }

    /// Whether the phase derives profile metrics and writes the JSON
    /// report (`asym_sweep --json`).
    pub fn report(self) -> bool {
        self != Workload::Check
    }

    /// Whether every cell runs the concurrency checker (`--check`).
    pub fn checked(self) -> bool {
        self == Workload::Check
    }

    /// Whether the phase runs against a persistent cell cache.
    pub fn cached(self) -> bool {
        matches!(self, Workload::ScaleCold | Workload::ScaleWarm)
    }
}

/// The expanded sections of a workload plus the render step of each spec.
pub struct Sweep {
    /// Every section of every spec, in plan order.
    pub sections: Vec<Section>,
    renders: Vec<(RenderFn, usize)>,
}

/// Moves `mode`'s base seed by `seed` strides (seed 0 keeps the spec's own).
pub fn rebase(mode: &mut SpecMode, seed: u64) {
    let base = match mode {
        SpecMode::Clean { options, .. } => &mut options.base_seed,
        SpecMode::Resilient { options, .. } | SpecMode::Differential { options } => {
            &mut options.base_seed
        }
    };
    *base = base.wrapping_add(seed.wrapping_mul(SEED_STRIDE));
}

/// Builds a workload's sections (re-based to `seed`) and render steps.
pub fn build_sweep(w: Workload, seed: u64) -> Sweep {
    let specs = registry();
    let mut sections = Vec::new();
    let mut renders = Vec::new();
    for &(name, quick) in w.specs() {
        let spec = specs
            .iter()
            .find(|s| s.name == name)
            .expect("workload names a registered spec");
        let def = (spec.build)(&SweepContext { quick });
        renders.push((def.render, def.sections.len()));
        for mut s in def.sections {
            rebase(&mut s.mode, seed);
            sections.push(s);
        }
    }
    Sweep { sections, renders }
}

impl Sweep {
    /// The merged plan over every section, and the cell count of each spec.
    pub fn plan(&self, name: &str) -> (ExperimentPlan<'_>, Vec<usize>) {
        let mut plan = ExperimentPlan::new(name);
        let mut cells_per_spec = Vec::new();
        let mut next = 0;
        for &(_, count) in &self.renders {
            let before = plan.len();
            for s in &self.sections[next..next + count] {
                plan.push(
                    s.label.as_str(),
                    s.workload.as_ref(),
                    &s.configs,
                    s.mode.clone(),
                );
            }
            next += count;
            cells_per_spec.push(plan.len() - before);
        }
        (plan, cells_per_spec)
    }
}

/// Host time of each step of a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    /// Spec build plus plan expansion.
    pub plan: Duration,
    /// `CellRunner::run`.
    pub run: Duration,
    /// The specs' render closures.
    pub render: Duration,
    /// `SweepReport::to_json`.
    pub emit: Duration,
    /// Writing the report and figure text.
    pub write: Duration,
}

/// What one timed phase produced.
pub struct Phase {
    /// The engine's per-cell report.
    pub report: SweepReport,
    /// The JSON report, when the workload writes one.
    pub json: Option<String>,
    /// The rendered figure text of every spec, concatenated.
    pub text: String,
    /// Per spec: its cell count and whether its render passed.
    pub specs: Vec<(usize, bool)>,
    /// Wall time of the whole phase.
    pub wall: Duration,
    /// Wall time of each step.
    pub times: StepTimes,
}

fn timed<R>(t: &mut Tracer, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = t.span(name, f);
    (out, start.elapsed())
}

/// Runs one phase: plan build, cell execution, render, JSON emission,
/// and writing the report and figure text into `out_dir`. Spans go to
/// `t` when it records.
pub fn run_phase(
    w: Workload,
    seed: u64,
    cache: Option<CellCache>,
    out_dir: &Path,
    t: &mut Tracer,
) -> io::Result<Phase> {
    let start = Instant::now();
    let (sweep, plan_a) = timed(t, "bench.plan", |_| build_sweep(w, seed));
    let ((plan, cells_per_spec), plan_b) = timed(t, "bench.plan", |_| sweep.plan(&w.plan_name()));
    let mut runner = CellRunner::new(JOBS).with_metrics(w.report());
    if w.checked() {
        runner = runner.with_trace_check(asym_bench::concurrency_check());
    }
    if let Some(cache) = cache {
        runner = runner.with_cache(cache);
    }
    let (outcome, run) = timed(t, "core.run", |_| runner.run(plan));
    let (rendered, render) = timed(t, "bench.render", |_| {
        let mut idx = 0;
        sweep
            .renders
            .iter()
            .map(|(render, count)| {
                let r = render(&outcome.results[idx..idx + count]);
                idx += count;
                r
            })
            .collect::<Vec<_>>()
    });
    let text: String = rendered.iter().map(|r| r.text.as_str()).collect();
    let specs = cells_per_spec
        .into_iter()
        .zip(rendered.iter().map(|r| r.ok))
        .collect();
    let report = outcome.report;
    let (json, emit) = timed(t, "core.emit", |_| w.report().then(|| report.to_json()));
    let (written, write) = timed(t, "io.write", |_| -> io::Result<()> {
        if let Some(json) = &json {
            std::fs::write(out_dir.join(REPORT_FILE), json)?;
        }
        std::fs::write(out_dir.join(FIGURE_FILE), &text)
    });
    written?;
    Ok(Phase {
        report,
        json,
        text,
        specs,
        wall: start.elapsed(),
        times: StepTimes {
            plan: plan_a + plan_b,
            run,
            render,
            emit,
            write,
        },
    })
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digests a workload must reproduce at the default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// [`TraceHashFold`] over every cell's trace hash, in plan order.
    pub fold: u64,
    /// [`fnv64`] of the figure text.
    pub text: u64,
}

impl Expected {
    /// Parses `FOLD:TEXT`, both as 16 hex digits.
    pub fn parse(s: &str) -> Option<Expected> {
        let (fold, text) = s.split_once(':')?;
        Some(Expected {
            fold: u64::from_str_radix(fold, 16).ok()?,
            text: u64::from_str_radix(text, 16).ok()?,
        })
    }
}

/// The outcome of a phase's output checks.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Per cell, in plan order: `true` when some check failed on it.
    pub failed_cells: Vec<bool>,
    /// One line per failed check.
    pub notes: Vec<String>,
    /// The trace-hash fold the phase produced.
    pub fold: u64,
    /// The figure-text digest the phase produced.
    pub text_digest: u64,
}

impl Verdict {
    /// Cells checked.
    pub fn attempted(&self) -> usize {
        self.failed_cells.len()
    }

    /// Cells that failed a check.
    pub fn failed(&self) -> usize {
        self.failed_cells.iter().filter(|f| **f).count()
    }

    /// Marks every cell failed, recording why.
    pub fn fail_all(&mut self, note: String) {
        self.failed_cells.iter_mut().for_each(|f| *f = true);
        self.notes.push(note);
    }
}

/// Checks a phase's outputs: every cell `Completed`, free of checker
/// violations and carrying a trace hash; every spec's render passed;
/// and, when `expected` is given, the trace-hash fold and figure-text
/// digest equal it. A failed render fails its spec's cells; a digest
/// mismatch fails every cell.
pub fn check_phase(phase: &Phase, expected: Option<Expected>) -> Verdict {
    let cells = &phase.report.cells;
    let mut v = Verdict {
        failed_cells: vec![false; cells.len()],
        notes: Vec::new(),
        fold: 0,
        text_digest: fnv64(phase.text.as_bytes()),
    };
    let mut fold = TraceHashFold::new();
    for (k, c) in cells.iter().enumerate() {
        let bad = if c.class != RunClass::Completed {
            Some(format!("class {}", c.class))
        } else if !c.violations.is_empty() {
            Some(format!("{} violation(s)", c.violations.len()))
        } else if c.trace_hash.is_none() {
            Some("no trace hash".to_string())
        } else {
            None
        };
        if let Some(h) = c.trace_hash {
            fold.push(h);
        }
        if let Some(why) = bad {
            v.failed_cells[k] = true;
            v.notes.push(format!(
                "cell {k} {} {} seed {}: {why}",
                c.spec, c.config, c.seed
            ));
        }
    }
    v.fold = fold.finish();
    let mut first = 0;
    for (i, &(count, ok)) in phase.specs.iter().enumerate() {
        if !ok {
            v.failed_cells[first..first + count]
                .iter_mut()
                .for_each(|f| *f = true);
            v.notes.push(format!("spec {i} render reported FAILURE"));
        }
        first += count;
    }
    if let Some(e) = expected {
        if e.fold != v.fold {
            v.fail_all(format!(
                "trace-hash fold {:016x} != expected {:016x}",
                v.fold, e.fold
            ));
        }
        if e.text != v.text_digest {
            v.fail_all(format!(
                "figure-text digest {:016x} != expected {:016x}",
                v.text_digest, e.text
            ));
        }
    }
    v
}

/// Top-level report keys whose values legitimately differ between a
/// cold and a warm run (timings and cache traffic).
const VOLATILE_KEYS: &[&str] = &[
    "wall_ms",
    "cells_wall_ms",
    "speedup",
    "cached_cells",
    "cache",
];

/// Removes the `"key": value, ` field from one cell line of the report.
fn drop_field(line: &str, key: &str) -> String {
    let pat = format!("\"{key}\": ");
    match line.find(&pat) {
        Some(at) => {
            let rest = &line[at..];
            let end = rest.find(", ").map_or(rest.len(), |e| e + 2);
            format!("{}{}", &line[..at], &rest[end..])
        }
        None => line.to_string(),
    }
}

/// The JSON report with its volatile fields stripped, one line per
/// element: the top-level lines without timing and cache-traffic keys,
/// and every cell line without `wall_ms` and `cached`.
pub fn stable_report(json: &str) -> Vec<String> {
    json.lines()
        .filter(|l| {
            !VOLATILE_KEYS
                .iter()
                .any(|k| l.starts_with(&format!("  \"{k}\": ")))
        })
        .map(|l| {
            if l.starts_with("    {") {
                drop_field(&drop_field(l, "wall_ms"), "cached")
            } else {
                l.to_string()
            }
        })
        .collect()
}

/// [`fnv64`] over the stripped report lines.
pub fn stable_digest(lines: &[String]) -> u64 {
    let mut joined = String::new();
    for l in lines {
        let _ = writeln!(joined, "{l}");
    }
    fnv64(joined.as_bytes())
}

/// Compares a phase's stripped report and figure text with those a
/// reference phase wrote into `reference_dir`: each cell whose stripped
/// line differs fails; a differing header, cell count or figure text
/// fails every cell.
pub fn compare_with_reference(phase: &Phase, reference_dir: &Path, v: &mut Verdict) {
    let read = |name: &str| std::fs::read_to_string(reference_dir.join(name));
    let (Ok(ref_json), Ok(ref_text), Some(json)) =
        (read(REPORT_FILE), read(FIGURE_FILE), phase.json.as_ref())
    else {
        v.fail_all(format!(
            "reference report or figure missing in {}",
            reference_dir.display()
        ));
        return;
    };
    if ref_text != phase.text {
        v.fail_all("figure text differs from the reference".to_string());
    }
    let ours = stable_report(json);
    let theirs = stable_report(&ref_json);
    if ours.len() != theirs.len() {
        v.fail_all(format!(
            "report has {} stripped lines, reference {}",
            ours.len(),
            theirs.len()
        ));
        return;
    }
    let mut cell = 0;
    let mut differing = 0;
    for (a, b) in ours.iter().zip(&theirs) {
        let is_cell = a.starts_with("    {");
        if a != b {
            if is_cell && cell < v.failed_cells.len() {
                v.failed_cells[cell] = true;
                differing += 1;
            } else {
                v.fail_all(format!("report header differs from the reference: {a}"));
            }
        }
        cell += usize::from(is_cell);
    }
    if differing > 0 {
        v.notes.push(format!(
            "{differing} cell(s) differ from the reference report"
        ));
    }
}
