//! # asym-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! ISCA 2005 asymmetry paper. Every figure, table and extension
//! experiment is a registered sweep spec, and one driver runs them all:
//! `asym_sweep <spec>…` (`asym_sweep --list` names them) merges the
//! selected specs into one cell plan on the engine's host thread pool.
//!
//! Absolute values are simulator-scale (see EXPERIMENTS.md for the
//! scaling table); the claims under test are the *shapes*: which
//! configurations are unstable, who wins, and by roughly what factor.

use asym_core::{AsymConfig, Experiment, Stability, TextTable, Workload};
use asym_workloads::h264::H264;
use asym_workloads::japps::JAppServer;
use asym_workloads::pmake::Pmake;
use asym_workloads::specjbb::{GcKind, SpecJbb};
use asym_workloads::specomp::SpecOmp;
use asym_workloads::tpch::TpcH;
use asym_workloads::webserver::{Apache, LoadLevel, Zeus};

mod driver;
mod spec;

pub use driver::{
    concurrency_check, run_sweeps, CacheSetting, Printer, SweepArgs, DEFAULT_CACHE_DIR,
};
pub use spec::{registry, RenderFn, Rendered, Section, SweepContext, SweepDef, SweepSpec};

/// The eight paper workloads at the harness's standard
/// parameterizations, in fig10 / table-1 order: the roster of the
/// all-workload specs (`fig10` and `extra_check_matrix` among them).
pub(crate) fn paper_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(JAppServer::new(320.0)),
        Box::new(SpecJbb::new(16).gc(GcKind::ConcurrentGenerational)),
        Box::new(Apache::new(LoadLevel::light())),
        Box::new(Zeus::new(LoadLevel::light())),
        Box::new(TpcH::power_run()),
        Box::new(H264::new()),
        Box::new(SpecOmp::new("swim").work_scale(0.5)),
        Box::new(Pmake::new()),
    ]
}

/// Renders an experiment as the standard per-configuration table:
/// mean, min, max, CoV, and stability verdict.
pub fn render_experiment(exp: &Experiment) -> String {
    let mut t = TextTable::new(vec![
        "config", "power", "mean", "min", "max", "cov%", "verdict",
    ]);
    for o in &exp.outcomes {
        t.row(vec![
            o.config.to_string(),
            format!("{:.3}", o.config.compute_power()),
            format!("{:.1}", o.samples.mean()),
            format!("{:.1}", o.samples.min()),
            format!("{:.1}", o.samples.max()),
            format!("{:.2}", o.samples.cov() * 100.0),
            o.stability().to_string(),
        ]);
    }
    format!(
        "{} [{}] under {} ({} runs/config)\n{}",
        exp.workload,
        exp.unit,
        exp.policy,
        exp.outcomes.first().map_or(0, |o| o.samples.len()),
        t.render()
    )
}

/// Renders per-run values for a handful of configurations (the
/// "vertical scatter" view of the paper's run-dot figures).
pub fn render_runs(exp: &Experiment, configs: &[AsymConfig]) -> String {
    let mut t = TextTable::new(vec!["config", "runs"]);
    for c in configs {
        if let Some(o) = exp.outcome(*c) {
            let runs: Vec<String> = o
                .samples
                .values()
                .iter()
                .map(|v| format!("{v:.1}"))
                .collect();
            t.row(vec![c.to_string(), runs.join("  ")]);
        }
    }
    t.render()
}

/// One-line qualitative summary of an experiment's stability.
pub fn stability_line(exp: &Experiment) -> String {
    format!(
        "{}: symmetric worst CoV {:.2}%, asymmetric worst CoV {:.2}% -> {}",
        exp.workload,
        exp.worst_symmetric_cov() * 100.0,
        exp.worst_asymmetric_cov() * 100.0,
        match Stability::from_cov(exp.worst_asymmetric_cov()) {
            Stability::Stable => "stable",
            Stability::Marginal => "marginal",
            Stability::Unstable => "UNSTABLE",
        }
    )
}

/// A figure header as a string (three lines, trailing newline).
pub fn header(id: &str, caption: &str) -> String {
    format!(
        "==================================================================\n\
         {id}: {caption}\n\
         ==================================================================\n"
    )
}
