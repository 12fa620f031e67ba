//! The unified sweep driver. Runs any subset of the registered sweep
//! specs (figures, tables, extension experiments) as ONE cell-based
//! experiment plan on a host thread pool, with structured JSON results.
//!
//! ```text
//! asym_sweep --list                         # show registered specs
//! asym_sweep                                # the CI "mini" smoke spec
//! asym_sweep fig2 fig5 --jobs 4             # two figures, 4 host threads
//! asym_sweep all --json                     # everything + BENCH_sweep.json
//! asym_sweep --quick --jobs 2 --json        # CI smoke: mini spec + JSON
//! ```
//!
//! Per-cell results are bit-identical for every `--jobs` value: seeds
//! and fault plans are fixed at plan expansion, so parallelism changes
//! wall-clock only. The JSON report (`--json[=PATH]`, default
//! `BENCH_sweep.json`) carries per-cell timings, run classes, retry
//! counts, and trace hashes.

use asym_bench::{registry, run_sweeps, Printer, SweepArgs};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match SweepArgs::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        let mut out = Printer::default();
        writeln!(out, "registered sweep specs:");
        for spec in registry() {
            writeln!(out, "  {:<20} {}", spec.name, spec.caption);
        }
        writeln!(out, "  {:<20} every spec above, as one plan", "all");
        return ExitCode::SUCCESS;
    }
    let all: Vec<String> = registry().iter().map(|s| s.name.to_string()).collect();
    let names: Vec<&str> = if args.names.is_empty() {
        vec!["mini"]
    } else if args.names.iter().any(|n| n == "all") {
        all.iter().map(String::as_str).collect()
    } else {
        args.names.iter().map(String::as_str).collect()
    };
    run_sweeps(&names, &args)
}
