//! The unified sweep driver: selects [`SweepSpec`]s from the registry,
//! merges every section of every selected spec into ONE
//! [`ExperimentPlan`], executes the cells on the engine's host thread
//! pool, then renders each spec's figure text in order and (optionally)
//! writes the engine's structured JSON report.
//!
//! Because all specs share one plan, host threads drain one global cell
//! queue — a slow spec never serializes behind a fast one — and the
//! JSON report covers the whole invocation with per-cell timings, retry
//! counts, and trace hashes.

use crate::spec::{registry, SweepContext, SweepSpec};
use asym_analysis::hb::ConcurrencyFold;
use asym_core::{resolve_jobs, CellCache, CellRunner, ExperimentPlan, TraceCheck};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Default path for `--json` without an explicit `=PATH`.
pub const DEFAULT_JSON_PATH: &str = "BENCH_sweep.json";

/// Default directory of the persistent cell cache (gitignored); used
/// unless `--cache DIR` redirects it or `--cache=off` disables it.
pub const DEFAULT_CACHE_DIR: &str = ".asym-cache";

/// Where the persistent cell cache lives, if anywhere.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CacheSetting {
    /// No flag: cache at [`DEFAULT_CACHE_DIR`].
    #[default]
    Default,
    /// `--cache=off`: never read or write a cache.
    Off,
    /// `--cache DIR` / `--cache=DIR`: cache at an explicit directory.
    Dir(PathBuf),
}

impl CacheSetting {
    /// The directory to open, or `None` when caching is off.
    pub fn dir(&self) -> Option<PathBuf> {
        match self {
            CacheSetting::Default => Some(PathBuf::from(DEFAULT_CACHE_DIR)),
            CacheSetting::Off => None,
            CacheSetting::Dir(d) => Some(d.clone()),
        }
    }
}

/// Parsed `asym_sweep` command line.
#[derive(Debug, Clone, Default)]
pub struct SweepArgs {
    /// Positional spec names (empty selects the `mini` spec).
    pub names: Vec<String>,
    /// `--jobs N` / `--jobs=N`: host threads (overrides `ASYM_JOBS`;
    /// default: available parallelism).
    pub jobs: Option<usize>,
    /// `--quick`: CI smoke mode.
    pub quick: bool,
    /// `--json` / `--json=PATH`: write the engine's structured report.
    pub json: Option<PathBuf>,
    /// `--check`: run the happens-before race detector and policy lints
    /// on every cell's traces; findings fail the sweep.
    pub check: bool,
    /// `--list`: print registered specs and exit.
    pub list: bool,
    /// `--cache DIR` / `--cache=DIR` / `--cache=off`: where the
    /// persistent cell cache lives (default: [`DEFAULT_CACHE_DIR`]).
    pub cache: CacheSetting,
    /// `--max-cells N`: refuse to run a plan larger than `N` cells
    /// (guards against accidentally huge sweeps).
    pub max_cells: Option<usize>,
}

impl SweepArgs {
    /// Parses a raw argument list (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<SweepArgs, String> {
        let mut out = SweepArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--check" => out.check = true,
                "--list" => out.list = true,
                "--json" => out.json = Some(PathBuf::from(DEFAULT_JSON_PATH)),
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a value")?;
                    out.jobs = Some(parse_jobs(&v)?);
                }
                s if s.starts_with("--jobs=") => {
                    out.jobs = Some(parse_jobs(&s["--jobs=".len()..])?);
                }
                s if s.starts_with("--json=") => {
                    out.json = Some(output_path("--json", &s["--json=".len()..])?);
                }
                "--cache" => {
                    let v = it.next().unwrap_or_default();
                    out.cache = parse_cache(&v)?;
                }
                s if s.starts_with("--cache=") => {
                    out.cache = parse_cache(&s["--cache=".len()..])?;
                }
                "--max-cells" => {
                    let v = it.next().ok_or("--max-cells needs a value")?;
                    out.max_cells = Some(parse_max_cells(&v)?);
                }
                s if s.starts_with("--max-cells=") => {
                    out.max_cells = Some(parse_max_cells(&s["--max-cells=".len()..])?);
                }
                s if s.starts_with('-') => {
                    return Err(format!(
                        "unknown flag '{s}' (expected --quick, --check, --jobs N, \
                         --json[=PATH], --cache[=DIR|=off], --max-cells N, --list)"
                    ));
                }
                name => out.names.push(name.to_string()),
            }
        }
        Ok(out)
    }

    /// Parses `std::env::args()`.
    pub fn from_env() -> Result<SweepArgs, String> {
        SweepArgs::parse(std::env::args().skip(1))
    }
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("--jobs needs a positive integer, got '{v}'")),
    }
}

/// Parses the `PATH` of an output flag such as `--json=PATH`. An empty
/// path is a typed error, caught before anything runs rather than when
/// the finished run tries to write to it.
pub fn output_path(flag: &str, v: &str) -> Result<PathBuf, String> {
    if v.is_empty() {
        Err(format!("{flag} needs a file path"))
    } else {
        Ok(PathBuf::from(v))
    }
}

fn parse_cache(v: &str) -> Result<CacheSetting, String> {
    match v {
        "" => Err("--cache needs a directory (or 'off')".to_string()),
        "off" => Ok(CacheSetting::Off),
        dir => Ok(CacheSetting::Dir(PathBuf::from(dir))),
    }
}

fn parse_max_cells(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("--max-cells needs a positive integer, got '{v}'")),
    }
}

/// Runs the named specs as one merged plan. Prints each spec's figure
/// text to stdout in the order given; engine/progress chatter goes to
/// stderr so stdout stays byte-identical across `--jobs` settings.
pub fn run_sweeps(names: &[&str], args: &SweepArgs) -> ExitCode {
    let specs = registry();
    let mut selected: Vec<&SweepSpec> = Vec::new();
    for name in names {
        match specs.iter().find(|s| s.name == *name) {
            Some(s) => selected.push(s),
            None => {
                eprintln!("unknown sweep spec '{name}' (try --list)");
                return ExitCode::FAILURE;
            }
        }
    }
    if selected.is_empty() {
        eprintln!("no sweep specs selected (try --list)");
        return ExitCode::FAILURE;
    }

    let ctx = SweepContext { quick: args.quick };
    let mut renders = Vec::new();
    let mut counts = Vec::new();
    let mut sections = Vec::new();
    for spec in &selected {
        let def = (spec.build)(&ctx);
        counts.push(def.sections.len());
        renders.push(def.render);
        sections.extend(def.sections);
    }

    let plan_name = selected
        .iter()
        .map(|s| s.name)
        .collect::<Vec<_>>()
        .join("+");
    let mut plan = ExperimentPlan::new(plan_name);
    for s in &sections {
        plan.push(
            s.label.as_str(),
            s.workload.as_ref(),
            &s.configs,
            s.mode.clone(),
        );
    }

    // Fail fast on oversized plans BEFORE any cell executes.
    if let Some(cap) = args.max_cells {
        if plan.len() > cap {
            eprintln!(
                "[asym-sweep] refusing to run {} cells: over the --max-cells limit of {cap} \
                 (raise or drop --max-cells, or narrow the spec selection)",
                plan.len(),
            );
            return ExitCode::FAILURE;
        }
    }

    // Open the report file before any cell runs, so an unwritable path
    // fails in milliseconds rather than after the whole sweep.
    let json = match args.json.as_deref().map(JsonReport::open).transpose() {
        Ok(json) => json,
        Err(e) => {
            eprintln!("[asym-sweep] {e}");
            return ExitCode::FAILURE;
        }
    };

    let jobs = resolve_jobs(args.jobs);
    eprintln!(
        "[asym-sweep] {}: {} cell(s) across {} section(s) on {} host thread(s)",
        selected
            .iter()
            .map(|s| s.name)
            .collect::<Vec<_>>()
            .join("+"),
        plan.len(),
        sections.len(),
        jobs
    );

    // Per-cell profile metrics ride along only when the structured
    // report is requested: deriving them forces trace capture on every
    // attempt, which the plain text figures don't need.
    let mut runner = CellRunner::new(jobs).with_metrics(args.json.is_some());
    if args.check {
        runner = runner.with_trace_check(concurrency_check());
    }
    if let Some(dir) = args.cache.dir() {
        match CellCache::open(&dir) {
            Ok(cache) => runner = runner.with_cache(cache),
            Err(e) => eprintln!(
                "[asym-sweep] cell cache at {} unavailable ({e}); running uncached",
                dir.display()
            ),
        }
    }
    let outcome = runner.run(plan);

    let mut ok = true;
    let mut idx = 0;
    for (count, render) in counts.iter().zip(&renders) {
        let rendered = render(&outcome.results[idx..idx + count]);
        idx += count;
        print!("{}", rendered.text);
        ok &= rendered.ok;
    }

    let report = &outcome.report;
    eprintln!(
        "[asym-sweep] {} cell(s) in {:.0} ms wall ({:.0} ms serial-equivalent, {:.2}x speedup, {} retries)",
        report.cells.len(),
        report.wall_ms,
        report.cells_wall_ms(),
        report.speedup(),
        report.total_retries()
    );
    if args.check {
        let dirty: Vec<_> = report
            .cells
            .iter()
            .filter(|c| !c.violations.is_empty())
            .collect();
        for c in &dirty {
            eprintln!(
                "[asym-sweep] CONCURRENCY VIOLATION {} {} {} seed {}:",
                c.spec, c.config, c.policy, c.seed
            );
            for v in &c.violations {
                eprintln!("[asym-sweep]   - {v}");
            }
        }
        if dirty.is_empty() {
            eprintln!(
                "[asym-sweep] --check: all {} cell(s) race- and lint-clean",
                report.cells.len()
            );
        } else {
            eprintln!(
                "[asym-sweep] --check: {} finding(s) across {} cell(s)",
                report.total_violations(),
                dirty.len()
            );
            ok = false;
        }
    }
    eprintln!(
        "[asym-sweep] {} cell(s) reused in-plan from an earlier cell with the same cache address",
        report.memoized_cells()
    );
    if let Some(stats) = &report.cache {
        eprintln!(
            "[asym-sweep] cache: {} hit(s), {} miss(es), {} skip(s), {} store(s), {} invalidation(s) — {} cell(s) restored without executing",
            stats.hits,
            stats.misses,
            stats.skips,
            stats.stores,
            stats.invalidations,
            report.cached_cells()
        );
    }
    if let Some(json) = json {
        match json.write(&report.to_json()) {
            Ok(path) => eprintln!("[asym-sweep] wrote {}", path.display()),
            Err(e) => {
                eprintln!("[asym-sweep] {e}");
                ok = false;
            }
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--json` report file, opened for writing before the sweep runs.
/// An existing file keeps its contents until [`JsonReport::write`]
/// replaces them with the finished report.
#[derive(Debug)]
struct JsonReport {
    path: PathBuf,
    file: File,
}

impl JsonReport {
    /// Opens (creating if needed, but not truncating) `path`, or says in
    /// one line why it cannot be written.
    fn open(path: &Path) -> Result<JsonReport, String> {
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map(|file| JsonReport {
                path: path.to_path_buf(),
                file,
            })
            .map_err(|e| format!("cannot write --json report {}: {e}", path.display()))
    }

    /// Replaces the file's contents with `json`; returns the path written.
    fn write(mut self, json: &str) -> Result<PathBuf, String> {
        self.file
            .set_len(0)
            .and_then(|()| self.file.write_all(json.as_bytes()))
            .map(|()| self.path.clone())
            .map_err(|e| format!("failed to write {}: {e}", self.path.display()))
    }
}

/// The [`TraceCheck`] that plugs `asym-analysis`'s happens-before race
/// detection and policy lints into the cell engine:
/// every kernel of a cell streams through a [`ConcurrencyFold`], and
/// findings are rendered one line each in the analyses' deterministic
/// (kind, object, site) order.
pub fn concurrency_check() -> TraceCheck {
    Arc::new(|machine, policy, _seed| Box::new(ConcurrencyFold::new(machine, policy)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        SweepArgs::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_names_and_flags() {
        let a = parse(&[
            "fig1",
            "table1",
            "--quick",
            "--jobs",
            "2",
            "--json=out.json",
        ])
        .expect("valid command line");
        assert_eq!(a.names, ["fig1", "table1"]);
        assert!(a.quick && !a.check);
        assert_eq!(a.jobs, Some(2));
        assert_eq!(a.json, Some(PathBuf::from("out.json")));
        assert_eq!(a.cache, CacheSetting::Default);
        let a = parse(&["--cache=off", "--max-cells=5"]).expect("valid command line");
        assert_eq!(a.cache, CacheSetting::Off);
        assert_eq!(a.max_cells, Some(5));
        let a = parse(&["--cache", "dir"]).expect("valid command line");
        assert_eq!(a.cache, CacheSetting::Dir(PathBuf::from("dir")));
    }

    #[test]
    fn json_report_opens_before_the_run_and_replaces_only_when_written() {
        let dir = std::env::temp_dir().join(format!("asym-sweep-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("report.json");
        std::fs::write(&path, "an older, longer report").expect("seed file");
        let json = JsonReport::open(&path).expect("writable path");
        assert_eq!(
            std::fs::read_to_string(&path).expect("readable"),
            "an older, longer report",
            "opening must not truncate"
        );
        assert_eq!(json.write("{}").expect("written"), path);
        assert_eq!(std::fs::read_to_string(&path).expect("readable"), "{}");
        std::fs::remove_dir_all(&dir).expect("cleanup");

        let err = JsonReport::open(&dir.join("missing-dir").join("x.json")).unwrap_err();
        assert!(err.starts_with("cannot write --json report "), "{err}");
        assert!(!err.contains('\n'), "one-line error: {err}");
    }

    #[test]
    fn bad_values_are_typed_errors() {
        let cache_err = Err("--cache needs a directory (or 'off')".to_string());
        assert_eq!(parse(&["--cache="]).map(|a| a.cache), cache_err);
        assert_eq!(parse(&["--cache", ""]).map(|a| a.cache), cache_err);
        assert_eq!(parse(&["--cache"]).map(|a| a.cache), cache_err);
        let json_err = Err("--json needs a file path".to_string());
        assert_eq!(parse(&["--json="]).map(|a| a.json), json_err);
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs=x"]).is_err());
        assert!(parse(&["--max-cells=0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
