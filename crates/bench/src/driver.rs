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
//!
//! `--profile=CELL` and `--diff=CELL_A,CELL_B` expand the same plan but
//! re-run only the named cells, with timeline profiles.

use crate::spec::{registry, Section, SweepContext, SweepSpec};
use asym_analysis::hb::ConcurrencyFold;
use asym_core::{
    resolve_jobs, Cell, CellCache, CellRunner, ExperimentPlan, ProfiledRun, TraceCheck,
};
use asym_obs::{perfetto_diff_trace, perfetto_runs, perfetto_trace, ProfileDiff};
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

/// Standard output for reports. A reader that stops early (`| head`)
/// closes the pipe; printing then ends quietly instead of panicking, and
/// the run finishes as if everything had been printed.
#[derive(Debug, Default)]
pub struct Printer {
    closed: bool,
}

impl Printer {
    /// Prints `args` (the target of `write!` and `writeln!`) until a
    /// write fails. A failure other than a closed pipe is reported on
    /// stderr.
    pub fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        if self.closed {
            return;
        }
        if let Err(e) = std::io::stdout().write_fmt(args) {
            self.closed = true;
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                eprintln!("[asym-sweep] stdout: {e}");
            }
        }
    }
}

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
    /// `--profile=CELL` (one cell) or `--diff=CELL_A,CELL_B` (two):
    /// re-run these cells instead of the sweep. A cell is named
    /// `SPEC:CONFIG:REP` from its report's `spec`, `config` and `rep`,
    /// e.g. `table1/jbb-stock:2f-2s/4:0`.
    pub cells: Vec<String>,
    /// `--perfetto[=PATH]`: also write the re-run cells' timelines as
    /// Perfetto JSON (default: `asym_trace.json`).
    pub perfetto: Option<PathBuf>,
}

impl SweepArgs {
    /// Parses a raw argument list (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<SweepArgs, String> {
        let mut out = SweepArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let (flag, inline) = match a.split_once('=') {
                Some((flag, v)) if flag.starts_with("--") => (flag, Some(v)),
                _ => (a.as_str(), None),
            };
            // A valued flag reads `--flag=V` or `--flag V`.
            let mut value = || inline.map(str::to_string).or_else(|| it.next());
            match (flag, inline) {
                ("--quick", None) => out.quick = true,
                ("--check", None) => out.check = true,
                ("--list", None) => out.list = true,
                ("--json", None) => out.json = Some(PathBuf::from(DEFAULT_JSON_PATH)),
                ("--json", Some(v)) => out.json = Some(output_path(flag, v)?),
                ("--perfetto", None) => out.perfetto = Some(PathBuf::from("asym_trace.json")),
                ("--perfetto", Some(v)) => out.perfetto = Some(output_path(flag, v)?),
                ("--jobs", _) => out.jobs = Some(positive(flag, value())?),
                ("--max-cells", _) => out.max_cells = Some(positive(flag, value())?),
                ("--cache", _) => out.cache = parse_cache(&value().unwrap_or_default())?,
                ("--profile" | "--diff", Some(v)) => {
                    let wanted = if flag == "--profile" { 1 } else { 2 };
                    if !out.cells.is_empty() || v.split(',').count() != wanted {
                        return Err("give one --profile=CELL or --diff=CELL_A,CELL_B".into());
                    }
                    out.cells = v.split(',').map(str::to_string).collect();
                }
                (s, _) if s.starts_with('-') => {
                    return Err(format!(
                        "unknown flag '{a}' (expected --quick, --check, --jobs N, \
                         --json[=PATH], --cache[=DIR|=off], --max-cells N, --list, \
                         --profile=CELL, --diff=CELL_A,CELL_B, --perfetto[=PATH])"
                    ));
                }
                _ => out.names.push(a.clone()),
            }
        }
        if out.perfetto.is_some() && out.cells.is_empty() {
            return Err("--perfetto needs --profile=CELL or --diff=CELL_A,CELL_B".into());
        }
        Ok(out)
    }

    /// Parses `std::env::args()`.
    pub fn from_env() -> Result<SweepArgs, String> {
        SweepArgs::parse(std::env::args().skip(1))
    }
}

/// Parses the positive integer a flag such as `--jobs N` takes.
fn positive(flag: &str, v: Option<String>) -> Result<usize, String> {
    let v = v.ok_or(format!("{flag} needs a value"))?;
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer, got '{v}'")),
    }
}

/// Parses the `PATH` of an output flag such as `--json=PATH`. An empty
/// path is a typed error, caught before anything runs rather than when
/// the finished run tries to write to it.
fn output_path(flag: &str, v: &str) -> Result<PathBuf, String> {
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

    if !args.cells.is_empty() {
        let perfetto = args.perfetto.as_deref();
        let run = resolve(&sections, &plan, &args.cells)
            .and_then(|cells| rerun(&sections, &plan, &args.cells, &cells, perfetto));
        let Err(e) = run else {
            return ExitCode::SUCCESS;
        };
        eprintln!("[asym-sweep] {e}");
        return ExitCode::FAILURE;
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
    let mut out = Printer::default();
    for (count, render) in counts.iter().zip(&renders) {
        let rendered = render(&outcome.results[idx..idx + count]);
        idx += count;
        write!(out, "{}", rendered.text);
        ok &= rendered.ok;
    }

    let report = &outcome.report;
    // Memoized and restored cells spend no host time: the
    // serial-equivalent time and the speedup are the executed cells'.
    let memoized = report.memoized_cells();
    let restored = report.cells.iter().filter(|c| c.cached && !c.memoized);
    let restored = restored.count();
    let executed = report.cells.len() - memoized - restored;
    let timing = format!(
        " ({:.0} ms serial-equivalent, {:.2}x speedup)",
        report.cells_wall_ms(),
        report.speedup()
    );
    eprintln!(
        "[asym-sweep] {} cell(s) in {:.0} ms wall: {executed} executed{}, {memoized} memoized \
         in-plan, {restored} restored from the cache, {} retries",
        report.cells.len(),
        report.wall_ms,
        if executed > 0 { timing.as_str() } else { "" },
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
                "[asym-sweep] CONCURRENCY VIOLATION {} {} {} seed {} (--profile={}:{}:{}):",
                c.spec, c.config, c.policy, c.seed, c.spec, c.config, c.rep
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
    if let Some(stats) = &report.cache {
        eprintln!(
            "[asym-sweep] cache: {} hit(s), {} miss(es), {} skip(s), {} store(s), {} invalidation(s)",
            stats.hits, stats.misses, stats.skips, stats.stores, stats.invalidations,
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

/// The plan index of each cell `names` selects, or why one cannot be
/// re-run; decided before any cell runs.
fn resolve(
    sections: &[Section],
    plan: &ExperimentPlan<'_>,
    names: &[String],
) -> Result<Vec<usize>, String> {
    let name = |c: &Cell| format!("{}:{}:{}", sections[c.spec].label, c.setup.config, c.rep);
    let cells = plan.cells();
    names
        .iter()
        .map(|sel| {
            let mut found = (0..cells.len()).filter(|&i| name(&cells[i]) == *sel);
            match (found.next(), found.next()) {
                (None, _) => Err(format!(
                    "no cell '{sel}' in the selected specs: name the spec that holds it, \
                     and the cell as SPEC:CONFIG:REP from its report's spec, config and rep"
                )),
                (Some(_), Some(_)) => Err(format!(
                    "cell selector '{sel}' is ambiguous: its section appears twice in the plan"
                )),
                (Some(i), None)
                    if names.len() == 2
                        && sections[cells[i].spec].mode.name() == "differential" =>
                {
                    Err(format!(
                        "--diff takes single-run cells, and '{sel}' is differential: \
                         open its four legs with --profile={sel}"
                    ))
                }
                (Some(i), None) => Ok(i),
            }
        })
        .collect()
}

/// Re-runs `cells` (selected as `names`) through the engine with
/// timeline profiles, prints the `--profile` report (one cell) or the
/// `--diff` report (two), and writes the Perfetto export to `perfetto`.
fn rerun(
    sections: &[Section],
    plan: &ExperimentPlan<'_>,
    names: &[String],
    cells: &[usize],
    perfetto: Option<&Path>,
) -> Result<(), String> {
    // A run's workload, configuration, policy and seed, and its metric.
    let describe = |i: usize, run: &ProfiledRun| {
        let (cell, r) = (&plan.cells()[i], &run.record);
        let (section, policy, seed) = (&sections[cell.spec], run.policy, r.seed);
        let (w, config) = (&section.workload, cell.setup.config);
        let mut about = format!("{} on {config} under {policy}, seed {seed}", w.name());
        if section.mode.name() != "clean" {
            about += &format!(", {} after {} attempt(s)", r.class, r.attempts);
        }
        let metric = match r.value {
            Some(v) => format!("{v:.1} {}", w.unit()),
            None => format!("none ({})", r.class),
        };
        (about, metric)
    };
    if let ([name], [i]) = (names, cells) {
        let runs = plan.profile_cell(*i);
        let mut out = Printer::default();
        for (k, run) in runs.iter().enumerate() {
            let (about, metric) = describe(*i, run);
            let leg = run.leg.map_or(String::new(), |l| format!(" leg {l}"));
            let n = run.profiles.len();
            write!(out, "{}", if k > 0 { "\n" } else { "" });
            writeln!(out, "asym_sweep --profile={name}{leg}: {about}");
            writeln!(out, "primary metric: {metric} over {n} kernel(s)\n");
            for (k, p) in run.profiles.iter().enumerate() {
                if n > 1 {
                    writeln!(out, "--- kernel {k} ---");
                }
                write!(out, "{p}");
            }
        }
        return write_trace(perfetto, || match &runs[..] {
            [run] if run.leg.is_none() => perfetto_trace(&run.profiles),
            legs => perfetto_runs(
                &legs
                    .iter()
                    .map(|r| (r.leg.unwrap_or_default(), &r.profiles[..]))
                    .collect::<Vec<_>>(),
            ),
        });
    }
    let [a, b] = [cells[0], cells[1]].map(|i| plan.profile_cell(i).remove(0));
    let (name_a, name_b) = (&names[0], &names[1]);
    let diff = ProfileDiff::new(&a.profiles, &b.profiles, name_a, name_b)
        .map_err(|e| format!("--diff cannot align {name_a} with {name_b}: {e}"))?;
    let ((about_a, metric_a), (about_b, metric_b)) =
        (describe(cells[0], &a), describe(cells[1], &b));
    let mut out = Printer::default();
    writeln!(
        out,
        "asym_sweep --diff: A={name_a} ({about_a}) vs B={name_b} ({about_b})"
    );
    writeln!(out, "primary metric: A {metric_a}  B {metric_b}\n");
    write!(out, "{diff}");
    writeln!(out, "attribution json: {}", diff.attribution.to_json());
    write_trace(perfetto, || {
        let (label_a, label_b) = (format!("A:{name_a}"), format!("B:{name_b}"));
        perfetto_diff_trace(&a.profiles, &b.profiles, &label_a, &label_b)
    })
}

/// Writes the Perfetto export `json` renders to `path`, if one was asked for.
fn write_trace(path: Option<&Path>, json: impl FnOnce() -> String) -> Result<(), String> {
    let Some(path) = path else {
        return Ok(());
    };
    std::fs::write(path, json()).map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    eprintln!("[asym-sweep] wrote {}", path.display());
    Ok(())
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
        let perfetto_err = Err("--perfetto needs a file path".to_string());
        let args = ["--profile=t:2f-2s/4:0", "--perfetto="];
        assert_eq!(parse(&args).map(|a| a.perfetto), perfetto_err);
        assert!(parse(&["--diff=t:2f-2s/4:0"]).is_err());
        assert!(parse(&["--profile=t:2f-2s/4:0,t:2f-2s/4:1"]).is_err());
        let err = parse(&["--perfetto"]).unwrap_err();
        assert_eq!(
            err,
            "--perfetto needs --profile=CELL or --diff=CELL_A,CELL_B"
        );
        let both = ["--profile=t:2f-2s/4:0", "--diff=t:2f-2s/4:0,t:2f-2s/4:1"];
        assert!(parse(&both).is_err());

        // Selectors that name no single cell fail before any cell runs.
        let resolve = |argv: &[&str]| {
            let args = parse(argv).expect("valid command line");
            let ctx = SweepContext { quick: args.quick };
            let specs = registry();
            let sections: Vec<Section> = args
                .names
                .iter()
                .flat_map(|n| (specs.iter().find(|s| s.name == n).unwrap().build)(&ctx).sections)
                .collect();
            let mut plan = ExperimentPlan::new("test");
            for s in &sections {
                let mode = s.mode.clone();
                plan.push(s.label.as_str(), s.workload.as_ref(), &s.configs, mode);
            }
            resolve(&sections, &plan, &args.cells)
        };
        let jbb = "--profile=table1/jbb-stock:2f-2s/4:0";
        assert_eq!(resolve(&["table1", jbb]).map(|c| c.len()), Ok(1));
        assert!(resolve(&["mini", jbb]).unwrap_err().contains("no cell"));
        for cell in ["nope", "a:b", ":2f-2s/4:0", "table1/jbb-stock:2f-2s/4:4"] {
            let err = resolve(&["table1", &format!("--profile={cell}")]).unwrap_err();
            assert!(err.contains("SPEC:CONFIG:REP"), "{cell}: {err}");
        }
        let err = resolve(&["table1", "table1", jbb]).unwrap_err();
        assert!(err.contains("is ambiguous"), "{err}");
        let cell = "absorb/Apache:1f-3s/8:0";
        let diff = format!("--diff={cell},{cell}");
        let err = resolve(&["extra_absorption", "--quick", &diff]).unwrap_err();
        assert!(err.contains(&format!("--profile={cell}")), "{err}");
    }
}
