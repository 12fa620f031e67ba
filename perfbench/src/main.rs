//! `perfbench` — one timed sweep phase, or one traced per-layer run.
//!
//! ```text
//! perfbench phase --workload W --seed N --work DIR [--cache DIR] [--t0-ns NS]
//!                 [--expect FOLD:TEXT] [--reference DIR] [--setup-only]
//! perfbench trace --workload W --seed N --work DIR [--expect FOLD:TEXT]
//! ```
//!
//! Both print one JSON object as their last stdout line. `phase` runs
//! the workload's timed phase once (untraced) and reports its host wall
//! time, CPU time and peak RSS, plus the output checks; `--t0-ns` is the
//! wall-clock time (ns since the Unix epoch) at which the caller spawned
//! this process, so start-up cost can be counted as set-up;
//! `--setup-only` stops after set-up and reports only that. `trace`
//! reports every per-layer metric. `run.py` drives both.

use asym_core::CellCache;
use asym_perfbench::layers::traced_run;
use asym_perfbench::procfs::{cache_fingerprint, cpu_ticks, fs_type, peak_rss_kib};
use asym_perfbench::trace::Tracer;
use asym_perfbench::{
    check_phase, compare_with_reference, run_phase, stable_digest, stable_report, Expected,
    Verdict, Workload, JOBS,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

/// The simulator build's code fingerprint (see `build.rs`).
const FINGERPRINT: &str = env!("PERFBENCH_FINGERPRINT");

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at 100.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// At most this many check notes are printed.
const MAX_NOTES: usize = 20;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    work: PathBuf,
    cache: Option<PathBuf>,
    t0_ns: Option<u128>,
    expect: Option<Expected>,
    reference: Option<PathBuf>,
    setup_only: bool,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let command = raw
        .first()
        .cloned()
        .ok_or("missing command (phase | trace)")?;
    if command != "phase" && command != "trace" {
        return Err(format!("unknown command '{command}' (phase | trace)"));
    }
    let mut workload = None;
    let mut seed = None;
    let mut work = None;
    let mut args = Args {
        command,
        workload: Workload::Mini,
        seed: 0,
        work: PathBuf::new(),
        cache: None,
        t0_ns: None,
        expect: None,
        reference: None,
        setup_only: false,
    };
    let mut it = raw[1..].iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--work" => work = Some(PathBuf::from(value)),
            "--cache" => args.cache = Some(PathBuf::from(value)),
            "--t0-ns" => args.t0_ns = Some(value.parse().map_err(|_| bad())?),
            "--expect" => args.expect = Some(Expected::parse(value).ok_or_else(bad)?),
            "--reference" => args.reference = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.seed = seed.ok_or("--seed is required")?;
    args.work = work.ok_or("--work is required")?;
    if args.workload.cached() && args.command == "phase" && args.cache.is_none() {
        return Err(format!("{} needs --cache DIR", args.workload.name()));
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt_str(v: Option<&str>) -> String {
    v.map_or_else(|| "null".to_string(), json_str)
}

fn verdict_fields(v: &Verdict) -> String {
    let notes: Vec<String> = v
        .notes
        .iter()
        .take(MAX_NOTES)
        .map(|n| json_str(n))
        .collect();
    format!(
        "\"attempted\": {}, \"failed\": {}, \"fold\": \"{:016x}\", \"text_digest\": \"{:016x}\", \"notes\": [{}]",
        v.attempted(),
        v.failed(),
        v.fold,
        v.text_digest,
        notes.join(", ")
    )
}

fn phase(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("work dir: {e}"))?;
    let cache = match &args.cache {
        Some(dir) if args.workload.cached() => {
            Some(CellCache::open(dir).map_err(|e| format!("cache {}: {e}", dir.display()))?)
        }
        _ => None,
    };
    let now_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| e.to_string())?
        .as_nanos();
    let spawn_s = args
        .t0_ns
        .map_or(0.0, |t0| now_ns.saturating_sub(t0) as f64 / 1e9);
    if args.setup_only {
        return Ok(format!("{{\"spawn_s\": {}}}", json_num(spawn_s)));
    }
    let cpu0 = cpu_ticks().ok_or("cannot read /proc/self/stat")?;
    let phase = run_phase(
        args.workload,
        args.seed,
        cache,
        &args.work,
        &mut Tracer::off(),
    )
    .map_err(|e| format!("phase: {e}"))?;
    let cpu1 = cpu_ticks().ok_or("cannot read /proc/self/stat")?;
    let rss_kib = peak_rss_kib().ok_or("cannot read /proc/self/status")?;

    let mut verdict = check_phase(&phase, args.expect);
    if let Some(reference) = &args.reference {
        compare_with_reference(&phase, reference, &mut verdict);
    }
    let stable = phase
        .json
        .as_deref()
        .map(|j| format!("{:016x}", stable_digest(&stable_report(j))));
    let cache_fp = args.cache.as_deref().and_then(cache_fingerprint);
    let fs = fs_type(args.cache.as_deref().unwrap_or(&args.work));
    let t = &phase.times;
    Ok(format!(
        "{{\"workload\": {}, \"seed\": {}, \"jobs\": {JOBS}, \"wall_s\": {}, \"cpu_s\": {}, \"peak_rss_mb\": {}, \
         \"spawn_s\": {}, \"cells\": {}, {}, \"stable_digest\": {}, \"fingerprint\": \"{FINGERPRINT}\", \
         \"cache_fingerprint\": {}, \"fs\": {}, \"steps\": {{\"plan_s\": {}, \"run_s\": {}, \"render_s\": {}, \
         \"emit_s\": {}, \"write_s\": {}}}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(phase.wall.as_secs_f64()),
        json_num((cpu1 - cpu0) as f64 / CLOCK_TICKS_PER_S),
        json_num(rss_kib as f64 / 1024.0),
        json_num(spawn_s),
        phase.report.cells.len(),
        verdict_fields(&verdict),
        json_opt_str(stable.as_deref()),
        json_opt_str(cache_fp.as_deref()),
        json_str(&fs),
        json_num(t.plan.as_secs_f64()),
        json_num(t.run.as_secs_f64()),
        json_num(t.render.as_secs_f64()),
        json_num(t.emit.as_secs_f64()),
        json_num(t.write.as_secs_f64()),
    ))
}

fn trace(args: &Args) -> Result<String, String> {
    let run = traced_run(args.workload, args.seed, &args.work, args.expect)
        .map_err(|e| format!("traced run: {e}"))?;
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    Ok(format!(
        "{{\"workload\": {}, \"seed\": {}, \"jobs\": {JOBS}, {}, \"fingerprint\": \"{FINGERPRINT}\", \
         \"cache_fingerprint\": {}, \"fs\": {}, \"metrics\": {{{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        verdict_fields(&run.verdict),
        json_opt_str(run.cache_fingerprint.as_deref()),
        json_str(&fs_type(&args.work)),
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&raw).and_then(|args| {
        if args.command == "phase" {
            phase(&args)
        } else {
            trace(&args)
        }
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
