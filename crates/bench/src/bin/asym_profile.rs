//! `asym-profile`: trace-derived observability for one cell.
//!
//! Runs one paper workload on one machine configuration under one
//! policy and seed, captures the kernel traces, and prints the derived
//! run profiles: per-core busy/idle/offline time and utilization, the
//! paper's §3.1.1 "fast core idle while a slow core has runnable work"
//! time, migration and preemption counts, per-thread fast/slow
//! residency, sync-object wait attribution, and the scheduler-latency
//! and run-quantum histograms.
//!
//! `--perfetto[=PATH]` additionally writes a Chrome trace-event JSON
//! file loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing` for timeline inspection.

use asym_bench::{output_path, paper_workloads};
use asym_core::{AsymConfig, RunSetup};
use asym_kernel::{capture_traces, SchedPolicy};
use asym_obs::{perfetto_trace, profile_traces};
use std::path::PathBuf;
use std::process::ExitCode;

/// Default path for `--perfetto` without an explicit `=PATH`.
const DEFAULT_PERFETTO_PATH: &str = "asym_profile_trace.json";

const USAGE: &str = "usage: asym_profile --workload NAME [--config CFG] [--policy NAME] \
                     [--seed N] [--perfetto[=PATH]] | --list\n\
       --policy takes any registered policy (stock, asym-aware, vrt-fair, \
                     static-prio, speed-slice, steal-aware, temp-aware) or the \
                     alias 'aware'";

struct Args {
    workload: Option<String>,
    config: AsymConfig,
    policy: SchedPolicy,
    seed: u64,
    perfetto: Option<PathBuf>,
    list: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: None,
            // The paper's half-speed four-processor shape: the default
            // cell the observability layer is demonstrated on.
            config: AsymConfig::new(2, 2, 4),
            policy: SchedPolicy::os_default(),
            seed: 42,
            perfetto: None,
            list: false,
        }
    }
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => out.list = true,
            "--workload" => {
                out.workload = Some(it.next().ok_or("--workload needs a value")?);
            }
            "--config" => {
                let v = it.next().ok_or("--config needs a value (e.g. 2f-2s/4)")?;
                out.config = v.parse().map_err(|e| format!("--config: {e}"))?;
            }
            "--policy" => {
                let v = it.next().ok_or("--policy needs a registered policy name")?;
                out.policy = parse_policy(&v)?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got '{v}'"))?;
            }
            "--perfetto" => out.perfetto = Some(PathBuf::from(DEFAULT_PERFETTO_PATH)),
            s if s.starts_with("--workload=") => {
                out.workload = Some(s["--workload=".len()..].to_string());
            }
            s if s.starts_with("--config=") => {
                out.config = s["--config=".len()..]
                    .parse()
                    .map_err(|e| format!("--config: {e}"))?;
            }
            s if s.starts_with("--policy=") => {
                out.policy = parse_policy(&s["--policy=".len()..])?;
            }
            s if s.starts_with("--seed=") => {
                let v = &s["--seed=".len()..];
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got '{v}'"))?;
            }
            s if s.starts_with("--perfetto=") => {
                out.perfetto = Some(output_path("--perfetto", &s["--perfetto=".len()..])?);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(out)
}

fn parse_policy(v: &str) -> Result<SchedPolicy, String> {
    SchedPolicy::by_name(v).ok_or_else(|| {
        let names: Vec<&str> = SchedPolicy::registry().iter().map(|(n, _)| *n).collect();
        format!(
            "--policy '{v}' is not registered (one of: {})",
            names.join(", ")
        )
    })
}

fn list_workloads() -> ExitCode {
    println!("asym_profile --workload takes one of:");
    for w in paper_workloads() {
        println!("  {:<16} [{}]", w.name(), w.unit());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        return list_workloads();
    }
    let Some(name) = &args.workload else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let workloads = paper_workloads();
    let Some(workload) = workloads
        .iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
    else {
        eprintln!("unknown workload '{name}' (try --list)");
        return ExitCode::FAILURE;
    };

    let setup = RunSetup::new(args.config, args.policy, args.seed);
    let (result, traces) = capture_traces(|| workload.run(&setup));
    let profiles = profile_traces(&traces);

    println!(
        "asym_profile: {} on {} under {} (seed {})",
        workload.name(),
        args.config,
        args.policy,
        args.seed
    );
    println!(
        "primary metric: {:.1} {} over {} kernel(s)\n",
        result.value,
        workload.unit(),
        profiles.len()
    );
    for (i, p) in profiles.iter().enumerate() {
        if profiles.len() > 1 {
            println!("--- kernel {i} ---");
        }
        print!("{p}");
    }

    if let Some(path) = &args.perfetto {
        match std::fs::write(path, perfetto_trace(&profiles)) {
            Ok(()) => eprintln!("[asym-profile] wrote {}", path.display()),
            Err(e) => {
                eprintln!("[asym-profile] failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn empty_perfetto_path_is_a_typed_error() {
        let a = parse(&["--perfetto=trace.json"]).expect("valid command line");
        assert_eq!(a.perfetto, Some(PathBuf::from("trace.json")));
        let err = Err("--perfetto needs a file path".to_string());
        assert_eq!(parse(&["--perfetto="]).map(|a| a.perfetto), err);
    }
}
