//! `asym-diff`: the differential causality view for one cell.
//!
//! Runs one paper workload on one machine configuration twice from the
//! *same* seed — once under each of two policies (stock vs asym-aware
//! by default) — and prints the [`ProfileDiff`] attribution report:
//! where run A lost (or gained) time relative to run B, partitioned
//! into exact machine-time buckets (fast-core busy, slow-core busy,
//! fast-idle-while-slow-runnable, other idle, offline — the five sum
//! to the wall-time delta times the core count, residual zero), plus
//! demand-side wait deltas and a per-thread table.
//!
//! `--perfetto[=PATH]` additionally writes a dual-timeline Chrome
//! trace-event JSON file: both runs as sibling process groups from a
//! shared t=0 origin, with per-core counter tracks (live speed,
//! runnable-queue depth) and flow arrows linking migration decisions
//! to landing dispatches. Load it at <https://ui.perfetto.dev>.

use asym_bench::{output_path, paper_workloads};
use asym_core::{AsymConfig, RunSetup};
use asym_kernel::{capture_stream, SchedPolicy};
use asym_obs::{perfetto_diff_trace, ProfileDiff, ProfileFold, RunProfile};
use std::path::PathBuf;
use std::process::ExitCode;

/// Default path for `--perfetto` without an explicit `=PATH`.
const DEFAULT_PERFETTO_PATH: &str = "asym_diff_trace.json";

const USAGE: &str = "usage: asym_diff --workload NAME [--config CFG] [--policy-a NAME] \
                     [--policy-b NAME] [--seed N] [--perfetto[=PATH]] | --list\n\
       --policy-a/--policy-b take any registered policy (stock, asym-aware, \
                     vrt-fair, static-prio, speed-slice, steal-aware, temp-aware) \
                     or the alias 'aware'; defaults: A=stock, B=asym-aware";

struct Args {
    workload: Option<String>,
    config: AsymConfig,
    policy_a: SchedPolicy,
    policy_b: SchedPolicy,
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
            policy_a: SchedPolicy::os_default(),
            policy_b: SchedPolicy::asymmetry_aware(),
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
            "--policy-a" => {
                let v = it
                    .next()
                    .ok_or("--policy-a needs a registered policy name")?;
                out.policy_a = parse_policy(&v)?;
            }
            "--policy-b" => {
                let v = it
                    .next()
                    .ok_or("--policy-b needs a registered policy name")?;
                out.policy_b = parse_policy(&v)?;
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
            s if s.starts_with("--policy-a=") => {
                out.policy_a = parse_policy(&s["--policy-a=".len()..])?;
            }
            s if s.starts_with("--policy-b=") => {
                out.policy_b = parse_policy(&s["--policy-b=".len()..])?;
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
            "policy '{v}' is not registered (one of: {})",
            names.join(", ")
        )
    })
}

fn list_workloads() -> ExitCode {
    println!("asym_diff --workload takes one of:");
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

    let run = |policy: SchedPolicy| {
        let setup = RunSetup::new(args.config, policy, args.seed);
        let (result, folds) = capture_stream(ProfileFold::with_timeline, || workload.run(&setup));
        let profiles: Vec<RunProfile> = folds.into_iter().map(ProfileFold::finish).collect();
        (result, profiles)
    };
    let (result_a, profiles_a) = run(args.policy_a);
    let (result_b, profiles_b) = run(args.policy_b);

    let label_a = args.policy_a.to_string();
    let label_b = args.policy_b.to_string();
    let diff = match ProfileDiff::new(&profiles_a, &profiles_b, &label_a, &label_b) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("[asym-diff] cannot align runs: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "asym_diff: {} on {} (seed {}), A={label_a} vs B={label_b}",
        workload.name(),
        args.config,
        args.seed
    );
    println!(
        "primary metric: A {:.1} {unit}  B {:.1} {unit}\n",
        result_a.value,
        result_b.value,
        unit = workload.unit()
    );
    print!("{diff}");
    println!("attribution json: {}", diff.attribution.to_json());

    if let Some(path) = &args.perfetto {
        let json = perfetto_diff_trace(
            &profiles_a,
            &profiles_b,
            &format!("A:{label_a}"),
            &format!("B:{label_b}"),
        );
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("[asym-diff] wrote {}", path.display()),
            Err(e) => {
                eprintln!("[asym-diff] failed to write {}: {e}", path.display());
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
