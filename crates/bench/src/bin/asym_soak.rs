//! `asym-soak`: the chaos soak harness. Drives randomized environment ×
//! fault campaigns through the resilient and differential runners and
//! asserts the graceful-degradation invariants hold: every run is
//! classified, nothing panics or deadlocks, trace analyses stay clean,
//! and every campaign finishes inside a bounded adaptive retry/backoff
//! ladder — hostile conditions may cost retries and budget, never
//! correctness.
//!
//! Campaigns are a pure function of the master seed: each draws a
//! workload, machine configuration, dynamic environment regime (DVFS /
//! thermal / co-tenant / combined), discrete fault profile (none /
//! hotplug+throttle / kills), and runner kind from its own SplitMix64
//! stream, so `asym_soak --seed 7` replays bit-identically.
//!
//! ```text
//! asym_soak --quick                 # CI smoke: 6 campaigns, one config
//! asym_soak --seed 7 --campaigns 40 # a longer named soak
//! asym_soak --quick --json          # + SOAK_report.json
//! ```
//!
//! Exits non-zero if any invariant breaks.

use asym_analysis::ViolationLog;
use asym_bench::{output_path, paper_workloads};
use asym_core::{run_spec, AsymConfig, ResilientOptions, RunClass, SpecMode, Workload};
use asym_kernel::SchedPolicy;
use asym_sim::{EnvironmentPlan, EnvironmentProfile, FaultPlan, FaultProfile, Rng, SimDuration};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The window environments evolve over and faults are drawn from.
const HORIZON: SimDuration = SimDuration::from_secs(2);

/// Starting sim-time budget; doubled on every backoff round.
const BASE_BUDGET: SimDuration = SimDuration::from_secs(60);

/// Maximum adaptive rounds per campaign before the soak gives up.
const MAX_ROUNDS: u32 = 3;

/// Default path for `--json` without an explicit `=PATH`.
const DEFAULT_JSON_PATH: &str = "SOAK_report.json";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Faults {
    None,
    HotplugThrottle,
    Kills,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runner {
    Resilient,
    Differential,
}

/// One randomized campaign, fully determined by its own seed.
struct Campaign {
    seed: u64,
    workload_idx: usize,
    config: AsymConfig,
    regime: &'static str,
    profile: EnvironmentProfile,
    faults: Faults,
    runner: Runner,
    policy: SchedPolicy,
    reps: usize,
}

/// What one campaign's adaptive ladder produced.
struct CampaignOutcome {
    rounds: u32,
    final_retries: u32,
    total_runs: usize,
    completed: usize,
    time_limit: usize,
    stalled: usize,
    deadlock: usize,
    panicked: usize,
    settled: bool,
}

fn draw_campaign(rng: &mut Rng, quick: bool) -> Campaign {
    let regimes = [
        ("dvfs", EnvironmentProfile::dvfs(HORIZON)),
        ("thermal", EnvironmentProfile::thermal(HORIZON)),
        ("co-tenant", EnvironmentProfile::co_tenant(HORIZON)),
        ("combined", EnvironmentProfile::combined(HORIZON)),
    ];
    let configs = if quick {
        vec![AsymConfig::new(1, 3, 8)]
    } else {
        AsymConfig::standard_nine().to_vec()
    };
    let (regime, profile) = regimes[rng.index(regimes.len())];
    let faults = *rng.pick(&[Faults::None, Faults::HotplugThrottle, Faults::Kills]);
    let runner = *rng.pick(&[Runner::Resilient, Runner::Differential]);
    let policy = if rng.chance(0.5) {
        SchedPolicy::os_default()
    } else {
        SchedPolicy::asymmetry_aware()
    };
    Campaign {
        seed: rng.next_u64(),
        workload_idx: rng.index(paper_workloads().len()),
        config: configs[rng.index(configs.len())],
        regime,
        profile,
        faults,
        runner,
        policy,
        reps: if quick { 1 } else { 2 },
    }
}

/// Options for one round of a campaign: environment always attached,
/// faults per the campaign's draw, budget and retries per the ladder.
fn round_options(c: &Campaign, round: u32, log: &ViolationLog) -> (ResilientOptions, u32) {
    let retries = 1u32 << round;
    let budget = BASE_BUDGET * (1u64 << round);
    let profile = c.profile;
    let mut opts = ResilientOptions::new(c.reps)
        .base_seed(c.seed)
        .watchdog(SimDuration::from_secs(5))
        .sim_time_budget(budget)
        .retries(retries)
        .trace_check(log.check())
        .environment_planner(move |setup| {
            EnvironmentPlan::generate(setup.seed, setup.config.num_cores() as usize, &profile)
        });
    match c.faults {
        Faults::None => {}
        Faults::HotplugThrottle => {
            opts = opts.fault_planner(|setup| {
                FaultPlan::generate(
                    setup.seed,
                    setup.config.num_cores() as usize,
                    &FaultProfile::hotplug_and_throttle(HORIZON),
                )
            });
        }
        Faults::Kills => {
            opts = opts.fault_planner(|setup| {
                FaultPlan::generate(
                    setup.seed,
                    setup.config.num_cores() as usize,
                    &FaultProfile::with_kills(HORIZON, 2),
                )
            });
        }
    }
    (opts, retries)
}

/// Runs one campaign through the adaptive ladder: any non-completed
/// class escalates the next round's retry count and budget (backoff in
/// simulated time, not host time). Returns the final round's classes.
fn run_campaign(c: &Campaign, w: &dyn Workload, log: &ViolationLog) -> CampaignOutcome {
    let configs = [c.config];
    let mut rounds = 0;
    loop {
        let (options, retries) = round_options(c, rounds, log);
        rounds += 1;
        let (total_runs, counts): (usize, Box<dyn Fn(RunClass) -> usize>) = match c.runner {
            Runner::Resilient => {
                let policy = c.policy;
                let r = run_spec(w, &configs, SpecMode::Resilient { policy, options });
                let total = r.resilient().outcomes.iter().map(|o| o.records.len()).sum();
                (total, Box::new(move |class| r.resilient().count(class)))
            }
            Runner::Differential => {
                let r = run_spec(w, &configs, SpecMode::Differential { options });
                let total = r.differential().total_runs();
                (total, Box::new(move |class| r.differential().count(class)))
            }
        };
        let completed = counts(RunClass::Completed);
        let settled = completed == total_runs && total_runs > 0;
        if settled || rounds >= MAX_ROUNDS {
            return CampaignOutcome {
                rounds,
                final_retries: retries,
                total_runs,
                completed,
                time_limit: counts(RunClass::TimeLimit),
                stalled: counts(RunClass::Stalled),
                deadlock: counts(RunClass::Deadlock),
                panicked: counts(RunClass::Panicked),
                settled,
            };
        }
    }
}

fn faults_name(f: Faults) -> &'static str {
    match f {
        Faults::None => "none",
        Faults::HotplugThrottle => "hotplug+throttle",
        Faults::Kills => "kills",
    }
}

fn runner_name(r: Runner) -> &'static str {
    match r {
        Runner::Resilient => "resilient",
        Runner::Differential => "differential",
    }
}

struct Args {
    quick: bool,
    seed: u64,
    campaigns: Option<usize>,
    json: Option<PathBuf>,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        quick: false,
        seed: 0,
        campaigns: None,
        json: None,
    };
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => out.quick = true,
            "--json" => out.json = Some(PathBuf::from(DEFAULT_JSON_PATH)),
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                out.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--campaigns" => {
                let v = it.next().ok_or("--campaigns needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --campaigns '{v}'"))?;
                if n == 0 {
                    return Err("--campaigns needs a positive integer".to_string());
                }
                out.campaigns = Some(n);
            }
            s if s.starts_with("--json=") => {
                out.json = Some(output_path("--json", &s["--json=".len()..])?);
            }
            other => {
                return Err(format!(
                    "unknown argument '{other}' (expected --quick, --seed N, \
                     --campaigns N, --json[=PATH])"
                ));
            }
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: asym_soak [--quick] [--seed N] [--campaigns N] [--json[=PATH]]");
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let n = args.campaigns.unwrap_or(if args.quick { 6 } else { 24 });
    let workloads = paper_workloads();
    let log = ViolationLog::new();
    println!(
        "asym-soak: {n} campaign(s), master seed {}, {} mode",
        args.seed,
        if args.quick { "quick" } else { "full" }
    );

    let mut rng = Rng::new(args.seed ^ 0x50_41_4b); // "SOAK"-ish tweak keeps seed 0 nontrivial
    let mut json_campaigns = String::new();
    let (mut unsettled, mut panicked, mut deadlocked, mut unclassified) =
        (0usize, 0usize, 0usize, 0usize);
    for id in 0..n {
        let c = draw_campaign(&mut rng, args.quick);
        let w = workloads[c.workload_idx].as_ref();
        let out = run_campaign(&c, w, &log);
        let (expected, policy) = match c.runner {
            Runner::Resilient => (c.reps, c.policy.to_string()),
            // The differential runner pairs both kernels itself; the
            // drawn policy is unused there.
            Runner::Differential => (c.reps * 4, "stock+aware".to_string()),
        };
        println!(
            "  [{}] #{id} {} @ {} · env {} · faults {} · {} ({}): \
             {}/{} completed, {} round(s), retries {}, tl/st/dl/pn {}/{}/{}/{}",
            if out.settled { "ok" } else { "DEGRADED" },
            w.name(),
            c.config,
            c.regime,
            faults_name(c.faults),
            runner_name(c.runner),
            policy,
            out.completed,
            out.total_runs,
            out.rounds,
            out.final_retries,
            out.time_limit,
            out.stalled,
            out.deadlock,
            out.panicked,
        );
        unsettled += usize::from(!out.settled);
        panicked += out.panicked;
        deadlocked += out.deadlock;
        unclassified += expected.saturating_sub(out.total_runs);
        let _ = write!(
            json_campaigns,
            "{}{{\"id\": {id}, \"workload\": \"{}\", \"config\": \"{}\", \
             \"regime\": \"{}\", \"faults\": \"{}\", \"runner\": \"{}\", \
             \"policy\": \"{}\", \"seed\": {}, \"rounds\": {}, \"retries\": {}, \
             \"completed\": {}, \"total\": {}, \"settled\": {}}}",
            if id == 0 { "" } else { ", " },
            w.name(),
            c.config,
            c.regime,
            faults_name(c.faults),
            runner_name(c.runner),
            policy,
            c.seed,
            out.rounds,
            out.final_retries,
            out.completed,
            out.total_runs,
            out.settled,
        );
    }

    let violations = log.count();
    let ok =
        unsettled == 0 && panicked == 0 && deadlocked == 0 && unclassified == 0 && violations == 0;
    println!(
        "soak invariants: {n} campaign(s) settled {}, {panicked} panic(s), \
         {deadlocked} deadlock(s), {unclassified} unclassified run(s), \
         {violations} trace violation(s)",
        n - unsettled
    );
    if ok {
        println!("all degradation invariants clean: hostile environments and faults");
        println!("cost retries and budget, never correctness");
    } else {
        println!("FAILURE: at least one graceful-degradation invariant broke");
    }

    if let Some(path) = &args.json {
        let report = format!(
            "{{\"name\": \"soak\", \"master_seed\": {}, \"quick\": {}, \
             \"campaigns\": [{json_campaigns}], \"unsettled\": {unsettled}, \
             \"panicked\": {panicked}, \"deadlocked\": {deadlocked}, \
             \"unclassified\": {unclassified}, \"violations\": {violations}, \
             \"ok\": {ok}}}\n",
            args.seed, args.quick
        );
        match std::fs::write(path, report) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn empty_json_path_is_a_typed_error() {
        let a = parse(&["--quick", "--json=soak.json"]).expect("valid command line");
        assert_eq!(a.json, Some(PathBuf::from("soak.json")));
        let err = Err("--json needs a file path".to_string());
        assert_eq!(parse(&["--json="]).map(|a| a.json), err);
    }
}
