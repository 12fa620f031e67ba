//! Tune a database for an asymmetric machine: sweep TPC-H's
//! parallelization and optimization degrees and watch the
//! stability/performance trade-off the paper found.
//!
//! Run with: `cargo run --release -p asym-examples --example database_tuning`

use asym_core::{run_spec, AsymConfig, ExperimentOptions, SpecMode, TextTable};
use asym_kernel::SchedPolicy;
use asym_workloads::tpch::TpcH;

fn main() {
    let config = [AsymConfig::new(2, 2, 8)];

    let mut t = TextTable::new(vec!["par", "opt", "mean s", "min s", "max s", "cov%"]);
    for (par, opt) in [(4, 7), (8, 7), (4, 4), (4, 2), (1, 7)] {
        let w = TpcH::single_query(3).parallelization(par).optimization(opt);
        let policy = SchedPolicy::os_default();
        let options = ExperimentOptions::new(8);
        let result = run_spec(&w, &config, SpecMode::Clean { policy, options });
        let o = &result.clean().outcomes[0];
        t.row(vec![
            par.to_string(),
            opt.to_string(),
            format!("{:.2}", o.samples.mean()),
            format!("{:.2}", o.samples.min()),
            format!("{:.2}", o.samples.max()),
            format!("{:.1}", o.samples.cov() * 100.0),
        ]);
    }
    println!(
        "TPC-H Query 3 on 2f-2s/8, 8 runs per row:\n\n{}",
        t.render()
    );
    println!(
        "Aggressive plans (opt 7) are fast but unstable: the skewed sub-queries\n\
         make runtime hostage to DB2's per-run process binding. De-optimized\n\
         plans (opt 2) are slower but repeatable — the paper's §3.3 trade-off.\n\
         With parallelization off (par 1) the runtime is bimodal: the whole\n\
         query runs on whichever core the server process was bound to."
    );
}
