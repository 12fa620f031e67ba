//! Put the stock and asymmetry-aware schedulers head to head across every
//! workload class in the suite, on one asymmetric machine.
//!
//! Run with: `cargo run --release -p asym-examples --example scheduler_shootout`

use asym_core::{run_spec, AsymConfig, ExperimentOptions, SpecMode, TextTable, Workload};
use asym_kernel::SchedPolicy;
use asym_workloads::h264::H264;
use asym_workloads::japps::JAppServer;
use asym_workloads::pmake::Pmake;
use asym_workloads::specjbb::{GcKind, SpecJbb};
use asym_workloads::tpch::TpcH;
use asym_workloads::webserver::{Apache, LoadLevel, Zeus};

fn main() {
    let config = [AsymConfig::new(2, 2, 8)];
    let run = |w: &dyn Workload, policy| {
        let options = ExperimentOptions::new(4);
        run_spec(w, &config, SpecMode::Clean { policy, options })
    };
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(SpecJbb::new(12).gc(GcKind::ConcurrentGenerational)),
        Box::new(JAppServer::new(320.0)),
        Box::new(TpcH::single_query(3)),
        Box::new(Apache::new(LoadLevel::light())),
        Box::new(Zeus::new(LoadLevel::light())),
        Box::new(H264::new()),
        Box::new(Pmake::new()),
    ];

    let mut t = TextTable::new(vec![
        "workload",
        "unit",
        "stock mean",
        "stock cov%",
        "aware mean",
        "aware cov%",
        "kernel fix?",
    ]);
    for w in &workloads {
        let stock = run(w.as_ref(), SchedPolicy::os_default());
        let aware = run(w.as_ref(), SchedPolicy::asymmetry_aware());
        let (stock, aware) = (stock.clean(), aware.clean());
        let (s, a) = (&stock.outcomes[0], &aware.outcomes[0]);
        let helps = a.samples.cov() < 0.5 * s.samples.cov() && s.samples.cov() > 0.05;
        t.row(vec![
            stock.workload.clone(),
            stock.unit.clone(),
            format!("{:.1}", s.samples.mean()),
            format!("{:.1}", s.samples.cov() * 100.0),
            format!("{:.1}", a.samples.mean()),
            format!("{:.1}", a.samples.cov() * 100.0),
            if helps { "yes".into() } else { "no".into() },
        ]);
        eprintln!("  [shootout] {} done", stock.workload);
    }
    println!("2f-2s/8, 4 runs per cell:\n\n{}", t.render());
    println!(
        "The aware kernel rescues kernel-visible workloads (SPECjbb, Apache);\n\
         it cannot reach TPC-H's or Zeus's internal scheduling."
    );
}
