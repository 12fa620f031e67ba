//! Compare two web-server architectures on asymmetric hardware: Apache's
//! kernel-visible pre-forked processes versus Zeus's self-scheduled event
//! loops — and see why the kernel fix helps only one of them.
//!
//! Run with: `cargo run --release -p asym-examples --example webserver_farm`

use asym_core::{run_spec, AsymConfig, ExperimentOptions, SpecMode, Workload};
use asym_examples::print_experiment;
use asym_kernel::SchedPolicy;
use asym_workloads::webserver::{Apache, LoadLevel, Zeus};

fn main() {
    let configs = [
        AsymConfig::new(4, 0, 1),
        AsymConfig::new(3, 1, 8),
        AsymConfig::new(2, 2, 8),
        AsymConfig::new(0, 4, 8),
    ];
    let run = |w: &dyn Workload, policy| {
        let options = ExperimentOptions::new(5);
        run_spec(w, &configs, SpecMode::Clean { policy, options })
    };

    let apache = Apache::new(LoadLevel::light());
    print_experiment(
        "Apache, stock kernel (unstable on asymmetric configs)",
        run(&apache, SchedPolicy::os_default()).clean(),
    );
    print_experiment(
        "Apache, asymmetry-aware kernel (fixed: processes are kernel-visible)",
        run(&apache, SchedPolicy::asymmetry_aware()).clean(),
    );

    let zeus = Zeus::new(LoadLevel::light());
    print_experiment(
        "Zeus, stock kernel (unstable: sessions bound by the accept race)",
        run(&zeus, SchedPolicy::os_default()).clean(),
    );
    print_experiment(
        "Zeus, asymmetry-aware kernel (NOT fixed: the kernel cannot reach \
         Zeus's internal scheduling)",
        run(&zeus, SchedPolicy::asymmetry_aware()).clean(),
    );
}
