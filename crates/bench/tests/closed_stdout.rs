//! A reader that closes `asym_sweep`'s stdout before the report arrives
//! (`asym_sweep … | head`) ends the printing quietly: no panic on
//! stderr, and the exit status of a run whose report was read in full.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_report_quietly() {
    let runs: [&[&str]; 3] = [
        &["mini", "--quick", "--cache=off"],
        &[
            "mini",
            "--quick",
            "--cache=off",
            "--profile=mini/pmake:2f-2s/4:0",
        ],
        &["--list"],
    ];
    for args in runs {
        let mut child = Command::new(env!("CARGO_BIN_EXE_asym_sweep"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("asym_sweep starts");
        // Close the read end before the report is printed.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("asym_sweep exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.status.success(), "{args:?}: {}\n{stderr}", out.status);
    }
}
