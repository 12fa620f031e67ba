//! The cell cache end to end: a corrupted entry costs a re-execution,
//! never a changed report.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `asym_sweep` and returns `(stdout, stderr)` of a successful run.
fn sweep(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_asym_sweep"))
        .args(args)
        .output()
        .expect("spawn asym_sweep");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "asym_sweep {args:?} failed:\n{stderr}"
    );
    (stdout, stderr)
}

/// The entry files under a cache root (one level of fanout directories).
fn entries(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in fs::read_dir(root).expect("cache root readable") {
        for file in fs::read_dir(dir.expect("fanout entry").path()).expect("fanout dir readable") {
            files.push(file.expect("entry file").path());
        }
    }
    files
}

/// One hex digit of the `mini/h264` 3f-1s/8 seed-2000 entry's value is
/// changed (1.098 becomes 1.598). The entry still parses, so only its
/// checksum can turn it into a miss; the re-run must then print the
/// uncached report and overwrite the entry.
#[test]
fn a_corrupted_entry_changes_no_report() {
    let dir = std::env::temp_dir().join(format!("asym-cache-integrity-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cache = format!("--cache={}", dir.display());
    let (uncached, _) = sweep(&["mini", "--cache=off"]);
    let (cold, _) = sweep(&["mini", &cache]);
    assert_eq!(cold, uncached);

    let (good, bad) = ("value 3ff19156fe0affb0\n", "value 3ff99156fe0affb0\n");
    let holding: Vec<PathBuf> = entries(&dir)
        .into_iter()
        .filter(|path| fs::read_to_string(path).is_ok_and(|text| text.contains(good)))
        .collect();
    assert_eq!(holding.len(), 1, "exactly one entry holds {good:?}");
    let text = fs::read_to_string(&holding[0]).expect("entry readable");
    fs::write(&holding[0], text.replace(good, bad)).expect("rewrite entry");

    let (warm, stderr) = sweep(&["mini", &cache]);
    assert_eq!(warm, uncached);
    assert!(stderr.contains("cache: 35 hit(s), 1 miss(es)"), "{stderr}");
    let rewritten = fs::read_to_string(&holding[0]).expect("entry readable");
    assert!(
        rewritten.contains(good),
        "the re-executed cell overwrote the entry"
    );
    let _ = fs::remove_dir_all(&dir);
}
