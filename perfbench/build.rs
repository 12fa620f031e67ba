//! Recomputes the workspace code fingerprint that `asym-core` bakes in
//! as `ASYM_BUILD_FINGERPRINT` (the same FNV-1a over the sorted relative
//! paths and contents of every `.rs` file under `crates/*/src`), so each
//! result set can name the simulator build it measured. `asym-core`
//! does not export the value; the benchmark checks the two agree by
//! reading it back from a cache entry.

use std::fs;
use std::path::{Path, PathBuf};

fn main() {
    let manifest =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("CARGO_MANIFEST_DIR is set"));
    let crates_root = manifest.join("..").join("crates");
    let mut sources = Vec::new();
    if let Ok(entries) = fs::read_dir(&crates_root) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                println!("cargo:rerun-if-changed={}", src.display());
                collect_rs(&src, &mut sources);
            }
        }
    }
    sources.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &sources {
        let rel = path.strip_prefix(&crates_root).unwrap_or(path);
        fnv(
            &mut hash,
            rel.to_string_lossy().replace('\\', "/").as_bytes(),
        );
        fnv(&mut hash, &fs::read(path).unwrap_or_default());
    }
    println!("cargo:rustc-env=PERFBENCH_FINGERPRINT={hash:016x}");
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}
