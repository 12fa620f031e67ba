//! The content-addressed on-disk cell cache.
//!
//! Every cacheable sweep cell is a pure function of its *key*: the
//! workload's [`spec_key`](crate::Workload::spec_key), the
//! configuration, policy, and seed, the digests of the fault and
//! environment plans its setup derives, and the harness options that can
//! alter execution (mode, retries, budgets). The engine renders that key
//! as one readable line (see `cache_key` in the engine module), and this
//! module maps it to an entry file holding the results of the cell's
//! [`CellReport`] — everything a re-run would recompute: its one run's
//! seed, attempts, classification, primary value and secondary extras,
//! the folded trace hash, and (optionally) the merged
//! [`ProfileMetrics`].
//!
//! Invalidation is by *code fingerprint*: the build script hashes every
//! `.rs` file under `crates/*/src` into `ASYM_BUILD_FINGERPRINT`, and
//! each entry records the fingerprint that wrote it. An entry from a
//! different build is reported as stale (`Lookup::Stale`), re-executed, and
//! overwritten — a code change can never resurrect results the current
//! simulator would not reproduce. The full key string is also stored
//! and verified on load, so a digest collision degrades to a miss, not
//! a wrong answer.
//!
//! Entries are plain text, written atomically (temp file + rename), and
//! fanned out over 256 subdirectories by the top byte of the key
//! digest so million-cell sweeps do not melt a single directory. Each
//! entry ends with a `sum` line, the FNV-1a digest of every byte before
//! it, checked before anything else is parsed: a corrupted or truncated
//! entry is a miss (and the re-executed cell overwrites it), never a
//! wrong result. FNV-1a maps each step's state through a bijection, so
//! any single changed byte is caught.

use crate::engine::CellReport;
use crate::experiment::{RunClass, RunRecord};
use asym_obs::{Log2Histogram, ProfileMetrics, HIST_BUCKETS};
use asym_sim::StableHasher;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::hash::Hasher as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Format tag on the first line of every entry; bump it to orphan all
/// existing entries when the entry layout itself changes.
const MAGIC: &str = "asym-cell-cache v3";

/// Counters of one plan run's cache traffic, reported in the sweep
/// summary and the JSON sink.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells answered from the cache without executing.
    pub hits: u64,
    /// Cacheable cells with no usable entry (executed, then stored).
    pub misses: u64,
    /// Cells that can never be cached (differential mode, observers,
    /// or an installed trace check) and did not consult the cache.
    pub skips: u64,
    /// Entries written after executing a miss or a stale cell.
    pub stores: u64,
    /// Entries discarded because their code fingerprint did not match
    /// this build (the cell re-executed and the entry was overwritten).
    pub invalidations: u64,
}

impl CacheStats {
    /// The compact JSON object embedded in the sweep report:
    /// `{"hits":…,"misses":…,"skips":…,"stores":…,"invalidations":…}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"skips\":{},\"stores\":{},\"invalidations\":{}}}",
            self.hits, self.misses, self.skips, self.stores, self.invalidations
        )
    }
}

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// A usable entry written by this build; its results are restored.
    Hit,
    /// No entry, an unreadable or corrupted entry, a key collision, or an
    /// entry missing metrics the caller needs.
    Miss,
    /// An entry written by a different build of the simulator.
    Stale,
}

/// What an entry holds besides its key and fingerprint: a single-run
/// cell's run, the folded trace hash and the merged metrics.
type Results = (RunRecord, Option<u64>, Option<ProfileMetrics>);

/// A handle on one on-disk cell cache directory.
///
/// Opening is cheap (one `create_dir_all`); probes and stores are one
/// small file read/write each. Concurrent writers are safe: stores go
/// through a unique temp file renamed into place, so readers only ever
/// see complete entries.
#[derive(Debug, Clone)]
pub struct CellCache {
    root: PathBuf,
    fingerprint: String,
}

/// Distinguishes temp files written by concurrent stores in one process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl CellCache {
    /// Opens (creating if needed) the cache rooted at `dir`, bound to
    /// this build's code fingerprint.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        Ok(CellCache {
            root,
            fingerprint: env!("ASYM_BUILD_FINGERPRINT").to_string(),
        })
    }

    /// Overrides the code fingerprint this handle reads and writes
    /// entries under. Entries written under any other fingerprint
    /// become stale (`Lookup::Stale`). Intended for invalidation tests; the
    /// default (the real build fingerprint) is what sweeps should use.
    pub fn with_fingerprint(mut self, fingerprint: impl Into<String>) -> Self {
        self.fingerprint = fingerprint.into();
        self
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry path for `key`: 256-way fanout on the digest's top
    /// byte, then the full digest as the file name.
    fn entry_path(&self, key: &str) -> PathBuf {
        let digest = key_digest(key);
        self.root
            .join(format!("{:02x}", digest >> 56))
            .join(format!("{digest:016x}.entry"))
    }

    /// Probes the cache for `key` and, on a hit, restores the entry's
    /// results into `report` (marked `cached`). An entry that lacks
    /// metrics while `want_metrics` is set counts as a miss (the cell
    /// re-executes and the richer entry overwrites it); an entry that
    /// has metrics the caller does not want is a hit with the metrics
    /// stripped.
    pub(crate) fn load(&self, key: &str, want_metrics: bool, report: &mut CellReport) -> Lookup {
        let Ok(text) = fs::read_to_string(self.entry_path(key)) else {
            return Lookup::Miss;
        };
        let Some((fingerprint, (run, trace_hash, metrics))) = parse_entry(&text, key) else {
            return Lookup::Miss;
        };
        if fingerprint != self.fingerprint {
            return Lookup::Stale;
        }
        if want_metrics && metrics.is_none() {
            return Lookup::Miss;
        }
        report.record_run(run, trace_hash, metrics.filter(|_| want_metrics));
        report.cached = true;
        Lookup::Hit
    }

    /// Writes (or overwrites) `report`'s results as the entry for `key`,
    /// atomically. Only single-run cells have an entry; any other report
    /// is refused with [`io::ErrorKind::InvalidInput`].
    pub(crate) fn store(&self, key: &str, report: &CellReport) -> io::Result<()> {
        let [run] = &report.runs[..] else {
            let why = "only single-run cells are cached";
            return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
        };
        let path = self.entry_path(key);
        let dir = path.parent().expect("entry path has a fanout directory");
        fs::create_dir_all(dir)?;
        let temp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let metrics = report.metrics.as_deref();
        let entry = render_entry(&self.fingerprint, key, run, report.trace_hash, metrics);
        fs::write(&temp, entry)?;
        fs::rename(&temp, &path)
    }
}

/// FNV-1a digest of the full key string — the entry's address. The key
/// itself is stored inside the entry and verified on load, so the
/// digest only has to spread entries, not prove identity.
fn key_digest(key: &str) -> u64 {
    fnv(key.as_bytes())
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

fn render_entry(
    fingerprint: &str,
    key: &str,
    run: &RunRecord,
    trace_hash: Option<u64>,
    metrics: Option<&ProfileMetrics>,
) -> String {
    let mut out = String::with_capacity(512);
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "fingerprint {fingerprint}");
    let _ = writeln!(out, "key {key}");
    let _ = writeln!(out, "class {}", run.class);
    let _ = writeln!(out, "attempts {}", run.attempts);
    let _ = writeln!(out, "seed {}", run.seed);
    let _ = writeln!(out, "value {}", render_f64(run.value));
    let _ = writeln!(out, "trace_hash {}", render_u64(trace_hash));
    let _ = writeln!(out, "extras {}", run.extras.len());
    for (name, v) in &run.extras {
        // The name goes last so it may contain spaces.
        let _ = writeln!(out, "x {:016x} {name}", v.to_bits());
    }
    match metrics {
        None => {
            let _ = writeln!(out, "metrics none");
        }
        Some(m) => {
            let _ = writeln!(out, "metrics present");
            let _ = writeln!(
                out,
                "m {} {} {} {} {} {} {} {} {} {} {} {} {}",
                m.kernels,
                m.sim_ns,
                m.busy_ns,
                m.idle_ns,
                m.offline_ns,
                m.fast_idle_slow_runnable_ns,
                m.migrations,
                m.migration_wait_ns,
                m.preemptions,
                m.sync_wait_ns,
                m.speed_changes,
                m.reranks,
                m.tracking_lag_ns
            );
            render_hist(&mut out, "hl", &m.sched_latency);
            render_hist(&mut out, "hq", &m.run_quantum);
        }
    }
    let sum = fnv(out.as_bytes());
    let _ = writeln!(out, "sum {sum:016x}");
    out
}

fn render_hist(out: &mut String, tag: &str, h: &Log2Histogram) {
    let _ = write!(
        out,
        "{tag} {} {} {}",
        h.count(),
        h.total_nanos(),
        h.max_nanos()
    );
    for b in h.buckets() {
        let _ = write!(out, " {b}");
    }
    out.push('\n');
}

fn render_f64(v: Option<f64>) -> String {
    // f64 values round-trip as raw bit patterns: hex in, hex out,
    // bit-exact whatever the value.
    v.map_or_else(|| "none".to_string(), |v| format!("{:016x}", v.to_bits()))
}

fn render_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "none".to_string(), |v| format!("{v:016x}"))
}

/// Strips and checks the closing `sum` line: the body before it, if the
/// line reads exactly as `render_entry` wrote it for that body.
fn checked_body(text: &str) -> Option<&str> {
    let (body, sum) = text.strip_suffix('\n')?.rsplit_once('\n')?;
    let body = &text[..=body.len()];
    (field(sum, "sum")? == format!("{:016x}", fnv(body.as_bytes()))).then_some(body)
}

/// Parses an entry, returning its fingerprint and results. `None` on a
/// checksum mismatch, any malformation, or if the stored key differs
/// from `expect_key` (digest collision) — all degrade to a miss.
fn parse_entry(text: &str, expect_key: &str) -> Option<(String, Results)> {
    let mut lines = checked_body(text)?.lines();
    if lines.next()? != MAGIC {
        return None;
    }
    let fingerprint = field(lines.next()?, "fingerprint")?.to_string();
    if field(lines.next()?, "key")? != expect_key {
        return None;
    }
    let class = parse_class(field(lines.next()?, "class")?)?;
    let attempts: u32 = field(lines.next()?, "attempts")?.parse().ok()?;
    let seed: u64 = field(lines.next()?, "seed")?.parse().ok()?;
    let value = parse_f64(field(lines.next()?, "value")?)?;
    let trace_hash = parse_u64(field(lines.next()?, "trace_hash")?)?;
    let n_extras: usize = field(lines.next()?, "extras")?.parse().ok()?;
    let mut extras = BTreeMap::new();
    for _ in 0..n_extras {
        let rest = field(lines.next()?, "x")?;
        let (bits, name) = rest.split_once(' ')?;
        let v = f64::from_bits(u64::from_str_radix(bits, 16).ok()?);
        extras.insert(name.to_string(), v);
    }
    let metrics = match field(lines.next()?, "metrics")? {
        "none" => None,
        "present" => {
            let ints: Vec<u64> = field(lines.next()?, "m")?
                .split(' ')
                .map(str::parse)
                .collect::<Result<_, _>>()
                .ok()?;
            if ints.len() != 13 {
                return None;
            }
            let sched_latency = parse_hist(field(lines.next()?, "hl")?)?;
            let run_quantum = parse_hist(field(lines.next()?, "hq")?)?;
            Some(ProfileMetrics {
                kernels: ints[0],
                sim_ns: ints[1],
                busy_ns: ints[2],
                idle_ns: ints[3],
                offline_ns: ints[4],
                fast_idle_slow_runnable_ns: ints[5],
                migrations: ints[6],
                migration_wait_ns: ints[7],
                preemptions: ints[8],
                sync_wait_ns: ints[9],
                speed_changes: ints[10],
                reranks: ints[11],
                tracking_lag_ns: ints[12],
                sched_latency,
                run_quantum,
            })
        }
        _ => return None,
    };
    let run = RunRecord {
        seed,
        attempts,
        class,
        value,
        extras,
    };
    Some((fingerprint, (run, trace_hash, metrics)))
}

/// Strips the `tag ` prefix from one entry line.
fn field<'a>(line: &'a str, tag: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(tag)?;
    rest.strip_prefix(' ')
}

fn parse_class(s: &str) -> Option<RunClass> {
    Some(match s {
        "completed" => RunClass::Completed,
        "time-limit" => RunClass::TimeLimit,
        "stalled" => RunClass::Stalled,
        "deadlock" => RunClass::Deadlock,
        "panicked" => RunClass::Panicked,
        _ => return None,
    })
}

fn parse_f64(s: &str) -> Option<Option<f64>> {
    if s == "none" {
        return Some(None);
    }
    Some(Some(f64::from_bits(u64::from_str_radix(s, 16).ok()?)))
}

fn parse_u64(s: &str) -> Option<Option<u64>> {
    if s == "none" {
        return Some(None);
    }
    Some(Some(u64::from_str_radix(s, 16).ok()?))
}

fn parse_hist(s: &str) -> Option<Log2Histogram> {
    let vals: Vec<u64> = s
        .split(' ')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if vals.len() != 3 + HIST_BUCKETS {
        return None;
    }
    let mut buckets = [0u64; HIST_BUCKETS];
    buckets.copy_from_slice(&vals[3..]);
    // A corrupted entry whose parts violate the histogram invariants is
    // treated as a cache miss, not a panic.
    Log2Histogram::from_parts(buckets, vals[0], vals[1], vals[2]).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_sim::SimDuration;

    fn temp_cache(tag: &str) -> CellCache {
        let dir =
            std::env::temp_dir().join(format!("asym-cache-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CellCache::open(dir).expect("temp cache opens")
    }

    /// `text`, an entry edited after it was stored, with its closing
    /// `sum` line rewritten to match, so it gets past `checked_body` and
    /// is judged by the checks behind it.
    fn reseal(text: &str) -> String {
        let (body, _) = text
            .trim_end_matches('\n')
            .rsplit_once('\n')
            .expect("sum line");
        let body = format!("{body}\n");
        format!("{body}sum {:016x}\n", fnv(body.as_bytes()))
    }

    fn sample_entry(metrics: bool) -> Results {
        let metrics = metrics.then(|| {
            let mut m = ProfileMetrics::new();
            m.kernels = 2;
            m.sim_ns = 123_456_789;
            m.busy_ns = 100;
            m.migrations = 7;
            m.sched_latency.record(SimDuration::from_nanos(900));
            m.run_quantum.record(SimDuration::from_nanos(1 << 20));
            m.run_quantum.record(SimDuration::ZERO);
            m
        });
        let run = RunRecord {
            seed: 42_007,
            attempts: 3,
            class: RunClass::TimeLimit,
            value: Some(-0.0625),
            extras: [
                ("p90 latency".to_string(), 1.5),
                ("nan".to_string(), f64::NAN),
            ]
            .into(),
        };
        (run, Some(0xdead_beef_cafe_f00d), metrics)
    }

    /// An entry's text as `store` renders it.
    fn render(fingerprint: &str, key: &str, (run, hash, metrics): &Results) -> String {
        render_entry(fingerprint, key, run, *hash, metrics.as_ref())
    }

    /// A cell's record before any result is in.
    fn blank() -> CellReport {
        CellReport {
            spec: "s".to_string(),
            workload: "w".to_string(),
            config: "1f-3s/8".to_string(),
            mode: "resilient",
            policy: "stock".to_string(),
            seed: 7,
            rep: 0,
            class: RunClass::Completed,
            attempts: 0,
            value: None,
            wall_ms: 0.0,
            trace_hash: None,
            memoized: false,
            cached: false,
            violations: Vec::new(),
            metrics: None,
            diff: None,
            runs: Vec::new(),
        }
    }

    /// A report whose results are `entry`'s, as the engine stores it.
    fn report_of((run, hash, metrics): Results) -> CellReport {
        let mut report = blank();
        report.record_run(run, hash, metrics);
        report
    }

    /// Probes `cache` for `key` into a blank report.
    fn probe(cache: &CellCache, key: &str, want_metrics: bool) -> (Lookup, CellReport) {
        let mut report = blank();
        (cache.load(key, want_metrics, &mut report), report)
    }

    /// One entry per cacheable mode, with and without metrics: the
    /// resilient sample above and a completed clean cell. (Differential
    /// cells are never cached, so they have no entry to corrupt.)
    fn corpus() -> Vec<(&'static str, Results)> {
        let clean = |metrics| {
            let (_, hash, metrics) = sample_entry(metrics);
            let run = RunRecord {
                seed: 2000,
                attempts: 1,
                class: RunClass::Completed,
                value: Some(1.098),
                extras: [("throughput".to_string(), 412.5)].into(),
            };
            (run, hash, metrics)
        };
        vec![
            ("clean", clean(false)),
            ("clean+metrics", clean(true)),
            ("resilient", sample_entry(false)),
            ("resilient+metrics", sample_entry(true)),
        ]
    }

    #[test]
    fn every_flipped_byte_and_every_truncation_is_a_miss() {
        let key = "spec=w|config=3f-1s/8|policy=stock|seed=2000|mode=clean";
        let load = |bytes: &[u8]| {
            std::str::from_utf8(bytes)
                .ok()
                .and_then(|text| parse_entry(text, key))
        };
        for (name, entry) in corpus() {
            let text = render("fp", key, &entry);
            assert_eq!(
                load(text.as_bytes()).map(|(_, (run, ..))| run.attempts),
                Some(entry.0.attempts)
            );
            let mut bytes = text.clone().into_bytes();
            for i in 0..bytes.len() {
                let original = bytes[i];
                for flip in 1..=255u8 {
                    bytes[i] = original ^ flip;
                    assert!(
                        load(&bytes).is_none(),
                        "{name}: byte {i} ^ {flip:#04x} loaded"
                    );
                }
                bytes[i] = original;
            }
            for len in 0..bytes.len() {
                assert!(
                    load(&bytes[..len]).is_none(),
                    "{name}: truncated to {len} bytes loaded"
                );
            }
        }
    }

    #[test]
    fn a_corrupted_entry_misses_and_is_overwritten() {
        let cache = temp_cache("corrupt");
        let key = "spec=w|seed=6";
        let report = report_of(sample_entry(false));
        cache.store(key, &report).expect("store");
        // One hex digit of the stored value changes (-0.0625 to -0.5):
        // the entry still parses, but no longer matches its checksum.
        let path = cache.entry_path(key);
        let text = fs::read_to_string(&path).expect("entry readable");
        let forged = text.replace("value bfb0000000000000", "value bfe0000000000000");
        assert_ne!(forged, text);
        fs::write(&path, forged).expect("rewrite entry");
        assert_eq!(probe(&cache, key, false).0, Lookup::Miss);
        cache.store(key, &report).expect("store");
        assert_eq!(probe(&cache, key, false).0, Lookup::Hit);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn entry_round_trips_bit_exactly() {
        let cache = temp_cache("roundtrip");
        let stored = report_of(sample_entry(true));
        let key = "spec=w|config=1f-3s/8|policy=stock|seed=7|mode=resilient";
        cache.store(key, &stored).expect("store succeeds");
        let (lookup, got) = probe(&cache, key, true);
        assert_eq!(lookup, Lookup::Hit);
        assert!(got.cached && !stored.cached);
        assert_eq!((got.class, got.attempts), (stored.class, stored.attempts));
        assert_eq!(got.value.map(f64::to_bits), stored.value.map(f64::to_bits));
        assert_eq!(got.trace_hash, stored.trace_hash);
        assert_eq!(got.metrics, stored.metrics);
        let ([run], [want]) = (&got.runs[..], &stored.runs[..]) else {
            panic!("one run each: {got:?}");
        };
        assert_eq!(
            (run.seed, run.attempts, run.class),
            (want.seed, 3, want.class)
        );
        assert_eq!(run.value.map(f64::to_bits), want.value.map(f64::to_bits));
        let extras: Vec<_> = run.extras.iter().map(|(k, v)| (k, v.to_bits())).collect();
        let expected: Vec<_> = want.extras.iter().map(|(k, v)| (k, v.to_bits())).collect();
        assert_eq!(extras, expected);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn only_single_run_cells_are_stored() {
        let cache = temp_cache("single");
        let mut report = report_of(sample_entry(false));
        report.runs.push(report.runs[0].clone());
        let err = cache.store("spec=w|seed=5", &report).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(probe(&cache, "spec=w|seed=5", false).0, Lookup::Miss);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn missing_key_and_wrong_fingerprint() {
        let cache = temp_cache("stale");
        let key = "spec=w|seed=1";
        let report = report_of(sample_entry(false));
        assert_eq!(probe(&cache, key, false).0, Lookup::Miss);
        cache.store(key, &report).expect("store");
        assert_eq!(probe(&cache, key, false).0, Lookup::Hit);
        // Needing metrics the entry lacks is a miss, not a hit.
        assert_eq!(probe(&cache, key, true).0, Lookup::Miss);
        let other = cache.clone().with_fingerprint("not-this-build");
        assert_eq!(probe(&other, key, false).0, Lookup::Stale);
        // The stale handle's overwrite makes the entry stale for us.
        other.store(key, &report).expect("store");
        assert_eq!(probe(&cache, key, false).0, Lookup::Stale);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn metrics_are_stripped_when_unwanted() {
        let cache = temp_cache("strip");
        let key = "spec=w|seed=2";
        cache
            .store(key, &report_of(sample_entry(true)))
            .expect("store");
        let (lookup, got) = probe(&cache, key, false);
        assert_eq!(lookup, Lookup::Hit);
        assert!(got.metrics.is_none());
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn key_collision_degrades_to_miss() {
        let cache = temp_cache("collide");
        let key = "spec=w|seed=3";
        cache
            .store(key, &report_of(sample_entry(false)))
            .expect("store");
        // Forge a second key that maps to the same file path, in an entry
        // whose checksum holds, as a real digest collision's would.
        let path = cache.entry_path(key);
        let text = fs::read_to_string(&path).expect("entry readable");
        let forged = reseal(&text.replace("key spec=w|seed=3", "key spec=OTHER"));
        assert!(checked_body(&forged).is_some());
        fs::write(&path, forged).expect("rewrite entry");
        assert_eq!(probe(&cache, key, false).0, Lookup::Miss);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn metrics_line_of_the_wrong_width_is_a_miss() {
        // Entries once carried a 14th integer (a lock-contention count
        // between `sync_wait_ns` and `speed_changes`). Such an entry
        // must never load with every later metric shifted by one.
        let cache = temp_cache("width");
        let key = "spec=w|seed=4";
        cache
            .store(key, &report_of(sample_entry(true)))
            .expect("store");
        assert_eq!(probe(&cache, key, true).0, Lookup::Hit);
        let path = cache.entry_path(key);
        let text = fs::read_to_string(&path).expect("entry readable");
        let widened: String = text
            .lines()
            .map(|line| match line.strip_prefix("m ") {
                Some(ints) => {
                    let mut ints: Vec<&str> = ints.split(' ').collect();
                    assert_eq!(ints.len(), 13);
                    ints.insert(10, "0");
                    format!("m {}\n", ints.join(" "))
                }
                None => format!("{line}\n"),
            })
            .collect();
        assert_ne!(widened, text);
        let widened = reseal(&widened);
        assert!(checked_body(&widened).is_some());
        fs::write(&path, widened).expect("rewrite entry");
        assert_eq!(probe(&cache, key, true).0, Lookup::Miss);
        assert_eq!(probe(&cache, key, false).0, Lookup::Miss);
        let _ = fs::remove_dir_all(cache.root());
    }
}
