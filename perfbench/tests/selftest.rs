//! Self-tests of the benchmark: metric catalogue, statistics helpers,
//! report stripping, and a smoke run of the small `mini` plan.

use asym_perfbench::layers::traced_run;
use asym_perfbench::names::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use asym_perfbench::stats::{median, quartiles, relative_spread};
use asym_perfbench::trace::Tracer;
use asym_perfbench::{check_phase, run_phase, stable_report, Expected, Workload};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `(name, unit)` pairs of the metric list under `key` in
/// BENCHMARK.json (each entry's keys in the order name, unit, ...).
fn catalogue(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let end = body.find(']').expect("list closes");
    let mut out = Vec::new();
    let mut rest = &body[..end];
    while let Some(at) = rest.find("\"name\": \"") {
        rest = &rest[at + 9..];
        let name = &rest[..rest.find('"').expect("name closes")];
        let u = rest.find("\"unit\": \"").expect("unit follows name") + 9;
        let unit = &rest[u..u + rest[u..].find('"').expect("unit closes")];
        out.push((name.to_string(), unit.to_string()));
        rest = &rest[u..];
    }
    out
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-selftest-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

#[test]
fn metric_names_follow_the_grammar() {
    let mut seen = BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "bad metric name {}", m.name);
        assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
        assert!(seen.insert(m.name), "duplicate metric {}", m.name);
    }
    for w in ["paper", "check", "scale-cold", "scale-warm"] {
        assert!(valid_name(w));
    }
    assert!(!valid_name("_leading"));
    assert!(!valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(!valid_unit(""));
    assert!(!valid_unit("cells per s"));
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let json = benchmark_json();
    let e2e = catalogue(&json, "end_to_end");
    let want: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(e2e, want);
    let per_layer = catalogue(&json, "per_layer");
    let want: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(per_layer, want);
    let workloads: Vec<String> = catalogue_names(&json, "workloads");
    assert_eq!(workloads, ["paper", "check"]);
    for w in &workloads {
        assert!(Workload::parse(w).is_some(), "{w} is a benchmark workload");
    }
}

fn catalogue_names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn per_layer_names_match_the_layer_list() {
    // The per-layer metrics the benchmark promises, layer by layer.
    let promised = [
        "bench.plan_s",
        "bench.render_s",
        "core.cells",
        "core.cells_executed",
        "core.cells_memoized",
        "core.retries",
        "core.exec_s",
        "core.pool_busy_frac",
        "core.cache_hits",
        "core.cache_misses",
        "core.cache_stores",
        "core.cache_hit_ratio",
        "core.cache_load_s",
        "core.cache_store_s",
        "core.cache_mb",
        "core.cache_files",
        "core.emit_s",
        "core.json_mb",
        "workloads.run_s",
        "workloads.specjbb.run_s",
        "workloads.japps.run_s",
        "workloads.tpch.run_s",
        "workloads.apache.run_s",
        "workloads.zeus.run_s",
        "workloads.specomp.run_s",
        "workloads.h264.run_s",
        "workloads.pmake.run_s",
        "workloads.micro.run_s",
        "kernel.kernels",
        "kernel.records",
        "kernel.sim_s",
        "kernel.records_per_s",
        "kernel.capture_s",
        "kernel.trace_mb",
        "kernel.hash_s",
        "obs.fold_s",
        "analysis.check_s",
        "analysis.races_s",
        "analysis.lockset_s",
        "analysis.lints_s",
        "analysis.violations",
    ];
    // Plus per-layer self times and the trace's own overhead and coverage.
    let extra = [
        "bench.self_s",
        "core.self_s",
        "workloads.self_s",
        "kernel.self_s",
        "obs.self_s",
        "analysis.self_s",
        "trace.wall_s",
        "trace.untraced_wall_s",
        "trace.overhead_frac",
        "trace.total_s",
        "trace.other_s",
        "trace.coverage_frac",
        "trace.spans",
    ];
    let have: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    let want: BTreeSet<&str> = promised.iter().chain(&extra).copied().collect();
    assert_eq!(have, want);
}

#[test]
fn order_statistics_match_python() {
    // Expected values from Python's statistics.median / quantiles(n=4).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(median(&ten), Some(5.5));
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    let noisy = [7.5, 7.1, 7.8, 7.3, 9.9, 7.2, 7.4, 7.6, 7.0, 7.35];
    let q = quartiles(&noisy).expect("ten values");
    for (got, want) in q.iter().zip([7.175, 7.375, 7.65]) {
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }
    assert_eq!(median(&noisy), Some(7.375));
    let spread = relative_spread(&noisy).expect("nonzero median");
    assert!((spread - (7.65 - 7.175) / 7.375).abs() < 1e-12);
    assert_eq!(median(&[]), None);
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&[1.0, f64::NAN]), None);
}

#[test]
fn stable_report_strips_only_volatile_fields() {
    let cold = "{\n  \"name\": \"p\",\n  \"wall_ms\": 12.5,\n  \"cache\": {\"hits\": 0},\n  \"cells\": [\n    {\"spec\": \"s\", \"wall_ms\": 3.25, \"memoized\": false, \"cached\": false, \"trace_hash\": \"0x1\"}\n  ]\n}\n";
    let warm = "{\n  \"name\": \"p\",\n  \"wall_ms\": 1.5,\n  \"cache\": {\"hits\": 1},\n  \"cells\": [\n    {\"spec\": \"s\", \"wall_ms\": 0, \"memoized\": false, \"cached\": true, \"trace_hash\": \"0x1\"}\n  ]\n}\n";
    assert_eq!(stable_report(cold), stable_report(warm));
    let moved = warm.replace("0x1", "0x2");
    assert_ne!(stable_report(cold), stable_report(&moved));
}

#[test]
fn mini_smoke_run_checks_its_outputs() {
    let dir = scratch("mini");
    let phase = run_phase(Workload::Mini, 0, None, &dir, &mut Tracer::off()).expect("mini runs");
    assert_eq!(phase.report.cells.len(), 36);
    let clean = check_phase(&phase, None);
    assert_eq!(clean.failed(), 0, "{:?}", clean.notes);
    let right = Expected {
        fold: clean.fold,
        text: clean.text_digest,
    };
    assert_eq!(check_phase(&phase, Some(right)).failed(), 0);

    for doctored in [
        Expected {
            fold: right.fold ^ 1,
            ..right
        },
        Expected {
            text: right.text ^ 1,
            ..right
        },
    ] {
        let v = check_phase(&phase, Some(doctored));
        assert_eq!(
            v.failed(),
            v.attempted(),
            "a doctored digest fails every cell"
        );
        assert!(!v.notes.is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mini_traced_run_emits_every_layer_metric() {
    let dir = scratch("trace");
    let run = traced_run(Workload::Mini, 0, &dir, None).expect("traced mini runs");
    assert_eq!(run.verdict.failed(), 0, "{:?}", run.verdict.notes);
    for m in PER_LAYER {
        let v = run.metrics.get(m.name).copied();
        assert!(
            v.is_some_and(f64::is_finite),
            "{} missing or not finite",
            m.name
        );
    }
    assert_eq!(run.metrics.len(), PER_LAYER.len());
    assert_eq!(run.metrics["core.cells"], 36.0);
    assert!(run.metrics["workloads.h264.run_s"] > 0.0);
    assert!(run.metrics["kernel.records"] > 0.0);
    assert_eq!(run.metrics["analysis.violations"], 0.0);
    // An uncached workload still measures the cache on its own plan.
    assert_eq!(run.metrics["core.cache_files"], 36.0);
    assert_eq!(run.metrics["core.cache_hits"], 0.0);
    // Self times plus the unattributed remainder add up to the traced wall.
    let selfs: f64 = ["bench", "core", "workloads", "kernel", "obs", "analysis"]
        .iter()
        .map(|l| run.metrics[format!("{l}.self_s").as_str()])
        .sum();
    let total = run.metrics["trace.total_s"];
    assert!((selfs + run.metrics["trace.other_s"] - total).abs() < 1e-6);
    let spans = std::fs::read_to_string(dir.join("spans.csv")).expect("spans written");
    assert_eq!(
        spans.lines().count() as f64,
        run.metrics["trace.spans"] + 1.0
    );
    let _ = std::fs::remove_dir_all(&dir);
}
