//! The benchmark's metric catalogue and the name grammar it obeys.

/// A metric's name and the unit its value is reported in.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
}

/// End-to-end metrics of an untraced run (host time, host memory).
pub const END_TO_END: &[Metric] = &[
    Metric {
        name: "wall_s",
        unit: "s",
    },
    Metric {
        name: "cells_per_s",
        unit: "cells/s",
    },
    Metric {
        name: "cpu_s",
        unit: "s",
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
    },
    Metric {
        name: "setup_s",
        unit: "s",
    },
];

/// Per-layer metrics of a traced run. The layer is the name's prefix
/// (the crate a span's call goes into); `trace.*` describes the trace
/// itself: its wall time, the untraced reference, the overhead, and the
/// self time no layer span covers.
pub const PER_LAYER: &[Metric] = &[
    Metric {
        name: "bench.plan_s",
        unit: "s",
    },
    Metric {
        name: "bench.render_s",
        unit: "s",
    },
    Metric {
        name: "bench.self_s",
        unit: "s",
    },
    Metric {
        name: "core.cells",
        unit: "count",
    },
    Metric {
        name: "core.cells_executed",
        unit: "count",
    },
    Metric {
        name: "core.cells_memoized",
        unit: "count",
    },
    Metric {
        name: "core.retries",
        unit: "count",
    },
    Metric {
        name: "core.exec_s",
        unit: "s",
    },
    Metric {
        name: "core.pool_busy_frac",
        unit: "frac",
    },
    Metric {
        name: "core.cache_hits",
        unit: "count",
    },
    Metric {
        name: "core.cache_misses",
        unit: "count",
    },
    Metric {
        name: "core.cache_stores",
        unit: "count",
    },
    Metric {
        name: "core.cache_hit_ratio",
        unit: "frac",
    },
    Metric {
        name: "core.cache_load_s",
        unit: "s",
    },
    Metric {
        name: "core.cache_store_s",
        unit: "s",
    },
    Metric {
        name: "core.cache_mb",
        unit: "MB",
    },
    Metric {
        name: "core.cache_files",
        unit: "count",
    },
    Metric {
        name: "core.emit_s",
        unit: "s",
    },
    Metric {
        name: "core.json_mb",
        unit: "MB",
    },
    Metric {
        name: "core.self_s",
        unit: "s",
    },
    Metric {
        name: "workloads.run_s",
        unit: "s",
    },
    Metric {
        name: "workloads.specjbb.run_s",
        unit: "s",
    },
    Metric {
        name: "workloads.japps.run_s",
        unit: "s",
    },
    Metric {
        name: "workloads.tpch.run_s",
        unit: "s",
    },
    Metric {
        name: "workloads.apache.run_s",
        unit: "s",
    },
    Metric {
        name: "workloads.zeus.run_s",
        unit: "s",
    },
    Metric {
        name: "workloads.specomp.run_s",
        unit: "s",
    },
    Metric {
        name: "workloads.h264.run_s",
        unit: "s",
    },
    Metric {
        name: "workloads.pmake.run_s",
        unit: "s",
    },
    Metric {
        name: "workloads.micro.run_s",
        unit: "s",
    },
    Metric {
        name: "workloads.self_s",
        unit: "s",
    },
    Metric {
        name: "kernel.kernels",
        unit: "count",
    },
    Metric {
        name: "kernel.records",
        unit: "count",
    },
    Metric {
        name: "kernel.sim_s",
        unit: "sim_s",
    },
    Metric {
        name: "kernel.records_per_s",
        unit: "records/s",
    },
    Metric {
        name: "kernel.capture_s",
        unit: "s",
    },
    Metric {
        name: "kernel.trace_mb",
        unit: "MB",
    },
    Metric {
        name: "kernel.hash_s",
        unit: "s",
    },
    Metric {
        name: "kernel.self_s",
        unit: "s",
    },
    Metric {
        name: "obs.fold_s",
        unit: "s",
    },
    Metric {
        name: "obs.self_s",
        unit: "s",
    },
    Metric {
        name: "analysis.check_s",
        unit: "s",
    },
    Metric {
        name: "analysis.races_s",
        unit: "s",
    },
    Metric {
        name: "analysis.lockset_s",
        unit: "s",
    },
    Metric {
        name: "analysis.lints_s",
        unit: "s",
    },
    Metric {
        name: "analysis.violations",
        unit: "count",
    },
    Metric {
        name: "analysis.self_s",
        unit: "s",
    },
    Metric {
        name: "trace.wall_s",
        unit: "s",
    },
    Metric {
        name: "trace.untraced_wall_s",
        unit: "s",
    },
    Metric {
        name: "trace.overhead_frac",
        unit: "frac",
    },
    Metric {
        name: "trace.total_s",
        unit: "s",
    },
    Metric {
        name: "trace.other_s",
        unit: "s",
    },
    Metric {
        name: "trace.coverage_frac",
        unit: "frac",
    },
    Metric {
        name: "trace.spans",
        unit: "count",
    },
];

/// The crate layers a span can be attributed to, in report order.
pub const LAYERS: &[&str] = &["bench", "core", "workloads", "kernel", "obs", "analysis"];

/// `true` when `name` follows the metric/workload name grammar: starts
/// with a letter or digit, at most 64 characters from letters, digits,
/// `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` when `unit` follows the unit grammar: 1 to 16 characters from
/// letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
