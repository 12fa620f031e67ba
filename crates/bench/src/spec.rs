//! The declarative sweep registry: every figure, table, and extension
//! experiment expressed as a [`SweepSpec`] — a named builder that
//! expands (given a [`SweepContext`]) into workload sections plus a
//! render function over the finished results.
//!
//! The `asym_sweep` driver runs any subset of specs by name, merged into
//! ONE [`ExperimentPlan`](asym_core::ExperimentPlan) so every cell of
//! every selected figure shares the same host thread pool and lands in
//! the same structured JSON report.

use crate::{header, paper_workloads, render_experiment, render_runs, stability_line};
use asym_analysis::hb::ConcurrencyFold;
use asym_analysis::{render_violations, AnalysisFold, ViolationLog};
use asym_core::{
    run_spec, AsymConfig, CheckFold, ExperimentOptions, ResilientOptions, RunClass, RunRecord,
    RunSetup, Scalability, SpecMode, SpecResult, SummaryRow, TextTable, TraceCheck, Workload,
    WorkloadClass,
};
use asym_kernel::{
    capture_stream, with_run_guard, RunGuard, RunOutcome, SchedPolicy, TraceConsumer, TraceEvent,
    TraceHasher,
};
use asym_obs::{ProfileFold, ProfileMetrics};
use asym_sim::{
    DutyCycle, EnvironmentPlan, EnvironmentProfile, FaultPlan, FaultProfile, MachineSpec, Rng,
    SimDuration, SimTime,
};
use asym_workloads::h264::H264;
use asym_workloads::japps::JAppServer;
use asym_workloads::micro::MicroBurst;
use asym_workloads::pmake::Pmake;
use asym_workloads::specjbb::{GcKind, JvmKind, SpecJbb};
use asym_workloads::specomp::{OmpVariant, SpecOmp};
use asym_workloads::tpch::TpcH;
use asym_workloads::webserver::{Apache, LoadLevel, Zeus};
use std::sync::{Arc, Mutex};

/// Context a spec expands under.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepContext {
    /// CI smoke mode: shrink big sweeps to one configuration / run.
    pub quick: bool,
}

/// One homogeneous slice of a sweep: a workload over some
/// configurations in one harness mode. Sections map 1:1 onto the
/// engine's plan specs.
pub struct Section {
    /// Label recorded in the plan (and the JSON report's `spec` field).
    pub label: String,
    /// The workload every cell of the section runs.
    pub workload: Box<dyn Workload>,
    /// Configurations swept.
    pub configs: Vec<AsymConfig>,
    /// Harness mode (clean / resilient / differential) with options.
    pub mode: SpecMode,
}

impl Section {
    /// A clean section: `runs` repeats per configuration, seeds
    /// `base_seed + j*1000 + i`, panics propagate.
    pub fn clean(
        label: impl Into<String>,
        workload: Box<dyn Workload>,
        configs: &[AsymConfig],
        policy: SchedPolicy,
        runs: usize,
        base_seed: u64,
    ) -> Self {
        Section {
            label: label.into(),
            workload,
            configs: configs.to_vec(),
            mode: SpecMode::Clean {
                policy,
                options: ExperimentOptions::new(runs).base_seed(base_seed),
            },
        }
    }

    /// A resilient section (fault injection, classification, retries).
    pub fn resilient(
        label: impl Into<String>,
        workload: Box<dyn Workload>,
        configs: &[AsymConfig],
        policy: SchedPolicy,
        options: ResilientOptions,
    ) -> Self {
        Section {
            label: label.into(),
            workload,
            configs: configs.to_vec(),
            mode: SpecMode::Resilient { policy, options },
        }
    }

    /// A differential section (stock vs aware × clean vs faulted).
    pub fn differential(
        label: impl Into<String>,
        workload: Box<dyn Workload>,
        configs: &[AsymConfig],
        options: ResilientOptions,
    ) -> Self {
        Section {
            label: label.into(),
            workload,
            configs: configs.to_vec(),
            mode: SpecMode::Differential { options },
        }
    }
}

/// What a spec's render step hands back: the stdout text plus a
/// pass/fail verdict (specs with no invariants always pass).
pub struct Rendered {
    /// Text to print verbatim.
    pub text: String,
    /// `false` fails the driver's exit code.
    pub ok: bool,
}

impl Rendered {
    /// A passing render.
    pub fn text(text: impl Into<String>) -> Self {
        Rendered {
            text: text.into(),
            ok: true,
        }
    }
}

/// Render callback: receives one [`SpecResult`] per section, in
/// section order.
pub type RenderFn = Box<dyn Fn(&[SpecResult]) -> Rendered>;

/// A built sweep: sections to execute plus the render step.
pub struct SweepDef {
    /// Sections, pushed into the plan in order.
    pub sections: Vec<Section>,
    /// Renders section results (same order) into the figure text.
    pub render: RenderFn,
}

/// A named, registered sweep.
pub struct SweepSpec {
    /// CLI name (`asym_sweep <name>`).
    pub name: &'static str,
    /// One-line description for `--list`.
    pub caption: &'static str,
    /// Expands the spec under a context.
    pub build: fn(&SweepContext) -> SweepDef,
}

/// Every registered sweep, in presentation order.
pub fn registry() -> Vec<SweepSpec> {
    vec![
        SweepSpec {
            name: "fig1",
            caption: "SPECjbb throughput vs warehouses: JVM/GC lottery curves",
            build: fig1,
        },
        SweepSpec {
            name: "fig2",
            caption: "SPECjbb nine-config sweep, stock vs asymmetry-aware kernel",
            build: fig2,
        },
        SweepSpec {
            name: "fig3",
            caption: "SPECjAppServer throughput and response-time stability",
            build: fig3,
        },
        SweepSpec {
            name: "fig4",
            caption: "TPC-H power run and Query 3 binding lottery",
            build: fig4,
        },
        SweepSpec {
            name: "fig5",
            caption: "TPC-H parallelization/optimization degree vs variance",
            build: fig5,
        },
        SweepSpec {
            name: "fig6",
            caption: "Apache light/heavy load instability and the two remedies",
            build: fig6,
        },
        SweepSpec {
            name: "fig7",
            caption: "Zeus instability; the kernel fix is ineffective",
            build: fig7,
        },
        SweepSpec {
            name: "fig8",
            caption: "SPEC OMP runtimes, unmodified vs dynamic+chunked loops",
            build: fig8,
        },
        SweepSpec {
            name: "fig9",
            caption: "H.264 and PMAKE: stable, scalable, helped by one fast core",
            build: fig9,
        },
        SweepSpec {
            name: "fig10",
            caption: "All-workload speedup/variance summary over nine configs",
            build: fig10,
        },
        SweepSpec {
            name: "table1",
            caption: "Qualitative results summary derived from measurements",
            build: table1,
        },
        SweepSpec {
            name: "extra_asym_degree",
            caption: "Degree of asymmetry vs instability (Apache light load)",
            build: extra_asym_degree,
        },
        SweepSpec {
            name: "extra_duty_sweep",
            caption: "2f-2s/x sweep over all duty-cycle steps",
            build: extra_duty_sweep,
        },
        SweepSpec {
            name: "extra_tpch_bimodal",
            caption: "TPC-H Q3 without parallelization: bimodal fast/slow runtimes",
            build: extra_tpch_bimodal,
        },
        SweepSpec {
            name: "extra_fault_sweep",
            caption: "Dynamic-asymmetry fault sweep under the resilient harness",
            build: extra_fault_sweep,
        },
        SweepSpec {
            name: "extra_absorption",
            caption: "Differential stock-vs-aware absorption under identical faults",
            build: extra_absorption,
        },
        SweepSpec {
            name: "extra_dynamic",
            caption: "Stock-vs-aware differential under continuous dynamic environments",
            build: extra_dynamic,
        },
        SweepSpec {
            name: "extra_soak",
            caption: "Chaos soak: randomized environment x fault campaigns on the retry ladder",
            build: extra_soak,
        },
        SweepSpec {
            name: "extra_tournament",
            caption: "Scheduler-policy tournament: every registered policy over all workloads",
            build: extra_tournament,
        },
        SweepSpec {
            name: "extra_scale",
            caption: "Scale sweep: policy zoo x env regimes x micro-burst, 100k+ cacheable cells",
            build: extra_scale,
        },
        SweepSpec {
            name: "extra_check_matrix",
            caption: "Concurrency checker over every workload x config under the aware kernel",
            build: extra_check_matrix,
        },
        SweepSpec {
            name: "mini",
            caption: "CI smoke sweep: two fast workloads, nine configs, 2 runs",
            build: mini,
        },
    ]
}

// ----------------------------------------------------------------------
// Figures
// ----------------------------------------------------------------------

fn fig1(_ctx: &SweepContext) -> SweepDef {
    let warehouses: Vec<usize> = (1..=20).collect();
    let asym = AsymConfig::new(2, 2, 8);
    let fast = AsymConfig::new(4, 0, 1);
    let curves: Vec<(&'static str, AsymConfig, JvmKind, GcKind, usize)> = vec![
        (
            "BEA JRockit, parallel GC",
            asym,
            JvmKind::JRockit,
            GcKind::Parallel,
            3,
        ),
        (
            "Sun HotSpot, generational concurrent GC",
            asym,
            JvmKind::HotSpot,
            GcKind::ConcurrentGenerational,
            3,
        ),
        (
            "4f-0s",
            fast,
            JvmKind::JRockit,
            GcKind::ConcurrentGenerational,
            2,
        ),
        (
            "2f-2s/8",
            asym,
            JvmKind::JRockit,
            GcKind::ConcurrentGenerational,
            4,
        ),
    ];
    let mut sections = Vec::new();
    for (label, config, jvm, gc, runs) in &curves {
        for &w in &warehouses {
            sections.push(Section::clean(
                format!("fig1/{label}/wh{w}"),
                Box::new(SpecJbb::new(w).jvm(*jvm).gc(*gc)),
                &[*config],
                SchedPolicy::os_default(),
                *runs,
                0,
            ));
        }
    }
    let render = Box::new(move |results: &[SpecResult]| {
        let mut out = String::new();
        let mut idx = 0;
        for (ci, (label, config, _, _, runs)) in curves.iter().enumerate() {
            if ci == 0 {
                out += &header(
                    "Figure 1(a)",
                    "SPECjbb throughput (tx/s) vs warehouses, 2f-2s/8",
                );
            } else if ci == 2 {
                out += &header(
                    "Figure 1(b)",
                    "SPECjbb with JRockit + generational concurrent GC",
                );
            }
            out += &format!("\n{label} on {config} ({runs} runs)\n");
            out += &format!("{:>4}", "wh");
            for r in 0..*runs {
                out += &format!("  {:>9}", format!("run{}", r + 1));
            }
            out.push('\n');
            for &w in &warehouses {
                out += &format!("{w:>4}");
                for v in results[idx].clean().outcomes[0].samples.values() {
                    out += &format!("  {v:>9.0}");
                }
                idx += 1;
                out.push('\n');
            }
        }
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

fn fig2(_ctx: &SweepContext) -> SweepDef {
    let nine = AsymConfig::standard_nine();
    let jbb = || Box::new(SpecJbb::new(16).gc(GcKind::ConcurrentGenerational));
    let sections = vec![
        Section::clean("fig2/stock", jbb(), &nine, SchedPolicy::os_default(), 4, 0),
        Section::clean(
            "fig2/aware",
            jbb(),
            &nine,
            SchedPolicy::asymmetry_aware(),
            4,
            0,
        ),
    ];
    let render = Box::new(|results: &[SpecResult]| {
        let (stock, aware) = (results[0].clean(), results[1].clean());
        let mut out = String::new();
        out += &header(
            "Figure 2(a)",
            "SPECjbb (16 warehouses, concurrent GC): scalability & predictability, stock kernel",
        );
        out += &format!("{}\n", render_experiment(stock));
        out += &header(
            "Figure 2(b)",
            "Same workload under the asymmetry-aware kernel scheduler",
        );
        out += &format!("{}\n", render_experiment(aware));
        out += "Per-run scatter on 2f-2s/8:\n";
        let c = [AsymConfig::new(2, 2, 8)];
        out += &format!("stock kernel:\n{}\n", render_runs(stock, &c));
        out += &format!("asymmetry-aware kernel:\n{}\n", render_runs(aware, &c));
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

fn fig3(_ctx: &SweepContext) -> SweepDef {
    let nine = AsymConfig::standard_nine();
    let rates = [250.0, 290.0, 320.0];
    let mut sections = vec![Section::clean(
        "fig3/throughput",
        Box::new(JAppServer::new(320.0)),
        &nine,
        SchedPolicy::os_default(),
        3,
        0,
    )];
    for rate in rates {
        sections.push(Section::clean(
            format!("fig3/rt-{rate}"),
            Box::new(JAppServer::new(rate)),
            &nine,
            SchedPolicy::os_default(),
            3,
            7,
        ));
    }
    let render = Box::new(move |results: &[SpecResult]| {
        let mut out = String::new();
        out += &header(
            "Figure 3(a)",
            "SPECjAppServer throughput per domain (injection 320/s)",
        );
        let exp = results[0].clean();
        let mut t = TextTable::new(vec![
            "config",
            "total tx/s",
            "NewOrder/s",
            "Manufacturing/s",
            "cov%",
        ]);
        for o in &exp.outcomes {
            t.row(vec![
                o.config.to_string(),
                format!("{:.0}", o.samples.mean()),
                format!("{:.0}", o.extras_mean["new_order_per_sec"]),
                format!("{:.0}", o.extras_mean["manufacturing_per_sec"]),
                format!("{:.2}", o.samples.cov() * 100.0),
            ]);
        }
        out += &format!("{}\n", t.render());
        out += &header(
            "Figure 3(b)",
            "Manufacturing response times (ms): avg / 90%ile / max per injection rate",
        );
        for (i, rate) in rates.iter().enumerate() {
            out += &format!("injection rate {rate}/s:\n");
            let exp = results[1 + i].clean();
            let mut t = TextTable::new(vec!["config", "avg ms", "90% ms", "max ms"]);
            for o in &exp.outcomes {
                t.row(vec![
                    o.config.to_string(),
                    format!("{:.1}", o.extras_mean["mfg_avg_ms"]),
                    format!("{:.1}", o.extras_mean["mfg_p90_ms"]),
                    format!("{:.1}", o.extras_mean["mfg_max_ms"]),
                ]);
            }
            out += &format!("{}\n", t.render());
        }
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

fn fig4(_ctx: &SweepContext) -> SweepDef {
    let nine = AsymConfig::standard_nine();
    let sections = vec![
        Section::clean(
            "fig4/power",
            Box::new(TpcH::power_run()),
            &nine,
            SchedPolicy::os_default(),
            4,
            0,
        ),
        Section::clean(
            "fig4/q3",
            Box::new(TpcH::single_query(3)),
            &nine,
            SchedPolicy::os_default(),
            13,
            3,
        ),
    ];
    let render = Box::new(|results: &[SpecResult]| {
        let mut out = String::new();
        out += &header(
            "Figure 4(a)",
            "TPC-H power run (22 queries), par=4 opt=7, 4 runs",
        );
        out += &format!("{}\n", render_experiment(results[0].clean()));
        out += &header("Figure 4(b)", "TPC-H Query 3 runtime, 13 runs");
        let q3 = results[1].clean();
        out += &format!("{}\n", render_experiment(q3));
        out += "Per-run scatter (binding lottery):\n";
        out += &format!(
            "{}\n",
            render_runs(
                q3,
                &[
                    AsymConfig::new(4, 0, 1),
                    AsymConfig::new(2, 2, 8),
                    AsymConfig::new(0, 4, 8)
                ]
            )
        );
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

/// One plan, three specs: the `p4` baseline runs exactly once and is
/// shared by the closing comparison line (it used to be recomputed).
fn fig5(_ctx: &SweepContext) -> SweepDef {
    let nine = AsymConfig::standard_nine();
    let os = SchedPolicy::os_default();
    let sections = vec![
        Section::clean(
            "fig5/p8",
            Box::new(TpcH::power_run().parallelization(8)),
            &nine,
            os,
            4,
            0,
        ),
        Section::clean(
            "fig5/o2",
            Box::new(TpcH::power_run().optimization(2)),
            &nine,
            os,
            4,
            0,
        ),
        Section::clean(
            "fig5/p4-baseline",
            Box::new(TpcH::power_run()),
            &nine,
            os,
            4,
            0,
        ),
    ];
    let render = Box::new(|results: &[SpecResult]| {
        let (p8, o2, p4) = (results[0].clean(), results[1].clean(), results[2].clean());
        let mut out = String::new();
        out += &header(
            "Figure 5(a)",
            "TPC-H power run, parallelization 8, optimization 7",
        );
        out += &format!("{}\n", render_experiment(p8));
        out += &header(
            "Figure 5(b)",
            "TPC-H power run, parallelization 4, optimization 2",
        );
        out += &format!("{}\n", render_experiment(o2));
        out += &format!(
            "variance comparison (worst asymmetric CoV): par4/opt7 {:.2}%  par8/opt7 {:.2}%  par4/opt2 {:.2}%\n",
            p4.worst_asymmetric_cov() * 100.0,
            p8.worst_asymmetric_cov() * 100.0,
            o2.worst_asymmetric_cov() * 100.0,
        );
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

fn fig6(_ctx: &SweepContext) -> SweepDef {
    let nine = AsymConfig::standard_nine();
    let os = SchedPolicy::os_default();
    let sections = vec![
        Section::clean(
            "fig6/light",
            Box::new(Apache::new(LoadLevel::light())),
            &nine,
            os,
            6,
            0,
        ),
        Section::clean(
            "fig6/heavy",
            Box::new(Apache::new(LoadLevel::heavy())),
            &nine,
            os,
            4,
            0,
        ),
        Section::clean(
            "fig6/aware",
            Box::new(Apache::new(LoadLevel::light())),
            &nine,
            SchedPolicy::asymmetry_aware(),
            6,
            0,
        ),
        Section::clean(
            "fig6/fine",
            Box::new(Apache::new(LoadLevel::light()).recycle_limit(50)),
            &nine,
            os,
            6,
            0,
        ),
    ];
    let render = Box::new(|results: &[SpecResult]| {
        let scatter = [
            AsymConfig::new(3, 1, 8),
            AsymConfig::new(2, 2, 8),
            AsymConfig::new(1, 3, 8),
        ];
        let mut out = String::new();
        out += &header("Figure 6(a)", "Apache light load (10 concurrent), 6 runs");
        let light = results[0].clean();
        out += &format!("{}\n", render_experiment(light));
        out += &format!("Per-run scatter:\n{}\n", render_runs(light, &scatter));
        out += &header(
            "Figure 6(a) companion",
            "Apache heavy load (60 concurrent), 4 runs",
        );
        out += &format!("{}\n", render_experiment(results[1].clean()));
        out += &header(
            "Figure 6(b)",
            "Apache light load with the two fixes, 6 runs each",
        );
        out += &format!(
            "asymmetry-aware kernel:\n{}\n",
            render_experiment(results[2].clean())
        );
        out += &format!(
            "fine-grained threads (recycle every 50 requests):\n{}\n",
            render_experiment(results[3].clean())
        );
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

fn fig7(_ctx: &SweepContext) -> SweepDef {
    let nine = AsymConfig::standard_nine();
    let os = SchedPolicy::os_default();
    let sections = vec![
        Section::clean(
            "fig7/light",
            Box::new(Zeus::new(LoadLevel::light())),
            &nine,
            os,
            6,
            0,
        ),
        Section::clean(
            "fig7/heavy",
            Box::new(Zeus::new(LoadLevel::heavy())),
            &nine,
            os,
            6,
            0,
        ),
        Section::clean(
            "fig7/aware",
            Box::new(Zeus::new(LoadLevel::light())),
            &nine,
            SchedPolicy::asymmetry_aware(),
            6,
            0,
        ),
    ];
    let render = Box::new(|results: &[SpecResult]| {
        let scatter = [
            AsymConfig::new(3, 1, 8),
            AsymConfig::new(2, 2, 8),
            AsymConfig::new(1, 3, 8),
        ];
        let (light, heavy, aware) = (results[0].clean(), results[1].clean(), results[2].clean());
        let mut out = String::new();
        out += &header(
            "Figure 7(a)",
            "Zeus light load (10 concurrent sessions), 6 runs",
        );
        out += &format!("{}\n", render_experiment(light));
        out += &format!("Per-run scatter:\n{}\n", render_runs(light, &scatter));
        out += &header(
            "Figure 7(b)",
            "Zeus heavy load (60 concurrent sessions), 6 runs",
        );
        out += &format!("{}\n", render_experiment(heavy));
        out += &header(
            "Figure 7 companion",
            "Zeus light load under the asymmetry-aware kernel (no effect: Zeus schedules internally)",
        );
        out += &format!("{}\n", render_experiment(aware));
        out += &format!("{}\n", stability_line(light));
        out += &format!("{}\n", stability_line(aware));
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

fn fig8(_ctx: &SweepContext) -> SweepDef {
    let variants = [OmpVariant::Unmodified, OmpVariant::DynamicChunked];
    let configs: [(&'static str, AsymConfig, usize); 4] = [
        ("4f-0s", AsymConfig::new(4, 0, 1), 1),
        ("2f-2s/8", AsymConfig::new(2, 2, 8), 2),
        ("0f-4s/4", AsymConfig::new(0, 4, 4), 1),
        ("0f-4s/8", AsymConfig::new(0, 4, 8), 1),
    ];
    let mut sections = Vec::new();
    for variant in variants {
        for bench in SpecOmp::all() {
            for (name, config, runs) in &configs {
                sections.push(Section::clean(
                    format!("fig8/{:?}/{}/{name}", variant, bench.benchmark),
                    Box::new(bench.clone().variant(variant)),
                    &[*config],
                    SchedPolicy::os_default(),
                    *runs,
                    0,
                ));
            }
        }
    }
    let render = Box::new(move |results: &[SpecResult]| {
        let mut out = String::new();
        let mut idx = 0;
        for variant in variants {
            out += &header(
                if variant == OmpVariant::Unmodified {
                    "Figure 8(a)"
                } else {
                    "Figure 8(b)"
                },
                if variant == OmpVariant::Unmodified {
                    "SPEC OMP runtimes (s), unmodified parallelization directives"
                } else {
                    "SPEC OMP runtimes (s), all loops dynamic with large chunks"
                },
            );
            let mut t = TextTable::new(vec![
                "benchmark",
                "4f-0s",
                "2f-2s/8 (runs)",
                "0f-4s/4",
                "0f-4s/8",
            ]);
            for bench in SpecOmp::all() {
                let mut cells = vec![bench.benchmark.to_string()];
                for _ in &configs {
                    let vals: Vec<String> = results[idx].clean().outcomes[0]
                        .samples
                        .values()
                        .iter()
                        .map(|v| format!("{v:.1}"))
                        .collect();
                    idx += 1;
                    cells.push(vals.join(" / "));
                }
                t.row(cells);
            }
            out += &format!("{}\n", t.render());
        }
        out += "Shape check: in (a) 2f-2s/8 tracks 0f-4s/8 (slowest-core pacing);\n\
                in (b) 2f-2s/8 lands near 4f-0s and far above the fast/slow midpoint.\n";
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

fn fig9(_ctx: &SweepContext) -> SweepDef {
    let nine = AsymConfig::standard_nine();
    let os = SchedPolicy::os_default();
    let sections = vec![
        Section::clean("fig9/h264", Box::new(H264::new()), &nine, os, 4, 0),
        Section::clean("fig9/pmake", Box::new(Pmake::new()), &nine, os, 2, 0),
    ];
    let render = Box::new(|results: &[SpecResult]| {
        let mut out = String::new();
        out += &header("Figure 9(a)", "H.264 multithreaded encoding, 4 runs");
        out += &format!("{}\n", render_experiment(results[0].clean()));
        out += &header("Figure 9(b)", "PMAKE (make -j4), 2 runs");
        out += &format!("{}\n", render_experiment(results[1].clean()));
        out += "Shape check: both are stable; 1f-3s/8 beats 0f-4s/4 and 0f-4s/8\n\
                (one fast core carries serial work and soaks up parallel work).\n";
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

fn fig10(_ctx: &SweepContext) -> SweepDef {
    let nine = AsymConfig::standard_nine();
    let sections: Vec<Section> = paper_workloads()
        .into_iter()
        .map(|w| {
            let label = format!("fig10/{}", w.name());
            Section::clean(label, w, &nine, SchedPolicy::os_default(), 3, 0)
        })
        .collect();
    let render = Box::new(|results: &[SpecResult]| {
        let mut out = String::new();
        out += &header(
            "Figure 10",
            "Speedup over 0f-4s/8 per configuration (± CoV over repeated runs)",
        );
        let mut head = vec!["benchmark".to_string()];
        head.extend(AsymConfig::standard_nine().iter().map(|c| c.to_string()));
        let mut t = TextTable::new(head);
        let baseline = AsymConfig::new(0, 4, 8);
        for r in results {
            let exp = r.clean();
            let speedups = exp.speedups_over(baseline);
            let mut cells = vec![exp.workload.clone()];
            for (config, speedup) in speedups {
                let cov = exp.outcome(config).map_or(0.0, |o| o.samples.cov() * 100.0);
                cells.push(format!("{speedup:.2} ±{cov:.0}%"));
            }
            t.row(cells);
        }
        out += &format!("{}\n", t.render());
        out += "Reading: symmetric configurations (first and last two columns) show\n\
                ~0% variance everywhere; SPECjbb, Apache, Zeus and TPC-H show large\n\
                variance on the asymmetric configurations; SPEC OMP's speedup barely\n\
                moves until every core is slow (slowest-core pacing); H.264 and PMAKE\n\
                scale smoothly and show that a single fast core beats all-slow.\n";
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

fn table1(_ctx: &SweepContext) -> SweepDef {
    let nine = AsymConfig::standard_nine();
    let stock = SchedPolicy::os_default();
    let aware = SchedPolicy::asymmetry_aware();
    let runs = 4;
    let omp = || Box::new(SpecOmp::new("swim").work_scale(0.5));
    let omp_fixed = || {
        Box::new(
            SpecOmp::new("swim")
                .variant(OmpVariant::DynamicChunked)
                .work_scale(0.5),
        )
    };
    let jbb = || Box::new(SpecJbb::new(16).gc(GcKind::ConcurrentGenerational));
    let sections = vec![
        Section::clean("table1/jbb-stock", jbb(), &nine, stock, runs, 0),
        Section::clean("table1/jbb-aware", jbb(), &nine, aware, runs, 0),
        Section::clean(
            "table1/japps",
            Box::new(JAppServer::new(320.0)),
            &nine,
            stock,
            runs,
            0,
        ),
        Section::clean(
            "table1/tpch-stock",
            Box::new(TpcH::power_run()),
            &nine,
            stock,
            runs,
            0,
        ),
        Section::clean(
            "table1/tpch-aware",
            Box::new(TpcH::power_run()),
            &nine,
            aware,
            runs,
            0,
        ),
        Section::clean(
            "table1/tpch-opt2",
            Box::new(TpcH::power_run().optimization(2)),
            &nine,
            stock,
            runs,
            0,
        ),
        Section::clean(
            "table1/apache-stock",
            Box::new(Apache::new(LoadLevel::light())),
            &nine,
            stock,
            runs,
            0,
        ),
        Section::clean(
            "table1/apache-aware",
            Box::new(Apache::new(LoadLevel::light())),
            &nine,
            aware,
            runs,
            0,
        ),
        Section::clean(
            "table1/apache-recycle",
            Box::new(Apache::new(LoadLevel::light()).recycle_limit(50)),
            &nine,
            stock,
            runs,
            0,
        ),
        Section::clean(
            "table1/zeus-stock",
            Box::new(Zeus::new(LoadLevel::light())),
            &nine,
            stock,
            runs,
            0,
        ),
        Section::clean(
            "table1/zeus-aware",
            Box::new(Zeus::new(LoadLevel::light())),
            &nine,
            aware,
            runs,
            0,
        ),
        Section::clean("table1/omp-stock", omp(), &nine, stock, runs, 0),
        Section::clean("table1/omp-aware", omp(), &nine, aware, runs, 0),
        Section::clean("table1/omp-fixed", omp_fixed(), &nine, stock, runs, 0),
        Section::clean("table1/h264", Box::new(H264::new()), &nine, stock, runs, 0),
        Section::clean("table1/pmake", Box::new(Pmake::new()), &nine, stock, 2, 0),
    ];
    let render = Box::new(|results: &[SpecResult]| {
        let exp = |i: usize| results[i].clean();
        // Scaling efficiency bound used for the "is scalability
        // predictable" verdict; SPEC OMP's slowest-core pacing falls
        // far below it.
        let min_eff = 0.25;
        let mut rows: Vec<SummaryRow> = vec![
            SummaryRow::derive(
                WorkloadClass::ManagedRuntime,
                exp(0),
                Some(exp(1)),
                None,
                min_eff,
            ),
            SummaryRow::derive(WorkloadClass::ManagedRuntime, exp(2), None, None, min_eff),
            SummaryRow::derive(
                WorkloadClass::Database,
                exp(3),
                Some(exp(4)),
                Some(exp(5)),
                min_eff,
            ),
            SummaryRow::derive(
                WorkloadClass::WebServer,
                exp(6),
                Some(exp(7)),
                Some(exp(8)),
                min_eff,
            ),
            SummaryRow::derive(
                WorkloadClass::WebServer,
                exp(9),
                Some(exp(10)),
                None,
                min_eff,
            ),
        ];
        let mut omp_row = SummaryRow::derive(
            WorkloadClass::Scientific,
            exp(11),
            Some(exp(12)),
            Some(exp(13)),
            min_eff,
        );
        omp_row.application = "SPEC OMP (swim)".to_string();
        rows.push(omp_row);
        rows.push(SummaryRow::derive(
            WorkloadClass::Multimedia,
            exp(14),
            None,
            None,
            min_eff,
        ));
        rows.push(SummaryRow::derive(
            WorkloadClass::Development,
            exp(15),
            None,
            None,
            min_eff,
        ));

        let mut t = TextTable::new(vec![
            "Application",
            "Class",
            "Performance predictable?",
            "Scalability predictable?",
            "worst CoV",
            "worst eff",
        ]);
        for r in &rows {
            t.row(vec![
                r.application.clone(),
                r.class.to_string(),
                r.predictable.to_string(),
                r.scalable.to_string(),
                format!("{:.1}%", r.worst_cov * 100.0),
                format!("{:.2}", r.worst_efficiency),
            ]);
        }
        let mut out = String::new();
        out += &header("Table 1", "Results summary (derived from measurements)");
        out += &format!("{}\n", t.render());
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

// ----------------------------------------------------------------------
// Extension experiments
// ----------------------------------------------------------------------

fn extra_asym_degree(_ctx: &SweepContext) -> SweepDef {
    let configs = [
        AsymConfig::new(3, 1, 4),
        AsymConfig::new(3, 1, 8),
        AsymConfig::new(2, 2, 4),
        AsymConfig::new(2, 2, 8),
        AsymConfig::new(1, 3, 4),
        AsymConfig::new(1, 3, 8),
    ];
    let sections = vec![Section::clean(
        "asym-degree/apache",
        Box::new(Apache::new(LoadLevel::light())),
        &configs,
        SchedPolicy::os_default(),
        6,
        0,
    )];
    let render = Box::new(|results: &[SpecResult]| {
        let mut out = String::new();
        out += &header(
            "Extra (§3.4.2)",
            "Degree of asymmetry vs instability (Apache light load, 6 runs)",
        );
        let mut t = TextTable::new(vec!["config", "mean req/s", "cov%"]);
        for o in &results[0].clean().outcomes {
            t.row(vec![
                o.config.to_string(),
                format!("{:.0}", o.samples.mean()),
                format!("{:.1}", o.samples.cov() * 100.0),
            ]);
        }
        out += &format!("{}\n", t.render());
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

fn extra_duty_sweep(_ctx: &SweepContext) -> SweepDef {
    // AsymConfig expresses 1/scale slow cores; duty steps k/8 map to
    // scale = 8/k for k in {1, 2, 4} exactly and are approximated by the
    // nearest integer scale otherwise.
    let steps: Vec<(DutyCycle, u32)> = DutyCycle::steps()
        .filter_map(|d| {
            let scale = (1.0 / d.fraction()).round() as u32;
            (scale >= 2).then_some((d, scale))
        })
        .collect();
    let os = SchedPolicy::os_default();
    let mut sections = Vec::new();
    for (duty, scale) in &steps {
        let config = AsymConfig::new(2, 2, *scale);
        sections.push(Section::clean(
            format!("duty/{duty}/jbb"),
            Box::new(SpecJbb::new(12).gc(GcKind::ConcurrentGenerational)),
            &[config],
            os,
            4,
            0,
        ));
        sections.push(Section::clean(
            format!("duty/{duty}/h264"),
            Box::new(H264::new()),
            &[config],
            os,
            1,
            1,
        ));
    }
    let render = Box::new(move |results: &[SpecResult]| {
        let mut out = String::new();
        out += &header(
            "Extension",
            "2f-2s/x sweep over all duty-cycle steps: instability onset and H.264 scaling",
        );
        let mut t = TextTable::new(vec![
            "slow duty",
            "config",
            "power",
            "jbb cov%",
            "jbb mean tx/s",
            "h264 runtime s",
        ]);
        for (i, (duty, scale)) in steps.iter().enumerate() {
            let config = AsymConfig::new(2, 2, *scale);
            let o = &results[2 * i].clean().outcomes[0];
            let h = results[2 * i + 1].clean().outcomes[0].samples.values()[0];
            t.row(vec![
                duty.to_string(),
                config.to_string(),
                format!("{:.2}", config.compute_power()),
                format!("{:.1}", o.samples.cov() * 100.0),
                format!("{:.0}", o.samples.mean()),
                format!("{h:.2}"),
            ]);
        }
        out += &format!("{}\n", t.render());
        out += "Mild asymmetry (75-50% duty) stays stable; instability grows as the\n\
                slow cores' share of total compute power shrinks — consistent with the\n\
                paper's closing conjecture about bounding the fast core's share.\n";
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

fn extra_tpch_bimodal(_ctx: &SweepContext) -> SweepDef {
    let sections = vec![Section::clean(
        "tpch-bimodal/q3",
        Box::new(TpcH::single_query(3).parallelization(1)),
        &[AsymConfig::new(2, 2, 8)],
        SchedPolicy::os_default(),
        14,
        0,
    )];
    let render = Box::new(|results: &[SpecResult]| {
        let mut out = String::new();
        out += &header(
            "Extra (§3.3)",
            "TPC-H Q3, parallelization off: bimodal fast/slow runtimes on 2f-2s/8",
        );
        let mut runs = results[0].clean().outcomes[0].samples.values().to_vec();
        out += &format!(
            "runtimes (s): {:?}\n",
            runs.iter()
                .map(|v| (v * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
        runs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let fast_mode = runs[0];
        let slow_mode = runs[runs.len() - 1];
        out += &format!(
            "fast mode ~{fast_mode:.2}s, slow mode ~{slow_mode:.2}s, ratio {:.1}x (slow cores run at 1/8)\n",
            slow_mode / fast_mode
        );
        Rendered::text(out)
    });
    SweepDef { sections, render }
}

// ----------------------------------------------------------------------
// Faulted sweeps
// ----------------------------------------------------------------------

/// The window fault injection draws from; runs longer than this see all
/// their faults early, shorter runs see a prefix.
const FAULT_HORIZON: SimDuration = SimDuration::from_secs(2);

/// Thread kills scheduled per faulted differential run, on top of the
/// throttle and hotplug events.
const PLANNED_KILLS: u32 = 2;

fn throttle_plan_for(setup: &RunSetup) -> FaultPlan {
    FaultPlan::generate(
        setup.seed,
        setup.config.num_cores() as usize,
        &FaultProfile::hotplug_and_throttle(FAULT_HORIZON),
    )
}

fn kills_plan_for(setup: &RunSetup) -> FaultPlan {
    FaultPlan::generate(
        setup.seed,
        setup.config.num_cores() as usize,
        &FaultProfile::with_kills(FAULT_HORIZON, PLANNED_KILLS),
    )
}

/// Runs one workload twice with the identical seed and fault plan and
/// checks the streamed traces hash identically — determinism must
/// survive fault injection.
fn same_seed_guarded_reruns_match(policy: SchedPolicy, config: AsymConfig) -> bool {
    let w = H264::new();
    let setup = RunSetup::new(config, policy, 42);
    let run = || {
        let guard = RunGuard::new()
            .watchdog(SimDuration::from_secs(5))
            .fault_plan(throttle_plan_for(&setup));
        let (_, hashers) = capture_stream(
            |_, _| TraceHasher::new(),
            || with_run_guard(guard, || w.run(&setup)),
        );
        hashers.iter().map(TraceHasher::finish).collect::<Vec<_>>()
    };
    let (a, b) = (run(), run());
    !a.is_empty() && a == b
}

fn extra_fault_sweep(ctx: &SweepContext) -> SweepDef {
    let policy = SchedPolicy::asymmetry_aware();
    let configs = if ctx.quick {
        vec![AsymConfig::new(1, 3, 8)]
    } else {
        AsymConfig::standard_nine()
    };
    let runs = if ctx.quick { 1 } else { 3 };
    let log = ViolationLog::new();
    let sections: Vec<Section> = paper_workloads()
        .into_iter()
        .map(|w| {
            let label = format!("fault/{}", w.name());
            let opts = ResilientOptions::new(runs)
                .watchdog(SimDuration::from_secs(5))
                .sim_time_budget(SimDuration::from_secs(120))
                .retries(1)
                .fault_planner(throttle_plan_for)
                .trace_check(log.check());
            Section::resilient(label, w, &configs, policy, opts)
        })
        .collect();
    let render = Box::new(move |results: &[SpecResult]| {
        let mut out = String::new();
        out += &header(
            "Extension",
            "dynamic-asymmetry fault sweep: hotplug + throttle mid-run, resilient harness",
        );
        let mut table = TextTable::new(vec![
            "workload",
            "completed",
            "tl/st/dl/pn",
            "retries",
            "worst cov%",
            "scal eff",
        ]);
        let mut all_classified = true;
        let mut total_panicked = 0usize;
        for r in results {
            let exp = r.resilient();
            let total: usize = exp.outcomes.iter().map(|o| o.records.len()).sum();
            let completed = exp.count(RunClass::Completed);
            let retries: u32 = exp
                .outcomes
                .iter()
                .map(|o| o.total_attempts() - o.records.len() as u32)
                .sum();
            all_classified &= total == configs.len() * runs;
            total_panicked += exp.count(RunClass::Panicked);

            // Stability: worst CoV over configurations with >= 2
            // completed runs. Scalability: mean performance of completed
            // runs vs compute power, where at least two configurations
            // answered.
            let worst_cov = exp
                .outcomes
                .iter()
                .filter_map(|o| o.completed_samples())
                .filter(|s| s.len() >= 2)
                .map(|s| s.cov())
                .fold(f64::NAN, f64::max);
            let points: Vec<(f64, f64)> = exp
                .outcomes
                .iter()
                .filter_map(|o| {
                    o.completed_samples().map(|s| {
                        (
                            o.config.compute_power(),
                            exp.direction.performance(s.mean()),
                        )
                    })
                })
                .collect();
            let scal = (points.len() >= 2).then(|| Scalability::from_points(&points));

            table.row(vec![
                exp.workload.clone(),
                format!("{completed}/{total}"),
                format!(
                    "{}/{}/{}/{}",
                    exp.count(RunClass::TimeLimit),
                    exp.count(RunClass::Stalled),
                    exp.count(RunClass::Deadlock),
                    exp.count(RunClass::Panicked)
                ),
                retries.to_string(),
                if worst_cov.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.1}", worst_cov * 100.0)
                },
                scal.map_or("-".to_string(), |s| format!("{:.2}", s.worst_efficiency)),
            ]);
        }
        out += &format!("{}\n", table.render());
        out += "classes: tl = time-limit, st = stalled, dl = deadlock, pn = panicked\n";

        let deterministic = same_seed_guarded_reruns_match(policy, configs[0]);
        let violations = log.count();
        out += &format!(
            "checkers on faulted traces: {violations} violation(s); \
             same-seed rerun hashes identical: {}\n",
            if deterministic { "yes" } else { "NO" }
        );
        out += "Mid-run throttling and hotplug degrade means but the asymmetry-aware\n\
                kernel keeps every sweep cell classified and panic-free: faults cost\n\
                throughput, not correctness.\n";

        let ok = all_classified && total_panicked == 0 && violations == 0 && deterministic;
        if !ok {
            out += "FAILURE: unclassified runs, panics, violations, or non-determinism\n";
        }
        Rendered { text: out, ok }
    });
    SweepDef { sections, render }
}

/// The concurrency checker over the experiment matrix: every paper
/// workload on every standard configuration (quick: 1f-3s/8) under the
/// asymmetry-aware kernel, one fault-free run per cell. The five trace
/// analyses stream through every kernel as a section check; `--check`
/// adds the happens-before suite in the same pass. Same-seed
/// determinism is the engine's and the golden hashes' business.
fn extra_check_matrix(ctx: &SweepContext) -> SweepDef {
    let policy = SchedPolicy::asymmetry_aware();
    let configs = if ctx.quick {
        vec![AsymConfig::new(1, 3, 8)]
    } else {
        AsymConfig::standard_nine()
    };
    let log = ViolationLog::new();
    let sections: Vec<Section> = paper_workloads()
        .into_iter()
        .map(|w| {
            let label = format!("check/{}", w.name());
            let opts = ResilientOptions::new(1).retries(0).trace_check(log.check());
            Section::resilient(label, w, &configs, policy, opts)
        })
        .collect();
    let render = Box::new(move |results: &[SpecResult]| {
        let mut out = header(
            "Extension",
            &format!(
                "concurrency checker: {} workloads x {} configuration(s) under {policy}",
                results.len(),
                configs.len()
            ),
        );
        let mut table = TextTable::new(vec!["workload", "completed"]);
        let (mut cells, mut completed) = (0usize, 0usize);
        for r in results {
            let exp = r.resilient();
            let total: usize = exp.outcomes.iter().map(|o| o.records.len()).sum();
            let done = exp.count(RunClass::Completed);
            cells += total;
            completed += done;
            table.row(vec![exp.workload.clone(), format!("{done}/{total}")]);
        }
        out += &format!("{}\n", table.render());
        let violations = log.count();
        out += &format!(
            "trace analyses (lost wakeup, fast-core idle, offline dispatch, forward \
             progress, kill accounting) over {cells} cell(s): {violations} violation(s)\n"
        );
        let ok = cells == results.len() * configs.len() && completed == cells && violations == 0;
        if !ok {
            out += "FAILURE: a cell did not complete, or an analysis found a violation\n";
        }
        Rendered { text: out, ok }
    });
    SweepDef { sections, render }
}

fn differential_opts(reps: usize) -> ResilientOptions {
    ResilientOptions::new(reps)
        .watchdog(SimDuration::from_secs(5))
        .sim_time_budget(SimDuration::from_secs(120))
        .retries(1)
        .fault_planner(kills_plan_for)
}

fn mean(vals: impl Iterator<Item = f64>) -> Option<f64> {
    let v: Vec<f64> = vals.collect();
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// Runs the H.264 differential twice with identical options and checks
/// the outcomes — every seed, class, and metric value — are equal:
/// same-seed reruns must be bit-identical even with kills injected.
fn same_seed_differential_reruns_match(config: AsymConfig) -> bool {
    let w = H264::new();
    let run = || {
        let options = differential_opts(1);
        run_spec(&w, &[config], SpecMode::Differential { options })
    };
    let (a, b) = (run(), run());
    a == b && a.differential().count(RunClass::Completed) > 0
}

fn extra_absorption(ctx: &SweepContext) -> SweepDef {
    let configs = if ctx.quick {
        vec![AsymConfig::new(1, 3, 8)]
    } else {
        AsymConfig::standard_nine()
    };
    let reps = if ctx.quick { 1 } else { 3 };
    let sections: Vec<Section> = paper_workloads()
        .into_iter()
        .map(|w| {
            let label = format!("absorb/{}", w.name());
            Section::differential(label, w, &configs, differential_opts(reps))
        })
        .collect();
    let render = Box::new(move |results: &[SpecResult]| {
        let mut out = String::new();
        out += &header(
            "Extension",
            "differential absorption: stock vs aware under identical seeds and fault plans",
        );
        let mut table = TextTable::new(vec![
            "workload",
            "config",
            "absorb",
            "stab d",
            "S stock",
            "S aware",
            "fidle d",
            "sync d",
            "sched d",
            "lost wk",
            "c/t/s/d/p",
        ]);
        // Mean per-rep attribution delta (stock-faulted - aware-faulted),
        // integer milliseconds; "-" when no rep produced metrics.
        let att = |o: &asym_core::DifferentialConfigOutcome,
                   f: fn(&asym_obs::DiffAttribution) -> i64|
         -> String {
            let vals: Vec<i64> = o
                .reps
                .iter()
                .filter_map(|r| r.diff.as_ref().map(f))
                .collect();
            if vals.is_empty() {
                "-".to_string()
            } else {
                format!(
                    "{:+}",
                    vals.iter().sum::<i64>() / vals.len() as i64 / 1_000_000
                )
            }
        };
        let mut all_classified = true;
        let mut total_panicked = 0usize;
        let mut total_lost = 0.0f64;
        for r in results {
            let exp = r.differential();
            all_classified &= exp.total_runs() == configs.len() * reps * 4;
            total_panicked += exp.count(RunClass::Panicked);
            for o in &exp.outcomes {
                let s_stock = mean(
                    o.reps
                        .iter()
                        .filter_map(|rep| rep.stock_slowdown(exp.direction)),
                );
                let s_aware = mean(
                    o.reps
                        .iter()
                        .filter_map(|rep| rep.aware_slowdown(exp.direction)),
                );
                // The `lost_workers` extras the workloads report — proof
                // the kill cells completed *and* accounted for their
                // victims rather than silently dropping them.
                let cell_lost: f64 = o
                    .reps
                    .iter()
                    .flat_map(|rep| rep.records())
                    .filter_map(|r| r.extras.get("lost_workers"))
                    .sum();
                total_lost += cell_lost;
                table.row(vec![
                    exp.workload.clone(),
                    o.config.to_string(),
                    o.mean_absorption(exp.direction)
                        .map_or("-".to_string(), |a| format!("{a:+.2}")),
                    o.stability_delta()
                        .map_or("-".to_string(), |d| format!("{d:+.3}")),
                    s_stock.map_or("-".to_string(), |s| format!("{s:.2}")),
                    s_aware.map_or("-".to_string(), |s| format!("{s:.2}")),
                    att(o, |d| d.fast_idle_delta_ns),
                    att(o, |d| d.sync_wait_delta_ns),
                    att(o, |d| d.sched_wait_delta_ns),
                    format!("{cell_lost:.0}"),
                    format!(
                        "{}/{}/{}/{}/{}",
                        o.count(RunClass::Completed),
                        o.count(RunClass::TimeLimit),
                        o.count(RunClass::Stalled),
                        o.count(RunClass::Deadlock),
                        o.count(RunClass::Panicked)
                    ),
                ]);
            }
        }
        out += &format!("{}\n", table.render());
        out += "absorb = fraction of stock fault slowdown the aware kernel recovers;\n\
                stab d = stock CoV - aware CoV over repeat seeds under faults;\n\
                S = clean/faulted performance; lost wk = killed workers reported;\n\
                fidle/sync/sched d = stock-faulted minus aware-faulted fast-idle /\n\
                sync-wait / scheduler-latency time, mean over reps, ms (positive:\n\
                the stock kernel wasted more under the identical plan);\n\
                classes: c = completed, t = time-limit, s = stalled, d = deadlock, p = panicked\n";

        let deterministic = same_seed_differential_reruns_match(configs[0]);
        out += &format!(
            "kills reported as lost workers: {total_lost:.0}; \
             same-seed differential reruns identical: {}\n",
            if deterministic { "yes" } else { "NO" }
        );
        out += "Pairing each faulted run with its same-seed, same-plan twin under the\n\
                other kernel isolates the policy's contribution: the aware kernel\n\
                absorbs part of the fault damage and does so with less run-to-run\n\
                spread, while kill-bearing cells finish with their victims accounted.\n";

        let ok = all_classified && total_panicked == 0 && deterministic && total_lost > 0.0;
        if !ok {
            out +=
                "FAILURE: unclassified runs, panics, missing kill accounting, or non-determinism\n";
        }
        Rendered { text: out, ok }
    });
    SweepDef { sections, render }
}

// ----------------------------------------------------------------------
// Dynamic-environment sweeps
// ----------------------------------------------------------------------

/// The three dynamic regimes the differential environment sweep
/// exercises, in presentation order.
fn dynamic_regimes() -> Vec<(&'static str, EnvironmentProfile)> {
    vec![
        ("dvfs", EnvironmentProfile::dvfs(FAULT_HORIZON)),
        ("thermal", EnvironmentProfile::thermal(FAULT_HORIZON)),
        ("co-tenant", EnvironmentProfile::co_tenant(FAULT_HORIZON)),
    ]
}

/// Differential options with `profile`'s environment attached to the
/// disturbed legs: no discrete faults, so absorption isolates how much
/// of the *continuous* slowdown the aware kernel recovers.
fn dynamic_opts(reps: usize, profile: EnvironmentProfile) -> ResilientOptions {
    ResilientOptions::new(reps)
        .watchdog(SimDuration::from_secs(5))
        .sim_time_budget(SimDuration::from_secs(120))
        .retries(1)
        .environment_planner(move |setup| {
            EnvironmentPlan::generate(setup.seed, setup.config.num_cores() as usize, &profile)
        })
}

/// Runs the H.264 differential twice under the combined dynamic regime
/// and checks the outcomes are equal: same-seed reruns must be
/// bit-identical even with a continuous environment attached.
fn same_seed_dynamic_reruns_match(config: AsymConfig) -> bool {
    let w = H264::new();
    let profile = EnvironmentProfile::combined(FAULT_HORIZON);
    let run = || {
        let options = dynamic_opts(1, profile);
        run_spec(&w, &[config], SpecMode::Differential { options })
    };
    let (a, b) = (run(), run());
    a == b && a.differential().count(RunClass::Completed) > 0
}

fn extra_dynamic(ctx: &SweepContext) -> SweepDef {
    let configs = if ctx.quick {
        vec![AsymConfig::new(1, 3, 8)]
    } else {
        vec![
            AsymConfig::new(3, 1, 8),
            AsymConfig::new(2, 2, 8),
            AsymConfig::new(1, 3, 8),
        ]
    };
    let reps = if ctx.quick { 1 } else { 2 };
    let regimes = dynamic_regimes();
    let mut sections = Vec::new();
    for (regime, profile) in &regimes {
        for w in paper_workloads() {
            sections.push(Section::differential(
                format!("dynamic/{regime}/{}", w.name()),
                w,
                &configs,
                dynamic_opts(reps, *profile),
            ));
        }
    }
    let render = Box::new(move |results: &[SpecResult]| {
        let mut out = String::new();
        out += &header(
            "Extension",
            "dynamic environments: stock vs aware under identical continuous speed trajectories",
        );
        let mut table = TextTable::new(vec![
            "regime",
            "workload",
            "config",
            "absorb",
            "S stock",
            "S aware",
            "c/t/s/d/p",
        ]);
        let mut all_classified = true;
        let mut total_panicked = 0usize;
        let mut disturbed_cells = 0usize;
        let mut idx = 0;
        for (regime, _) in &regimes {
            for _ in 0..results.len() / regimes.len() {
                let exp = results[idx].differential();
                idx += 1;
                all_classified &= exp.total_runs() == configs.len() * reps * 4;
                total_panicked += exp.count(RunClass::Panicked);
                for o in &exp.outcomes {
                    let s_stock = mean(
                        o.reps
                            .iter()
                            .filter_map(|rep| rep.stock_slowdown(exp.direction)),
                    );
                    let s_aware = mean(
                        o.reps
                            .iter()
                            .filter_map(|rep| rep.aware_slowdown(exp.direction)),
                    );
                    // A regime "disturbed" a cell when the stock leg
                    // measurably moved off its clean baseline.
                    if s_stock.is_some_and(|s| (s - 1.0).abs() > 1e-9) {
                        disturbed_cells += 1;
                    }
                    table.row(vec![
                        regime.to_string(),
                        exp.workload.clone(),
                        o.config.to_string(),
                        o.mean_absorption(exp.direction)
                            .map_or("-".to_string(), |a| format!("{a:+.2}")),
                        s_stock.map_or("-".to_string(), |s| format!("{s:.2}")),
                        s_aware.map_or("-".to_string(), |s| format!("{s:.2}")),
                        format!(
                            "{}/{}/{}/{}/{}",
                            o.count(RunClass::Completed),
                            o.count(RunClass::TimeLimit),
                            o.count(RunClass::Stalled),
                            o.count(RunClass::Deadlock),
                            o.count(RunClass::Panicked)
                        ),
                    ]);
                }
            }
        }
        out += &format!("{}\n", table.render());
        out += "absorb = fraction of the stock kernel's dynamic-environment slowdown the\n\
                aware kernel recovers; S = clean/disturbed performance; classes: c =\n\
                completed, t = time-limit, s = stalled, d = deadlock, p = panicked.\n\
                Per-cell speed-change, rerank, and tracking-lag counters land in the\n\
                structured JSON report (--json).\n";

        let deterministic = same_seed_dynamic_reruns_match(configs[0]);
        out += &format!(
            "cells disturbed by their regime: {disturbed_cells}; \
             same-seed dynamic reruns identical: {}\n",
            if deterministic { "yes" } else { "NO" }
        );
        out += "The DVFS, thermal, and co-tenant regimes all slow the stock kernel;\n\
                the aware kernel re-ranks (with hysteresis) as trajectories evolve and\n\
                recovers part of the loss without ever destabilizing a run.\n";

        let ok = all_classified && total_panicked == 0 && deterministic && disturbed_cells > 0;
        if !ok {
            out += "FAILURE: unclassified runs, panics, undisturbed regimes, or non-determinism\n";
        }
        Rendered { text: out, ok }
    });
    SweepDef { sections, render }
}

/// One policy's accumulated tournament telemetry: profile metrics
/// merged over every cell's traces, plus what the full analysis suite
/// (single-trace checkers and the happens-before lints) found there.
struct TournamentLog {
    metrics: ProfileMetrics,
    violations: usize,
}

/// The tournament's section check for policy `pname`: every kernel of
/// every attempt streams through the complete analysis suite — the
/// five trace analyses and the happens-before suite — and the run
/// profile, and is folded into `log` when its stream closes.
fn tournament_check(log: &Arc<Mutex<TournamentLog>>, pname: &'static str) -> TraceCheck {
    let log = Arc::clone(log);
    Arc::new(move |machine, policy, seed| {
        Box::new(TournamentFold {
            analyses: AnalysisFold::new(machine, policy),
            races: ConcurrencyFold::new(machine, policy),
            profile: ProfileFold::new(machine, policy),
            machine: machine.clone(),
            seed,
            pname,
            log: Arc::clone(&log),
        })
    })
}

/// One kernel's [`tournament_check`] fold.
struct TournamentFold {
    analyses: AnalysisFold,
    races: ConcurrencyFold,
    profile: ProfileFold,
    machine: MachineSpec,
    seed: u64,
    pname: &'static str,
    log: Arc<Mutex<TournamentLog>>,
}

impl TraceConsumer for TournamentFold {
    fn on_event(&mut self, time: SimTime, event: &TraceEvent) {
        self.analyses.on_event(time, event);
        self.races.on_event(time, event);
        self.profile.on_event(time, event);
    }

    fn on_shared_label(&mut self, label: &str) {
        self.races.on_shared_label(label);
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>, budget_exhausted: bool) {
        self.analyses.on_close(outcome, budget_exhausted);
        self.races.on_close(outcome, budget_exhausted);
        self.profile.on_close(outcome, budget_exhausted);
    }
}

impl CheckFold for TournamentFold {
    fn findings(self: Box<Self>) -> Vec<String> {
        let mut found = self.analyses.finish();
        found.extend(self.races.finish());
        let mut log = self.log.lock().expect("tournament log poisoned");
        log.metrics.merge(&self.profile.finish().metrics());
        if !found.is_empty() {
            log.violations += found.len();
            eprintln!(
                "  [VIOLATION] {} seed {} on {}: {}",
                self.pname,
                self.seed,
                self.machine,
                render_violations(&found)
            );
        }
        found.iter().map(ToString::to_string).collect()
    }
}

/// Ranks `vals` (0 = best) by competition ranking: a value's rank is
/// the number of values strictly better, so equal values share the
/// lowest rank and the next value skips past them. `higher_better`
/// flips the order; NaN ranks after every number (NaNs tie).
fn rank_of(vals: &[f64], higher_better: bool) -> Vec<usize> {
    let better = |a: f64, b: f64| match (a.is_nan(), b.is_nan()) {
        (false, true) => true,
        (true, _) => false,
        _ if higher_better => a > b,
        _ => a < b,
    };
    vals.iter()
        .map(|&v| vals.iter().filter(|&&w| better(w, v)).count())
        .collect()
}

/// The scheduler-policy tournament: every policy in
/// [`SchedPolicy::registry`] runs the full eight-workload roster over
/// the same configurations and seeds under the fault-free resilient
/// harness, and the field is ranked on run-to-run stability (worst
/// CoV), speedup scalability (mean worst-efficiency), and the paper's
/// `fast_idle_slow_runnable_ns` counter. Every cell's traces pass
/// through the complete analysis suite; any finding fails the spec, so
/// the stale-ranking, rerank-hygiene, and starvation lints hold for
/// every competitor.
fn extra_tournament(ctx: &SweepContext) -> SweepDef {
    let configs = if ctx.quick {
        vec![AsymConfig::new(1, 3, 8)]
    } else {
        vec![
            AsymConfig::new(1, 3, 8),
            AsymConfig::new(2, 2, 8),
            AsymConfig::new(4, 0, 8),
        ]
    };
    let runs = if ctx.quick { 1 } else { 2 };
    let field = SchedPolicy::registry();
    let mut sections = Vec::new();
    let mut logs: Vec<Arc<Mutex<TournamentLog>>> = Vec::new();
    for (pname, policy) in &field {
        let log = Arc::new(Mutex::new(TournamentLog {
            metrics: ProfileMetrics::new(),
            violations: 0,
        }));
        logs.push(Arc::clone(&log));
        let check = tournament_check(&log, pname);
        for w in paper_workloads() {
            let label = format!("tourn/{pname}/{}", w.name());
            let opts = ResilientOptions::new(runs)
                .base_seed(4242)
                .watchdog(SimDuration::from_secs(5))
                .sim_time_budget(SimDuration::from_secs(120))
                .retries(1)
                .trace_check(Arc::clone(&check));
            sections.push(Section::resilient(label, w, &configs, *policy, opts));
        }
    }
    let names: Vec<&'static str> = field.iter().map(|(n, _)| *n).collect();
    let policies: Vec<SchedPolicy> = field.iter().map(|(_, p)| *p).collect();
    let render = Box::new(move |results: &[SpecResult]| {
        let mut out = String::new();
        out += &header(
            "Extension",
            "scheduler-policy tournament: workload x config x policy, fault-free resilient harness",
        );
        let per_policy = results.len() / names.len();
        struct Row {
            completed: usize,
            total: usize,
            worst_cov: f64,
            scal: f64,
            fast_idle_ms: f64,
            violations: usize,
        }
        let mut rows: Vec<Row> = Vec::new();
        let mut all_classified = true;
        let mut total_panicked = 0usize;
        for (pi, _) in names.iter().enumerate() {
            let slice = &results[pi * per_policy..(pi + 1) * per_policy];
            let (mut completed, mut total) = (0usize, 0usize);
            let mut worst_cov = f64::NAN;
            let mut effs: Vec<f64> = Vec::new();
            for r in slice {
                let exp = r.resilient();
                let t: usize = exp.outcomes.iter().map(|o| o.records.len()).sum();
                total += t;
                completed += exp.count(RunClass::Completed);
                all_classified &= t == configs.len() * runs;
                total_panicked += exp.count(RunClass::Panicked);
                worst_cov = exp
                    .outcomes
                    .iter()
                    .filter_map(|o| o.completed_samples())
                    .filter(|s| s.len() >= 2)
                    .map(|s| s.cov())
                    .fold(worst_cov, f64::max);
                let points: Vec<(f64, f64)> = exp
                    .outcomes
                    .iter()
                    .filter_map(|o| {
                        o.completed_samples().map(|s| {
                            (
                                o.config.compute_power(),
                                exp.direction.performance(s.mean()),
                            )
                        })
                    })
                    .collect();
                if points.len() >= 2 {
                    effs.push(Scalability::from_points(&points).worst_efficiency);
                }
            }
            let log = logs[pi].lock().unwrap();
            rows.push(Row {
                completed,
                total,
                worst_cov,
                scal: mean(effs.iter().copied()).unwrap_or(f64::NAN),
                fast_idle_ms: log.metrics.fast_idle_slow_runnable_ns as f64 / 1e6,
                violations: log.violations,
            });
        }

        // Tournament ranking: sum of per-criterion ranks (equal values
        // share a rank), equal scores in registry order. Stability and fast-idle want small numbers,
        // scalability wants large ones.
        let cov_rank = rank_of(&rows.iter().map(|r| r.worst_cov).collect::<Vec<_>>(), false);
        let scal_rank = rank_of(&rows.iter().map(|r| r.scal).collect::<Vec<_>>(), true);
        let idle_rank = rank_of(
            &rows.iter().map(|r| r.fast_idle_ms).collect::<Vec<_>>(),
            false,
        );
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| (cov_rank[i] + scal_rank[i] + idle_rank[i], i));

        let mut table = TextTable::new(vec![
            "policy",
            "completed",
            "worst cov%",
            "scal eff",
            "fast-idle ms",
            "viol",
            "score",
        ]);
        for &i in &order {
            let r = &rows[i];
            table.row(vec![
                names[i].to_string(),
                format!("{}/{}", r.completed, r.total),
                if r.worst_cov.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.1}", r.worst_cov * 100.0)
                },
                if r.scal.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.2}", r.scal)
                },
                format!("{:.3}", r.fast_idle_ms),
                rows[i].violations.to_string(),
                (cov_rank[i] + scal_rank[i] + idle_rank[i]).to_string(),
            ]);
        }
        out += &format!("{}\n", table.render());
        out += "score = stability rank + scalability rank + fast-idle rank (lower is better)\n";

        let mut deterministic = true;
        for (name, policy) in names.iter().zip(&policies) {
            if !same_seed_guarded_reruns_match(*policy, configs[0]) {
                deterministic = false;
                out += &format!("NON-DETERMINISM: {name} same-seed reruns diverged\n");
            }
        }
        let total_violations: usize = rows.iter().map(|r| r.violations).sum();
        out += &format!(
            "field of {} policies; checkers on all traces: {total_violations} violation(s); \
             per-policy same-seed rerun hashes identical: {}\n",
            names.len(),
            if deterministic { "yes" } else { "NO" }
        );
        out += "Every policy completes the paper's roster deterministically; the ranking\n\
                separates the field on the paper's three axes rather than crowning a\n\
                single winner for all regimes.\n";

        let ok = all_classified && total_panicked == 0 && total_violations == 0 && deterministic;
        if !ok {
            out += "FAILURE: unclassified runs, panics, violations, or non-determinism\n";
        }
        Rendered { text: out, ok }
    });
    SweepDef { sections, render }
}

// ----------------------------------------------------------------------
// Chaos soak
// ----------------------------------------------------------------------

/// Every run record of a resilient or differential section.
fn section_records(r: &SpecResult) -> Vec<&RunRecord> {
    match r {
        SpecResult::Clean(_) => Vec::new(),
        SpecResult::Resilient(e) => e.outcomes.iter().flat_map(|o| &o.records).collect(),
        SpecResult::Differential(e) => e
            .outcomes
            .iter()
            .flat_map(|o| &o.reps)
            .flat_map(|rep| rep.records())
            .collect(),
    }
}

/// The chaos soak: randomized campaigns, each one section on one
/// configuration (quick: 1f-3s/8, 6 campaigns of 1 rep; full: the nine
/// standard configurations, 24 campaigns of 2 reps). A campaign draws a
/// dynamic regime (DVFS / thermal / co-tenant / combined), a fault
/// profile (none / hotplug+throttle / kills), a runner (resilient under
/// a drawn policy, or differential), a seed, a workload and a
/// configuration from one SplitMix64 stream, in that order. Every
/// campaign runs on the engine's retry ladder — watchdog 5 s, sim-time
/// budget 60 s, one retry — with the trace analyses as its section
/// check. Hostile conditions may cost retries, never correctness: every
/// run must complete and every trace stay clean.
fn extra_soak(ctx: &SweepContext) -> SweepDef {
    let configs = if ctx.quick {
        vec![AsymConfig::new(1, 3, 8)]
    } else {
        AsymConfig::standard_nine()
    };
    let (campaigns, reps) = if ctx.quick { (6, 1) } else { (24, 2) };
    let mut regimes = dynamic_regimes();
    regimes.push(("combined", EnvironmentProfile::combined(FAULT_HORIZON)));
    let faults = [
        ("none", None),
        (
            "hotplug+throttle",
            Some(throttle_plan_for as fn(&RunSetup) -> FaultPlan),
        ),
        ("kills", Some(kills_plan_for)),
    ];
    let log = ViolationLog::new();
    // The stream's seed is fixed: `results/extra_soak.txt` pins its draws.
    let mut rng = Rng::new(0x50_41_4b);
    // Per campaign: its table columns and the runs it must classify.
    let mut rows: Vec<(Vec<String>, usize)> = Vec::new();
    let mut sections = Vec::new();
    for id in 0..campaigns {
        let (regime, profile) = regimes[rng.index(regimes.len())];
        let (fault_name, planner) = *rng.pick(&faults);
        let differential = *rng.pick(&[false, true]);
        let policy = if rng.chance(0.5) {
            SchedPolicy::os_default()
        } else {
            SchedPolicy::asymmetry_aware()
        };
        let seed = rng.next_u64();
        let mut roster = paper_workloads();
        let workload = roster.swap_remove(rng.index(roster.len()));
        let config = configs[rng.index(configs.len())];
        let mut options = ResilientOptions::new(reps)
            .base_seed(seed)
            .watchdog(SimDuration::from_secs(5))
            .sim_time_budget(SimDuration::from_secs(60))
            .retries(1)
            .trace_check(log.check())
            .environment_planner(move |setup| {
                EnvironmentPlan::generate(setup.seed, setup.config.num_cores() as usize, &profile)
            });
        if let Some(planner) = planner {
            options = options.fault_planner(planner);
        }
        let label = format!("soak/{id}/{}", workload.name());
        // The differential runner pairs both kernels itself; the drawn
        // policy is unused there.
        let (runner, runs) = if differential {
            ("differential (stock+aware)".to_string(), reps * 4)
        } else {
            (format!("resilient ({policy})"), reps)
        };
        rows.push((
            vec![
                id.to_string(),
                workload.name().to_string(),
                config.to_string(),
                regime.to_string(),
                fault_name.to_string(),
                runner,
            ],
            runs,
        ));
        sections.push(if differential {
            Section::differential(label, workload, &[config], options)
        } else {
            Section::resilient(label, workload, &[config], policy, options)
        });
    }
    let render = Box::new(move |results: &[SpecResult]| {
        let mut out = header(
            "Extension",
            &format!(
                "chaos soak: {} randomized environment x fault campaign(s)",
                results.len()
            ),
        );
        let mut table = TextTable::new(vec![
            "#",
            "workload",
            "config",
            "env",
            "faults",
            "runner",
            "completed",
            "retries",
            "tl/st/dl/pn",
        ]);
        let (mut runs, mut completed, mut panicked, mut deadlocked, mut unclassified) =
            (0usize, 0usize, 0usize, 0usize, 0usize);
        for (r, (cols, expected)) in results.iter().zip(&rows) {
            let records = section_records(r);
            let count = |class| records.iter().filter(|rec| rec.class == class).count();
            let retries: u32 = records.iter().map(|rec| rec.attempts - 1).sum();
            let done = count(RunClass::Completed);
            runs += records.len();
            completed += done;
            panicked += count(RunClass::Panicked);
            deadlocked += count(RunClass::Deadlock);
            unclassified += expected.saturating_sub(records.len());
            let mut row = cols.clone();
            row.extend([
                format!("{done}/{}", records.len()),
                retries.to_string(),
                format!(
                    "{}/{}/{}/{}",
                    count(RunClass::TimeLimit),
                    count(RunClass::Stalled),
                    count(RunClass::Deadlock),
                    count(RunClass::Panicked)
                ),
            ]);
            table.row(row);
        }
        out += &format!("{}\n", table.render());
        out += "classes: tl = time-limit, st = stalled, dl = deadlock, pn = panicked\n";
        let violations = log.count();
        out += &format!(
            "soak invariants: {completed}/{runs} run(s) completed, {panicked} panic(s), \
             {deadlocked} deadlock(s), {unclassified} unclassified run(s), \
             {violations} trace violation(s)\n"
        );
        let ok = completed == runs
            && panicked == 0
            && deadlocked == 0
            && unclassified == 0
            && violations == 0;
        out += if ok {
            "Hostile environments and faults cost retries and budget, never correctness.\n"
        } else {
            "FAILURE: a run did not complete, panicked, deadlocked or went unclassified, \
             or a trace analysis found a violation\n"
        };
        Rendered { text: out, ok }
    });
    SweepDef { sections, render }
}

// ----------------------------------------------------------------------
// Million-cell scale sweep
// ----------------------------------------------------------------------

/// The five environment regimes the scale sweep crosses with the
/// policy zoo, in presentation order. Unlike [`dynamic_regimes`], the
/// quiet and combined presets join the roster: the scale sweep wants
/// breadth of cache keys, not isolated disturbances.
fn scale_regimes() -> Vec<(&'static str, EnvironmentProfile)> {
    vec![
        ("quiet", EnvironmentProfile::quiet(FAULT_HORIZON)),
        ("dvfs", EnvironmentProfile::dvfs(FAULT_HORIZON)),
        ("thermal", EnvironmentProfile::thermal(FAULT_HORIZON)),
        ("co-tenant", EnvironmentProfile::co_tenant(FAULT_HORIZON)),
        ("combined", EnvironmentProfile::combined(FAULT_HORIZON)),
    ]
}

/// The scale sweep: the full policy zoo × five environment regimes ×
/// the [`MicroBurst`] workload over the standard nine configurations,
/// 320 run slots per cell row — 100,800 cells in full mode (70 in
/// `--quick`). Every cell streams its trace through the incremental
/// fold (nothing is buffered) and is persisted in the content-addressed
/// cell cache, so a warm re-run restores the whole sweep without
/// executing a single cell. This is the harness for the cold-vs-warm
/// wall-clock and peak-RSS numbers in EXPERIMENTS.md.
fn extra_scale(ctx: &SweepContext) -> SweepDef {
    let configs = if ctx.quick {
        vec![AsymConfig::new(1, 3, 8)]
    } else {
        AsymConfig::standard_nine()
    };
    let runs = if ctx.quick { 2 } else { 320 };
    let field = SchedPolicy::registry();
    let regimes = scale_regimes();
    let mut sections = Vec::new();
    for (pname, policy) in &field {
        for (rname, profile) in &regimes {
            let profile = *profile;
            let opts = ResilientOptions::new(runs)
                .watchdog(SimDuration::from_secs(5))
                .sim_time_budget(SimDuration::from_secs(120))
                .retries(1)
                .environment_planner(move |setup| {
                    EnvironmentPlan::generate(
                        setup.seed,
                        setup.config.num_cores() as usize,
                        &profile,
                    )
                });
            sections.push(Section::resilient(
                format!("scale/{pname}/{rname}"),
                Box::new(MicroBurst::new()),
                &configs,
                *policy,
                opts,
            ));
        }
    }
    let names: Vec<&'static str> = field.iter().map(|(n, _)| *n).collect();
    let regime_names: Vec<&'static str> = regimes.iter().map(|(n, _)| *n).collect();
    let expected = configs.len() * runs;
    let render = Box::new(move |results: &[SpecResult]| {
        let mut out = String::new();
        out += &header(
            "Extension",
            "scale sweep: policy zoo x environment regimes x micro-burst, cacheable cells",
        );
        let mut table = TextTable::new(vec![
            "policy",
            "regime",
            "cells",
            "completed",
            "mean bursts/s",
            "retried",
            "c/t/s/d/p",
        ]);
        let mut all_classified = true;
        let mut total_panicked = 0usize;
        let mut total_cells = 0usize;
        let mut idx = 0;
        for pname in &names {
            for rname in &regime_names {
                let exp = results[idx].resilient();
                idx += 1;
                let cells: usize = exp.outcomes.iter().map(|o| o.records.len()).sum();
                total_cells += cells;
                all_classified &= cells == expected;
                total_panicked += exp.count(RunClass::Panicked);
                let values: Vec<f64> = exp
                    .outcomes
                    .iter()
                    .flat_map(|o| o.records.iter().filter_map(|r| r.value))
                    .collect();
                let mean_v = mean(values.iter().copied());
                let retried: usize = exp
                    .outcomes
                    .iter()
                    .flat_map(|o| o.records.iter())
                    .filter(|r| r.attempts > 1)
                    .count();
                table.row(vec![
                    pname.to_string(),
                    rname.to_string(),
                    cells.to_string(),
                    exp.count(RunClass::Completed).to_string(),
                    mean_v.map_or("-".to_string(), |m| format!("{m:.0}")),
                    retried.to_string(),
                    format!(
                        "{}/{}/{}/{}/{}",
                        exp.count(RunClass::Completed),
                        exp.count(RunClass::TimeLimit),
                        exp.count(RunClass::Stalled),
                        exp.count(RunClass::Deadlock),
                        exp.count(RunClass::Panicked)
                    ),
                ]);
            }
        }
        out += &format!("{}\n", table.render());
        out += &format!(
            "total cells: {total_cells}; every cell is cacheable (resilient mode, no\n\
             trace observers), so re-running with --cache restores all of them without\n\
             executing. Pair a cold and a warm run to measure the cache win; peak RSS\n\
             stays flat because traces stream through the fold instead of buffering.\n"
        );
        let ok = all_classified && total_panicked == 0;
        if !ok {
            out += "FAILURE: unclassified or panicked cells in the scale sweep\n";
        }
        Rendered { text: out, ok }
    });
    SweepDef { sections, render }
}

/// The CI smoke spec: two fast workloads across the standard nine, two
/// runs each — enough cells (36) to exercise the host pool, small
/// enough to finish in seconds.
fn mini(_ctx: &SweepContext) -> SweepDef {
    let nine = AsymConfig::standard_nine();
    let os = SchedPolicy::os_default();
    let sections = vec![
        Section::clean("mini/h264", Box::new(H264::new()), &nine, os, 2, 0),
        Section::clean("mini/pmake", Box::new(Pmake::new()), &nine, os, 2, 0),
    ];
    let render = Box::new(|results: &[SpecResult]| {
        let mut out = String::new();
        out += &header(
            "Mini",
            "CI smoke sweep: H.264 + PMAKE, nine configurations, 2 runs each",
        );
        let mut ok = true;
        for r in results {
            let exp = r.clean();
            ok &= exp.outcomes.len() == 9 && exp.outcomes.iter().all(|o| o.samples.len() == 2);
            out += &format!("{}\n", render_experiment(exp));
            out += &format!("{}\n", stability_line(exp));
        }
        Rendered { text: out, ok }
    });
    SweepDef { sections, render }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_share_the_lowest_rank() {
        let nan = f64::NAN;
        assert_eq!(rank_of(&[0.535; 7], false), vec![0; 7]);
        assert_eq!(
            rank_of(&[3.0, 1.0, nan, 1.0, 2.0, nan], false),
            vec![3, 0, 4, 0, 2, 4]
        );
        assert_eq!(
            rank_of(&[0.73, 0.63, 0.72, 0.73, nan, 0.61], true),
            vec![0, 3, 2, 0, 5, 4]
        );
        assert_eq!(rank_of(&[nan, nan], true), vec![0, 0]);
        assert!(rank_of(&[], true).is_empty());
    }
}
