//! Chrome/Perfetto `trace.json` export.
//!
//! The exporter renders one or more [`RunProfile`]s in the Trace Event
//! Format understood by `chrome://tracing` and [ui.perfetto.dev]: one
//! process per simulated core (so the timeline reads like a CPU
//! scheduler view), one track per simulated thread, `"X"` complete
//! slices for run spells, `"i"` instants for migrations, hotplug,
//! speed changes, and fault kills, `"C"` counter tracks for each core's
//! live speed (the applied environment/fault target) and runnable-queue
//! depth, and `"s"`/`"f"` flow arrows linking a migration decision to
//! the dispatch that landed the thread.
//!
//! Event names are deduplicated through a string-interning table: each
//! distinct name is escaped and stored once, and every event references
//! the interned copy, so the per-event names stay canonical and short
//! (the details live on counter tracks, flow arrows, and `args`).
//!
//! Timestamps are microseconds. They are rendered from integer
//! nanoseconds with fixed three-digit fractions — no float formatting —
//! so the export is byte-deterministic.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use crate::profile::{CounterKind, MarkKind, RunProfile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Process-id offset between consecutive runs of a multi-run export
/// (run A's pids are `k*100 + core`, far below this).
const DIFF_PID_OFFSET: usize = 50_000;

/// Escapes a string for embedding in a JSON string literal. Our
/// generated names are plain ASCII, but escaping keeps the exporter
/// robust if labels ever grow richer.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats nanoseconds as a microsecond JSON number with three decimals.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// A string-interning table: each distinct event name is escaped and
/// stored exactly once, and emit sites reference the stored copy. The
/// map is a `BTreeMap`, so the table (and everything derived from it)
/// is deterministic.
struct Interner {
    names: Vec<String>,
    index: BTreeMap<String, usize>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            names: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// Returns the id of `name`'s escaped copy, escaping and storing it
    /// on first sight.
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(esc(name));
        self.index.insert(name.to_string(), i);
        i
    }

    fn get(&self, id: usize) -> &str {
        &self.names[id]
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.names.len()
    }
}

/// The canonical (internable) name of a mark. Per-event details that
/// earlier exports spelled into the name (source/destination cores, new
/// speed values) now live on counter tracks and flow arrows, so the
/// name set stays small.
fn mark_name(kind: MarkKind) -> String {
    match kind {
        MarkKind::Migrate { tid } => format!("migrate tid{tid}"),
        MarkKind::Speed => "speed".to_string(),
        MarkKind::Rerank => "rerank".to_string(),
        MarkKind::Offline => "offline".to_string(),
        MarkKind::Online => "online".to_string(),
        MarkKind::Killed { tid } => format!("killed tid{tid}"),
    }
}

/// Shared emission state for one export: the event list, the interning
/// table, and the monotone flow-id allocator (ids must stay unique
/// across both runs of a diff export).
struct TraceWriter {
    events: Vec<String>,
    interner: Interner,
    next_flow_id: u64,
}

impl TraceWriter {
    fn new() -> Self {
        TraceWriter {
            events: Vec::new(),
            interner: Interner::new(),
            next_flow_id: 0,
        }
    }

    /// Emits every event of `profiles` (one per kernel, in creation
    /// order). Kernel `k`'s core `c` becomes process
    /// `pid_offset + k*100 + c`; `label` prefixes process names so the
    /// two sides of a diff export read as sibling groups.
    fn emit_runs(&mut self, profiles: &[RunProfile], pid_offset: usize, label: Option<&str>) {
        for (k, p) in profiles.iter().enumerate() {
            let pid_base = pid_offset + k * 100;
            for c in &p.cores {
                let pid = pid_base + c.core;
                let name = match label {
                    Some(l) => format!("{l} kernel{k} cpu{} ({})", c.core, c.speed),
                    None => format!("kernel{k} cpu{} ({})", c.core, c.speed),
                };
                self.events.push(format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
                    esc(&name)
                ));
            }
            // A metrics-fold profile carries no timeline: its cores export
            // as empty processes.
            let Some(tl) = &p.timeline else {
                continue;
            };
            let mut tracks: BTreeSet<(usize, usize)> = BTreeSet::new();
            for s in &tl.slices {
                tracks.insert((pid_base + s.core, s.tid));
            }
            for (pid, tid) in tracks {
                self.events.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":\"tid{tid}\"}}}}"
                ));
            }
            for s in &tl.slices {
                let name = self.interner.intern(&format!("tid{}", s.tid));
                self.events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"run\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"end\":\"{}\"}}}}",
                    self.interner.get(name),
                    micros(s.start.as_nanos()),
                    micros(s.dur.as_nanos()),
                    pid_base + s.core,
                    s.tid,
                    s.end
                ));
            }
            for m in &tl.marks {
                let name = self.interner.intern(&mark_name(m.kind));
                self.events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{},\
                     \"pid\":{},\"tid\":0}}",
                    self.interner.get(name),
                    micros(m.time.as_nanos()),
                    pid_base + m.core
                ));
            }
            for c in &tl.counters {
                let (name, arg) = match c.kind {
                    CounterKind::Speed => ("speed_pmy", "pmy"),
                    CounterKind::Runnable => ("runnable", "n"),
                };
                let name = self.interner.intern(name);
                self.events.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\
                     \"args\":{{\"{arg}\":{}}}}}",
                    self.interner.get(name),
                    micros(c.time.as_nanos()),
                    pid_base + c.core,
                    c.value
                ));
            }
            for f in &tl.flows {
                let name = self.interner.intern(&format!("migrate tid{}", f.tid));
                let id = self.next_flow_id;
                self.next_flow_id += 1;
                self.events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{id},\"ts\":{},\
                     \"pid\":{},\"tid\":{}}}",
                    self.interner.get(name),
                    micros(f.src_time.as_nanos()),
                    pid_base + f.src_core,
                    f.tid
                ));
                self.events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\
                     \"ts\":{},\"pid\":{},\"tid\":{}}}",
                    self.interner.get(name),
                    micros(f.dst_time.as_nanos()),
                    pid_base + f.dst_core,
                    f.tid
                ));
            }
        }
    }

    fn finish(self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// Renders `profiles` (one per kernel of a run, in creation order) as a
/// Trace Event Format JSON document.
///
/// Kernel `k`'s core `c` becomes process `k * 100 + c`, keeping multi-
/// kernel workloads (rare, but legal) on disjoint tracks. The slices,
/// marks, counters and flows come from the timeline that only
/// [`ProfileFold::with_timeline`](crate::ProfileFold::with_timeline)
/// records (as does [`RunProfile::from_trace`](crate::RunProfile::from_trace),
/// which replays through it); a profile from the metrics fold
/// ([`ProfileFold::new`](crate::ProfileFold::new)) exports its cores'
/// process names and nothing else.
///
/// # Examples
///
/// ```
/// use asym_kernel::{capture_stream, FnThread, Kernel, SchedPolicy, SpawnOptions, Step};
/// use asym_obs::{perfetto_trace, ProfileFold, RunProfile};
/// use asym_sim::{MachineSpec, Speed};
///
/// let ((), folds) = capture_stream(ProfileFold::with_timeline, || {
///     let mut k = Kernel::new(
///         MachineSpec::symmetric(1, Speed::FULL),
///         SchedPolicy::os_default(),
///         5,
///     );
///     k.spawn(FnThread::new("w", |_cx| Step::Done), SpawnOptions::new());
///     k.run();
/// });
/// let profiles: Vec<RunProfile> = folds.into_iter().map(ProfileFold::finish).collect();
/// let json = perfetto_trace(&profiles);
/// assert!(json.starts_with("{\"displayTimeUnit\""));
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("\"ph\":\"C\""));
/// ```
pub fn perfetto_trace(profiles: &[RunProfile]) -> String {
    let mut w = TraceWriter::new();
    w.emit_runs(profiles, 0, None);
    w.finish()
}

/// Renders two runs of the same (workload, config, seed, plan) — e.g.
/// stock vs asymmetry-aware — into one dual-timeline document: run A's
/// cores as processes `k*100 + c` labelled `label_a`, run B's offset by
/// 50 000 and labelled `label_b`, both sharing the t=0 origin so the
/// timelines line up event for event until the schedules diverge.
pub fn perfetto_diff_trace(
    a: &[RunProfile],
    b: &[RunProfile],
    label_a: &str,
    label_b: &str,
) -> String {
    perfetto_runs(&[(label_a, a), (label_b, b)])
}

/// Renders labelled runs — the four legs of a differential cell, say —
/// into one document from a shared t=0 origin: run `i`'s cores are
/// processes `i*50 000 + k*100 + c`, their names prefixed by its label.
/// Two runs render exactly as [`perfetto_diff_trace`].
pub fn perfetto_runs(runs: &[(&str, &[RunProfile])]) -> String {
    let mut w = TraceWriter::new();
    for (i, (label, profiles)) in runs.iter().enumerate() {
        w.emit_runs(profiles, i * DIFF_PID_OFFSET, Some(label));
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_kernel::{capture_traces, FnThread, Kernel, SchedPolicy, SpawnOptions, Step};
    use asym_sim::{Cycles, MachineSpec, Speed};

    fn sample_profiles() -> Vec<RunProfile> {
        let ((), traces) = capture_traces(|| {
            let machine = MachineSpec::asymmetric(1, 1, Speed::fraction_of_full(8));
            let mut k = Kernel::new(machine, SchedPolicy::os_default(), 9);
            for _ in 0..2 {
                let mut bursts = 3u32;
                k.spawn(
                    FnThread::new("w", move |_cx| {
                        if bursts == 0 {
                            Step::Done
                        } else {
                            bursts -= 1;
                            Step::Compute(Cycles::from_millis_at_full_speed(1.0))
                        }
                    }),
                    SpawnOptions::new(),
                );
            }
            k.run();
        });
        traces.iter().map(RunProfile::from_trace).collect()
    }

    #[test]
    fn export_shape_and_determinism() {
        let profiles = sample_profiles();
        let a = perfetto_trace(&profiles);
        let b = perfetto_trace(&sample_profiles());
        assert_eq!(a, b, "export must be byte-deterministic");
        assert!(a.contains("\"ph\":\"M\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"process_name\""));
        // Every core exports both counter tracks, seeded at t=0.
        assert!(a.contains("\"name\":\"speed_pmy\",\"ph\":\"C\""));
        assert!(a.contains("\"name\":\"runnable\",\"ph\":\"C\""));
        // Two cores -> two process_name records.
        assert_eq!(a.matches("\"process_name\"").count(), 2);
        // Balanced braces and brackets (a cheap well-formedness check;
        // CI additionally parses the file with a real JSON parser).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn flow_events_pair_up_when_threads_migrate() {
        // Three compute threads on a 2f-2s machine under the aware
        // policy migrate toward fast cores; every migration must export
        // one "s" and one "f" carrying the same id.
        let ((), traces) = capture_traces(|| {
            let machine = MachineSpec::asymmetric(2, 2, Speed::fraction_of_full(8));
            let mut k = Kernel::new(machine, SchedPolicy::asymmetry_aware(), 9);
            for _ in 0..3 {
                let mut bursts = 6u32;
                k.spawn(
                    FnThread::new("w", move |_cx| {
                        if bursts == 0 {
                            Step::Done
                        } else {
                            bursts -= 1;
                            Step::Compute(Cycles::from_millis_at_full_speed(1.0))
                        }
                    }),
                    SpawnOptions::new(),
                );
            }
            k.run();
        });
        let profiles: Vec<RunProfile> = traces.iter().map(RunProfile::from_trace).collect();
        let migrations: u64 = profiles.iter().map(|p| p.migrations()).sum();
        let json = perfetto_trace(&profiles);
        let starts = json.matches("\"ph\":\"s\"").count();
        let finishes = json.matches("\"ph\":\"f\"").count();
        assert_eq!(starts, finishes, "every flow start needs a finish");
        assert!(
            starts as u64 >= migrations,
            "each of the {migrations} migrations must export a flow pair, got {starts}"
        );
    }

    #[test]
    fn diff_export_offsets_second_run() {
        let profiles = sample_profiles();
        let json = perfetto_diff_trace(&profiles, &profiles, "A:stock", "B:aware");
        assert!(json.contains("\"name\":\"A:stock kernel0 cpu0 (1.000x)\""));
        assert!(json.contains("\"name\":\"B:aware kernel0 cpu0 (1.000x)\""));
        assert!(json.contains(&format!("\"pid\":{}", DIFF_PID_OFFSET)));
        // Byte-deterministic like the single-run export.
        assert_eq!(
            json,
            perfetto_diff_trace(&sample_profiles(), &sample_profiles(), "A:stock", "B:aware")
        );
    }

    #[test]
    fn interner_dedupes_names() {
        let mut i = Interner::new();
        let a = i.intern("migrate tid1");
        let b = i.intern("migrate tid1");
        let c = i.intern("migrate tid2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
        assert_eq!(i.get(a), "migrate tid1");
    }

    #[test]
    fn micros_formatting_is_integer_math() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_500), "1.500");
        assert_eq!(micros(1_000_007), "1000.007");
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
