//! Outside-in tracing: spans recorded around calls into each crate's
//! public functions, kept in memory and written out when the run ends.

use crate::names::LAYERS;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Spans nest strictly on one thread, so a span's
/// children never overlap each other.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// `layer.what`; the layer is the prefix before the first `.`.
    pub name: &'static str,
    /// The sweep cell the span works on, when it works on one.
    pub cell: Option<u32>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The crate layer the span is attributed to, if its prefix names one.
    pub fn layer(&self) -> Option<&'static str> {
        let prefix = self.name.split('.').next().unwrap_or("");
        LAYERS.iter().copied().find(|l| *l == prefix)
    }
}

/// Records spans when on; when off, [`Tracer::span`] only runs its body.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_cell(name, None, f)
    }

    /// Runs `f` inside a span named `name` that works on sweep cell `cell`.
    pub fn span_cell<R>(
        &mut self,
        name: &'static str,
        cell: Option<u32>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            cell,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration, in seconds, of every span whose name satisfies `pick`.
    pub fn total(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| pick(s.name))
            .map(Span::secs)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    }

    /// Summed duration, in seconds, of every span named `name`.
    pub fn total_named(&self, name: &str) -> f64 {
        self.total(|n| n == name)
    }

    /// Each span's self time in seconds: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p as usize] -= s.secs();
            }
        }
        out
    }

    /// Self time summed per crate layer; spans of no layer are left out.
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if let Some(layer) = s.layer() {
                *out.entry(layer).or_insert(0.0) += own;
            }
        }
        out
    }

    /// Writes the spans as CSV: `id,parent,name,cell,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(64 * self.spans.len() + 64);
        out.push_str("id,parent,name,cell,start_ns,end_ns\n");
        for s in &self.spans {
            let opt = |v: Option<u32>| v.map_or_else(String::new, |v| v.to_string());
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.cell),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
