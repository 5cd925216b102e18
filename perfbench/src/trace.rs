//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself, around its calls into
//! each layer's public API — nothing inside the program is instrumented.
//! Each span has a name, the layer it times, start and end, the span
//! that caused it, and a group id shared by every span of one cell or
//! job. They stay in memory until the run ends, then become a per-layer
//! self-time table and a Chrome trace (`chrome://tracing`,
//! ui.perfetto.dev).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// The layer (workspace crate and part) the call goes into.
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span this one is a child of.
    pub parent: Option<SpanId>,
    /// Cell or job id shared by related spans (0 = none).
    pub group: u64,
}

/// Collects spans for one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<SpanId>,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            group,
        });
        self.spans.len() - 1
    }

    /// Opens a span that ends at [`Tracer::close`]; children recorded
    /// in between may name it as parent.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<SpanId>,
        group: u64,
    ) -> SpanId {
        let now = Instant::now();
        self.record(name, layer, parent, group, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, layer, parent, 0, start, Instant::now());
        out
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| {
                s.end_ns.saturating_sub(s.start_ns) - covered(s.start_ns, s.end_ns, kids)
            })
            .collect()
    }

    /// Per-layer totals: `(layer, spans, self ms, total ms)`, by layer
    /// name.
    pub fn layer_table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut table: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let row = table.entry(s.layer).or_default();
            row.0 += 1;
            row.1 += self_ns;
            row.2 += s.end_ns.saturating_sub(s.start_ns);
        }
        table
            .into_iter()
            .map(|(layer, (n, self_ns, total_ns))| {
                (layer, n, self_ns as f64 / 1e6, total_ns as f64 / 1e6)
            })
            .collect()
    }

    /// The spans in Chrome trace-event JSON ("X" complete events, one
    /// track per group).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let self_ns = self.self_times_ns();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{},\
                 \"group\":{},\"self_us\":{:.3}}}}}",
                json_str(&s.name),
                json_str(s.layer),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.group,
                self_ns[i] as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Length of `[start, end)` covered by the union of `intervals`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(covered(0, 100, vec![(10, 30), (20, 40), (90, 120)]), 40);
        assert_eq!(covered(0, 100, vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let o = t.origin;
        let at = |ms: u64| o + std::time::Duration::from_millis(ms);
        let root = t.record("grid", "sim.sweep", None, 1, at(0), at(10));
        t.record("cell", "sim.engine", Some(root), 1, at(1), at(4));
        t.record("cell", "sim.engine", Some(root), 1, at(4), at(9));
        assert_eq!(t.self_times_ns(), vec![2_000_000, 3_000_000, 5_000_000]);
        let table = t.layer_table();
        assert_eq!(table[0], ("sim.engine", 2, 8.0, 8.0));
        assert_eq!(table[1], ("sim.sweep", 1, 2.0, 10.0));
        assert!(t.chrome_json().contains("\"ph\":\"X\""));
    }
}
