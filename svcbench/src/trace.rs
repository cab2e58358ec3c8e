//! In-memory spans recorded from the benchmark's own files around every
//! call into a layer, their self time, and their write-out.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the tracer's epoch,
/// the span that caused it, and the request it belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `frame.decode`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub req: u64,
}

/// Records spans in memory; a disabled tracer records nothing and costs
/// one branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (recorded spans are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// A tracer on the same epoch, for another thread.
    pub fn sibling(&self, enabled: bool) -> Tracer {
        Tracer::new(self.epoch, enabled)
    }

    /// Opens a span now; [`Self::end`] closes it. Children recorded in
    /// between name it as their parent.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        let now = self.now();
        self.record(name, now, now, parent, req)
    }

    /// Closes a span opened by [`Self::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.now();
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant to nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        req: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, req);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (re-basing their parent indices).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover. Overlapping children are merged first, so
/// covered time is subtracted exactly once, and a child sticking out of
/// its parent only counts inside the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (calls, total duration ns, total self time ns).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
    }
    out
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64)
        .collect()
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start, s.end, s.req
        )?;
    }
    out.flush()
}
