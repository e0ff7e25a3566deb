//! Bench-side spans around every call into a layer.
//!
//! The traced run records one span per call the benchmark makes into the
//! program — name (`crate.module.what`), start, end, the span that caused
//! it, and the request it belongs to — in memory, and writes them out as
//! JSON lines when the run ends. Spans *inside* the program are a later
//! change; until then a layer's time is what the benchmark can see from
//! outside.
//!
//! A disabled tracer costs one branch per call and reads no clock, so the
//! untraced run (where every end-to-end number comes from) pays nothing.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within the run (never 0).
    pub id: u32,
    /// Id of the causing span; 0 for a root.
    pub parent: u32,
    /// Request identifier shared by every span of one request.
    pub req: u64,
    /// Layer boundary crossed, `crate.module.call`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch (equal to `start_ns` while still open).
    pub end_ns: u64,
}

/// An in-memory span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    /// Ids are `base + index + 1`: threads recording into their own
    /// tracers use disjoint bases so merged files keep unique ids.
    base: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            epoch: Instant::now(),
            on: false,
            base: 0,
            spans: Vec::new(),
        }
    }

    /// A recording tracer whose clock starts now.
    pub fn on() -> Self {
        Self {
            on: true,
            ..Self::off()
        }
    }

    /// A second recorder on the same clock for another thread, with ids
    /// starting above `base`. Disabled if `self` is.
    pub fn fork(&self, base: u32) -> Self {
        Self {
            epoch: self.epoch,
            on: self.on,
            base,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording; spans already recorded stay. A traced
    /// run records around its traced repetition only.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; returns its id (0 when disabled).
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.on {
            return 0;
        }
        let now = self.ns_at(Instant::now());
        self.open_at(name, parent, req, now)
    }

    /// Opens a span with an explicit start (an open-loop request starts
    /// when it was *due*, not when the generator got to it).
    pub fn open_at(&mut self, name: &'static str, parent: u32, req: u64, start_ns: u64) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.base + self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id` now. No-op for id 0.
    #[inline]
    pub fn close(&mut self, id: u32) {
        if id != 0 {
            let now = self.ns_at(Instant::now());
            self.close_at(id, now);
        }
    }

    /// Closes span `id` at an explicit time. No-op for id 0.
    pub fn close_at(&mut self, id: u32, end_ns: u64) {
        if id == 0 {
            return;
        }
        let span = &mut self.spans[(id - self.base - 1) as usize];
        span.end_ns = end_ns.max(span.start_ns);
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times: duration minus the part of the interval
    /// their child spans cover.
    pub self_ns: u64,
}

/// Aggregates spans by name, attributing to each its self time. Children
/// are clipped to the parent's interval and overlapping children are
/// counted once.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut upto = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(upto, s.end_ns);
                let b = b.clamp(upto, s.end_ns);
                covered += b - a;
                upto = upto.max(b);
            }
        }
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_follows_the_switch() {
        let mut t = Tracer::off();
        let id = t.open("a.b", 0, 1);
        assert_eq!(id, 0);
        t.close(id);
        t.close_at(id, 5);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let id = t.open("a.b", 0, 1);
        t.set_on(false);
        t.close(id); // a span opened while recording still closes
        assert_eq!(t.open("c.d", 0, 2), 0);
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn spans_nest_and_forked_ids_stay_unique() {
        let mut t = Tracer::on();
        let root = t.open_at("req", 0, 7, 100);
        let kid = t.open_at("layer.call", root, 7, 120);
        t.close_at(kid, 150);
        t.close_at(root, 200);
        let mut other = t.fork(1 << 30);
        let far = other.open_at("server.call", root, 7, 130);
        other.close_at(far, 140);
        t.absorb(other);
        let ids: Vec<u32> = t.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, (1 << 30) + 1]);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t.spans().iter().all(|s| s.req == 7));
    }

    #[test]
    fn self_time_subtracts_clipped_merged_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "kid", 10, 40),
            // Overlaps kid 2 by 10 and runs 20 past the parent's end.
            span(3, 1, "kid", 30, 120),
        ];
        let t = layer_times(&spans);
        // Children cover [10, 100] of the root once: self = 10.
        assert_eq!(t["root"].self_ns, 10);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["kid"].count, 2);
        assert_eq!(t["kid"].self_ns, 30 + 90);
    }
}
