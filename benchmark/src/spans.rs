//! Harness-side spans: one record around every call the drive loop
//! makes into a layer's public functions, kept in memory and written
//! out after the run.
//!
//! A span's name is `<layer>.<call>`; its layer is the part before the
//! first dot. A layer's time is the sum of its spans' *self* time —
//! duration minus the time covered by direct children — so nesting a
//! call inside the per-tick `harness.tick` span never counts it twice.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<u32>,
    /// Control tick the span belongs to (`u32::MAX` outside the loop).
    pub tick: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended records nothing"]
pub struct SpanId(Option<u32>);

/// In-memory span recorder. With recording off every call is one
/// branch, so the untraced runs share the drive loop's code.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    tick: u32,
}

pub const NO_TICK: u32 = u32::MAX;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tick: NO_TICK,
        }
    }

    pub fn set_tick(&mut self, tick: u32) {
        self.tick = tick;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            tick: self.tick,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "harness spans must nest");
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent, tick}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let tick = if s.tick == NO_TICK {
                "null".to_string()
            } else {
                s.tick.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"tick\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, tick
            )?;
        }
        out.flush()
    }
}

/// Self time of each span, parallel to `spans`: its duration minus
/// the durations of its direct children.
pub fn own_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.dur_ns();
        }
    }
    own
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            tick: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // tick [0,100) > run [10,60) > inner [20,30); tick > judge [60,90)
        let spans = vec![
            span("harness.tick", 0, 100, None),
            span("hdfs.run_until", 10, 60, Some(0)),
            span("hdfs.inner", 20, 30, Some(1)),
            span("erms.tick", 60, 90, Some(0)),
            span("hdfs.run_until", 100, 130, None),
        ];
        let own = own_times(&spans);
        assert_eq!(own, [100 - 50 - 30, 50 - 10, 10, 30, 30]);
        // self times partition the root spans exactly
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        assert_eq!(own.iter().sum::<u64>(), roots);
        assert_eq!(roots, 130);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.set_tick(7);
        let outer = tr.begin("harness.tick");
        let inner = tr.begin("erms.tick");
        tr.end(inner);
        tr.end(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].tick, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("erms.tick");
        off.end(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn layers_come_from_the_name_prefix() {
        assert_eq!(layer_of("hdfs.open_read"), "hdfs");
        assert_eq!(layer_of("oracle.check"), "oracle");
        assert_eq!(layer_of("plain"), "plain");
    }
}
