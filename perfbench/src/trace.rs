//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent and an id shared by every
//! span of one point or campaign. Spans stay in memory while the workload
//! runs and are written out once, at the end. Recording is off unless the
//! run was started with `--trace 1`; when off, [`Tracer::record`] only
//! checks a flag.

use crate::stats::{self, Interval};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, usable as a parent reference.
pub type SpanRef = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `sim.run`.
    pub name: &'static str,
    /// Point or campaign id shared by related spans.
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanRef>,
    /// When the call started and returned.
    pub at: Interval,
}

/// Span store shared by the workload's threads.
#[derive(Debug, Default)]
pub struct Tracer {
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Turn recording on or off for the calls that follow.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Record a finished span; `None` when recording is off.
    pub fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanRef>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanRef> {
        if !self.enabled() {
            return None;
        }
        let mut spans = self.spans.lock().expect("a span recorder panicked");
        spans.push(Span {
            name,
            id,
            parent,
            at: Interval { start, end },
        });
        Some(spans.len() - 1)
    }

    /// Reserve a span whose end is not known yet (a parent that must be
    /// referenced by children recorded before it ends); close it with
    /// [`Tracer::close`].
    pub fn open(&self, name: &'static str, id: u64, start: Instant) -> Option<SpanRef> {
        self.record(name, id, None, start, start)
    }

    /// Set the end of a span reserved with [`Tracer::open`].
    pub fn close(&self, span: Option<SpanRef>, end: Instant) {
        if let Some(i) = span {
            self.spans.lock().expect("a span recorder panicked")[i]
                .at
                .end = end;
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }
}

/// Self seconds per span name: each span's duration minus the union of
/// its children's intervals, summed over the spans of that name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<Interval>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s.at);
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        *out.entry(s.name).or_insert(0.0) += stats::self_s(s.at, kids);
    }
    out
}

/// Write `spans` as JSON lines, times in microseconds from `origin`.
pub fn write_jsonl(path: &Path, origin: Instant, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.name,
            s.id,
            us(s.at.start),
            us(s.at.end)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        let now = Instant::now();
        assert_eq!(t.record("sim.run", 1, None, now, now), None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::default();
        t.set_enabled(true);
        let base = Instant::now();
        let ms = |n: u64| base + Duration::from_millis(n);
        let pass = t.open("exec.pass", 0, ms(0));
        t.record("sim.run", 1, pass, ms(10), ms(60));
        t.record("sim.run", 2, pass, ms(40), ms(90));
        t.close(pass, ms(100));
        let by_name = self_time_by_name(&t.spans());
        assert!((by_name["exec.pass"] - 0.020).abs() < 1e-9);
        assert!((by_name["sim.run"] - 0.100).abs() < 1e-9);
    }
}
