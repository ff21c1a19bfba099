//! In-memory span recording around calls into the program's layers.
//!
//! A span has a name (the layer, named by module), a start and end in
//! nanoseconds since the tracer's origin, an optional parent and the id of
//! the request it belongs to (0 for work that serves no single request).
//! Spans stay in memory and are written out when the run ends. A disabled
//! tracer records nothing, so the timed loops run the same code traced and
//! untraced.
//!
//! A serving phase answers up to a million requests in ten seconds, so
//! the tracer keeps the spans of one request in [`KEEP_EVERY`] (and every
//! span of request 0, work that serves no single request) and
//! [`Attribution`] weighs each kept request span by [`KEEP_EVERY`].

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle of an opened span (`u32::MAX` when tracing is off).
pub type SpanId = u32;

const NO_SPAN: SpanId = SpanId::MAX;

/// One request in this many has its spans kept.
pub const KEEP_EVERY: u64 = 8;
/// One request in this many has its spans written to the span file.
pub const WRITE_EVERY: u64 = 64;

/// Which requests are kept: a hash of the id rather than the id itself,
/// which would alias with request streams that cycle (`local-feedback`
/// alternates environments). Request 0 maps to 0 and is always kept.
fn sample_key(request: u64) -> u64 {
    let mut z = request.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one phase of a run.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn keeps(&self, request: u64) -> bool {
        self.enabled && sample_key(request).is_multiple_of(KEEP_EVERY)
    }

    /// Open a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.keeps(request) {
            return NO_SPAN;
        }
        let now = self.ns(Instant::now());
        self.push(name, parent, request, now, now)
    }

    /// End an opened span now.
    pub fn close(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans[id as usize].end_ns = now;
    }

    /// Record a span whose interval is already known.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.keeps(request) {
            return NO_SPAN;
        }
        self.push(name, parent, request, start_ns, end_ns.max(start_ns))
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per phase");
        self.spans.push(Span {
            name,
            parent: parent.filter(|&p| p != NO_SPAN),
            request,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append the spans as JSON lines tagged with `phase`: every span of
    /// request 0, and those of one request in [`WRITE_EVERY`], which keeps
    /// a serving run's file to a few megabytes.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write, phase: &str) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            if !sample_key(s.request).is_multiple_of(WRITE_EVERY) {
                continue;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"phase\":\"{phase}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Total length of the union of `intervals`.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover, where overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // (parent, start, end) of every child, clipped to its parent and
    // grouped by parent.
    let mut children: Vec<(SpanId, u64, u64)> = spans
        .iter()
        .filter_map(|child| {
            let parent = child.parent?;
            let p = &spans[parent as usize];
            let (start, end) = (child.start_ns.max(p.start_ns), child.end_ns.min(p.end_ns));
            (start < end).then_some((parent, start, end))
        })
        .collect();
    children.sort_unstable();
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for group in children.chunk_by(|a, b| a.0 == b.0) {
        let covered = union_ns(group.iter().map(|&(_, s, e)| (s, e)).collect());
        selfs[group[0].0 as usize] -= covered;
    }
    selfs
}

/// Per-layer self time of one phase, as shares of the phase's wall time.
pub struct Attribution {
    /// Layer name → (spans, summed self time in ns).
    pub layers: BTreeMap<&'static str, (usize, u64)>,
    pub wall_ns: u64,
    /// Wall time no top-level span covers.
    pub uncovered_ns: u64,
    /// Summed top-level span time over wall time: the mean number of
    /// requests in flight for a pipelined phase, at most 1 for a
    /// sequential one.
    pub concurrency: f64,
}

impl Attribution {
    pub fn of(tracer: &Tracer, wall_ns: u64) -> Self {
        let spans = tracer.spans();
        let selfs = self_times(spans);
        let mut layers: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        let weight = |s: &Span| if s.request == 0 { 1 } else { KEEP_EVERY };
        for (span, self_ns) in spans.iter().zip(&selfs) {
            let entry = layers.entry(span.name).or_default();
            entry.0 += weight(span) as usize;
            entry.1 += self_ns * weight(span);
        }
        let top: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let top_sum: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns() * weight(s))
            .sum();
        let covered = union_ns(top).min(wall_ns);
        Attribution {
            layers,
            wall_ns,
            uncovered_ns: wall_ns - covered,
            concurrency: top_sum as f64 / wall_ns.max(1) as f64,
        }
    }

    /// Summed self time of one layer in seconds (0 when it has no spans).
    pub fn self_s(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e9)
    }

    /// The printed table: one row per layer, then the uncovered share.
    /// `share` is self time over wall time; with several requests in
    /// flight the shares sum to about the number in flight, so `per slot`
    /// divides by it.
    pub fn render(&self, phase: &str) -> String {
        let wall = self.wall_ns.max(1) as f64;
        let slots = self.concurrency.max(1.0);
        let mut out = format!(
            "{phase}: wall {:.3} s, mean spans in flight {:.2}\n  {:<34} {:>9} {:>12} {:>9} {:>9}\n",
            self.wall_ns as f64 / 1e9,
            self.concurrency,
            "layer",
            "spans",
            "self s",
            "share",
            "per slot"
        );
        for (name, (count, ns)) in &self.layers {
            let share = *ns as f64 / wall;
            out += &format!(
                "  {name:<34} {count:>9} {:>12.6} {share:>9.4} {:>9.4}\n",
                *ns as f64 / 1e9,
                share / slots
            );
        }
        out += &format!(
            "  {:<34} {:>9} {:>12.6} {:>9.4}\n",
            "(uncovered wall)",
            "",
            self.uncovered_ns as f64 / 1e9,
            self.uncovered_ns as f64 / wall
        );
        out
    }
}

/// Write every phase's spans to `path` as JSON lines.
pub fn write_spans(path: &Path, phases: &[(&str, &Tracer)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (phase, tracer) in phases {
        tracer.write_jsonl(&mut out, phase)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, Option<SpanId>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new(true, Instant::now());
        for &(name, parent, start, end) in spans {
            t.record(name, parent, 0, start, end);
        }
        t
    }

    #[test]
    fn overlapping_children_count_once() {
        // parent [0,100]; children [10,50] and [30,70] overlap on [30,50].
        let t = tracer_with(&[
            ("parent", None, 0, 100),
            ("a", Some(0), 10, 50),
            ("b", Some(0), 30, 70),
        ]);
        assert_eq!(self_times(t.spans()), vec![40, 40, 40]);
    }

    #[test]
    fn children_are_clipped_to_their_parent_and_grandchildren_do_not_count() {
        let t = tracer_with(&[
            ("parent", None, 100, 200),
            ("child", Some(0), 50, 150),
            ("grandchild", Some(1), 120, 140),
        ]);
        // The child covers only [100,150] of the parent; the grandchild
        // is the child's, not the parent's.
        assert_eq!(self_times(t.spans()), vec![50, 80, 20]);
    }

    #[test]
    fn attribution_reports_uncovered_wall_time() {
        let t = tracer_with(&[("x", None, 0, 30), ("x", None, 20, 50), ("y", None, 80, 90)]);
        let a = Attribution::of(&t, 100);
        assert_eq!(a.uncovered_ns, 40);
        assert_eq!(a.layers["x"], (2, 60));
        assert!((a.concurrency - 0.7).abs() < 1e-12);
    }

    #[test]
    fn request_spans_are_kept_about_one_in_eight_and_weighed_back() {
        let mut t = Tracer::new(true, Instant::now());
        for request in 1..=8000 {
            t.record("req", None, request, 0, 10);
        }
        t.record("own", None, 0, 0, 10);
        let kept = t.spans().len() - 1;
        assert!((900..1100).contains(&kept), "kept {kept} of 8000");
        // Every other request alone must not bias the sample.
        let even = t.spans().iter().filter(|s| s.request % 2 == 0).count() - 1;
        assert!((400..600).contains(&even), "kept {even} even of {kept}");
        let a = Attribution::of(&t, 10);
        assert_eq!(a.layers["req"], (8 * kept, 80 * kept as u64));
        assert_eq!(a.layers["own"], (1, 10));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("x", None, 1);
        t.close(id);
        t.record("y", Some(id), 1, 0, 5);
        assert!(t.spans().is_empty());
    }
}
