//! In-memory spans for the traced run. The client records a span at
//! each boundary it crosses on the server's behalf (set-up, one cycle,
//! a syscall, ...) and nothing is written until the run has ended.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span (its parent link).
pub type SpanId = u32;

/// One span: a named interval caused by `parent`. Spans of one
/// request cycle share `(conn, cycle)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub conn: u8,
    pub cycle: u32,
}

/// Span recorder. A disabled recorder (the untraced runs) records
/// nothing and never reads the clock.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            enabled,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was made.
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span now; close it with [`Recorder::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        conn: u8,
        cycle: u32,
    ) -> Option<SpanId> {
        self.begin_at(name, Instant::now(), parent, conn, cycle)
    }

    /// Open a span that started at `t`.
    pub fn begin_at(
        &mut self,
        name: &'static str,
        t: Instant,
        parent: Option<SpanId>,
        conn: u8,
        cycle: u32,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.at(t);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            conn,
            cycle,
        });
        SpanId::try_from(self.spans.len() - 1).ok()
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        self.end_at(id, Instant::now());
    }

    pub fn end_at(&mut self, id: Option<SpanId>, t: Instant) {
        if let Some(id) = id {
            let end = self.at(t);
            self.spans[id as usize].end_ns = end;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"conn\":{},\"cycle\":{}}}",
                s.name, s.start_ns, s.end_ns, s.conn, s.cycle
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of it its
/// child spans cover (children may overlap each other; the covered part
/// is their union, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: every duration and every self time, in nanoseconds.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0.push((s.end_ns - s.start_ns) as f64);
        e.1.push(own as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            conn: 0,
            cycle: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("run", 0, 100, None),
            span("setup", 10, 30, Some(0)),
            span("serve", 30, 90, Some(0)),
            span("cycle", 40, 60, Some(2)),
            // Overlaps `cycle` by 5 and sticks 10 out of `serve`: only
            // the union inside the parent counts.
            span("cycle", 55, 100, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 20, 45]);
        let names = by_name(&spans);
        assert_eq!(names["cycle"].0, vec![20.0, 45.0]);
        assert_eq!(names["serve"].1, vec![10.0]);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let id = r.begin("x", None, 0, 0);
        r.end(id);
        assert!(id.is_none() && r.spans().is_empty());
        let mut r = Recorder::new(true);
        let a = r.begin("a", None, 1, 7);
        let b = r.begin("b", a, 1, 7);
        r.end(b);
        r.end(a);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.to_jsonl().lines().count() == 2);
    }
}
