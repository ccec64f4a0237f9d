//! The benchmark's own trace: spans recorded around each call it makes
//! into a layer, kept in memory and written out when the run ends.
//!
//! A span has a name (`layer.step`), a start, an end, the span that
//! caused it and the id of the request (problem, request or cycle index)
//! it belongs to. A span's *self time* is its duration minus the part of
//! it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span; times are microseconds since the trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// `layer.step`, e.g. `solver.fixpoint`.
    pub name: &'static str,
    /// Start, µs since the trace began.
    pub start_us: f64,
    /// End, µs since the trace began.
    pub end_us: f64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Problem, request or cycle index.
    pub req: u64,
}

impl SpanRec {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, µs.
    pub total_us: f64,
    /// Summed self time, µs.
    pub self_us: f64,
}

/// An in-memory span recorder. A disabled recorder records nothing, so
/// the untraced code path makes the same calls.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    enabled: bool,
    recs: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` gives the no-op one.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            t0: Instant::now(),
            enabled,
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The recorded spans.
    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span. Returns `f`'s result and the span's duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            let parent = self.stack.last().copied();
            self.recs.push(SpanRec {
                name,
                start_us: self.us(start),
                end_us: self.us(start),
                parent,
                req,
            });
            self.stack.push(self.recs.len() - 1);
            self.recs.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(idx) = idx {
            self.stack.pop();
            self.recs[idx].end_us = self.us(end);
        }
        (out, end - start)
    }

    /// Records an already-finished span under the innermost open span —
    /// for intervals measured elsewhere (phase events, socket round trips).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.enabled {
            let parent = self.stack.last().copied();
            let (start_us, end_us) = (self.us(start), self.us(end));
            self.recs.push(SpanRec {
                name,
                start_us,
                end_us,
                parent,
                req,
            });
        }
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.recs.len()];
        for (i, r) in self.recs.iter().enumerate() {
            if let Some(p) = r.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, r) in self.recs.iter().enumerate() {
            let covered = covered_us(r, children[i].iter().map(|&c| &self.recs[c]));
            let t = out.entry(r.name).or_default();
            t.count += 1;
            t.total_us += r.dur_us();
            t.self_us += r.dur_us() - covered;
        }
        out
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"req\":{}}}",
                r.name, r.start_us, r.end_us, r.req
            )?;
        }
        out.flush()
    }
}

/// How much of `parent` the union of `children` covers, in µs.
fn covered_us<'a>(parent: &SpanRec, children: impl Iterator<Item = &'a SpanRec>) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .map(|c| (c.start_us.max(parent.start_us), c.end_us.min(parent.end_us)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, s: f64, e: f64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_us: s,
            end_us: e,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut sp = Spans::new(true);
        sp.recs = vec![
            rec("outer", 0.0, 100.0, None),
            rec("a", 10.0, 40.0, Some(0)),
            rec("b", 30.0, 50.0, Some(0)),
            rec("c", 90.0, 120.0, Some(0)),
        ];
        let t = sp.totals();
        // Children cover 10..50 and 90..100 of the parent: 50 µs.
        assert!((t["outer"].self_us - 50.0).abs() < 1e-9);
        assert!((t["a"].self_us - 30.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_times() {
        let mut sp = Spans::new(false);
        let (v, d) = sp.time("x", 1, |_| 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(sp.records().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        let mut sp = Spans::new(true);
        sp.time("outer", 3, |sp| {
            sp.time("inner", 3, |_| ());
        });
        let r = sp.records();
        assert_eq!(r[1].parent, Some(0));
        assert_eq!(r[1].req, 3);
    }
}
