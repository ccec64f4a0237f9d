//! Phase-scoped tracing: [`Recorder`], [`Event`], and the [`Sink`] family.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Process-wide solve-id counter; every enabled [`Recorder`] gets a fresh id
/// so events from concurrent solves interleaved in one sink stay separable.
static NEXT_SOLVE_ID: AtomicU64 = AtomicU64::new(1);

/// A scalar value attached to an [`Event`] field.
///
/// Strings are `&'static str` on purpose: every name that flows through the
/// tracer (op, backend, phase, status, resource) is a static identifier, so
/// an event never owns heap-allocated text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, sizes, microseconds).
    U64(u64),
    /// Signed integer (deltas).
    I64(i64),
    /// Floating point (rates). Non-finite values serialize as `0`.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Static identifier.
    Str(&'static str),
}

impl FieldValue {
    fn write_json(&self, out: &mut String) {
        match *self {
            FieldValue::U64(v) => {
                out.push_str(&v.to_string());
            }
            FieldValue::I64(v) => {
                out.push_str(&v.to_string());
            }
            FieldValue::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push('0');
                }
            }
            FieldValue::Bool(v) => out.push_str(if v { "true" } else { "false" }),
            FieldValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
        }
    }
}

/// One structured trace event.
///
/// Serialized as a flat JSON object: the envelope fields `solve`, `seq`,
/// `t_us` and `kind` first, then the kind-specific fields in recording
/// order. See `docs/OBSERVABILITY.md` for the per-kind schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Id of the solve this event belongs to (unique per process).
    pub solve: u64,
    /// Sequence number within the solve, starting at 0.
    pub seq: u64,
    /// Microseconds since the solve's recorder was created.
    pub t_us: u64,
    /// Event kind: `solve_begin`, `phase`, `step`, `limit`, `memo`,
    /// `solve_end`.
    pub kind: &'static str,
    /// Kind-specific payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Serialize as a single JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"solve\":");
        out.push_str(&self.solve.to_string());
        out.push_str(",\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"t_us\":");
        out.push_str(&self.t_us.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind);
        out.push('"');
        for (name, value) in &self.fields {
            out.push_str(",\"");
            out.push_str(name);
            out.push_str("\":");
            value.write_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// Receiver of trace events. Implementations must tolerate concurrent
/// `record` calls (the batch workers all record into one process-wide
/// sink).
pub trait Sink: Send + Sync + fmt::Debug {
    /// Consume one event.
    fn record(&self, event: &Event);
}

#[derive(Debug)]
struct Inner {
    sink: Arc<dyn Sink>,
    solve: u64,
    start: Instant,
    seq: AtomicU64,
}

/// Handle for emitting trace events.
///
/// Cloning is cheap (an `Arc` bump); clones share the solve id, clock and
/// sequence counter, so a recorder can be handed across threads. The
/// disabled recorder ([`Recorder::noop`]) reduces every call to one
/// `Option` check.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// The disabled recorder: records nothing, costs nothing.
    pub fn noop() -> Recorder {
        Recorder { inner: None }
    }

    /// A recorder feeding `sink`, with a fresh process-unique solve id.
    pub fn new(sink: Arc<dyn Sink>) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                sink,
                solve: NEXT_SOLVE_ID.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// Build a recorder from an arbitrary number of sinks: zero sinks give
    /// the noop recorder, one is used directly, several are teed.
    pub fn with_sinks(mut sinks: Vec<Arc<dyn Sink>>) -> Recorder {
        match sinks.len() {
            0 => Recorder::noop(),
            1 => Recorder::new(sinks.pop().expect("len checked")),
            _ => Recorder::new(Arc::new(TeeSink::new(sinks))),
        }
    }

    /// Whether events are being recorded. Callers use this to skip
    /// gathering observation data that only feeds the tracer.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Id of the solve this recorder traces, if enabled.
    pub fn solve_id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.solve)
    }

    /// Emit one event.
    pub fn event(&self, kind: &'static str, fields: &[(&'static str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        let event = Event {
            solve: inner.solve,
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            t_us: inner.start.elapsed().as_micros() as u64,
            kind,
            fields: fields.to_vec(),
        };
        inner.sink.record(&event);
    }

    /// Open a phase span; the returned guard emits a single `phase` event
    /// with the measured duration when dropped.
    pub fn span(&self, phase: &'static str) -> Span {
        Span {
            rec: self.clone(),
            phase,
            started: self.inner.as_ref().map(|_| Instant::now()),
        }
    }
}

/// RAII guard for a traced phase; see [`Recorder::span`].
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    phase: &'static str,
    started: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            self.rec.event(
                "phase",
                &[
                    ("phase", FieldValue::Str(self.phase)),
                    (
                        "dur_us",
                        FieldValue::U64(started.elapsed().as_micros() as u64),
                    ),
                ],
            );
        }
    }
}

/// In-memory sink: buffers events for later retrieval. Used for the
/// protocol `"trace"` field and for slow-solve capture.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Fresh empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Remove and return everything recorded so far, in order.
    pub fn drain(&self) -> Vec<Event> {
        match self.events.lock() {
            Ok(mut g) => std::mem::take(&mut *g),
            Err(poison) => std::mem::take(&mut *poison.into_inner()),
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().map_or(0, |g| g.len())
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        if let Ok(mut g) = self.events.lock() {
            g.push(event.clone());
        }
    }
}

/// Sink writing one JSON line per event to an arbitrary writer,
/// flushing after each line so traces survive a crash mid-solve.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl JsonlSink {
    /// Wrap any writer.
    pub fn new(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// Create (truncating) a trace file at `path`.
    pub fn create(path: &str) -> io::Result<JsonlSink> {
        let file = File::create(path)?;
        Ok(JsonlSink::new(Box::new(BufWriter::new(file))))
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        if let Ok(mut out) = self.out.lock() {
            let _ = writeln!(out, "{}", event.to_jsonl());
            let _ = out.flush();
        }
    }
}

/// Fan-out sink: forwards every event to each child in order.
#[derive(Debug)]
pub struct TeeSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl TeeSink {
    /// Tee over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl Sink for TeeSink {
    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_inert() {
        let rec = Recorder::noop();
        assert!(!rec.enabled());
        assert_eq!(rec.solve_id(), None);
        rec.event("step", &[("iter", FieldValue::U64(1))]);
        let _span = rec.span("compile");
    }

    #[test]
    fn events_carry_monotonic_seq_and_solve_id() {
        let mem = Arc::new(MemorySink::new());
        let rec = Recorder::new(mem.clone());
        assert!(rec.enabled());
        rec.event("solve_begin", &[("op", FieldValue::Str("contains"))]);
        {
            let _span = rec.span("compile");
        }
        rec.event("solve_end", &[("status", FieldValue::Str("holds"))]);
        let events = mem.drain();
        assert_eq!(events.len(), 3);
        let id = rec.solve_id().unwrap();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.solve, id);
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(events[0].kind, "solve_begin");
        assert_eq!(events[1].kind, "phase");
        assert_eq!(events[2].kind, "solve_end");
        assert!(mem.is_empty(), "drain empties the sink");
    }

    #[test]
    fn distinct_recorders_get_distinct_solve_ids() {
        let mem = Arc::new(MemorySink::new());
        let a = Recorder::new(mem.clone());
        let b = Recorder::new(mem.clone());
        assert_ne!(a.solve_id(), b.solve_id());
    }

    #[test]
    fn jsonl_serialization_is_flat_and_escaped() {
        let e = Event {
            solve: 7,
            seq: 2,
            t_us: 1500,
            kind: "step",
            fields: vec![
                ("iter", FieldValue::U64(3)),
                ("nodes_delta", FieldValue::I64(-12)),
                ("rate", FieldValue::F64(0.5)),
                ("changed", FieldValue::Bool(true)),
                ("backend", FieldValue::Str("symbolic")),
            ],
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"solve\":7,\"seq\":2,\"t_us\":1500,\"kind\":\"step\",\
             \"iter\":3,\"nodes_delta\":-12,\"rate\":0.5,\"changed\":true,\
             \"backend\":\"symbolic\"}"
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_zero() {
        let e = Event {
            solve: 1,
            seq: 0,
            t_us: 0,
            kind: "step",
            fields: vec![("rate", FieldValue::F64(f64::NAN))],
        };
        assert!(e.to_jsonl().ends_with("\"rate\":0}"));
    }

    #[test]
    fn tee_fans_out_and_with_sinks_composes() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let rec = Recorder::with_sinks(vec![a.clone(), b.clone()]);
        rec.event("memo", &[("hit", FieldValue::Bool(false))]);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert!(!Recorder::with_sinks(vec![]).enabled());
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        #[derive(Debug, Default, Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared::default();
        let sink = Arc::new(JsonlSink::new(Box::new(shared.clone())));
        let rec = Recorder::new(sink);
        rec.event("limit", &[("resource", FieldValue::Str("iterations"))]);
        rec.event("memo", &[("hit", FieldValue::Bool(true))]);
        let bytes = shared.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[0].contains("\"kind\":\"limit\""));
        assert!(lines[1].contains("\"hit\":true"));
    }
}
