//! Per-connection I/O: a framed, bounded, timeout-guarded reader thread
//! and a reorder-buffer writer thread.
//!
//! The reader assigns every handled line a connection-local sequence
//! number and answers it exactly once — inline for registrations and
//! service ops (preserving registration order), through the worker pool
//! for decision problems. The writer receives `(seq, response)` pairs in
//! completion order and writes them in *sequence* order, so pipelined
//! clients always read responses in the order they sent requests, however
//! the solves interleaved.
//!
//! Hostile-peer bounds all live on the reader: the per-line byte cap
//! (oversized lines cost one `error` response), lossy UTF-8 decoding
//! (garbage costs a parse error, not the stream), and the socket read
//! timeout (a stuck client is dropped; an injected `error` line tells it
//! why if it ever reads again).

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use engine::{
    error_response, json, metrics_response, read_framed, register, registration_response, response,
    unknown_response, Framed, Request, RequestKind, UnknownVerdict, Value, Workspace,
    PROTOCOL_VERSION,
};

use crate::server::{LifeState, Shared};
use crate::tenant::Tenant;
use crate::worker::{Unit, Work};
use crate::DEFAULT_TENANT;

/// What the reader does after answering a line.
enum LineOutcome {
    /// Keep reading.
    Continue,
    /// Close the connection (a handled `shutdown` op).
    Close,
}

/// Runs one accepted connection to completion: spawns the writer, loops
/// the reader, joins the writer once every response is delivered.
pub(crate) fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let _ = stream.set_read_timeout(shared.config.read_timeout);
    let _ = stream.set_nodelay(true);
    let (tx, rx) = std::sync::mpsc::channel::<(u64, Value)>();
    let writer = std::thread::Builder::new()
        .name("serve-writer".into())
        .spawn(move || writer_loop(&rx, write_half));
    reader_loop(shared, stream, &tx);
    // Dropping the reader's sender lets the writer drain in-flight
    // responses (worker-held senders drop as their units finish) and exit.
    drop(tx);
    if let Ok(h) = writer {
        let _ = h.join();
    }
}

/// Writes responses in sequence order, whatever order they complete in:
/// a `BTreeMap` reorder buffer holds out-of-order completions until the
/// next expected sequence number arrives. Flushes per line (the protocol
/// is a conversation, not a dump).
fn writer_loop(rx: &Receiver<(u64, Value)>, stream: TcpStream) {
    let mut out = BufWriter::new(stream);
    let mut next: u64 = 0;
    let mut pending: BTreeMap<u64, Value> = BTreeMap::new();
    while let Ok((seq, response)) = rx.recv() {
        pending.insert(seq, response);
        let mut wrote = false;
        while let Some(response) = pending.remove(&next) {
            if writeln!(out, "{}", response.to_json()).is_err() {
                return; // peer gone; drain-and-drop the rest
            }
            next += 1;
            wrote = true;
        }
        if wrote && out.flush().is_err() {
            return;
        }
    }
}

/// The reader loop: framed reads, per-line dispatch, one response per
/// handled line.
fn reader_loop(shared: &Arc<Shared>, stream: TcpStream, tx: &Sender<(u64, Value)>) {
    let mut reader = BufReader::new(stream);
    let mut seq: u64 = 0;
    loop {
        match read_framed(&mut reader, shared.service.max_line_bytes()) {
            Err(e) => {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    obs::metrics()
                        .counter("xsat_conn_timeouts_total", &[])
                        .inc();
                    let _ = tx.send((
                        seq,
                        error_response(
                            None,
                            "idle timeout: no complete request line arrived in time; \
                             the connection is closed",
                        ),
                    ));
                }
                return;
            }
            Ok(Framed::Eof) => return,
            Ok(Framed::Oversized { limit }) => {
                let _ = tx.send((
                    seq,
                    error_response(
                        None,
                        &format!("request line exceeds the {limit}-byte cap and was discarded"),
                    ),
                ));
                seq += 1;
            }
            Ok(Framed::Line(line)) => {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                match handle_line(shared, line, seq, tx) {
                    LineOutcome::Continue => seq += 1,
                    LineOutcome::Close => return,
                }
            }
        }
    }
}

/// Parses and dispatches one request line, sending exactly one response
/// with the line's sequence number.
fn handle_line(
    shared: &Arc<Shared>,
    line: &str,
    seq: u64,
    tx: &Sender<(u64, Value)>,
) -> LineOutcome {
    let send = |response: Value| {
        let _ = tx.send((seq, response));
    };
    let v = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            send(error_response(None, &e.to_string()));
            return LineOutcome::Continue;
        }
    };
    let id = v.get("id").cloned();
    let tenant_name = match v.get("tenant") {
        None => DEFAULT_TENANT,
        Some(Value::Str(s)) => s.as_str(),
        Some(_) => {
            send(error_response(
                id.as_ref(),
                "the `tenant` field must be a string",
            ));
            return LineOutcome::Continue;
        }
    };
    let tenant = shared.tenants.resolve(tenant_name);
    match v.get("op").and_then(Value::as_str) {
        Some("shutdown") => {
            let report = shared.drain_and_stop();
            send(response(
                id.as_ref(),
                vec![
                    ("ok", Value::Bool(true)),
                    ("op", Value::from("shutdown")),
                    ("drained", Value::Bool(report.drained)),
                    ("forced", Value::Bool(report.forced)),
                    ("pending", Value::from(report.pending)),
                ],
            ));
            LineOutcome::Close
        }
        Some("panic") if shared.config.fault_injection => {
            admit(shared, &tenant, Work::Panic, id, seq, tx);
            LineOutcome::Continue
        }
        Some("sleep") if shared.config.fault_injection => {
            let ms = v.get("ms").and_then(Value::as_f64).unwrap_or(0.0).max(0.0) as u64;
            admit(shared, &tenant, Work::Sleep { ms }, id, seq, tx);
            LineOutcome::Continue
        }
        _ => {
            match Request::from_value(&v) {
                Ok(req) => handle_request(shared, &tenant, req, seq, tx),
                Err(e) => send(error_response(id.as_ref(), &e)),
            }
            LineOutcome::Continue
        }
    }
}

/// The one admission path, for decision problems and fault-injection ops
/// alike: take a tenant in-flight slot (while the server is running) and a
/// place in the bounded queue, or answer a shed verdict at once. A
/// saturating `sleep` burst is exactly how the test harness drives the
/// shed path.
fn admit(
    shared: &Shared,
    tenant: &Arc<Tenant>,
    work: Work,
    id: Option<Value>,
    seq: u64,
    tx: &Sender<(u64, Value)>,
) {
    let guard = if shared.state() == LifeState::Running {
        tenant.try_admit(&shared.inflight)
    } else {
        None
    };
    let (work, id) = match guard {
        Some(guard) => match shared.queue.try_push(Unit {
            work,
            id,
            seq,
            reply: tx.clone(),
            guard,
        }) {
            Ok(()) => return,
            // The refused unit's slot is released here, before the shed
            // names the binding bound.
            Err((unit, _)) => (unit.work, unit.id),
        },
        None => (work, id),
    };
    let _ = tx.send((seq, shed_response(shared, tenant, id.as_ref(), &work)));
}

/// A shed verdict: the typed `unknown` an over-admitted request gets
/// instead of unbounded queueing. The reason names the bound that fired —
/// `drain`, `tenant` (the tenant is at its in-flight cap) or `queue` — and
/// `spent`/`limit` report that bound. Sheds are never memo-cached and are
/// counted in `xsat_shed_total{scope}`.
fn shed_response(shared: &Shared, tenant: &Tenant, id: Option<&Value>, work: &Work) -> Value {
    let (scope, spent, limit) = if shared.state() != LifeState::Running {
        ("drain", 0, 0)
    } else if tenant.inflight() >= tenant.max_inflight {
        (
            "tenant",
            tenant.inflight() as u64,
            tenant.max_inflight as u64,
        )
    } else {
        (
            "queue",
            shared.queue.len() as u64,
            shared.queue.capacity() as u64,
        )
    };
    obs::metrics()
        .counter("xsat_shed_total", &[("scope", scope)])
        .inc();
    let unknown = UnknownVerdict {
        resource: "shed",
        spent,
        limit,
        reason: format!(
            "request shed by admission control ({scope} bound {limit} reached); \
             retry against a less loaded server"
        ),
        backend: match work {
            Work::Solve { item, .. } => item.job.backend,
            Work::Panic | Work::Sleep { .. } => shared.service.backend(),
        },
        wall_ms: 0.0,
    };
    unknown_response(id, work.op_name(), &unknown, None)
}

/// Dispatches one parsed protocol request.
fn handle_request(
    shared: &Shared,
    tenant: &Arc<Tenant>,
    req: Request,
    seq: u64,
    tx: &Sender<(u64, Value)>,
) {
    let send = |response: Value| {
        let _ = tx.send((seq, response));
    };
    match req.kind {
        RequestKind::RegisterDtd { .. } | RequestKind::RegisterQuery { .. } => {
            send(register(&mut write_ws(tenant), &req));
        }
        RequestKind::Problem {
            spec,
            backend,
            limits,
            trace,
        } => {
            // Resolve against the tenant's namespace *before* admission:
            // the memo key is structural, so tenants can never alias. The
            // tenant's limits carry the drain token.
            let item = shared.service.resolve(
                &tenant
                    .workspace
                    .read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
                &spec,
                backend,
                limits.as_ref(),
                trace,
                &tenant.limits,
            );
            match item {
                Ok(item) => admit(
                    shared,
                    tenant,
                    Work::Solve {
                        item,
                        op: spec.op(),
                    },
                    req.id,
                    seq,
                    tx,
                ),
                Err(e) => send(error_response(req.id.as_ref(), &e)),
            }
        }
        RequestKind::Stats => send(stats_response(shared, tenant, req.id.as_ref())),
        RequestKind::Metrics => {
            send(metrics_response(
                req.id.as_ref(),
                &obs::metrics().snapshot(),
            ));
        }
        RequestKind::Reset => {
            write_ws(tenant).clear();
            send(registration_response(
                req.id.as_ref(),
                "reset",
                &tenant.name,
            ));
        }
        RequestKind::SlowLog => send(error_response(
            req.id.as_ref(),
            "`slowlog` is not available on the TCP serving tier",
        )),
        RequestKind::Lint(_) => send(error_response(
            req.id.as_ref(),
            "`lint` is not available on the TCP serving tier",
        )),
    }
}

/// The tenant's workspace, write-locked (poison-tolerant).
fn write_ws(tenant: &Tenant) -> std::sync::RwLockWriteGuard<'_, Workspace> {
    tenant
        .workspace
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The server-level `stats` response: admission and pool state, scoped to
/// the requesting tenant.
fn stats_response(shared: &Shared, tenant: &Tenant, id: Option<&Value>) -> Value {
    response(
        id,
        vec![
            ("ok", Value::Bool(true)),
            ("op", Value::from("stats")),
            ("protocol", Value::from(PROTOCOL_VERSION as usize)),
            ("tenant", Value::from(tenant.name.as_str())),
            ("tenant_inflight", Value::from(tenant.inflight())),
            ("tenant_inflight_cap", Value::from(tenant.max_inflight)),
            ("queue_depth", Value::from(shared.queue.len())),
            ("queue_capacity", Value::from(shared.queue.capacity())),
            (
                "connections_active",
                Value::from(shared.active_connections()),
            ),
            ("threads", Value::from(shared.service.threads())),
            (
                "draining",
                Value::Bool(shared.state() != LifeState::Running),
            ),
        ],
    )
}
