//! The shared worker pool: long-lived analyzers solving admitted work.
//!
//! Each worker thread owns one [`Analyzer`](analyzer::Analyzer) (its own
//! formula arena and warm BDD manager) and loops on the admission queue.
//! Every solve goes through the engine's request core,
//! [`Service::solve`](engine::Service::solve): the shared memo cache, panic
//! containment that rebuilds the worker's analyzer, and the same
//! rendering as every other front end. The thread, and every other
//! in-flight request, survives a panicking solve.

use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

use engine::problem::duration_ms;
use engine::{response, Op, Solved, Value, WorkItem};

use crate::server::Shared;
use crate::tenant::InflightGuard;

/// What an admitted unit asks a worker to do.
pub(crate) enum Work {
    /// A decision problem, resolved against its tenant's workspace.
    Solve {
        /// The resolved problem, its limits and trace flag.
        item: WorkItem,
        /// The operation, echoed canonically.
        op: Op,
    },
    /// Fault injection: panic inside the worker's containment.
    Panic,
    /// Fault injection: hold a worker slot for `ms`, polling the drain
    /// token — the deterministic way to saturate the queue and to test
    /// cancellation.
    Sleep {
        /// How long to hold the slot.
        ms: u64,
    },
}

impl Work {
    /// The operation name echoed on the unit's response.
    pub(crate) fn op_name(&self) -> &'static str {
        match self {
            Work::Solve { op, .. } => op.canonical(),
            Work::Panic => "panic",
            Work::Sleep { .. } => "sleep",
        }
    }
}

/// One admitted unit of work, answered exactly once through its
/// connection's reorder channel.
pub(crate) struct Unit {
    /// What to do.
    pub work: Work,
    /// Echoed client id.
    pub id: Option<Value>,
    /// Position in the connection's response order.
    pub seq: u64,
    /// The connection's reorder channel.
    pub reply: Sender<(u64, Value)>,
    /// The tenant in-flight slot, released when the response is sent.
    pub guard: InflightGuard,
}

/// The worker loop: pops until the queue closes and drains, answering
/// every unit through its connection's reorder channel.
pub(crate) fn worker_loop(shared: &Shared) {
    let service = &shared.service;
    let mut az = service.analyzer();
    while let Some(unit) = shared.queue.pop() {
        let id = unit.id.as_ref();
        let response = match &unit.work {
            Work::Solve { item, op } => {
                let started = Instant::now();
                let response = service
                    .solve(&mut az, item)
                    .respond(id, op.canonical(), false);
                obs::metrics()
                    .histogram("xsat_serve_solve_ms", &[])
                    .observe_ms(duration_ms(started.elapsed()));
                response
            }
            Work::Panic => Solved {
                outcome: service
                    .contain(&mut az, |_| panic!("injected panic (fault-injection op)")),
                cached: false,
                trace: None,
            }
            .respond(id, "panic", false),
            Work::Sleep { ms } => {
                let cancel = &unit.guard.tenant().limits.cancel;
                let deadline = Instant::now() + Duration::from_millis(*ms);
                let mut cancelled = false;
                while Instant::now() < deadline {
                    if cancel.is_cancelled() {
                        cancelled = true;
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                response(
                    id,
                    vec![
                        ("ok", Value::Bool(true)),
                        ("op", Value::from("sleep")),
                        ("cancelled", Value::Bool(cancelled)),
                    ],
                )
            }
        };
        // A send error means the connection died mid-request; the verdict
        // is simply dropped (it is already memo-cached if definite).
        let _ = unit.reply.send((unit.seq, response));
        drop(unit.guard);
    }
}
