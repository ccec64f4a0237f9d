//! The network-native serving tier: a dependency-free `std::net` TCP
//! server speaking the engine's JSONL protocol (v2) to many concurrent
//! clients.
//!
//! The original system shipped as an interactive service front end over
//! the solver; this crate is that front end grown into a real server.
//! It owns transport and admission only: what a request *means* —
//! resolution, the memo cache, the contained solve, the rendered answer —
//! is the engine's [`Service`](engine::Service), the same core the stdin
//! and batch front ends use. One accept loop feeds a bounded connection
//! pool; each connection gets a reader thread (framed, bounded,
//! timeout-guarded reads) and a writer thread (responses written in
//! request order, whatever order the solves finish in); decision problems
//! fan out over a shared pool of worker threads, each owning a long-lived
//! analyzer.
//!
//! Robustness is the design axis, threaded through every layer:
//!
//! - **Admission control**: the request queue is bounded.
//!   When it is full — or a tenant is at its in-flight cap, or the server
//!   is draining — the request is rejected *immediately* with
//!   `status: "unknown", resource: "shed"` instead of queuing unboundedly.
//!   Sheds are typed verdicts, never memo-cached, and counted in
//!   `xsat_shed_total{scope}`.
//! - **Per-tenant isolation**: the optional `tenant` request
//!   field namespaces workspaces — the same query name bound differently
//!   by two tenants can never alias, because decision problems are
//!   resolved to structural ASTs before they reach the shared memo cache.
//!   Each tenant carries its own default [`Limits`] and an in-flight cap
//!   so one tenant cannot starve the rest.
//! - **Failure containment**: every solve goes through the engine's
//!   request core, [`engine::Service`] — a panicking solve degrades to one
//!   `error` response, increments `xsat_worker_panics_total`, and rebuilds
//!   that worker's analyzer; the worker thread never dies. Hostile or
//!   broken clients are bounded too: per-line byte caps (oversized lines
//!   answered with one `error` and discarded), lossy UTF-8 decoding
//!   (garbage becomes a parse error, not a dead stream), and an idle/read
//!   timeout that drops stuck connections without touching the rest.
//! - **Graceful lifecycle**: the `shutdown` op (or
//!   [`Server::shutdown`]) stops admission, drains in-flight work under a
//!   deadline, cancels stragglers through the armed [`CancelToken`] every
//!   admitted job carries, and only then closes sockets — in-flight
//!   responses are flushed before their connections close.
//!
//! ```no_run
//! use serve::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default(), "127.0.0.1:0")?;
//! eprintln!("listening on {}", server.local_addr());
//! let report = server.wait(); // until a client sends {"op":"shutdown"}
//! assert!(report.drained);
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! [`CancelToken`]: solver::CancelToken

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conn;
mod queue;
mod server;
mod tenant;
mod worker;

use std::time::Duration;

use engine::BackendChoice;
use solver::Limits;

pub use server::{DrainReport, Server};

/// Per-tenant configuration: a named namespace with optional overrides of
/// the server-wide defaults. Tenants not listed here are created on first
/// use with the server defaults (and aggregate under the `other` label in
/// per-tenant metrics — the metrics registry keeps label cardinality
/// bounded by configuration, not by traffic).
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// The tenant name (the wire value of the `tenant` request field).
    pub name: String,
    /// Default resource limits for this tenant's solves; `None` inherits
    /// the server-wide defaults. Per-request `limits` objects override
    /// field-wise, as everywhere in the protocol.
    pub limits: Option<Limits>,
    /// In-flight request cap for this tenant; `None` inherits
    /// [`ServerConfig::tenant_inflight`].
    pub max_inflight: Option<usize>,
}

/// Construction-time knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads solving admitted problems; `0` picks the machine's
    /// available parallelism (capped at 16).
    pub threads: usize,
    /// Default solver backend for requests that do not name one.
    pub backend: BackendChoice,
    /// Server-wide default resource limits (the base tenants inherit).
    pub limits: Limits,
    /// Connection-pool bound: concurrent connections beyond this are
    /// answered with one `error` line and closed.
    pub max_connections: usize,
    /// Admission-queue bound: requests beyond this are shed with
    /// `status: "unknown", resource: "shed"` instead of queuing.
    pub queue_depth: usize,
    /// Default per-tenant in-flight cap (admitted but unanswered
    /// requests); a tenant at its cap sheds rather than starving others.
    pub tenant_inflight: usize,
    /// Idle/read timeout per connection: a client that sends nothing (or
    /// stalls mid-line) for this long is dropped. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Drain budget of a graceful shutdown: in-flight work gets this long
    /// to finish before the armed [`CancelToken`](solver::CancelToken)
    /// cancels whatever is still running.
    pub drain_deadline: Duration,
    /// Per-line byte cap of every connection; `0` picks
    /// [`engine::DEFAULT_MAX_LINE_BYTES`]. Oversized lines cost one
    /// `error` response, never unbounded memory.
    pub max_line_bytes: usize,
    /// Pre-configured tenants (named limits / in-flight overrides).
    pub tenants: Vec<TenantConfig>,
    /// Enables the fault-injection test ops `{"op":"panic"}` (a solve
    /// that panics in the worker) and `{"op":"sleep","ms":N}` (a solve
    /// that holds a worker slot, polling its cancel token). Off by
    /// default; only test harnesses and the load bench turn this on.
    pub fault_injection: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: 0,
            backend: BackendChoice::default(),
            limits: Limits::default(),
            max_connections: 64,
            queue_depth: 256,
            tenant_inflight: 64,
            read_timeout: Some(Duration::from_secs(30)),
            drain_deadline: Duration::from_secs(5),
            max_line_bytes: 0,
            tenants: Vec::new(),
            fault_injection: false,
        }
    }
}

/// The tenant name requests fall back to when they carry no `tenant`
/// field — single-tenant deployments never need to name one.
pub const DEFAULT_TENANT: &str = "default";
