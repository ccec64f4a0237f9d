//! The server: accept loop, bounded connection pool, worker pool, and the
//! graceful drain-then-stop lifecycle.
//!
//! Lifecycle is a one-way ladder: `Running` → `Draining` → `Stopped`.
//! `Draining` (entered by the `shutdown` op or [`Server::shutdown`])
//! closes admission — new problems are shed, the queue refuses pushes —
//! while workers finish the backlog; the drain waits for the in-flight
//! count to hit zero under [`ServerConfig::drain_deadline`], cancelling
//! stragglers through the armed drain [`CancelToken`](solver::CancelToken)
//! if the deadline fires. Only in `Stopped` are sockets shut down: every
//! in-flight response has been handed to its connection's writer by then,
//! and writers flush before their connections close.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use analyzer::AnalyzerOptions;
use engine::{Job, Verdict};
use solver::CancelToken;

use crate::conn::handle_connection;
use crate::lock;
use crate::queue::Queue;
use crate::tenant::{Inflight, Tenants};
use crate::worker::{worker_loop, WorkUnit};
use crate::ServerConfig;

/// The lifecycle ladder (one-way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LifeState {
    /// Accepting connections and admitting work.
    Running,
    /// Admission closed; in-flight work finishing.
    Draining,
    /// Sockets closed; threads exiting.
    Stopped,
}

/// What a graceful shutdown achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether the in-flight count reached zero before sockets closed.
    pub drained: bool,
    /// Whether the drain deadline fired and stragglers were cancelled
    /// through the drain token (their responses are typed `unknown`).
    pub forced: bool,
    /// Requests still unanswered when sockets closed (0 when `drained`).
    pub pending: usize,
}

/// State shared by the accept loop, every connection, and every worker.
pub(crate) struct Shared {
    /// The construction-time configuration.
    pub config: ServerConfig,
    /// Analyzer construction options (worker rebuilds after a contained
    /// panic use these).
    pub options: AnalyzerOptions,
    /// The bounded admission queue.
    pub queue: Queue<WorkUnit>,
    /// The tenant registry.
    pub tenants: Tenants,
    /// The shared structural memo cache.
    pub cache: Mutex<HashMap<Job, Verdict>>,
    /// The server-wide in-flight tally the drain waits on.
    pub inflight: Arc<Inflight>,
    /// The armed cancel token cloned into every admitted job's limits.
    pub drain: CancelToken,
    /// Worker-thread count (for `stats`).
    pub threads: usize,
    state: Mutex<LifeState>,
    state_cv: Condvar,
    /// Read-half clones of every live connection, keyed by connection id,
    /// for the forced socket shutdown at stop. Connection threads remove
    /// their own entry on exit, so the registry (and its file
    /// descriptors) stays bounded by the live-connection count.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicUsize,
    active: AtomicUsize,
    addr: SocketAddr,
}

impl Shared {
    /// The current lifecycle state.
    pub(crate) fn state(&self) -> LifeState {
        *lock(&self.state)
    }

    /// The effective per-line byte cap.
    pub(crate) fn max_line_bytes(&self) -> usize {
        if self.config.max_line_bytes == 0 {
            engine::DEFAULT_MAX_LINE_BYTES
        } else {
            self.config.max_line_bytes
        }
    }

    /// Live connections right now.
    pub(crate) fn active_connections(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// The full graceful shutdown: close admission, drain under the
    /// deadline, cancel stragglers, then stop sockets. Idempotent —
    /// concurrent callers all block until the drain completes and get
    /// the same report shape.
    pub(crate) fn drain_and_stop(&self) -> DrainReport {
        {
            let mut st = lock(&self.state);
            if *st == LifeState::Running {
                *st = LifeState::Draining;
            }
        }
        // Admission closes: readers shed new problems (state check), and
        // the queue refuses concurrent pushes while workers drain its backlog
        // and exit.
        self.queue.close();
        let mut forced = false;
        let mut drained = self.inflight.wait_zero(self.config.drain_deadline);
        if !drained {
            // Deadline fired: cancel whatever is still running. Every
            // admitted job's limits carry this token, and solves poll it
            // at each budget checkpoint, so this converges quickly — but
            // give it a bounded second window, never an unbounded wait.
            forced = true;
            self.drain.cancel();
            drained = self.inflight.wait_zero(self.config.drain_deadline);
        }
        let pending = self.inflight.count();
        // Stop: close sockets and wake the accept loop.
        {
            let mut st = lock(&self.state);
            *st = LifeState::Stopped;
            self.state_cv.notify_all();
        }
        for s in lock(&self.conns).values() {
            // Read-side only: pending writers may still be flushing the
            // final responses of the drain.
            let _ = s.shutdown(Shutdown::Read);
        }
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        DrainReport {
            drained,
            forced,
            pending,
        }
    }

    /// Blocks until the state reaches `Stopped`.
    fn wait_stopped(&self) {
        let mut st = lock(&self.state);
        while *st != LifeState::Stopped {
            st = self
                .state_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// A running TCP server. Dropping it without calling [`Server::wait`] or
/// [`Server::shutdown`] leaks the listener thread; call one of them.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7678"`; port `0` picks a free one),
    /// spawns the worker pool and the accept loop, and returns
    /// immediately. The server runs until a client sends
    /// `{"op":"shutdown"}` or [`Server::shutdown`] is called.
    pub fn bind(config: ServerConfig, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(16)
        } else {
            config.threads
        };
        let options = AnalyzerOptions {
            backend: config.backend,
            ..AnalyzerOptions::default()
        };
        let drain = CancelToken::armed();
        let shared = Arc::new(Shared {
            queue: Queue::new(config.queue_depth),
            tenants: Tenants::new(&config, &drain),
            cache: Mutex::new(HashMap::new()),
            inflight: Arc::new(Inflight::new()),
            drain,
            threads,
            state: Mutex::new(LifeState::Running),
            state_cv: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
            conn_seq: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            addr,
            options,
            config,
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared.queue, &shared.cache, &shared.options))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client's `shutdown` op stops the server, then joins
    /// every thread. The report reflects that drain.
    pub fn wait(mut self) -> DrainReport {
        self.shared.wait_stopped();
        self.join_all();
        // The drain already happened (the shutdown op ran it); report the
        // post-stop state.
        DrainReport {
            drained: self.shared.inflight.count() == 0,
            forced: self.shared.drain.is_cancelled(),
            pending: self.shared.inflight.count(),
        }
    }

    /// Programmatic graceful shutdown: drain under the configured
    /// deadline, stop, join every thread.
    pub fn shutdown(mut self) -> DrainReport {
        let report = self.shared.drain_and_stop();
        self.join_all();
        report
    }

    fn join_all(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Connection threads are detached; give their writers a bounded
        // window to flush and close (they exit on the socket shutdown).
        let deadline = std::time::Instant::now() + self.shared.config.drain_deadline;
        while self.shared.active_connections() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// The accept loop: enforce the connection bound, register the stream for
/// forced shutdown, and hand it to a connection thread.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let gauge = obs::metrics().gauge("xsat_connections_active", &[]);
    for stream in listener.incoming() {
        if shared.state() != LifeState::Running {
            break;
        }
        let Ok(stream) = stream else { continue };
        let active = shared.active.load(Ordering::Acquire);
        if active >= shared.config.max_connections {
            obs::metrics()
                .counter("xsat_shed_total", &[("scope", "connections")])
                .inc();
            reject_connection(stream, shared.config.max_connections);
            continue;
        }
        let conn_id = shared.conn_seq.fetch_add(1, Ordering::AcqRel) as u64;
        if let Ok(read_half) = stream.try_clone() {
            lock(&shared.conns).insert(conn_id, read_half);
        }
        shared.active.fetch_add(1, Ordering::AcqRel);
        gauge.add(1);
        let on_conn = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || {
                handle_connection(&on_conn, stream);
                lock(&on_conn.conns).remove(&conn_id);
                on_conn.active.fetch_sub(1, Ordering::AcqRel);
                obs::metrics().gauge("xsat_connections_active", &[]).sub(1);
            });
        if spawned.is_err() {
            lock(&shared.conns).remove(&conn_id);
            shared.active.fetch_sub(1, Ordering::AcqRel);
            gauge.sub(1);
        }
    }
}

/// Answers an over-capacity connection with one typed `error` line and
/// closes it — rejection is explicit and immediate, never a hang.
fn reject_connection(stream: TcpStream, cap: usize) {
    let mut stream = stream;
    let response = engine::error_response(
        None,
        &format!("connection limit ({cap}) reached; retry against a less loaded server"),
    );
    let _ = writeln!(stream, "{}", response.to_json());
    let _ = stream.shutdown(Shutdown::Both);
}
