//! Workload `service-mix`: a seeded stream of small decision problems sent
//! open loop, at one fixed arrival rate, to an in-process `serve::Server`
//! on loopback with two workers, over one connection that carries both
//! tenants. One load thread sends every request when it is due; the other
//! blocks reading the responses. A request's latency runs from the time it
//! was due to be sent to the time its response arrived, so a stall delays
//! every request queued behind it. The whole process runs on one CPU (see
//! [`crate::cpu`]).
//!
//! Verdicts are compared with the `explicit` backend's, computed per
//! request shape after the timed phase (see [`crate::gen`]).

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use analyzer::{Analyzer, BackendChoice, Limits};
use engine::{Engine, EngineConfig, Request, RequestKind, Value, Workspace};
use obs::MetricValue;
use serve::{Server, ServerConfig};

use crate::decompose::decompose;
use crate::gen::{self, ServiceStream};
use crate::oracle::{self, Check};
use crate::report::{LayerAgg, Report};
use crate::spans::Spans;
use crate::{cpu, stats, Args};

/// Offered load, requests per second.
pub const RATE_PER_S: f64 = 400.0;

/// Server worker threads.
pub const WORKERS: usize = 2;

/// The latency limit of `within_limit_ratio`.
pub const LIMIT_MS: f64 = 25.0;

/// A run whose generator lag p99 exceeds this is invalid: four arrival
/// intervals. A sender that late has stopped sending open loop. On a
/// 2-vCPU VM, quiet runs showed a lag p99 of about 1.5 ms (the sender
/// shares its CPU with the server, so it can wait behind a solve).
pub const LAG_BOUND_MS: f64 = 4.0 * 1000.0 / RATE_PER_S;

/// How long to wait for outstanding responses after the last send.
const DRAIN: Duration = Duration::from_secs(20);

/// The sender sleeps until this long before a request is due and spins
/// the rest of the way: a wake-up from sleep came about 50 µs late on a
/// 2-vCPU VM, and that lateness would count as latency.
const SPIN: Duration = Duration::from_micros(200);

/// How often the blocked receiver wakes to check the give-up time.
const RECV_TIMEOUT: Duration = Duration::from_millis(100);

/// Requests per latency window: 3 s at the offered rate. Each latency
/// metric is the median, over the run's windows, of the window's figure.
/// On a 2-vCPU VM the host now and then took a few percent of the CPU for
/// seconds at a time, and latency in those seconds rose by half; a median
/// over windows keeps such a burst from moving the run's figure when it
/// covers fewer than half of the windows. A slowdown of the server shows
/// in every window.
const WINDOW: usize = 3 * RATE_PER_S as usize;

/// Time the traced run spends re-solving the stream in-process.
const DECOMPOSE_BUDGET: Duration = Duration::from_secs(4);

/// A client connection with its own line buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RECV_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// One blocking read; appends each complete line. Returns false at end
    /// of stream. A read that times out appends nothing.
    fn read_lines(&mut self, out: &mut Vec<String>) -> io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Ok(false),
            Ok(k) => self.buf.extend_from_slice(&chunk[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            out.push(String::from_utf8_lossy(&line).trim().to_owned());
        }
        Ok(true)
    }

    /// Blocks for one response line (set-up only).
    fn recv_line(&mut self) -> io::Result<String> {
        let give_up = Instant::now() + Duration::from_secs(30);
        let mut out = Vec::new();
        while out.is_empty() {
            if !self.read_lines(&mut out)? || Instant::now() > give_up {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response"));
            }
        }
        Ok(out.remove(0))
    }
}

/// Writes one line.
fn send(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    stream.write_all(&bytes)
}

/// A booted server and one connection on which every tenant registered
/// the DTDs. Setting it up is what `setup_s` times; the request stream is
/// the harness's input and is generated before, untimed.
struct Rig {
    server: Option<Server>,
    conn: Conn,
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = self.conn.stream.shutdown(std::net::Shutdown::Both);
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

fn with_tenant(tenant: &str, line: &str) -> String {
    format!("{{\"tenant\":\"{tenant}\",{}", &line[1..])
}

fn setup() -> Rig {
    let config = ServerConfig {
        threads: WORKERS,
        queue_depth: 4096,
        tenant_inflight: 4096,
        read_timeout: None,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, "127.0.0.1:0").expect("bind loopback");
    let mut conn = Conn::open(server.local_addr()).expect("connect");
    for tenant in gen::TENANTS {
        for (name, src) in gen::SERVICE_DTDS {
            send(
                &mut conn.stream,
                &with_tenant(tenant, &gen::dtd_line(name, src)),
            )
            .expect("send");
            let r = conn.recv_line().expect("registration response");
            assert!(r.contains("\"ok\":true"), "registration failed: {r}");
        }
    }
    Rig {
        server: Some(server),
        conn,
    }
}

/// The median set-up time in seconds, on one CPU as in [`run`].
pub fn setup_s() -> f64 {
    let cpus = cpu::allowed();
    if let Some(&last) = cpus.last() {
        cpu::pin(&[last]);
    }
    let (rig, setup_s) = crate::repeat_setup(setup);
    drop(rig);
    cpu::pin(&cpus);
    setup_s
}

/// One request's timeline.
#[derive(Debug, Clone, Default)]
struct Sample {
    sent: Option<Instant>,
    recv: Option<Instant>,
    resp: Option<String>,
}

/// The sending load thread: writes each request when it is due, whatever
/// is still outstanding.
fn send_all(
    writer: &mut TcpStream,
    requests: &[gen::ServiceRequest],
    due: &[Instant],
) -> Vec<Option<Instant>> {
    let mut sent = vec![None; requests.len()];
    for (i, r) in requests.iter().enumerate() {
        let wait = due[i].saturating_duration_since(Instant::now());
        if wait > SPIN {
            std::thread::sleep(wait - SPIN);
        }
        let mut now = Instant::now();
        while now < due[i] {
            std::hint::spin_loop();
            now = Instant::now();
        }
        if send(writer, &r.line).is_err() {
            break;
        }
        sent[i] = Some(now);
    }
    sent
}

/// The receiving load thread: blocks on the connection and matches each
/// response to the oldest unanswered request (the server answers a
/// connection in request order), until every response arrived or
/// `give_up`.
fn recv_all(conn: &mut Conn, n: usize, give_up: Instant) -> Vec<Option<(Instant, String)>> {
    let mut out = vec![None; n];
    let mut next = 0;
    let mut got = Vec::new();
    while next < n && Instant::now() < give_up {
        if !matches!(conn.read_lines(&mut got), Ok(true)) {
            break;
        }
        let now = Instant::now();
        for resp in got.drain(..) {
            if next < n {
                out[next] = Some((now, resp));
                next += 1;
            }
        }
    }
    out
}

/// The `explicit` backend's verdict for every shape of the stream,
/// solved as one batch over the server's worker count.
pub fn reference(stream: &ServiceStream) -> Result<Vec<bool>, String> {
    let mut e = Engine::with_config(EngineConfig {
        threads: WORKERS,
        backend: BackendChoice::Explicit,
        ..EngineConfig::default()
    });
    let mut input: Vec<String> = gen::SERVICE_DTDS
        .iter()
        .map(|(name, src)| gen::dtd_line(name, src))
        .collect();
    let skip = input.len();
    input.extend(stream.shapes.iter().map(|l| oracle::reference_line(l)));
    let out = e.run_batch_lines(&input.join("\n"));
    out.responses[skip..]
        .iter()
        .zip(&stream.shapes)
        .map(|(r, line)| match r.get("status").and_then(Value::as_str) {
            Some("holds") => Ok(true),
            Some("fails") => Ok(false),
            _ => Err(format!("no reference for {line}: {}", r.to_json())),
        })
        .collect()
}

/// A counter's or histogram's rows summed over labels.
fn counter(name: &str) -> u64 {
    obs::metrics()
        .snapshot()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => v,
            MetricValue::Histogram { count, .. } => count,
        })
        .sum()
}

/// Cumulative `(bound, count)` buckets of a histogram.
fn buckets(name: &str) -> Vec<(f64, u64)> {
    obs::metrics()
        .snapshot()
        .into_iter()
        .find(|s| s.name == name)
        .and_then(|s| match s.value {
            MetricValue::Histogram { buckets, .. } => Some(buckets),
            _ => None,
        })
        .unwrap_or_default()
}

/// Quantile `q` of the observations between two bucket snapshots,
/// interpolated linearly inside its bucket.
fn bucket_quantile(before: &[(f64, u64)], after: &[(f64, u64)], q: f64) -> f64 {
    let delta: Vec<(f64, u64)> = after
        .iter()
        .enumerate()
        .map(|(i, &(b, c))| (b, c - before.get(i).map_or(0, |x| x.1)))
        .collect();
    let total = delta.last().map_or(0, |x| x.1);
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut lo = (0.0, 0u64);
    for &(bound, cum) in &delta {
        if cum as f64 >= target {
            if !bound.is_finite() {
                return lo.0;
            }
            let inside = (cum - lo.1) as f64;
            let frac = if inside > 0.0 {
                (target - lo.1 as f64) / inside
            } else {
                1.0
            };
            return lo.0 + frac * (bound - lo.0);
        }
        lo = (bound, cum);
    }
    lo.0
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let stream = gen::service_stream(args.seed, (RATE_PER_S * args.seconds as f64) as usize);
    // From the first set-up to the end of the timed phase, this thread and
    // every thread it or the server spawns run on one CPU.
    let cpus = cpu::allowed();
    if let Some(&last) = cpus.last() {
        cpu::pin(&[last]);
    }
    let (mut rig, setup_s) = crate::repeat_setup(setup);
    let n = stream.requests.len();
    let lines: Vec<String> = stream.requests.iter().map(|r| r.line.clone()).collect();

    let mut sp = Spans::new(args.trace);
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = args.trace.then(|| {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let depth = obs::metrics().gauge("xsat_serve_queue_depth", &[]);
            let mut max = 0;
            while !stop.load(Ordering::Relaxed) {
                max = max.max(depth.get());
                std::thread::sleep(Duration::from_millis(1));
            }
            max
        })
    });
    let solve_before = buckets("xsat_serve_solve_ms");
    let (shed_before, hits_before, misses_before) = (
        counter("xsat_shed_total"),
        counter("xsat_memo_hits_total"),
        counter("xsat_memo_misses_total"),
    );

    // The schedule: request i is due at t0 + i / rate.
    let t0 = Instant::now() + Duration::from_millis(20);
    let due: Vec<Instant> = (0..n)
        .map(|i| t0 + Duration::from_secs_f64(i as f64 / RATE_PER_S))
        .collect();
    let mut writer = rig.conn.stream.try_clone().expect("clone connection");
    let give_up = due.last().copied().unwrap_or(t0) + DRAIN;
    let (sent, recv) = std::thread::scope(|s| {
        let sender = s.spawn(|| send_all(&mut writer, &stream.requests, &due));
        let receiver = s.spawn(|| recv_all(&mut rig.conn, n, give_up));
        (
            sender.join().expect("sending thread"),
            receiver.join().expect("receiving thread"),
        )
    });
    drop(writer);
    let samples: Vec<Sample> = sent
        .into_iter()
        .zip(recv)
        .map(|(sent, r)| {
            let (recv, resp) = r.map_or((None, None), |(t, l)| (Some(t), Some(l)));
            Sample { sent, recv, resp }
        })
        .collect();
    let peak_rss = stats::peak_rss_mb();
    stop.store(true, Ordering::Relaxed);
    let queue_max = sampler.map(|h| h.join().unwrap_or(0));
    let solve_after = buckets("xsat_serve_solve_ms");
    let shed = counter("xsat_shed_total") - shed_before;
    let hits = counter("xsat_memo_hits_total") - hits_before;
    let misses = counter("xsat_memo_misses_total") - misses_before;
    drop(rig);
    cpu::pin(&cpus);

    // Check every response against the reference, outside the timed phase.
    let refs = match reference(&stream) {
        Ok(r) => r,
        Err(e) => {
            rep.error(e);
            Vec::new()
        }
    };
    let mut latencies = Vec::new();
    let windows = (n / WINDOW).max(1);
    let mut by_window = vec![Vec::new(); windows];
    let mut lags = Vec::new();
    let (mut within, mut last_recv) = (0usize, t0);
    rep.attempted = n as u64;
    for (i, smp) in samples.iter().enumerate() {
        if let Some(sent) = smp.sent {
            lags.push((sent - due[i]).as_secs_f64() * 1000.0);
        }
        let (Some(recv), Some(resp)) = (smp.recv, &smp.resp) else {
            rep.failed += 1;
            continue;
        };
        last_recv = last_recv.max(recv);
        let lat = (recv - due[i]).as_secs_f64() * 1000.0;
        latencies.push(lat);
        by_window[(i / WINDOW).min(windows - 1)].push(lat);
        let v = engine::json::parse(resp).unwrap_or(Value::Null);
        if v.get("id").and_then(Value::as_f64) != Some(i as f64) {
            rep.error(format!("request {i}: response out of order: {resp}"));
            continue;
        }
        let Some(&want) = refs.get(stream.requests[i].shape) else {
            continue;
        };
        match oracle::classify(&v, want) {
            Check::Right => within += usize::from(lat <= LIMIT_MS),
            Check::Wrong(e) => rep.error(format!("request {i}: {e}")),
            Check::Failed(_) => rep.failed += 1,
        }
    }
    let lag_p99 = stats::percentile(&lags, 99.0);
    if lag_p99 > LAG_BOUND_MS {
        rep.invalid = Some(format!(
            "generator lag p99 {lag_p99:.2} ms exceeds {LAG_BOUND_MS} ms"
        ));
    }
    let r = &stream.reuse;
    rep.lines.push(format!(
        "# service-mix: open loop at {RATE_PER_S} req/s, {} tenants on one connection, \
         {WORKERS} workers; {n} requests, {} shapes, {} distinct problems, repeat share {:.3}, \
         reuse distance p50 {} p90 {} max {}",
        gen::TENANTS.len(),
        stream.shapes.len(),
        r.distinct,
        r.repeat_share,
        r.distance_p50,
        r.distance_p90,
        r.distance_max
    ));
    let by_window: Vec<Vec<f64>> = by_window.into_iter().filter(|w| !w.is_empty()).collect();
    let over_windows =
        |f: fn(&[f64]) -> f64| stats::median(&by_window.iter().map(|w| f(w)).collect::<Vec<_>>());
    let tail = by_window.first().map(|w| stats::tail(w));
    rep.lines.push(format!(
        "# latency figures are medians over {} windows of {WINDOW} requests; \
         the tail is p{} over {} samples per window",
        by_window.len(),
        tail.map_or(0.0, |t| t.pct),
        tail.map_or(0, |t| t.samples)
    ));
    let served_s = (last_recv - t0).as_secs_f64().max(1e-9);
    rep.note("offered_per_s", RATE_PER_S, "1/s");
    rep.note(
        "within_limit_ratio",
        within as f64 / n.max(1) as f64,
        "ratio",
    );
    rep.note("failed_ratio", rep.failed as f64 / n.max(1) as f64, "ratio");
    rep.note("bench.generator_lag_ms_p50", stats::median(&lags), "ms");
    rep.note("bench.generator_lag_ms_p99", lag_p99, "ms");
    rep.note("bench.distinct_problems", r.distinct as f64, "count");
    rep.note("bench.repeat_share", r.repeat_share, "ratio");
    if !args.trace {
        rep.metric("setup_s", setup_s, "s");
        rep.metric("latency_ms_p50", over_windows(stats::median), "ms");
        rep.metric(
            "latency_ms_tail",
            over_windows(|w| stats::tail(w).value),
            "ms",
        );
        rep.metric("latency_ms_geomean", over_windows(stats::geomean), "ms");
        rep.metric("throughput_per_s", latencies.len() as f64 / served_s, "1/s");
        rep.metric("peak_rss_mb", peak_rss, "MB");
        return rep;
    }

    // Traced run: the client's view as spans, the server's registry, and
    // the stream re-solved in-process, step by step.
    for (i, smp) in samples.iter().enumerate() {
        if let Some(recv) = smp.recv {
            sp.record("serve.request", i as u64, due[i], recv);
        }
    }
    let p50 = stats::median(&latencies);
    let solve_p50 = bucket_quantile(&solve_before, &solve_after, 0.5);
    rep.note("serve.solve_ms_p50", solve_p50, "ms");
    rep.note(
        "serve.solve_ms_p99",
        bucket_quantile(&solve_before, &solve_after, 0.99),
        "ms",
    );
    // What is left of the client's median once the server's median solve
    // and the harness's own median send lateness are taken out.
    let lag_p50 = stats::median(&lags);
    rep.note("serve.overhead_ms_p50", p50 - solve_p50 - lag_p50, "ms");
    rep.note(
        "serve.queue_depth_max",
        queue_max.unwrap_or(0) as f64,
        "count",
    );
    rep.note("serve.shed_total", shed as f64, "count");
    rep.note(
        "engine.memo_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let mut ws = Workspace::new();
    for (name, src) in gen::SERVICE_DTDS {
        ws.register_dtd(name, src).expect("generated DTD parses");
    }
    let (mut plain, mut traced) = (Analyzer::new(), Analyzer::new());
    let mut agg = LayerAgg::default();
    let mut seen = HashSet::new();
    let started = Instant::now();
    for (i, req) in stream.requests.iter().enumerate() {
        if started.elapsed() > DECOMPOSE_BUDGET {
            break;
        }
        let body = req.line.split_once(",\"op\"").map_or("", |x| x.1);
        if !seen.insert(body) {
            continue;
        }
        let Ok(Request {
            kind: RequestKind::Problem { spec, .. },
            ..
        }) = Request::parse(&req.line)
        else {
            continue;
        };
        let Ok(p) = spec.resolve(&ws) else { continue };
        let t = Instant::now();
        let plain_holds = plain.solve(&p, &Limits::default()).map(|a| {
            std::hint::black_box(a.counter_example.as_ref().map(solver::Model::xml));
            a.holds
        });
        let untraced_us = t.elapsed().as_secs_f64() * 1e6;
        let (d, wall) = sp.time("analyzer.solve", i as u64, |sp| {
            decompose(&mut traced, &p, &Limits::default(), sp, i as u64)
        });
        match (d, plain_holds) {
            (Ok(d), Ok(h)) => {
                if refs
                    .get(req.shape)
                    .is_some_and(|&want| want != d.holds || h != d.holds)
                {
                    rep.error(format!("request {i}: in-process verdict differs"));
                }
                if let Err(e) = oracle::replay(&p, d.holds, d.witness.as_ref()) {
                    rep.error(format!("request {i}: {e}"));
                }
                agg.add(&d, wall.as_secs_f64() * 1e6, untraced_us);
            }
            (d, h) => rep.error(format!("request {i}: in-process solve failed: {d:?} {h:?}")),
        }
    }
    let dtds: Vec<Arc<treetypes::Dtd>> = gen::SERVICE_DTDS
        .iter()
        .filter_map(|(name, _)| ws.resolve_dtd(name).ok())
        .collect();
    let parse_lines: Vec<String> = lines.iter().take(2000).cloned().collect();
    rep.per_layer(
        &agg,
        crate::type_formula_ms(&dtds),
        crate::request_parse_us(&parse_lines),
    );
    let mut by_op: HashMap<&str, usize> = HashMap::new();
    for r in &stream.requests {
        let op = r
            .line
            .split("\"op\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next());
        *by_op.entry(op.unwrap_or("?")).or_default() += 1;
    }
    let mut ops: Vec<_> = by_op.into_iter().collect();
    ops.sort();
    rep.lines.push(format!("# requests per op: {ops:?}"));
    crate::finish_trace(args, &sp, &mut rep);
    rep
}
