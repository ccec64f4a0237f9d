//! Fault injection against the TCP serving tier: panicking solves, slow
//! clients, garbage bytes, oversized lines, mid-request disconnects,
//! connection-pool saturation — and all of them at once while a healthy
//! tenant keeps getting correct verdicts.

mod common;

use std::io::Write;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use common::{b, s, start, test_config, Client};
use engine::Value;
use serve::ServerConfig;

/// Held by every test that sends `panic` ops: the panic counter is
/// process-wide, so the test that counts panics must see only its own.
static PANIC_OPS: Mutex<()> = Mutex::new(());

/// `xsat_worker_panics_total` as the `metrics` op reports it (0 before
/// the first contained panic registers the counter).
fn panics_total(c: &mut Client) -> f64 {
    let m = c.roundtrip(r#"{"op":"metrics"}"#);
    m.get("metrics")
        .and_then(Value::as_arr)
        .expect("metrics rows")
        .iter()
        .find(|row| s(row, "name") == Some("xsat_worker_panics_total"))
        .and_then(|row| row.get("value").and_then(Value::as_f64))
        .unwrap_or(0.0)
}

#[test]
fn panicking_solve_degrades_to_error_and_the_worker_survives() {
    let _serial = PANIC_OPS.lock().unwrap_or_else(PoisonError::into_inner);
    // One worker: if the panic killed it, the follow-up solve would hang.
    let server = start(ServerConfig {
        threads: 1,
        ..test_config()
    });
    let mut c = Client::connect(&server);
    let before = panics_total(&mut c);

    // The panic runs inside the engine's containment, the one every real
    // solve runs under.
    let r = c.roundtrip(r#"{"id":1,"op":"panic"}"#);
    assert_eq!(s(&r, "status"), Some("error"), "{}", r.to_json());
    assert!(
        s(&r, "error").is_some_and(|e| e.contains("the worker analyzer was rebuilt")),
        "{}",
        r.to_json()
    );
    assert_eq!(panics_total(&mut c), before + 1.0);

    // The same worker thread, on its rebuilt analyzer, answers this
    // correctly afterwards.
    let r = c.roundtrip(r#"{"id":2,"op":"sat","query":"child::a"}"#);
    assert_eq!(s(&r, "status"), Some("holds"));

    server.shutdown();
}

#[test]
fn garbage_and_oversized_lines_cost_one_error_each_not_the_stream() {
    let server = start(ServerConfig {
        max_line_bytes: 256,
        ..test_config()
    });
    let mut c = Client::connect(&server);

    let r = c.roundtrip("this is not json");
    assert_eq!(s(&r, "status"), Some("error"));

    c.send_raw(b"\xff\xfe\x01{binary garbage}\n");
    let r = c.recv().expect("binary garbage response");
    assert_eq!(s(&r, "status"), Some("error"));

    let huge = format!(
        "{{\"op\":\"query\",\"name\":\"big\",\"xpath\":\"{}\"}}\n",
        "a".repeat(4096)
    );
    c.send_raw(huge.as_bytes());
    let r = c.recv().expect("oversized response");
    assert_eq!(s(&r, "status"), Some("error"));
    assert!(
        s(&r, "error").is_some_and(|e| e.contains("256-byte cap")),
        "{}",
        r.to_json()
    );

    // The connection is still line-synchronized and serving.
    let r = c.roundtrip(r#"{"id":1,"op":"sat","query":"child::a"}"#);
    assert_eq!(s(&r, "status"), Some("holds"));

    server.shutdown();
}

#[test]
fn slow_client_times_out_without_affecting_others() {
    let server = start(ServerConfig {
        read_timeout: Some(Duration::from_millis(150)),
        ..test_config()
    });
    let mut slow = Client::connect(&server);
    let mut healthy = Client::connect(&server);

    // Half a request line, then silence: the server must drop this
    // connection, not wait forever holding its resources.
    slow.send_raw(b"{\"op\":\"sat\",");

    // Meanwhile the healthy connection keeps round-tripping.
    for i in 0..3 {
        let r = healthy.roundtrip(&format!(r#"{{"id":{i},"op":"sat","query":"child::a"}}"#));
        assert_eq!(s(&r, "status"), Some("holds"));
        std::thread::sleep(Duration::from_millis(60));
    }

    // The slow connection got the timeout notice and then EOF.
    let r = slow.recv().expect("timeout notice");
    assert!(
        s(&r, "error").is_some_and(|e| e.contains("idle timeout")),
        "{}",
        r.to_json()
    );
    assert_eq!(slow.recv(), None, "connection closed after the notice");

    server.shutdown();
}

#[test]
fn mid_request_disconnect_is_contained() {
    let server = start(test_config());
    {
        let mut c = Client::connect(&server);
        // A solve is admitted, then the client vanishes before reading.
        c.send(r#"{"id":1,"op":"sleep","ms":100}"#);
        c.send(r#"{"id":2,"op":"sat","query":"child::a"}"#);
        let _ = c.stream().shutdown(std::net::Shutdown::Both);
    }
    // The server keeps serving new connections correctly.
    let mut c = Client::connect(&server);
    let r = c.roundtrip(r#"{"id":3,"op":"sat","query":"child::b"}"#);
    assert_eq!(s(&r, "status"), Some("holds"));
    let report = server.shutdown();
    assert!(report.drained, "orphaned work still drains");
}

#[test]
fn connection_pool_bound_rejects_with_a_typed_error() {
    let server = start(ServerConfig {
        max_connections: 1,
        ..test_config()
    });
    let mut first = Client::connect(&server);
    // Prove the first connection is established server-side.
    let r = first.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(b(&r, "ok"), Some(true));

    let mut second = Client::connect(&server);
    let r = second.recv().expect("rejection line");
    assert!(
        s(&r, "error").is_some_and(|e| e.contains("connection limit")),
        "{}",
        r.to_json()
    );
    assert_eq!(second.recv(), None, "rejected connection is closed");

    // The admitted connection is unaffected.
    let r = first.roundtrip(r#"{"id":1,"op":"sat","query":"child::a"}"#);
    assert_eq!(s(&r, "status"), Some("holds"));

    server.shutdown();
}

#[test]
fn malformed_tenant_and_unknown_ops_are_typed_errors() {
    let server = start(test_config());
    let mut c = Client::connect(&server);
    let r = c.roundtrip(r#"{"op":"sat","query":"child::a","tenant":7}"#);
    assert!(s(&r, "error").is_some_and(|e| e.contains("tenant")));
    let r = c.roundtrip(r#"{"op":"frobnicate"}"#);
    assert!(s(&r, "error").is_some_and(|e| e.contains("unknown op")));
    // Fault ops are rejected like any unknown op when injection is off.
    let safe = start(ServerConfig {
        fault_injection: false,
        ..test_config()
    });
    let mut sc = Client::connect(&safe);
    let r = sc.roundtrip(r#"{"op":"panic"}"#);
    assert!(
        s(&r, "error").is_some_and(|e| e.contains("unknown op")),
        "{}",
        r.to_json()
    );
    safe.shutdown();
    server.shutdown();
}

/// The acceptance scenario: slow client + garbage bytes + panic-inducing
/// requests + queue saturation, all concurrent, while two healthy tenants
/// keep getting correct verdicts; then a clean drain.
#[test]
fn concurrent_faults_do_not_affect_healthy_tenants() {
    let _serial = PANIC_OPS.lock().unwrap_or_else(PoisonError::into_inner);
    let server = start(ServerConfig {
        threads: 2,
        queue_depth: 4,
        read_timeout: Some(Duration::from_millis(400)),
        ..test_config()
    });

    let addr = server.local_addr();
    let make = move || {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    };

    // Chaos thread 1: a slow client that stalls mid-line, repeatedly.
    let slow = std::thread::spawn(move || {
        for _ in 0..3 {
            let mut s = make();
            let _ = s.write_all(b"{\"op\":\"contains\",");
            std::thread::sleep(Duration::from_millis(120));
        }
    });
    // Chaos thread 2: garbage bytes and panic requests.
    let chaos = std::thread::spawn(move || {
        let mut s = make();
        for _ in 0..10 {
            let _ = s.write_all(b"\xff\xfe{not json}\n{\"op\":\"panic\"}\n");
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    // Chaos thread 3: saturating sleep bursts (some will be shed).
    let burst = std::thread::spawn(move || {
        let mut s = make();
        for i in 0..20 {
            let _ = s.write_all(format!("{{\"id\":{i},\"op\":\"sleep\",\"ms\":30}}\n").as_bytes());
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    // Two healthy tenants, each with its own namespace, each asserting
    // every verdict while the chaos runs.
    let healthy: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|t| {
            let xpath = if t == "a" { "child::a" } else { "child::b" };
            std::thread::spawn({
                let server_addr = addr;
                move || {
                    let stream = std::net::TcpStream::connect(server_addr).expect("connect");
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                    let mut stream = stream;
                    let mut ok = 0usize;
                    for i in 0..15 {
                        writeln!(
                            stream,
                            "{{\"id\":{i},\"op\":\"contains\",\"tenant\":\"{t}\",\"lhs\":\"{xpath}\",\"rhs\":\"child::*\"}}"
                        )
                        .unwrap();
                        let mut line = String::new();
                        use std::io::BufRead;
                        reader.read_line(&mut line).unwrap();
                        let v = engine::json::parse(line.trim()).unwrap();
                        match v.get("status").and_then(Value::as_str) {
                            // Correct verdict: the containment holds.
                            Some("holds") => ok += 1,
                            // Under saturation a typed shed is legitimate —
                            // but it must be exactly the shed shape.
                            Some("unknown") => {
                                assert_eq!(
                                    v.get("resource").and_then(Value::as_str),
                                    Some("shed"),
                                    "{line}"
                                );
                            }
                            other => panic!("tenant {t} got {other:?}: {line}"),
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    ok
                }
            })
        })
        .collect();

    slow.join().unwrap();
    chaos.join().unwrap();
    burst.join().unwrap();
    for h in healthy {
        let ok = h.join().unwrap();
        assert!(
            ok >= 5,
            "healthy tenants must keep getting correct verdicts under chaos (got {ok})"
        );
    }

    let report = server.shutdown();
    assert!(report.drained, "shutdown drains cleanly after the chaos");
}
