//! Golden behaviour of the TCP serving tier over real sockets: protocol
//! round-trips (including a replay of the engine's golden exchange),
//! shed-under-full-queue semantics (typed `unknown`, never memo-cached),
//! tenant-namespace isolation, and drain-on-shutdown response ordering.

mod common;
#[path = "../../engine/tests/golden/mod.rs"]
mod golden;

use std::time::Duration;

use common::{b, s, start, test_config, wait_stats, Client};
use engine::{json, Value};
use serve::ServerConfig;

#[test]
fn engine_golden_exchange_replays_over_tcp() {
    // The stdin and batch front ends answer this exchange with exactly
    // these lines (crates/engine/tests/golden_jsonl.rs); so must TCP, one
    // round trip per line.
    let server = start(test_config());
    let mut c = Client::connect(&server);
    for (i, (req, expected)) in golden::GOLDEN.iter().enumerate() {
        let got = golden::normalize(&c.roundtrip(req));
        assert_eq!(
            got,
            json::parse(expected).unwrap(),
            "line {i}: request {req} (TCP path)\n  got      {}\n  expected {expected}",
            got.to_json(),
        );
    }

    // TCP `stats` reports admission and pool state, and exactly that.
    let st = c.roundtrip(r#"{"id":"st","op":"stats"}"#);
    let keys: Vec<&str> = match &st {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("stats is not an object: {other:?}"),
    };
    assert_eq!(
        keys,
        [
            "id",
            "ok",
            "op",
            "protocol",
            "tenant",
            "tenant_inflight",
            "tenant_inflight_cap",
            "queue_depth",
            "queue_capacity",
            "connections_active",
            "threads",
            "draining",
        ]
    );
    assert_eq!(s(&st, "op"), Some("stats"));

    server.shutdown();
}

#[test]
fn golden_roundtrip_over_tcp() {
    let server = start(test_config());
    let mut c = Client::connect(&server);

    let r = c.roundtrip(
        r#"{"op":"dtd","name":"d1","source":"<!ELEMENT r (x, y)> <!ELEMENT x EMPTY> <!ELEMENT y EMPTY>"}"#,
    );
    assert_eq!(s(&r, "registered"), Some("d1"));
    let r = c.roundtrip(r#"{"op":"query","name":"q1","xpath":"child::*"}"#);
    assert_eq!(s(&r, "registered"), Some("q1"));
    let r = c.roundtrip(r#"{"op":"query","name":"q2","xpath":"child::x | child::y"}"#);
    assert_eq!(s(&r, "registered"), Some("q2"));

    let r = c.roundtrip(r#"{"id":1,"op":"contains","lhs":"q1","rhs":"q2","type":"d1"}"#);
    assert_eq!(s(&r, "status"), Some("holds"), "{}", r.to_json());
    assert_eq!(b(&r, "cached"), Some(false));

    // The repeat is served from the shared memo cache.
    let r = c.roundtrip(r#"{"id":2,"op":"contains","lhs":"q1","rhs":"q2","type":"d1"}"#);
    assert_eq!(s(&r, "status"), Some("holds"));
    assert_eq!(b(&r, "cached"), Some(true));

    // Untyped, the containment fails with a verified counter-example.
    let r = c.roundtrip(r#"{"id":3,"op":"contains","lhs":"q1","rhs":"q2"}"#);
    assert_eq!(s(&r, "status"), Some("fails"));
    assert!(r.get("counter_example").and_then(Value::as_str).is_some());

    let report = server.shutdown();
    assert!(report.drained);
}

#[test]
fn shed_under_full_queue_is_typed_unknown_and_never_cached() {
    // One worker, a queue of one: a sleeping solve on the worker plus one
    // queued sleep makes the next request shed deterministically.
    let server = start(ServerConfig {
        threads: 1,
        queue_depth: 1,
        ..test_config()
    });
    let mut control = Client::connect(&server);
    let mut c = Client::connect(&server);

    c.send(r#"{"id":"s1","op":"sleep","ms":600}"#);
    // Wait (on a separate control connection — responses are ordered per
    // connection) until the worker has taken the first sleep: admitted
    // (one in flight) and off the queue. An empty queue alone also holds
    // before the sleep is admitted.
    wait_stats(&mut control, |st| {
        st.get("tenant_inflight").and_then(Value::as_f64) == Some(1.0)
            && st.get("queue_depth").and_then(Value::as_f64) == Some(0.0)
    });
    c.send(r#"{"id":"s2","op":"sleep","ms":600}"#);
    wait_stats(&mut control, |st| {
        st.get("queue_depth").and_then(Value::as_f64) == Some(1.0)
    });

    // Queue full: this solve is shed immediately with a typed unknown —
    // on a fresh line of traffic (the control connection), so the
    // rejection is observable *now*, not behind the sleeps' responses.
    let shed = control.roundtrip(r#"{"id":"q","op":"sat","query":"child::a"}"#);
    assert_eq!(s(&shed, "status"), Some("unknown"), "{}", shed.to_json());
    assert_eq!(s(&shed, "resource"), Some("shed"));
    assert_eq!(b(&shed, "cached"), Some(false));

    // Drain the sleeps, then re-pose the same problem: it must actually
    // solve (a shed was never cached as a verdict)...
    assert_eq!(s(&c.recv().expect("s1"), "op"), Some("sleep"));
    assert_eq!(s(&c.recv().expect("s2"), "op"), Some("sleep"));
    let r = c.roundtrip(r#"{"id":"q2","op":"sat","query":"child::a"}"#);
    assert_eq!(s(&r, "status"), Some("holds"));
    assert_eq!(b(&r, "cached"), Some(false), "a shed must never be cached");
    // ...and only now is the verdict memoized.
    let r = c.roundtrip(r#"{"id":"q3","op":"sat","query":"child::a"}"#);
    assert_eq!(b(&r, "cached"), Some(true));

    server.shutdown();
}

#[test]
fn tenant_namespaces_never_alias_in_the_memo_cache() {
    let server = start(test_config());
    let mut c = Client::connect(&server);

    // The same query name, bound to different XPath in two tenants.
    let r = c.roundtrip(r#"{"op":"query","tenant":"a","name":"q1","xpath":"child::a"}"#);
    assert_eq!(s(&r, "registered"), Some("q1"));
    let r = c.roundtrip(r#"{"op":"query","tenant":"b","name":"q1","xpath":"child::b"}"#);
    assert_eq!(s(&r, "registered"), Some("q1"));

    // Tenant a: q1 ⊆ child::a holds. Tenant b: the same request text must
    // resolve b's q1 and fail — a name-keyed cache would alias them.
    let r = c.roundtrip(r#"{"id":1,"op":"contains","tenant":"a","lhs":"q1","rhs":"child::a"}"#);
    assert_eq!(s(&r, "status"), Some("holds"), "{}", r.to_json());
    let r = c.roundtrip(r#"{"id":2,"op":"contains","tenant":"b","lhs":"q1","rhs":"child::a"}"#);
    assert_eq!(s(&r, "status"), Some("fails"), "{}", r.to_json());
    assert_eq!(
        b(&r, "cached"),
        Some(false),
        "tenant b must not be served tenant a's verdict"
    );

    // Structurally identical problems DO share the cache across tenants —
    // sharing is keyed by resolved structure, never by name.
    let r =
        c.roundtrip(r#"{"id":3,"op":"contains","tenant":"b","lhs":"child::a","rhs":"child::a"}"#);
    assert_eq!(s(&r, "status"), Some("holds"));
    let r =
        c.roundtrip(r#"{"id":4,"op":"contains","tenant":"a","lhs":"child::a","rhs":"child::a"}"#);
    assert_eq!(b(&r, "cached"), Some(true));

    // Reset clears only the requesting tenant's workspace. An unknown
    // name falls back to inline XPath, so after the reset tenant a's
    // `q1` parses as `child::q1` — no longer contained in `child::a` —
    // while tenant b's registration survives untouched.
    let r = c.roundtrip(r#"{"op":"reset","tenant":"a"}"#);
    assert_eq!(s(&r, "registered"), Some("a"));
    let r = c.roundtrip(r#"{"id":5,"op":"contains","tenant":"a","lhs":"q1","rhs":"child::a"}"#);
    assert_eq!(s(&r, "status"), Some("fails"), "a's q1 binding is gone");
    let r = c.roundtrip(r#"{"id":6,"op":"contains","tenant":"b","lhs":"q1","rhs":"child::b"}"#);
    assert_eq!(s(&r, "status"), Some("holds"), "b's q1 survives a's reset");

    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_work_before_acknowledging() {
    let server = start(ServerConfig {
        threads: 2,
        ..test_config()
    });
    let mut c = Client::connect(&server);

    // A mix of real solves and a slot-holding sleep, then the shutdown.
    c.send(r#"{"id":1,"op":"sat","query":"child::a"}"#);
    c.send(r#"{"id":2,"op":"contains","lhs":"child::a","rhs":"child::*"}"#);
    c.send(r#"{"id":3,"op":"sleep","ms":150}"#);
    c.send(r#"{"id":4,"op":"shutdown"}"#);

    // Responses arrive in request order; the ack comes last, after every
    // in-flight response, and reports a clean drain.
    let r1 = c.recv().expect("id 1");
    assert_eq!(s(&r1, "status"), Some("holds"));
    let r2 = c.recv().expect("id 2");
    assert_eq!(s(&r2, "status"), Some("holds"));
    let r3 = c.recv().expect("id 3");
    assert_eq!(s(&r3, "op"), Some("sleep"));
    assert_eq!(b(&r3, "cancelled"), Some(false), "clean drain, no cancel");
    let ack = c.recv().expect("ack");
    assert_eq!(s(&ack, "op"), Some("shutdown"));
    assert_eq!(b(&ack, "drained"), Some(true), "{}", ack.to_json());
    assert_eq!(b(&ack, "forced"), Some(false));
    assert_eq!(c.recv(), None, "connection closes after the ack");

    let report = server.wait();
    assert!(report.drained && !report.forced);
}

#[test]
fn forced_drain_cancels_stragglers_through_the_token() {
    let server = start(ServerConfig {
        threads: 1,
        drain_deadline: Duration::from_millis(200),
        ..test_config()
    });
    let mut c = Client::connect(&server);
    // Far longer than the drain deadline: only cancellation ends it.
    c.send(r#"{"id":1,"op":"sleep","ms":60000}"#);
    c.send(r#"{"id":2,"op":"shutdown"}"#);
    let r1 = c.recv().expect("sleep response");
    assert_eq!(b(&r1, "cancelled"), Some(true), "{}", r1.to_json());
    let ack = c.recv().expect("ack");
    assert_eq!(b(&ack, "forced"), Some(true), "{}", ack.to_json());
    assert_eq!(b(&ack, "drained"), Some(true), "cancel converged the drain");
    let report = server.wait();
    assert!(report.forced);
}
