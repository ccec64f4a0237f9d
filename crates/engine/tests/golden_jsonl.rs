//! Golden JSONL round-trips: a request file goes in, the verdict stream
//! must match the expected lines, for every protocol op and for the
//! `backend` request field (every verdict echoes the backend that answered
//! it, and the memo cache is keyed per backend).
//!
//! Volatile measurement fields (`wall_ms`, `stats`) are stripped before
//! comparison; everything else — including counter-example XML, `cached`
//! flags, `backend` echoes and error texts — must match byte-for-byte. The
//! same exchange is also replayed through the sequential `serve` loop,
//! which must produce the same normalized verdicts as the parallel batch
//! executor.

mod golden;

use engine::{json, BackendChoice, Engine, EngineConfig, Request, Telemetry, Value};
use golden::{normalize, GOLDEN};

fn requests() -> Vec<Request> {
    GOLDEN
        .iter()
        .filter(|(req, _)| !req.is_empty())
        .map(|(req, _)| {
            Request::parse(req).unwrap_or(Request {
                id: None,
                kind: engine::RequestKind::Stats,
            })
        })
        .collect()
}

#[test]
fn batch_matches_golden_stream() {
    let mut e = Engine::with_config(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    });
    let input: String = GOLDEN.iter().map(|(req, _)| format!("{req}\n")).collect();
    let outcome = e.run_batch_lines(&input);
    assert_eq!(outcome.responses.len(), GOLDEN.len());
    for (i, ((req, expected), got)) in GOLDEN.iter().zip(&outcome.responses).enumerate() {
        let expected_value = json::parse(expected).unwrap();
        assert_eq!(
            normalize(got),
            expected_value,
            "line {i}: request {req}\n  got      {}\n  expected {expected}",
            normalize(got).to_json(),
        );
    }
    // 21 decision problems were posed; ids 4, 5 and 24 repeat id 1's
    // problem, id 17 repeats id 15's (problem, backend) job, and id 26
    // repeats id 3's failing containment. Id 16 repeats a *problem* under
    // a different backend, which is a distinct job; id 23 exhausts its
    // iteration cap and is counted as `unknown`, not an error. Ids 18, 20
    // and 21 name unknown backends and are errors.
    assert_eq!(outcome.stats.problems, 21);
    assert_eq!(outcome.stats.unique_problems, 16);
    assert_eq!(outcome.stats.cache_hits, 5);
    assert_eq!(outcome.stats.unknown, 1);
    assert_eq!(outcome.stats.errors, 5);

    // Full round-trip: every response line re-parses to the same value.
    for got in &outcome.responses {
        assert_eq!(json::parse(&got.to_json()).unwrap(), *got);
    }
}

#[test]
fn serve_matches_golden_stream() {
    let mut e = Engine::new();
    let input: String = GOLDEN.iter().map(|(req, _)| format!("{req}\n")).collect();
    let mut out = Vec::new();
    e.serve(input.as_bytes(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), GOLDEN.len());
    for (i, ((req, expected), got)) in GOLDEN.iter().zip(&lines).enumerate() {
        let got = json::parse(got).unwrap();
        let expected_value = json::parse(expected).unwrap();
        assert_eq!(
            normalize(&got),
            expected_value,
            "line {i}: request {req} (serve path)"
        );
    }
}

#[test]
fn serve_survives_garbage_and_oversized_lines() {
    // Garbage interleaved between valid requests: each bad line costs one
    // `error` response, never the stream. The oversized line exceeds the
    // configured cap and must be shed without being buffered whole.
    let mut e = Engine::with_config(EngineConfig {
        max_line_bytes: 256,
        ..EngineConfig::default()
    });
    let huge = format!(
        "{{\"op\":\"query\",\"name\":\"big\",\"xpath\":\"{}\"}}",
        "a".repeat(4096)
    );
    let mut input = Vec::new();
    input.extend_from_slice(b"{\"op\":\"query\",\"name\":\"q1\",\"xpath\":\"child::a\"}\n");
    input.extend_from_slice(b"this is not json at all\n");
    input.extend_from_slice(
        b"{\"op\":\"query\",\"name\":\"q2\",\"xpath\":\"child::a | child::b\"}\n",
    );
    input.extend_from_slice(b"\xff\xfe\x00{binary garbage}\x01\n");
    input.extend_from_slice(huge.as_bytes());
    input.push(b'\n');
    input.extend_from_slice(b"{\"op\":\"contains\"\n"); // truncated JSON
    input.extend_from_slice(b"{\"id\":9,\"op\":\"contains\",\"lhs\":\"q1\",\"rhs\":\"q2\"}\n");
    let mut out = Vec::new();
    e.serve(&input[..], &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
    assert_eq!(
        lines.len(),
        7,
        "one response per line, good or bad:\n{text}"
    );

    let ok = |v: &Value| v.get("ok").and_then(Value::as_bool) == Some(true);
    let err_status = |v: &Value| v.get("status").and_then(Value::as_str) == Some("error");
    assert!(ok(&lines[0]), "q1 registers: {}", lines[0].to_json());
    assert!(
        err_status(&lines[1]),
        "garbage text: {}",
        lines[1].to_json()
    );
    assert!(ok(&lines[2]), "q2 registers: {}", lines[2].to_json());
    assert!(
        err_status(&lines[3]),
        "binary garbage: {}",
        lines[3].to_json()
    );
    assert!(
        err_status(&lines[4]),
        "oversized line: {}",
        lines[4].to_json()
    );
    assert!(
        lines[4]
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("256-byte cap")),
        "oversized error names the cap: {}",
        lines[4].to_json()
    );
    assert!(
        err_status(&lines[5]),
        "truncated JSON: {}",
        lines[5].to_json()
    );
    // The final decision request still solves correctly after four bad
    // lines — the serve loop never lost sync.
    assert_eq!(
        lines[6].get("status").and_then(Value::as_str),
        Some("holds"),
        "final request solves: {}",
        lines[6].to_json()
    );
}

#[test]
fn repeated_batch_is_fully_cached() {
    let mut e = Engine::with_config(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    });
    let reqs = requests();
    let cold = e.run_batch(&reqs);
    let warm = e.run_batch(&reqs);
    assert_eq!(cold.stats.problems, warm.stats.problems);
    // Every *decided* problem of the repeat batch is served from the memo
    // cache; the one budget-exhausted problem (id 23) is never cached and
    // re-solves to `unknown` again.
    assert_eq!(warm.stats.cache_hits, warm.stats.problems - 1);
    assert_eq!(warm.stats.unknown, 1);
    // Verdicts are identical across cold and warm runs, and cache-served
    // answers report ~zero wall clock (the stats keep the original run's
    // solve time).
    for (c, w) in cold.responses.iter().zip(&warm.responses) {
        let status = c.get("status").and_then(Value::as_str);
        if matches!(status, Some("holds") | Some("fails")) {
            assert_eq!(c.get("holds"), w.get("holds"));
            assert_eq!(c.get("counter_example"), w.get("counter_example"));
            assert_eq!(c.get("counterexample"), w.get("counterexample"));
            assert_eq!(w.get("wall_ms").and_then(Value::as_f64), Some(0.0));
        }
    }
}

/// Asserts the normative `"counterexample"` schema of `docs/PROTOCOL.md` on
/// a `fails` response: exactly the four keys, `xml` equal to the legacy
/// string field, `pretty` an indented rendering of the same document, and
/// the `verified` oracle stamp.
fn assert_counterexample_shape(r: &Value) {
    assert_eq!(r.get("status").and_then(Value::as_str), Some("fails"));
    let ce = r
        .get("counterexample")
        .unwrap_or_else(|| panic!("no counterexample in {}", r.to_json()));
    let keys: Vec<&str> = match ce {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("counterexample is not an object: {other:?}"),
    };
    assert_eq!(keys, ["xml", "pretty", "size", "verified"]);
    let xml = ce.get("xml").and_then(Value::as_str).unwrap();
    assert_eq!(r.get("counter_example").and_then(Value::as_str), Some(xml));
    let pretty = ce.get("pretty").and_then(Value::as_str).unwrap();
    assert_eq!(pretty.replace(['\n', ' '], ""), xml.replace(' ', ""));
    assert!(ce.get("size").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(ce.get("verified").and_then(Value::as_bool), Some(true));
}

#[test]
fn counterexample_field_shape_across_backends_and_cache() {
    let mut e = Engine::new();
    let fig18 = |id: &str, backend: &str| {
        format!(
            r#"{{"id":"{id}","op":"contains","lhs":"child::c/preceding-sibling::a[child::b]","rhs":"child::c[child::b]","backend":"{backend}"}}"#
        )
    };
    // Present on every backend's `fails` verdict…
    for backend in ["symbolic", "explicit", "witnessed"] {
        let r = e.execute_line(&fig18(backend, backend));
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
        assert_counterexample_shape(&r);
        // …and byte-stable across a memo-cache hit.
        let hit = e.execute_line(&fig18(&format!("{backend}-again"), backend));
        assert_eq!(hit.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(hit.get("counterexample"), r.get("counterexample"));
        // The whole response round-trips through the hand-rolled json
        // module.
        assert_eq!(json::parse(&r.to_json()).unwrap(), r);
    }
    // Absent on `holds` — including satisfiability, whose supporting model
    // keeps riding the legacy `counter_example` string only.
    let r = e.execute_line(r#"{"op":"sat","query":"child::a"}"#);
    assert_eq!(r.get("status").and_then(Value::as_str), Some("holds"));
    assert!(r.get("counter_example").and_then(Value::as_str).is_some());
    assert!(r.get("counterexample").is_none());
    // Absent on unsatisfiable overlap (`fails` with no possible witness).
    let r = e.execute_line(r#"{"op":"overlap","lhs":"child::a","rhs":"child::b"}"#);
    assert_eq!(r.get("status").and_then(Value::as_str), Some("fails"));
    assert_eq!(r.get("counter_example"), Some(&Value::Null));
    assert!(r.get("counterexample").is_none());
    // Absent on `unknown`.
    let r = e.execute_line(r#"{"op":"sat","query":"a/b[c]","limits":{"max_iterations":1}}"#);
    assert_eq!(r.get("status").and_then(Value::as_str), Some("unknown"));
    assert!(r.get("counterexample").is_none());
}

/// Every key of the extended symbolic telemetry schema (the BDD kernel
/// counters of `docs/PROTOCOL.md`).
const SYMBOLIC_TELEMETRY_KEYS: [&str; 8] = [
    "bdd_nodes",
    "peak_nodes",
    "created_nodes",
    "table_capacity",
    "load_factor",
    "cache_hits",
    "cache_lookups",
    "cache_hit_rate",
];

#[test]
fn telemetry_payload_is_typed_per_backend() {
    let mut e = Engine::new();
    let cases = [
        ("symbolic", SYMBOLIC_TELEMETRY_KEYS.to_vec()),
        ("explicit", vec!["types"]),
        ("witnessed", vec!["types", "proved"]),
    ];
    for (backend, keys) in cases {
        let r = e.execute_line(&format!(
            r#"{{"op":"sat","query":"child::a","backend":"{backend}"}}"#
        ));
        assert_eq!(
            r.get("ok").and_then(Value::as_bool),
            Some(true),
            "{backend}"
        );
        assert_eq!(r.get("backend").and_then(Value::as_str), Some(backend));
        let telemetry = r
            .get("stats")
            .and_then(|s| s.get("telemetry"))
            .unwrap_or_else(|| panic!("{backend}: no telemetry in {}", r.to_json()));
        assert_eq!(
            telemetry.get("backend").and_then(Value::as_str),
            Some(backend)
        );
        for key in keys {
            assert!(
                telemetry.get(key).is_some(),
                "{backend}: missing `{key}` in {}",
                telemetry.to_json()
            );
        }
    }
}

#[test]
fn equiv_telemetry_merges_both_directions() {
    // An `equiv` solves two containments, so the verdict's telemetry is
    // the *merge* of two symbolic runs, with the BDD counter fields
    // summed/maxed.
    let mut e = Engine::new();
    let r = e.execute_line(r#"{"id":"eq","op":"equiv","lhs":"a/b[c]","rhs":"a/b[c]"}"#);
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(r.get("holds").and_then(Value::as_bool), Some(true));
    let sym = r.get("stats").and_then(|s| s.get("telemetry")).unwrap();
    assert_eq!(sym.get("backend").and_then(Value::as_str), Some("symbolic"));
    for key in SYMBOLIC_TELEMETRY_KEYS {
        assert!(
            sym.get(key).is_some(),
            "missing `{key}` in {}",
            sym.to_json()
        );
    }
    // Merged counters stay consistent: hits ≤ lookups, live ≤ peak ≤
    // created (+1 for the terminal), and the derived ratios in [0, 1].
    let pick = |k: &str| sym.get(k).and_then(Value::as_f64).unwrap();
    assert!(pick("cache_hits") <= pick("cache_lookups"));
    assert!(pick("bdd_nodes") <= 2.0 * pick("peak_nodes"));
    assert!(pick("peak_nodes") <= pick("created_nodes") + 2.0);
    let rate = pick("cache_hit_rate");
    assert!((0.0..=1.0).contains(&rate), "{rate}");
    assert!(pick("cache_lookups") > 0.0);
}

#[test]
fn oversized_lean_is_unknown_and_never_cached() {
    // This containment's lean is far beyond the default lean-diamond cap,
    // so every enumerating backend must answer `"status":"unknown"`
    // naming the exhausted resource (not a process-killing panic, not a
    // protocol error) — and keep re-answering (unknowns are not
    // memoized), while the same problem on the symbolic backend solves
    // fine.
    let mut e = Engine::new();
    let oversized = r#"{"op":"contains","lhs":"a/b//d[prec-sibling::c]/e","rhs":"a/b//c/foll-sibling::d/e","backend":"explicit"}"#;
    for backend in ["explicit", "witnessed"] {
        let line = oversized.replace(
            "\"backend\":\"explicit\"",
            &format!("\"backend\":\"{backend}\""),
        );
        for _ in 0..2 {
            let r = e.execute_line(&line);
            assert_eq!(
                r.get("ok").and_then(Value::as_bool),
                Some(true),
                "{backend}"
            );
            assert_eq!(
                r.get("status").and_then(Value::as_str),
                Some("unknown"),
                "{backend}"
            );
            assert_eq!(r.get("holds"), Some(&Value::Null), "{backend}");
            assert_eq!(
                r.get("resource").and_then(Value::as_str),
                Some("lean_diamonds"),
                "{backend}"
            );
            assert_eq!(r.get("limit").and_then(Value::as_f64), Some(16.0));
            let msg = r.get("reason").and_then(Value::as_str).unwrap();
            assert!(msg.contains("resource exhausted"), "{msg}");
            assert_eq!(r.get("cached").and_then(Value::as_bool), Some(false));
        }
    }
    assert_eq!(e.cache_entries(), 0);
    assert_eq!(e.counters().unknown, 4);
    let r = e.execute_line(
        r#"{"op":"contains","lhs":"a/b//d[prec-sibling::c]/e","rhs":"a/b//c/foll-sibling::d/e"}"#,
    );
    assert_eq!(r.get("holds").and_then(Value::as_bool), Some(true));
    assert_eq!(e.cache_entries(), 1);
    // The unknown also surfaces per-request on the batch path without
    // derailing the rest of the batch, counted separately from errors.
    let out = e.run_batch(&[
        Request::parse(oversized).unwrap(),
        Request::parse(r#"{"op":"sat","query":"child::a","backend":"explicit"}"#).unwrap(),
    ]);
    assert_eq!(out.stats.problems, 2);
    assert_eq!(out.stats.errors, 0);
    assert_eq!(out.stats.unknown, 1);
    assert_eq!(
        out.responses[0].get("status").and_then(Value::as_str),
        Some("unknown")
    );
    assert_eq!(
        out.responses[1].get("holds").and_then(Value::as_bool),
        Some(true)
    );
}

#[test]
fn unknown_bypasses_the_cache_until_a_retry_decides() {
    let mut e = Engine::new();
    let starved = r#"{"op":"sat","query":"a/b[c]","limits":{"max_iterations":1}}"#;
    // A starved solve is unknown and leaves no cache entry…
    let r = e.execute_line(starved);
    assert_eq!(r.get("status").and_then(Value::as_str), Some("unknown"));
    assert_eq!(
        r.get("resource").and_then(Value::as_str),
        Some("iterations")
    );
    assert_eq!(r.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(e.cache_entries(), 0);
    // …so the repeat re-solves (and exhausts again) instead of replaying
    // a stale unknown.
    let r = e.execute_line(starved);
    assert_eq!(r.get("status").and_then(Value::as_str), Some("unknown"));
    assert_eq!(r.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(e.cache_entries(), 0);
    assert_eq!(e.counters().unknown, 2);
    // A retry under the default (roomy) limits decides and memoizes…
    let r = e.execute_line(r#"{"op":"sat","query":"a/b[c]"}"#);
    assert_eq!(r.get("status").and_then(Value::as_str), Some("holds"));
    assert_eq!(r.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(e.cache_entries(), 1);
    // …after which even the starved request is served from the cache: a
    // definite verdict answers any budget without solving.
    let r = e.execute_line(starved);
    assert_eq!(r.get("status").and_then(Value::as_str), Some("holds"));
    assert_eq!(r.get("cached").and_then(Value::as_bool), Some(true));
}

#[test]
fn stats_echo_the_protocol_version() {
    let mut e = Engine::new();
    let r = e.execute_line(r#"{"op":"stats"}"#);
    assert_eq!(
        r.get("protocol").and_then(Value::as_f64),
        Some(engine::PROTOCOL_VERSION as f64)
    );
    assert_eq!(r.get("unknown").and_then(Value::as_f64), Some(0.0));
}

#[test]
fn cache_is_keyed_by_backend() {
    let mut e = Engine::new();
    let sym = e.execute_line(r#"{"op":"sat","query":"child::a"}"#);
    assert_eq!(sym.get("cached").and_then(Value::as_bool), Some(false));
    // Same problem, different backend: must re-solve, not hit the cache.
    let exp = e.execute_line(r#"{"op":"sat","query":"child::a","backend":"explicit"}"#);
    assert_eq!(exp.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(e.cache_entries(), 2);
    // Witnessed results land under their own key too.
    let wit = e.execute_line(r#"{"op":"sat","query":"child::a","backend":"witnessed"}"#);
    assert_eq!(wit.get("cached").and_then(Value::as_bool), Some(false));
    assert_eq!(e.cache_entries(), 3);
    // And each backend now hits its own entry.
    for (line, backend) in [
        (r#"{"op":"sat","query":"child::a"}"#, "symbolic"),
        (
            r#"{"op":"sat","query":"child::a","backend":"explicit"}"#,
            "explicit",
        ),
        (
            r#"{"op":"sat","query":"child::a","backend":"witnessed"}"#,
            "witnessed",
        ),
    ] {
        let r = e.execute_line(line);
        assert_eq!(r.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(r.get("backend").and_then(Value::as_str), Some(backend));
    }
}

#[test]
fn engine_default_backend_applies_to_unmarked_requests() {
    let mut e = Engine::with_config(EngineConfig {
        threads: 2,
        backend: BackendChoice::Witnessed,
        ..EngineConfig::default()
    });
    assert_eq!(e.default_backend(), BackendChoice::Witnessed);
    let r = e.execute_line(r#"{"op":"sat","query":"child::a"}"#);
    assert_eq!(r.get("backend").and_then(Value::as_str), Some("witnessed"));
    // An explicit per-request backend still overrides the default.
    let r = e.execute_line(r#"{"op":"sat","query":"child::a","backend":"symbolic"}"#);
    assert_eq!(r.get("backend").and_then(Value::as_str), Some("symbolic"));
    let _ = Telemetry::default(); // re-exported type is usable downstream
}

#[test]
fn hundred_problem_batch_fans_out() {
    let mut e = Engine::with_config(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    });
    let mut lines = vec![
        r#"{"op":"dtd","name":"d","source":"<!ELEMENT r (a*, b*)> <!ELEMENT a (b?)> <!ELEMENT b EMPTY>"}"#
            .to_owned(),
    ];
    let labels = ["a", "b", "c", "d", "e"];
    for i in 0..120 {
        let l = labels[i % labels.len()];
        let m = labels[(i / labels.len()) % labels.len()];
        let line = match i % 4 {
            0 => format!(r#"{{"op":"contains","lhs":"{l}/{m}","rhs":"{l}/*"}}"#),
            1 => format!(r#"{{"op":"overlap","lhs":"child::{l}","rhs":"child::{m}"}}"#),
            2 => format!(r#"{{"op":"sat","query":"{l}//{m}","type":"d"}}"#),
            _ => format!(r#"{{"op":"empty","query":"child::{l} ∩ child::{m}"}}"#),
        };
        lines.push(line);
    }
    let input = lines.join("\n");
    let outcome = e.run_batch_lines(&input);
    assert_eq!(outcome.stats.problems, 120);
    assert_eq!(outcome.stats.errors, 0);
    assert_eq!(outcome.stats.threads, 4);
    for r in &outcome.responses[1..] {
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
    }
    // The label grid repeats, so the canonical cache must collapse some
    // problems even within one cold batch.
    assert!(outcome.stats.unique_problems < 120);
    assert!(outcome.stats.cache_hits > 0);

    // A warm rerun answers everything from the cache.
    let warm = e.run_batch_lines(&input);
    assert_eq!(warm.stats.cache_hits, 120);
}

#[test]
fn traced_requests_round_trip_their_event_stream() {
    let mut e = Engine::new();
    // An untraced request carries no `trace` field.
    let quiet = e.execute_line(r#"{"op":"sat","query":"a/b[c]"}"#);
    assert!(quiet.get("trace").is_none());
    // A traced repeat of the same problem is a cache hit: its trace is
    // just the memo lookup.
    let hit = e.execute_line(r#"{"op":"sat","query":"a/b[c]","trace":true}"#);
    assert_eq!(hit.get("cached").and_then(Value::as_bool), Some(true));
    let trace = hit.get("trace").and_then(Value::as_arr).expect("trace");
    assert_eq!(trace.len(), 1);
    assert_eq!(trace[0].get("kind").and_then(Value::as_str), Some("memo"));
    assert_eq!(trace[0].get("hit").and_then(Value::as_bool), Some(true));
    // A traced cold solve carries the full phase stream.
    let cold = e.execute_line(r#"{"op":"contains","lhs":"a/b","rhs":"a/*","trace":true}"#);
    assert_eq!(cold.get("status").and_then(Value::as_str), Some("holds"));
    let trace = cold.get("trace").and_then(Value::as_arr).expect("trace");
    let kinds: Vec<&str> = trace
        .iter()
        .map(|ev| ev.get("kind").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(kinds[0], "memo");
    assert_eq!(kinds[1], "solve_begin");
    assert_eq!(*kinds.last().unwrap(), "solve_end");
    assert!(kinds.contains(&"phase"), "{kinds:?}");
    assert!(kinds.contains(&"step"), "{kinds:?}");
    let phases: Vec<&str> = trace
        .iter()
        .filter(|ev| ev.get("kind").and_then(Value::as_str) == Some("phase"))
        .map(|ev| ev.get("phase").and_then(Value::as_str).unwrap())
        .collect();
    assert!(phases.contains(&"compile"), "{phases:?}");
    assert!(phases.contains(&"fixpoint"), "{phases:?}");
    // Envelope fields are present on every event, seq strictly increases,
    // and the whole response survives a JSON round-trip.
    let mut prev_seq = -1.0;
    for ev in trace {
        for key in ["solve", "seq", "t_us", "kind"] {
            assert!(ev.get(key).is_some(), "missing {key} in {}", ev.to_json());
        }
        let seq = ev.get("seq").and_then(Value::as_f64).unwrap();
        assert!(seq > prev_seq);
        prev_seq = seq;
    }
    assert_eq!(json::parse(&cold.to_json()).unwrap(), cold);
    // The batch executor honors the flag too, and keeps traced and
    // untraced requests for one problem distinct.
    let out = e.run_batch(&[
        Request::parse(
            r#"{"id":"t","op":"overlap","lhs":"child::a","rhs":"child::*","trace":true}"#,
        )
        .unwrap(),
        Request::parse(r#"{"id":"u","op":"overlap","lhs":"child::a","rhs":"child::*"}"#).unwrap(),
    ]);
    assert!(out.responses[0].get("trace").is_some());
    assert!(out.responses[1].get("trace").is_none());
}

#[test]
fn metrics_request_snapshots_the_registry() {
    let mut e = Engine::new();
    e.execute_line(r#"{"op":"sat","query":"child::metricsprobe"}"#);
    let r = e.execute_line(r#"{"id":"m","op":"metrics"}"#);
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(r.get("op").and_then(Value::as_str), Some("metrics"));
    assert_eq!(r.get("id").and_then(Value::as_str), Some("m"));
    let rows = r.get("metrics").and_then(Value::as_arr).expect("metrics");
    assert!(!rows.is_empty());
    // The solve counter row for this op/backend/status exists…
    let solves = rows
        .iter()
        .find(|row| {
            row.get("name").and_then(Value::as_str) == Some("xsat_solves_total")
                && row.get("labels").is_some_and(|l| {
                    l.get("op").and_then(Value::as_str) == Some("sat")
                        && l.get("backend").and_then(Value::as_str) == Some("symbolic")
                        && l.get("status").and_then(Value::as_str) == Some("holds")
                })
        })
        .unwrap_or_else(|| panic!("no solves row in {}", r.to_json()));
    assert_eq!(solves.get("kind").and_then(Value::as_str), Some("counter"));
    assert!(solves.get("value").and_then(Value::as_f64).unwrap() >= 1.0);
    // …and the latency histogram carries count, sum and cumulative
    // buckets ending at +Inf.
    let hist = rows
        .iter()
        .find(|row| row.get("name").and_then(Value::as_str) == Some("xsat_solve_latency_ms"))
        .expect("latency histogram");
    assert_eq!(hist.get("kind").and_then(Value::as_str), Some("histogram"));
    assert!(hist.get("count").and_then(Value::as_f64).unwrap() >= 1.0);
    assert!(hist.get("sum_ms").and_then(Value::as_f64).is_some());
    let buckets = hist.get("buckets").and_then(Value::as_arr).unwrap();
    assert_eq!(
        buckets.last().unwrap().get("le").and_then(Value::as_str),
        Some("+Inf")
    );
    let mut prev = 0.0;
    for b in buckets {
        let c = b.get("count").and_then(Value::as_f64).unwrap();
        assert!(c >= prev, "cumulative buckets must be non-decreasing");
        prev = c;
    }
    // Memo-cache traffic reaches the registry (hits may be 0 here, but
    // the miss of the probe solve is recorded).
    assert!(rows
        .iter()
        .any(|row| row.get("name").and_then(Value::as_str) == Some("xsat_memo_misses_total")));
    // Service ops stay sequential-only: a metrics request inside a batch
    // is rejected like stats/reset.
    let out = e.run_batch(&[Request::parse(r#"{"op":"metrics"}"#).unwrap()]);
    assert_eq!(
        out.responses[0].get("ok").and_then(Value::as_bool),
        Some(false)
    );
}

#[test]
fn batch_stats_expose_memo_hit_and_miss_counters() {
    let mut e = Engine::with_config(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    let reqs = [
        Request::parse(r#"{"op":"sat","query":"child::memostats"}"#).unwrap(),
        Request::parse(r#"{"op":"sat","query":"child::memostats"}"#).unwrap(),
        Request::parse(r#"{"op":"empty","query":"child::memostats"}"#).unwrap(),
    ];
    let out = e.run_batch(&reqs);
    assert_eq!(out.stats.cache_hits, 1);
    assert_eq!(out.stats.cache_misses, 2);
    let v = out.stats.to_value();
    assert_eq!(v.get("cache_hits").and_then(Value::as_f64), Some(1.0));
    assert_eq!(v.get("cache_misses").and_then(Value::as_f64), Some(2.0));
    let memo = v
        .get("metrics")
        .and_then(|m| m.get("memo"))
        .expect("memo block");
    assert_eq!(memo.get("hits").and_then(Value::as_f64), Some(1.0));
    assert_eq!(memo.get("misses").and_then(Value::as_f64), Some(2.0));
    // The cumulative service counters mirror the split, and the `stats`
    // op reports it on the wire.
    assert_eq!(e.counters().cache_hits, 1);
    assert_eq!(e.counters().cache_misses, 2);
    let r = e.execute_line(r#"{"op":"stats"}"#);
    assert_eq!(r.get("cache_misses").and_then(Value::as_f64), Some(2.0));
}

/// The event-kind sequence of a slow-log entry's trace.
fn entry_kinds(entry: &Value) -> Vec<String> {
    entry
        .get("trace")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|ev| ev.get("kind").and_then(Value::as_str).unwrap().to_owned())
        .collect()
}

#[test]
fn slow_solve_capture_is_deterministic_under_an_iteration_cap() {
    // Threshold 0: every real solve is "slow". The iteration cap pins the
    // fixpoint to one step, so the captured trace has a deterministic
    // event-kind sequence — two fresh engines must capture identical
    // shapes.
    let capture = || {
        let mut e = Engine::with_config(EngineConfig {
            slow_solve_ms: Some(0),
            ..EngineConfig::default()
        });
        let r = e.execute_line(r#"{"op":"sat","query":"a/b[c]","limits":{"max_iterations":1}}"#);
        assert_eq!(r.get("status").and_then(Value::as_str), Some("unknown"));
        assert_eq!(e.slow_log().len(), 1);
        let dump = e.execute_line(r#"{"op":"slowlog"}"#);
        assert_eq!(dump.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(dump.get("op").and_then(Value::as_str), Some("slowlog"));
        assert_eq!(dump.get("threshold_ms").and_then(Value::as_f64), Some(0.0));
        assert_eq!(dump.get("count").and_then(Value::as_f64), Some(1.0));
        let entries = dump.get("entries").and_then(Value::as_arr).unwrap();
        let entry = &entries[0];
        assert_eq!(entry.get("op").and_then(Value::as_str), Some("sat"));
        assert_eq!(
            entry.get("backend").and_then(Value::as_str),
            Some("symbolic")
        );
        assert_eq!(entry.get("status").and_then(Value::as_str), Some("unknown"));
        assert_eq!(entry.get("cached").and_then(Value::as_bool), Some(false));
        let kinds = entry_kinds(entry);
        assert!(kinds.contains(&"limit".to_owned()), "{kinds:?}");
        (e, kinds)
    };
    let (mut e1, kinds1) = capture();
    let (_e2, kinds2) = capture();
    assert_eq!(kinds1, kinds2, "slow-solve traces must be deterministic");
    // Cache hits are never logged as slow, and `reset` drops the ring.
    let r = e1.execute_line(r#"{"op":"sat","query":"a/b[c]"}"#);
    assert_eq!(r.get("status").and_then(Value::as_str), Some("holds"));
    let len_after_solve = e1.slow_log().len();
    e1.execute_line(r#"{"op":"sat","query":"a/b[c]"}"#);
    assert_eq!(e1.slow_log().len(), len_after_solve);
    e1.execute_line(r#"{"op":"reset"}"#);
    assert!(e1.slow_log().is_empty());
    // Without a threshold the dump reports a null threshold and no
    // entries.
    let mut quiet = Engine::new();
    quiet.execute_line(r#"{"op":"sat","query":"a/b[c]"}"#);
    let dump = quiet.execute_line(r#"{"op":"slowlog"}"#);
    assert_eq!(dump.get("threshold_ms"), Some(&Value::Null));
    assert_eq!(dump.get("count").and_then(Value::as_f64), Some(0.0));
}

#[test]
fn trace_file_sink_streams_jsonl_for_every_solve() {
    // The engine-level `trace_sink` (the `--trace-file` plumbing) sees
    // every solve's events even when no request asks for a trace.
    let sink = std::sync::Arc::new(engine::MemorySink::new());
    let mut e = Engine::with_config(EngineConfig {
        threads: 2,
        trace_sink: Some(sink.clone()),
        ..EngineConfig::default()
    });
    e.execute_line(r#"{"op":"sat","query":"child::tracefile"}"#);
    let sequential = sink.drain();
    assert!(sequential.iter().any(|ev| ev.kind == "solve_begin"));
    assert!(sequential.iter().any(|ev| ev.kind == "solve_end"));
    let out = e.run_batch(&[
        Request::parse(r#"{"op":"overlap","lhs":"child::t1","rhs":"child::*"}"#).unwrap(),
        Request::parse(r#"{"op":"overlap","lhs":"child::t2","rhs":"child::*"}"#).unwrap(),
    ]);
    assert_eq!(out.stats.cache_misses, 2);
    let batch = sink.drain();
    // Two distinct solves, distinguishable by their solve ids.
    let ids: std::collections::HashSet<u64> = batch
        .iter()
        .filter(|ev| ev.kind == "solve_begin")
        .map(|ev| ev.solve)
        .collect();
    assert_eq!(ids.len(), 2);
    // Each solve's JSONL line is valid JSON with the envelope fields.
    for ev in &batch {
        let line = ev.to_jsonl();
        let v = json::parse(&line).unwrap();
        assert!(v.get("kind").is_some(), "{line}");
        assert!(v.get("t_us").is_some(), "{line}");
    }
}
