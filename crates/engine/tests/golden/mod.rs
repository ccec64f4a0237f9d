//! The golden JSONL exchange, shared by the engine's golden tests (the
//! batch executor and the stdin serve loop) and the TCP tier's replay in
//! `crates/serve/tests/tcp_golden.rs`: every front end must answer these
//! requests with these lines.

use engine::Value;

/// The golden exchange: one `(request, expected normalized response)` pair
/// per line, exercising every op of the protocol.
pub const GOLDEN: &[(&str, &str)] = &[
    (
        r#"{"op":"dtd","name":"d1","source":"<!ELEMENT r (x, y)> <!ELEMENT x EMPTY> <!ELEMENT y EMPTY>"}"#,
        r#"{"ok":true,"registered":"d1","kind":"dtd"}"#,
    ),
    (
        r#"{"op":"query","name":"q1","xpath":"child::*"}"#,
        r#"{"ok":true,"registered":"q1","kind":"query"}"#,
    ),
    (
        r#"{"op":"query","name":"q2","xpath":"child::x | child::y"}"#,
        r#"{"ok":true,"registered":"q2","kind":"query"}"#,
    ),
    // Typed containment holds; untyped does not (and carries a witness).
    (
        r#"{"id":1,"op":"contains","lhs":"q1","rhs":"q2","type":"d1"}"#,
        r#"{"id":1,"ok":true,"op":"contains","backend":"symbolic","status":"holds","holds":true,"counter_example":null,"cached":false}"#,
    ),
    (
        r#"{"id":2,"op":"contains","lhs":"q1","rhs":"q2"}"#,
        r#"{"id":2,"ok":true,"op":"contains","backend":"symbolic","status":"fails","holds":false,"counter_example":"<_other s=\"1\"><_other/></_other>","counterexample":{"xml":"<_other s=\"1\"><_other/></_other>","pretty":"<_other s=\"1\">\n  <_other/>\n</_other>","size":2,"verified":true},"cached":false}"#,
    ),
    // The Fig 18 counter-example-carrying containment failure.
    (
        r#"{"id":3,"op":"contains","lhs":"child::c/preceding-sibling::a[child::b]","rhs":"child::c[child::b]"}"#,
        r#"{"id":3,"ok":true,"op":"contains","backend":"symbolic","status":"fails","holds":false,"counter_example":"<_other s=\"1\"><a><b/></a><c/></_other>","counterexample":{"xml":"<_other s=\"1\"><a><b/></a><c/></_other>","pretty":"<_other s=\"1\">\n  <a>\n    <b/>\n  </a>\n  <c/>\n</_other>","size":4,"verified":true},"cached":false}"#,
    ),
    // Cache-hit repeat of request id 1 (same problem, same names).
    (
        r#"{"id":4,"op":"contains","lhs":"q1","rhs":"q2","type":"d1"}"#,
        r#"{"id":4,"ok":true,"op":"contains","backend":"symbolic","status":"holds","holds":true,"counter_example":null,"cached":true}"#,
    ),
    // Cache also hits when the same problem is posed inline, unregistered.
    (
        r#"{"id":5,"op":"contains","lhs":"child::*","rhs":"child::x | child::y","type":"<!ELEMENT r (x, y)> <!ELEMENT x EMPTY> <!ELEMENT y EMPTY>"}"#,
        r#"{"id":5,"ok":true,"op":"contains","backend":"symbolic","status":"holds","holds":true,"counter_example":null,"cached":true}"#,
    ),
    (
        r#"{"id":6,"op":"overlap","lhs":"child::*[child::b]","rhs":"child::a"}"#,
        r#"{"id":6,"ok":true,"op":"overlap","backend":"symbolic","status":"holds","holds":true,"counter_example":"<_other s=\"1\"><a><b/></a></_other>","cached":false}"#,
    ),
    (
        r#"{"id":7,"op":"covers","query":"child::*","by":["child::a","child::*[not(self::a)]"]}"#,
        r#"{"id":7,"ok":true,"op":"covers","backend":"symbolic","status":"holds","holds":true,"counter_example":null,"cached":false}"#,
    ),
    (
        r#"{"id":8,"op":"covers","query":"child::*","by":["child::a"]}"#,
        r#"{"id":8,"ok":true,"op":"covers","backend":"symbolic","status":"fails","holds":false,"counter_example":"<_other s=\"1\"><_other/></_other>","counterexample":{"xml":"<_other s=\"1\"><_other/></_other>","pretty":"<_other s=\"1\">\n  <_other/>\n</_other>","size":2,"verified":true},"cached":false}"#,
    ),
    (
        r#"{"id":9,"op":"equiv","lhs":"a/b[c]","rhs":"a/b[c]"}"#,
        r#"{"id":9,"ok":true,"op":"equiv","backend":"symbolic","status":"holds","holds":true,"counter_example":null,"cached":false}"#,
    ),
    (
        r#"{"id":10,"op":"empty","query":"child::a ∩ child::b"}"#,
        r#"{"id":10,"ok":true,"op":"empty","backend":"symbolic","status":"holds","holds":true,"counter_example":null,"cached":false}"#,
    ),
    (
        r#"{"id":11,"op":"sat","query":"q1","type":"d1"}"#,
        r#"{"id":11,"ok":true,"op":"sat","backend":"symbolic","status":"holds","holds":true,"counter_example":"<r s=\"1\"><x/><y/></r>","cached":false}"#,
    ),
    (
        r#"{"id":12,"op":"typecheck","query":"child::x","input":"<!ELEMENT r (x)> <!ELEMENT x (y)> <!ELEMENT y EMPTY>","output":"<!ELEMENT x (y)> <!ELEMENT y EMPTY>"}"#,
        r#"{"id":12,"ok":true,"op":"typecheck","backend":"symbolic","status":"holds","holds":true,"counter_example":null,"cached":false}"#,
    ),
    (
        r#"{"id":13,"op":"typecheck","query":"child::x","input":"<!ELEMENT r (x)> <!ELEMENT x (y)> <!ELEMENT y EMPTY>","output":"<!ELEMENT x EMPTY>"}"#,
        r#"{"id":13,"ok":true,"op":"typecheck","backend":"symbolic","status":"fails","holds":false,"counter_example":"<r s=\"1\"><x><y/></x></r>","counterexample":{"xml":"<r s=\"1\"><x><y/></x></r>","pretty":"<r s=\"1\">\n  <x>\n    <y/>\n  </x>\n</r>","size":3,"verified":true},"cached":false}"#,
    ),
    // Errors: unresolvable reference and unknown op.
    (
        r#"{"id":14,"op":"contains","lhs":"q1","rhs":"q2","type":"no-such-dtd"}"#,
        r#"{"id":14,"ok":false,"status":"error","error":"`no-such-dtd` is not a registered type"}"#,
    ),
    (
        r#"{"op":"frobnicate"}"#,
        r#"{"ok":false,"status":"error","error":"unknown op `frobnicate`"}"#,
    ),
    // Backend selection: the explicit reference backend answers and is
    // cached under its own key…
    (
        r#"{"id":15,"op":"sat","query":"child::a","backend":"explicit"}"#,
        r#"{"id":15,"ok":true,"op":"sat","backend":"explicit","status":"holds","holds":true,"counter_example":"<a s=\"1\"><a/></a>","cached":false}"#,
    ),
    // …so the same problem on the default symbolic backend re-solves
    // (different key, different minimal witness) instead of hitting the
    // explicit verdict…
    (
        r#"{"id":16,"op":"sat","query":"child::a"}"#,
        r#"{"id":16,"ok":true,"op":"sat","backend":"symbolic","status":"holds","holds":true,"counter_example":"<_other s=\"1\"><a/></_other>","cached":false}"#,
    ),
    // …while a repeat on the explicit backend is a cache hit.
    (
        r#"{"id":17,"op":"sat","query":"child::a","backend":"explicit"}"#,
        r#"{"id":17,"ok":true,"op":"sat","backend":"explicit","status":"holds","holds":true,"counter_example":"<a s=\"1\"><a/></a>","cached":true}"#,
    ),
    // The removed `dual` and `portfolio` modes are unknown backends,
    // refused at parse time like any other name (id 21 below).
    (
        r#"{"id":18,"op":"overlap","lhs":"child::a","rhs":"child::*","backend":"dual"}"#,
        r#"{"id":18,"ok":false,"status":"error","error":"unknown backend `dual` (expected symbolic, explicit or witnessed)"}"#,
    ),
    // The witnessed backend, echoed per verdict.
    (
        r#"{"id":19,"op":"empty","query":"child::a ∩ child::b","backend":"witnessed"}"#,
        r#"{"id":19,"ok":true,"op":"empty","backend":"witnessed","status":"holds","holds":true,"counter_example":null,"cached":false}"#,
    ),
    // Unknown backend: rejected at parse time, still echoing the id.
    (
        r#"{"id":20,"op":"sat","query":"child::a","backend":"quantum"}"#,
        r#"{"id":20,"ok":false,"status":"error","error":"unknown backend `quantum` (expected symbolic, explicit or witnessed)"}"#,
    ),
    (
        r#"{"id":21,"op":"empty","query":"child::a ∩ child::b","backend":"portfolio"}"#,
        r#"{"id":21,"ok":false,"status":"error","error":"unknown backend `portfolio` (expected symbolic, explicit or witnessed)"}"#,
    ),
    // Protocol v2 limits round-trip: a generous `limits` object changes
    // nothing about the verdict.
    (
        r#"{"id":22,"op":"sat","query":"child::roundtrip","limits":{"timeout_ms":60000,"max_bdd_nodes":1000000,"max_iterations":1000,"max_lean":16}}"#,
        r#"{"id":22,"ok":true,"op":"sat","backend":"symbolic","status":"holds","holds":true,"counter_example":"<_other s=\"1\"><roundtrip/></_other>","cached":false}"#,
    ),
    // A starved iteration cap yields the third verdict: status `unknown`,
    // `holds` null, the exhausted resource named with spent vs. limit.
    (
        r#"{"id":23,"op":"sat","query":"u/v[w]","limits":{"max_iterations":1}}"#,
        r#"{"id":23,"ok":true,"op":"sat","backend":"symbolic","status":"unknown","holds":null,"resource":"iterations","spent":1,"limit":1,"reason":"resource exhausted: 1 fixpoint iterations, the cap is 1","cached":false}"#,
    ),
    // An op alias folds to its canonical echo through the one table.
    (
        r#"{"id":24,"op":"containment","lhs":"q1","rhs":"q2","type":"d1"}"#,
        r#"{"id":24,"ok":true,"op":"contains","backend":"symbolic","status":"holds","holds":true,"counter_example":null,"cached":true}"#,
    ),
    // Cache-hit repeat of the Fig 18 failure (id 3): the memo cache stores
    // whole verdicts, so the verified counterexample object survives the
    // hit byte-for-byte.
    (
        r#"{"id":26,"op":"contains","lhs":"child::c/preceding-sibling::a[child::b]","rhs":"child::c[child::b]"}"#,
        r#"{"id":26,"ok":true,"op":"contains","backend":"symbolic","status":"fails","holds":false,"counter_example":"<_other s=\"1\"><a><b/></a><c/></_other>","counterexample":{"xml":"<_other s=\"1\"><a><b/></a><c/></_other>","pretty":"<_other s=\"1\">\n  <a>\n    <b/>\n  </a>\n  <c/>\n</_other>","size":4,"verified":true},"cached":true}"#,
    ),
];

/// Drops the volatile measurement fields from a response.
pub fn normalize(v: &Value) -> Value {
    match v {
        Value::Obj(fields) => Value::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "wall_ms" && k != "stats")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}
