//! The generators are seeded: one seed reproduces byte-identical request
//! streams, another seed changes them, and every generated problem is one
//! the `explicit` reference backend can decide.

use std::collections::BTreeSet;

use xsatbench::gen::{edit_session, service_stream};
use xsatbench::{editlint, service};

#[test]
fn one_seed_reproduces_the_streams_and_another_changes_them() {
    let a = service_stream(11, 3000);
    let b = service_stream(11, 3000);
    let c = service_stream(12, 3000);
    assert_eq!(a, b);
    assert_ne!(a.requests, c.requests);
    let bytes = |s: &xsatbench::gen::ServiceStream| {
        s.requests
            .iter()
            .map(|r| r.line.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(bytes(&a), bytes(&b));
    assert_ne!(bytes(&a), bytes(&c));

    let e = edit_session(11, 500);
    assert_eq!(e, edit_session(11, 500));
    assert_ne!(e.cycles, edit_session(12, 500).cycles);
}

#[test]
fn every_service_shape_has_an_explicit_reference() {
    for seed in 1..=12 {
        let s = service_stream(seed, 4000);
        let refs = service::reference(&s).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(refs.len(), s.shapes.len());
    }
}

#[test]
fn every_edit_lint_state_has_an_explicit_reference() {
    for seed in 1..=2 {
        let e = edit_session(seed, 400);
        let states: BTreeSet<_> = e.cycles.iter().map(|c| c.state).collect();
        let refs =
            editlint::reference(&e, &states).unwrap_or_else(|err| panic!("seed {seed}: {err}"));
        assert_eq!(refs.len(), states.len());
    }
}
