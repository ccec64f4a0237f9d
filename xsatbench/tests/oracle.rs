//! The verdict checker rejects what it must: a flipped Table 2 verdict, a
//! witness the XPath interpreter refutes, a witness its DTD rejects, and a
//! protocol response that disagrees with the reference. Each one makes the
//! run's result `"correct": false`.

use ftree::Tree;
use solver::Model;
use xsatbench::oracle::{classify, Check};
use xsatbench::report::Report;
use xsatbench::table2;

fn model(xml: &str) -> Option<Model> {
    Some(Model::from_trees(vec![
        Tree::parse_xml(xml).expect("test XML parses")
    ]))
}

/// What the workload does with a row's check: a failure becomes an error
/// on the report.
fn run_check(row: usize, verdicts: &[(bool, Option<Model>)]) -> Report {
    let rows = table2::setup();
    let mut rep = Report::default();
    if let Err(e) = table2::check_row(row, &rows[row], verdicts) {
        rep.error(e);
    }
    rep
}

#[test]
fn genuine_verdicts_pass() {
    let rows = table2::setup();
    for i in [1, 3] {
        let solved = table2::solve_row(&rows[i]).expect("row solves");
        let rep = run_check(i, &solved.verdicts);
        assert!(rep.correct(), "row {}: {:?}", i + 1, rep.errors);
        assert!(rep.json().contains("\"correct\": true"));
    }
}

#[test]
fn a_flipped_verdict_fails_the_run() {
    // Row 2 holds in both directions; claim the second fails.
    let rep = run_check(1, &[(true, None), (false, None)]);
    assert!(!rep.correct());
    assert!(rep.json().contains("\"correct\": false"), "{}", rep.json());
    // Row 6 is not covered; claiming coverage is just as wrong.
    assert!(!run_check(5, &[(true, None)]).correct());
}

#[test]
fn a_corrupted_witness_fails_the_run() {
    let rows = table2::setup();
    let mut solved = table2::solve_row(&rows[3]).expect("row 4 solves");
    assert!(run_check(3, &solved.verdicts).correct());
    // A SMIL document on which e7 selects nothing.
    solved.verdicts[0].1 = model("<smil s=\"1\"><head/><body/></smil>");
    let rep = run_check(3, &solved.verdicts);
    assert!(!rep.correct());
    assert!(rep.errors[0].contains("refutes"), "{:?}", rep.errors);
    // e7 selects a node here, but `bogus` is not a SMIL element.
    solved.verdicts[0].1 = model(
        "<smil s=\"1\"><head><switch><seq><video/><audio/></seq></switch><bogus/></head></smil>",
    );
    let rep = run_check(3, &solved.verdicts);
    assert!(!rep.correct());
    assert!(rep.errors[0].contains("not valid"), "{:?}", rep.errors);
    // A satisfiable verdict without any witness.
    solved.verdicts[0].1 = None;
    assert!(!run_check(3, &solved.verdicts).correct());
}

#[test]
fn a_response_against_the_reference_is_wrong() {
    let resp = engine::json::parse(r#"{"ok":true,"op":"contains","status":"holds","holds":true}"#)
        .expect("JSON parses");
    assert_eq!(classify(&resp, true), Check::Right);
    assert!(matches!(classify(&resp, false), Check::Wrong(_)));
    let shed =
        engine::json::parse(r#"{"ok":true,"status":"unknown","holds":null,"resource":"shed"}"#)
            .expect("JSON parses");
    assert!(matches!(classify(&shed, true), Check::Failed(_)));
}
