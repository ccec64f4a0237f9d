//! The two XHTML rows of Table 2 — slow (seconds in release, much more in
//! debug), so `#[ignore]`d by default. Run with
//! `cargo test --release --test xhtml_slow -- --ignored`.

use xsat::analyzer::{paper, Analyzer};
use xsat::solver::Stats;
use xsat::treetypes::xhtml_1_0_strict;
use xsat::xpath::eval_on_tree;

/// Bound on the BDD store's high-water mark for the XHTML rows. The
/// fixpoint alone stays near the 2M-node collection floor; a witness
/// reconstruction that conjoins every child literal into one relation
/// before searching the snapshots peaks at 4–10M.
const PEAK_NODES: usize = 2_500_000;

fn assert_peak_nodes(stats: &Stats) {
    let peak = stats
        .telemetry
        .bdd_counters()
        .expect("symbolic telemetry")
        .peak_nodes;
    assert!(peak <= PEAK_NODES, "peak of {peak} live BDD nodes");
}

/// Table 2 row 5: e8 = `descendant::a[ancestor::a]` is satisfiable under
/// XHTML 1.0 Strict — the DTD does not prohibit nested anchors.
#[test]
#[ignore = "XHTML-scale instance: about 7 s in release mode (2-vCPU Xeon VM)"]
fn row5_e8_satisfiable_under_xhtml() {
    let dtd = xhtml_1_0_strict();
    let e8 = paper::query(8);
    let mut az = Analyzer::new();
    let v = az.is_satisfiable(&e8, Some(&dtd)).unwrap();
    assert!(v.holds, "paper: satisfiable");
    assert_peak_nodes(&v.stats);
    let m = v.counter_example.expect("witness");
    let tree = m.tree();
    assert!(
        dtd.validates(&tree.clear_marks()),
        "witness must be XHTML-valid: {}",
        m.xml()
    );
    let picked = eval_on_tree(&e8, &tree);
    assert!(!picked.is_empty(), "e8 must select a node in {}", m.xml());
}

/// Table 2 row 6: coverage `e9 ⊆ e10 ∪ e11 ∪ e12` under XHTML. Over
/// element-only trees (no XPath document node above `html`) the coverage
/// does not hold — `/descendant::*` selects `head` while
/// `html/(head|body)` from the html root selects nothing. The interpreter
/// confirms the counter-example; see EXPERIMENTS.md.
#[test]
#[ignore = "XHTML-scale instance: about 1 s in release mode (2-vCPU Xeon VM)"]
fn row6_coverage_counter_example_is_real() {
    let dtd = xhtml_1_0_strict();
    let e9 = paper::query(9);
    let e10 = paper::query(10);
    let e11 = paper::query(11);
    let e12 = paper::query(12);
    let mut az = Analyzer::new();
    let v = az
        .covers(
            &e9,
            Some(&dtd),
            &[(&e10, Some(&dtd)), (&e11, Some(&dtd)), (&e12, Some(&dtd))],
        )
        .unwrap();
    assert!(!v.holds);
    assert_peak_nodes(&v.stats);
    let m = v.counter_example.expect("counter-example");
    let tree = m.tree();
    assert!(dtd.validates(&tree.clear_marks()), "{}", m.xml());
    let s9 = eval_on_tree(&e9, &tree);
    let mut covered = Vec::new();
    for e in [&e10, &e11, &e12] {
        covered.extend(eval_on_tree(e, &tree));
    }
    assert!(
        s9.iter().any(|f| !covered.contains(f)),
        "interpreter must confirm the gap on {}",
        m.xml()
    );
}
