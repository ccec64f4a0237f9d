//! Backend matrix: the three solver backends on the paper's Fig 18
//! containment family, from a trivial member up to the figure's own
//! `e1 ⊆ e2` pair.
//!
//! The enumerating backends are exponential in the lean's diamond count,
//! so members beyond `XSAT_MATRIX_MAX_DIAMONDS` (default 12) are recorded
//! as skipped for those backends rather than stalling the bench — the
//! point of the matrix is the crossover: where the symbolic backend pulls
//! away from the references. Results land in `BENCH_backends.json` at the
//! workspace root so changes to the kernel can diff them.

use std::fmt::Write as _;
use std::time::Instant;

use analyzer::{Analyzer, BackendChoice};
use criterion::{criterion_group, criterion_main, Criterion};
use solver::Prepared;
use std::hint::black_box;

/// The Fig 18 family: containments of growing lean size, ending with the
/// paper's own pair (`e1 ⊆ e2` does not hold; the witness is the figure's
/// counter-example tree).
const FAMILY: &[(&str, &str, &str, bool)] = &[
    ("self", "child::a", "child::a", true),
    ("predicate", "child::a", "child::a[child::b]", false),
    ("sibling", "child::c/preceding-sibling::a", "child::a", true),
    (
        "fig18",
        "child::c/preceding-sibling::a[child::b]",
        "child::c[child::b]",
        false,
    ),
];

fn max_diamonds() -> usize {
    std::env::var("XSAT_MATRIX_MAX_DIAMONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

fn samples() -> usize {
    std::env::var("CRITERION_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Builds the containment goal `⟦lhs⟧ ∧ ¬⟦rhs⟧` in a fresh analyzer and
/// returns the analyzer with the goal formula.
fn goal(lhs: &str, rhs: &str, backend: BackendChoice) -> (Analyzer, mulogic::Formula) {
    let mut az = Analyzer::new();
    az.set_backend(backend);
    let e1 = xpath::parse(lhs).expect("family query parses");
    let e2 = xpath::parse(rhs).expect("family query parses");
    let f1 = az.query_formula(&e1, None);
    let f2 = az.query_formula(&e2, None);
    let lg = az.logic_mut();
    let nf2 = lg.not(f2);
    let g = lg.and(f1, nf2);
    (az, g)
}

/// The lean diamond count of one family member (decides enumeration
/// feasibility for the explicit and witnessed backends).
fn diamonds(lhs: &str, rhs: &str) -> usize {
    let (mut az, g) = goal(lhs, rhs, BackendChoice::Symbolic);
    let lg = az.logic_mut();
    let prep = Prepared::new(lg, g);
    prep.lean.diam_entries().count()
}

/// One record of the matrix: min/mean solve time over `samples` runs,
/// plus — for symbolic runs — the BDD kernel telemetry (live/created
/// nodes and operation-cache hit rate).
struct Cell {
    backend: BackendChoice,
    min_ms: f64,
    mean_ms: f64,
    iterations: usize,
    bdd: Option<(usize, usize, f64)>,
}

fn measure(lhs: &str, rhs: &str, backend: BackendChoice, expect_holds: bool, n: usize) -> Cell {
    let mut times = Vec::with_capacity(n);
    let mut iterations = 0;
    let mut bdd = None;
    for _ in 0..n {
        let (mut az, g) = goal(lhs, rhs, backend);
        let t = Instant::now();
        let solved = az
            .solve_formula(black_box(g))
            .expect("unbounded solve decides");
        times.push(t.elapsed().as_secs_f64() * 1000.0);
        // Containment holds iff the goal is unsatisfiable.
        assert_eq!(!solved.outcome.is_satisfiable(), expect_holds);
        iterations = solved.stats.iterations;
        let telemetry = &solved.stats.telemetry;
        if let (Some(nodes), Some(counters)) = (telemetry.bdd_nodes(), telemetry.bdd_counters()) {
            bdd = Some((nodes, counters.created_nodes, counters.cache_hit_rate()));
        }
    }
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    Cell {
        backend,
        min_ms: min,
        mean_ms: mean,
        iterations,
        bdd,
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn bench_backend_matrix(_c: &mut Criterion) {
    let cap = max_diamonds();
    let n = samples();
    let mut rows = String::new();
    for &(name, lhs, rhs, holds) in FAMILY {
        let d = diamonds(lhs, rhs);
        let mut cells = String::new();
        for backend in BackendChoice::ALL {
            if backend != BackendChoice::Symbolic && d > cap {
                println!("backend-matrix {name}/{backend}: skipped ({d} diamonds > cap {cap})");
                let _ = write!(
                    cells,
                    r#"{}{{"backend":"{backend}","skipped":true,"reason":"{d} diamonds > cap {cap}"}}"#,
                    if cells.is_empty() { "" } else { "," },
                );
                continue;
            }
            // One hand-rolled timing loop per cell: it both prints the
            // console row and feeds the JSON record, so the exponential
            // cells are not paid twice under a second harness.
            let cell = measure(lhs, rhs, backend, holds, n);
            println!(
                "bench backend-matrix/{name}/{backend}: min {:.3} ms, mean {:.3} ms ({} iterations, {n} samples)",
                cell.min_ms, cell.mean_ms, cell.iterations
            );
            let bdd_fields = match cell.bdd {
                Some((nodes, created, hit_rate)) => format!(
                    r#","bdd_nodes":{nodes},"created_nodes":{created},"cache_hit_rate":{}"#,
                    round3(hit_rate)
                ),
                None => String::new(),
            };
            let _ = write!(
                cells,
                r#"{}{{"backend":"{}","min_ms":{},"mean_ms":{},"iterations":{}{bdd_fields}}}"#,
                if cells.is_empty() { "" } else { "," },
                cell.backend,
                round3(cell.min_ms),
                round3(cell.mean_ms),
                cell.iterations,
            );
        }
        let _ = write!(
            rows,
            r#"{}{{"name":"{name}","lhs":"{lhs}","rhs":"{rhs}","holds":{holds},"diamonds":{d},"backends":[{cells}]}}"#,
            if rows.is_empty() { "" } else { "," },
        );
    }
    let json = format!(
        r#"{{"bench":"backend_matrix","family":"fig18-containment","samples":{n},"max_diamonds":{cap},"members":[{rows}]}}"#
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_backends.json");
    std::fs::write(path, json + "\n").expect("write BENCH_backends.json");
    println!("backend-matrix: wrote {path}");
}

criterion_group!(benches, bench_backend_matrix);
criterion_main!(benches);
