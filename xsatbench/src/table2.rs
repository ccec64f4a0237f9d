//! Workload `table2`: the six rows of the paper's Table 2 (§8, Fig 21
//! queries e1–e12), each problem solved by `Analyzer::solve` on a fresh
//! `Analyzer` and its witness rendered — what a one-shot `xsat check`
//! pays. One thread, closed loop: at least three whole passes over the
//! table, each followed by two more passes over the cheap rows 1–4, then
//! more passes over rows 1–4 while time remains. A row's time is the sum
//! of its directions, as in the paper. The inputs are fixed; the seed
//! is recorded but changes nothing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use analyzer::paper::{self, Table2Problem};
use analyzer::{Analyzer, Limits, Problem};
use solver::Model;
use treetypes::Dtd;

use crate::decompose::{decompose, Layers};
use crate::oracle;
use crate::report::{LayerAgg, Report};
use crate::spans::Spans;
use crate::{stats, Args};

/// Whole passes over the table, so that every row's median is taken over
/// at least three samples. Three passes take about a minute on a 2-vCPU
/// VM, more than a run's time budget, so a run usually stops there.
pub const MIN_PASSES: usize = 3;

/// Passes over the cheap rows 1–4 in each whole pass. A row's time varied
/// by ±20% from one fresh analyzer to the next, even within one process,
/// so the cheap rows, which set `latency_ms_p50`, get three samples per
/// pass.
const CHEAP_PER_PASS: usize = 3;

/// Repetitions of each row in the traced run.
const TRACE_REPS: [usize; 6] = [5, 5, 5, 3, 2, 3];

/// The cheap rows (1–4), repeated while the time allows.
const CHEAP_ROWS: usize = 4;

/// One Table 2 row, ready to solve.
#[derive(Debug, Clone)]
pub struct Row {
    /// The paper's description.
    pub description: &'static str,
    /// The paper's milliseconds.
    pub paper_ms: u64,
    /// The problems solved for this row (one or two directions).
    pub problems: Vec<Problem>,
    /// The problems as protocol lines (for the request-parse layer).
    pub lines: Vec<String>,
}

fn esc(e: &xpath::Expr) -> String {
    e.to_string().replace('\\', "\\\\").replace('"', "\\\"")
}

/// Builds the six rows: parses the DTDs and queries.
pub fn setup() -> Vec<Row> {
    paper::table2()
        .into_iter()
        .map(|r| {
            let dtd = r.type_used.dtd().map(Arc::new);
            let ty = match r.type_used {
                paper::TypeUsed::None => String::new(),
                paper::TypeUsed::Smil => ",\"type\":\"smil\"".to_owned(),
                paper::TypeUsed::Xhtml => ",\"type\":\"xhtml\"".to_owned(),
            };
            let (problems, lines) = match r.problem {
                Table2Problem::ContainmentAsymmetric { lhs, rhs }
                | Table2Problem::ContainmentBoth { lhs, rhs } => {
                    let (l, r) = (paper::query(lhs), paper::query(rhs));
                    let line = |a: &xpath::Expr, b: &xpath::Expr| {
                        format!(
                            "{{\"op\":\"contains\",\"lhs\":\"{}\",\"rhs\":\"{}\"{ty}}}",
                            esc(a),
                            esc(b)
                        )
                    };
                    (
                        vec![
                            Problem::contains(l.clone(), dtd.clone(), r.clone(), dtd.clone()),
                            Problem::contains(r.clone(), dtd.clone(), l.clone(), dtd.clone()),
                        ],
                        vec![line(&l, &r), line(&r, &l)],
                    )
                }
                Table2Problem::Satisfiable { query } => {
                    let q = paper::query(query);
                    let line = format!("{{\"op\":\"sat\",\"query\":\"{}\"{ty}}}", esc(&q));
                    (vec![Problem::sat(q, dtd.clone())], vec![line])
                }
                Table2Problem::Coverage { covered, covering } => {
                    let q = paper::query(covered);
                    let by: Vec<xpath::Expr> = covering.iter().map(|&i| paper::query(i)).collect();
                    let line = format!(
                        "{{\"op\":\"covers\",\"query\":\"{}\",\"by\":[{}]{ty}}}",
                        esc(&q),
                        by.iter()
                            .map(|e| format!("\"{}\"", esc(e)))
                            .collect::<Vec<_>>()
                            .join(",")
                    );
                    let p = Problem::Covers {
                        query: Arc::new(q),
                        ty: dtd.clone(),
                        by: by.into_iter().map(|e| (Arc::new(e), dtd.clone())).collect(),
                    };
                    (vec![p], vec![line])
                }
            };
            Row {
                description: r.description,
                paper_ms: r.paper_ms,
                problems,
                lines,
            }
        })
        .collect()
}

/// The median set-up time in seconds (see [`crate::repeat_setup`]).
pub fn setup_s() -> f64 {
    crate::repeat_setup(setup).1
}

/// The result of solving one row once.
#[derive(Debug)]
pub struct Solved {
    /// Wall time of each direction: a fresh analyzer, `Analyzer::solve`
    /// and rendering the witness.
    pub walls: Vec<Duration>,
    /// Verdict and witness of each direction.
    pub verdicts: Vec<(bool, Option<Model>)>,
}

/// Solves one row untraced. Fails on a solver error.
pub fn solve_row(row: &Row) -> Result<Solved, String> {
    let mut out = Solved {
        walls: Vec::new(),
        verdicts: Vec::new(),
    };
    for p in &row.problems {
        let t = Instant::now();
        let mut az = Analyzer::new();
        let a = az.solve(p, &Limits::default()).map_err(|e| e.to_string())?;
        std::hint::black_box(a.counter_example.as_ref().map(Model::xml));
        out.walls.push(t.elapsed());
        out.verdicts.push((a.holds, a.counter_example));
    }
    Ok(out)
}

/// Checks a row's verdicts against the pins and replays its witnesses.
pub fn check_row(i: usize, row: &Row, verdicts: &[(bool, Option<Model>)]) -> Result<(), String> {
    let results: Vec<_> = row
        .problems
        .iter()
        .zip(verdicts)
        .map(|(p, (h, w))| (p, *h, w.as_ref()))
        .collect();
    oracle::check_table2_row(i, &results)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (rows, setup_s) = crate::repeat_setup(setup);
    if args.trace {
        run_traced(args, &rows, &mut rep);
        return rep;
    }
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    let mut solve_row_once = |i: usize, rep: &mut Report| {
        rep.attempted += rows[i].problems.len() as u64;
        match solve_row(&rows[i]) {
            Ok(s) => {
                samples[i].push(s.walls.iter().map(|d| ms(*d)).sum());
                if let Err(e) = check_row(i, &rows[i], &s.verdicts) {
                    rep.error(e);
                }
            }
            Err(e) => {
                rep.failed += rows[i].problems.len() as u64;
                rep.lines.push(format!("row {} failed: {e}", i + 1));
            }
        }
    };
    let mut passes = 0;
    loop {
        let t = Instant::now();
        let cheap = (1..CHEAP_PER_PASS).flat_map(|_| 0..CHEAP_ROWS);
        for i in (0..rows.len()).chain(cheap) {
            solve_row_once(i, &mut rep);
        }
        passes += 1;
        if passes >= MIN_PASSES && start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let mut cheap_pass = Duration::ZERO;
    while start.elapsed() + cheap_pass <= budget {
        let t = Instant::now();
        for i in 0..CHEAP_ROWS {
            solve_row_once(i, &mut rep);
        }
        cheap_pass = t.elapsed();
    }
    let medians: Vec<f64> = samples.iter().map(|s| stats::median(s)).collect();
    rep.lines.push(format!(
        "# table2: {passes} full passes, each with rows 1-{CHEAP_ROWS} {CHEAP_PER_PASS} times, \
         then rows 1-{CHEAP_ROWS} repeated while time remained; \
         tail = slowest row (six row medians are too few for a percentile)"
    ));
    for (i, (row, m)) in rows.iter().zip(&medians).enumerate() {
        rep.lines.push(format!(
            "# row {}: {:<24} ours {:>10.1} ms  paper {:>5} ms  samples {}",
            i + 1,
            row.description,
            m,
            row.paper_ms,
            samples[i].len()
        ));
        rep.note(&format!("table2.row{}_ms", i + 1), *m, "ms");
    }
    let ratios: Vec<f64> = rows
        .iter()
        .zip(&medians)
        .map(|(r, m)| m / r.paper_ms as f64)
        .collect();
    rep.note("table2.geomean_vs_paper", stats::geomean(&ratios), "ratio");
    rep.note(
        "failed_ratio",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        "ratio",
    );
    rep.metric("setup_s", setup_s, "s");
    rep.metric("latency_ms_p50", stats::median(&medians), "ms");
    rep.metric(
        "latency_ms_tail",
        medians.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    rep.metric("latency_ms_geomean", stats::geomean(&medians), "ms");
    rep.metric(
        "throughput_per_s",
        rows.len() as f64 * 1000.0 / medians.iter().sum::<f64>(),
        "1/s",
    );
    rep.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    rep
}

/// One repetition of a row in the traced run: the untraced wall time and
/// the decomposition of the same row.
struct Rep {
    wall_us: f64,
    layers: Layers,
    model_check_us: f64,
    validate_us: f64,
}

/// The traced run: each row solved untraced and then split into its
/// public steps on fresh analyzers, alternating, so drift in machine speed
/// hits both alike. The split reported is that of the repetition whose
/// layer sum is the median share of its own untraced wall time, against
/// that wall time.
fn run_traced(args: &Args, rows: &[Row], rep: &mut Report) {
    let mut sp = Spans::new(true);
    let mut agg = LayerAgg::default();
    let mut req = 0u64;
    for (i, row) in rows.iter().enumerate() {
        let mut reps = Vec::new();
        for _ in 0..TRACE_REPS[i] {
            rep.attempted += 2 * row.problems.len() as u64;
            let untraced = match solve_row(row) {
                Ok(s) => {
                    if let Err(e) = check_row(i, row, &s.verdicts) {
                        rep.error(e);
                    }
                    s.walls
                }
                Err(e) => {
                    rep.failed += row.problems.len() as u64;
                    rep.error(format!("row {}: {e}", i + 1));
                    continue;
                }
            };
            let mut r = Rep {
                wall_us: untraced.iter().map(|d| ms(*d) * 1000.0).sum(),
                layers: Layers::default(),
                model_check_us: 0.0,
                validate_us: 0.0,
            };
            let mut verdicts = Vec::new();
            for (p, u) in row.problems.iter().zip(&untraced) {
                req += 1;
                let (d, wall) = sp.time("analyzer.solve", req, |sp| {
                    let mut az = Analyzer::new();
                    decompose(&mut az, p, &Limits::default(), sp, req)
                });
                match d {
                    Ok(d) => {
                        r.layers.add(&d.layers);
                        r.model_check_us += d.model_check_us;
                        r.validate_us += d.validate_us;
                        agg.add(&d, ms(wall) * 1000.0, ms(*u) * 1000.0);
                        verdicts.push((d.holds, d.witness));
                    }
                    Err(e) => {
                        rep.failed += 1;
                        rep.error(format!("row {} traced: {e}", i + 1));
                    }
                }
            }
            if verdicts.len() == row.problems.len() {
                if let Err(e) = check_row(i, row, &verdicts) {
                    rep.error(format!("traced {e}"));
                }
                reps.push(r);
            }
        }
        if reps.is_empty() {
            continue;
        }
        reps.sort_by(|a, b| (a.layers.sum() / a.wall_us).total_cmp(&(b.layers.sum() / b.wall_us)));
        let mid = &reps[reps.len() / 2];
        let wall_ms = mid.wall_us / 1000.0;
        let mut line = format!("# row {} split (ms):", i + 1);
        for (name, us) in mid.layers.named() {
            line.push_str(&format!(" {name} {:.2}", us / 1000.0));
            rep.note(&format!("table2.row{}.{name}_ms", i + 1), us / 1000.0, "ms");
        }
        let sum = mid.layers.sum() / 1000.0;
        let within = (sum - wall_ms).abs() <= wall_ms / 10.0;
        line.push_str(&format!(
            " | layer sum {sum:.2} of untraced wall {wall_ms:.2}, unattributed {:.2}{}",
            wall_ms - sum,
            if within { "" } else { " (outside a tenth)" }
        ));
        rep.lines.push(line);
        rep.note(&format!("table2.row{}_ms", i + 1), wall_ms, "ms");
        rep.note(
            &format!("table2.row{}.unattributed_ms", i + 1),
            wall_ms - sum,
            "ms",
        );
        rep.note(
            &format!("table2.row{}.layer_sum_ratio", i + 1),
            sum / wall_ms,
            "ratio",
        );
        rep.note(
            &format!("table2.row{}.model_check_ms", i + 1),
            mid.model_check_us / 1000.0,
            "ms",
        );
        rep.note(
            &format!("table2.row{}.validate_ms", i + 1),
            mid.validate_us / 1000.0,
            "ms",
        );
    }
    let dtds: Vec<Arc<Dtd>> = [treetypes::smil_1_0(), treetypes::xhtml_1_0_strict()]
        .into_iter()
        .map(Arc::new)
        .collect();
    let lines: Vec<String> = rows.iter().flat_map(|r| r.lines.clone()).collect();
    rep.per_layer(
        &agg,
        crate::type_formula_ms(&dtds),
        crate::request_parse_us(&lines),
    );
    crate::finish_trace(args, &sp, rep);
}
