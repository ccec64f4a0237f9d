//! `Analyzer::solve`, split into its public steps so each layer's share of
//! a decision problem can be timed from outside the crates:
//! `Analyzer::query_formula` (xpath, plus treetypes on a typed problem),
//! `Analyzer::solve_formula_traced` (whose `lean` / `build` / `fixpoint`
//! phase events give mulogic, bdd and solver time; the rest of the call
//! is post-fixpoint reconstruction), `analyzer::witness::verify_model` and
//! `Model::xml` (ftree).
//!
//! The verdict is computed exactly as `Analyzer::solve` computes it, so it
//! doubles as a cross-check of the untraced path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use analyzer::{witness, Analyzer, Limits, Problem};
use mulogic::Formula;
use obs::{FieldValue, MemorySink, Recorder};
use solver::{BddCounters, Model, Outcome};
use treetypes::Dtd;

use crate::spans::Spans;

/// Time per layer of one problem, in microseconds. These steps run one
/// after another, so they add up to the problem's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    /// `query_formula` (XPath and type translation).
    pub compile: f64,
    /// The `lean` phase (Fisher–Ladner closure and lean).
    pub lean: f64,
    /// The `build` phase (binarization, status BDDs, ∆ clauses).
    pub build: f64,
    /// The `fixpoint` phase.
    pub fixpoint: f64,
    /// The rest of `solve_formula_traced`: witness reconstruction.
    pub post_fixpoint: f64,
    /// `witness::verify_model`.
    pub verify: f64,
    /// `Model::xml`.
    pub render: f64,
}

impl Layers {
    /// Names and values, in pipeline order.
    pub fn named(&self) -> [(&'static str, f64); 7] {
        [
            ("compile", self.compile),
            ("lean", self.lean),
            ("build", self.build),
            ("fixpoint", self.fixpoint),
            ("post_fixpoint", self.post_fixpoint),
            ("verify", self.verify),
            ("render", self.render),
        ]
    }

    /// Sum over the layers.
    pub fn sum(&self) -> f64 {
        self.named().iter().map(|(_, v)| v).sum()
    }

    /// Adds `o` layer by layer.
    pub fn add(&mut self, o: &Layers) {
        self.compile += o.compile;
        self.lean += o.lean;
        self.build += o.build;
        self.fixpoint += o.fixpoint;
        self.post_fixpoint += o.post_fixpoint;
        self.verify += o.verify;
        self.render += o.render;
    }
}

/// One decomposed decision problem.
#[derive(Debug, Clone, Default)]
pub struct Decomposed {
    /// Whether the property holds.
    pub holds: bool,
    /// The witness, as `Analyzer::solve` would return it.
    pub witness: Option<Model>,
    /// Time per layer.
    pub layers: Layers,
    /// Extra, outside `layers`: `mulogic::model_check` of the witness, µs.
    pub model_check_us: f64,
    /// Extra, outside `layers`: `Dtd::validates` of the witness, µs.
    pub validate_us: f64,
    /// Lean sizes, summed over the problem's solves.
    pub lean_size: usize,
    /// Fixpoint iterations, summed over the problem's solves.
    pub iterations: usize,
    /// BDD counters, merged over the problem's solves.
    pub bdd: BddCounters,
    /// Witness nodes (`Model::size`).
    pub witness_nodes: usize,
}

/// One satisfiability goal of a problem.
struct Goal {
    formula: Formula,
    /// Whether a satisfiable goal means the property holds (sat, overlap)
    /// or fails (every other op).
    holds_if_sat: bool,
    /// The types a witness must inhabit.
    dtds: Vec<Arc<Dtd>>,
}

fn goals(az: &mut Analyzer, p: &Problem) -> Vec<Goal> {
    let tys = |ts: &[&Option<Arc<Dtd>>]| -> Vec<Arc<Dtd>> {
        ts.iter().filter_map(|t| (*t).clone()).collect()
    };
    let contains = |az: &mut Analyzer, l, lt: &Option<Arc<Dtd>>, r, rt: &Option<Arc<Dtd>>| {
        let f1 = az.query_formula(l, lt.as_deref());
        let f2 = az.query_formula(r, rt.as_deref());
        let lg = az.logic_mut();
        let nf2 = lg.not(f2);
        Goal {
            formula: lg.and(f1, nf2),
            holds_if_sat: false,
            dtds: tys(&[lt]),
        }
    };
    match p {
        Problem::Empty { query, ty } | Problem::Sat { query, ty } => vec![Goal {
            formula: az.query_formula(query, ty.as_deref()),
            holds_if_sat: matches!(p, Problem::Sat { .. }),
            dtds: tys(&[ty]),
        }],
        Problem::Contains {
            lhs,
            ltype,
            rhs,
            rtype,
        } => vec![contains(az, lhs, ltype, rhs, rtype)],
        Problem::Equiv {
            lhs,
            ltype,
            rhs,
            rtype,
        } => vec![
            contains(az, lhs, ltype, rhs, rtype),
            contains(az, rhs, rtype, lhs, ltype),
        ],
        Problem::Overlap {
            lhs,
            ltype,
            rhs,
            rtype,
        } => {
            let f1 = az.query_formula(lhs, ltype.as_deref());
            let f2 = az.query_formula(rhs, rtype.as_deref());
            vec![Goal {
                formula: az.logic_mut().and(f1, f2),
                holds_if_sat: true,
                dtds: tys(&[ltype, rtype]),
            }]
        }
        Problem::Covers { query, ty, by } => {
            let mut goal = az.query_formula(query, ty.as_deref());
            for (e, t) in by {
                let f = az.query_formula(e, t.as_deref());
                let lg = az.logic_mut();
                let nf = lg.not(f);
                goal = lg.and(goal, nf);
            }
            vec![Goal {
                formula: goal,
                holds_if_sat: false,
                dtds: tys(&[ty]),
            }]
        }
        Problem::TypeCheck {
            query,
            input,
            output,
        } => {
            let f = az.query_formula(query, Some(input));
            let lg = az.logic_mut();
            let out = output.formula(lg);
            let nout = lg.not(out);
            vec![Goal {
                formula: lg.and(f, nout),
                holds_if_sat: false,
                dtds: vec![Arc::clone(input)],
            }]
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Solves `p` on `az` step by step, recording one span per step in `sp`
/// (request id `req`). Fails when the solver errs or a witness is
/// rejected, as `Analyzer::solve` would.
pub fn decompose(
    az: &mut Analyzer,
    p: &Problem,
    limits: &Limits,
    sp: &mut Spans,
    req: u64,
) -> Result<Decomposed, String> {
    let mut out = Decomposed {
        holds: true,
        ..Decomposed::default()
    };
    let (goals, d) = sp.time("xpath.compile", req, |_| goals(az, p));
    out.layers.compile = us(d);
    for goal in goals {
        let sink = Arc::new(MemorySink::new());
        let rec = Recorder::new(sink.clone());
        let rec_t0 = Instant::now();
        let mut phases = Layers::default();
        let (solved, d) = sp.time("solver.solve", req, |sp| {
            let solved = az.solve_formula_traced(goal.formula, limits, &rec);
            for ev in sink.drain().iter().filter(|e| e.kind == "phase") {
                let field = |k: &str| ev.fields.iter().find(|(n, _)| *n == k).map(|(_, v)| *v);
                let (Some(FieldValue::Str(phase)), Some(FieldValue::U64(dur))) =
                    (field("phase"), field("dur_us"))
                else {
                    continue;
                };
                let (name, total) = match phase {
                    "lean" => ("mulogic.lean", &mut phases.lean),
                    "build" => ("bdd.build", &mut phases.build),
                    "fixpoint" => ("solver.fixpoint", &mut phases.fixpoint),
                    _ => continue,
                };
                *total += dur as f64;
                let end = rec_t0 + Duration::from_micros(ev.t_us);
                let start = end - Duration::from_micros(dur.min(ev.t_us));
                sp.record(name, req, start, end);
            }
            solved
        });
        let solved = solved.map_err(|e| e.to_string())?;
        out.layers.lean += phases.lean;
        out.layers.build += phases.build;
        out.layers.fixpoint += phases.fixpoint;
        out.layers.post_fixpoint += (us(d) - phases.lean - phases.build - phases.fixpoint).max(0.0);
        out.lean_size += solved.stats.lean_size;
        out.iterations += solved.stats.iterations;
        if let Some(c) = solved.stats.telemetry.bdd_counters() {
            out.bdd = out.bdd.merge(*c);
        }
        let holds = match solved.outcome {
            Outcome::Unsatisfiable => !goal.holds_if_sat,
            Outcome::Satisfiable(m) => {
                let dtds: Vec<&Dtd> = goal.dtds.iter().map(|d| &**d).collect();
                let (verified, d) = sp.time("analyzer.verify", req, |_| {
                    witness::verify_model(az.logic_mut(), goal.formula, &m, &dtds)
                });
                verified.map_err(|e| e.to_string())?;
                out.layers.verify += us(d);
                let (_, d) = sp.time("ftree.render", req, |_| m.xml());
                out.layers.render += us(d);
                // The split of verification, timed on its own after it.
                let (_, d) = sp.time("mulogic.model_check", req, |_| {
                    mulogic::model_check(az.logic_mut(), goal.formula, m.roots())
                });
                out.model_check_us += us(d);
                if let [root] = m.roots() {
                    let (_, d) = sp.time("treetypes.validate", req, |_| {
                        dtds.iter().all(|dtd| dtd.validates(root))
                    });
                    out.validate_us += us(d);
                }
                out.witness_nodes += m.size();
                if out.witness.is_none() {
                    out.witness = Some(m);
                }
                goal.holds_if_sat
            }
        };
        out.holds &= holds;
    }
    Ok(out)
}
