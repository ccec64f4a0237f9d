//! High-level static analysis of XPath queries under regular tree types —
//! the decision problems of the paper's §8, as a first-class typed API.
//!
//! An [`Analyzer`] owns a formula arena and reduces each decision problem
//! to Lµ satisfiability, solved by a selectable backend
//! ([`BackendChoice`]: the symbolic BDD engine by default, or the explicit
//! and witnessed reference algorithms). The problems themselves are
//! values: a [`Problem`] names
//! one question of the §8 menu —
//!
//! * **emptiness** — does a query ever select a node?
//! * **containment** — `e1 ⊆ e2`: is every node selected by `e1` also
//!   selected by `e2`? (`E→⟦e1⟧ ∧ ¬E→⟦e2⟧` unsatisfiable);
//! * **overlap** — can two queries select a common node?
//! * **coverage** — is `e` always within the union of other queries?
//! * **static type-checking** — are all nodes selected by `e` under an
//!   input type valid roots of an output type?
//! * **equivalence** — containment both ways —
//!
//! and [`Analyzer::solve`] is the single dispatch point that decides one,
//! governed by a [`Limits`] budget (wall-clock deadline, BDD node budget,
//! fixpoint iteration cap, lean-diamond cap for the enumerating backends).
//! A budget hit is the typed third verdict
//! [`SolveError::ResourceExhausted`] — never a panic, never an unbounded
//! run. The per-operation methods ([`Analyzer::contains`],
//! [`Analyzer::is_empty`], …) are thin wrappers that build the
//! corresponding [`Problem`] and solve it under [`Limits::default`].
//!
//! Each verdict carries solver statistics and, when the property fails, an
//! XML counter-example tree annotated with the start mark.
//!
//! # Example
//!
//! ```
//! use analyzer::{Analyzer, Limits, Problem};
//! use xpath::parse;
//!
//! let mut az = Analyzer::new();
//! let p = Problem::contains(
//!     parse("child::c/preceding-sibling::a[child::b]")?,
//!     None,
//!     parse("child::c[child::b]")?,
//!     None,
//! );
//! let v = az.solve(&p, &Limits::default())?;
//! assert!(!v.holds); // the Fig 18 example: e1 ⊄ e2
//! assert!(v.counter_example.is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Bounding a solve and catching the third verdict:
//!
//! ```
//! use analyzer::{Analyzer, Limits, Problem, SolveError};
//!
//! let mut az = Analyzer::new();
//! let p = Problem::sat(xpath::parse("a/b")?, None);
//! let starved = Limits { max_bdd_nodes: Some(2), ..Limits::default() };
//! match az.solve(&p, &starved) {
//!     Err(SolveError::ResourceExhausted { resource, .. }) => {
//!         assert_eq!(resource.as_str(), "bdd_nodes");
//!     }
//!     other => panic!("expected exhaustion, got {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;
pub mod problem;
pub mod types;
pub mod witness;

use std::sync::Arc;
use std::time::Instant;

use mulogic::{Formula, Logic};
use obs::{FieldValue, Recorder};
use solver::{solve_with_traced, Model, Outcome, Stats, SymbolicOptions};
use treetypes::Dtd;
use xpath::Expr;

pub use problem::Problem;
pub use solver::{BackendChoice, BddCounters, Exhausted, Limits, Resource, SolveError, Telemetry};

/// The result of one decision problem.
#[derive(Debug)]
pub struct Analysis {
    /// Whether the queried property holds.
    pub holds: bool,
    /// A witness against the property (for containment, coverage, emptiness
    /// and type-checking) or for it (for overlap and satisfiability), when
    /// one exists.
    pub counter_example: Option<Model>,
    /// Solver statistics.
    pub stats: Stats,
    /// The backend that produced the verdict.
    pub backend: BackendChoice,
}

/// The outcome of one decision problem: the analysis, or a
/// [`SolveError`] — a typed resource exhaustion (deadline, BDD node
/// budget, iteration cap, or a lean beyond the enumeration cap of the
/// explicit and witnessed backends), or a witness the verification oracles
/// rejected. Under [`Limits::default`] the symbolic backend never exhausts.
pub type AnalysisResult = Result<Analysis, SolveError>;

/// Construction-time options of an [`Analyzer`].
#[derive(Debug, Clone, Default)]
pub struct AnalyzerOptions {
    /// Which solver backend answers satisfiability queries.
    pub backend: BackendChoice,
    /// Tuning knobs of the symbolic backend.
    pub symbolic: SymbolicOptions,
}

/// The analysis engine: a formula arena plus a selectable solver backend.
#[derive(Debug, Default)]
pub struct Analyzer {
    lg: Logic,
    options: AnalyzerOptions,
    /// The long-lived BDD manager behind every symbolic solve
    /// this analyzer performs. It is generationally reset per problem —
    /// never reallocated — so a worker that answers thousands of requests
    /// keeps one warm arena, unique table and operation cache.
    bdd: bdd::Bdd,
    /// Cache of compiled type formulas, keyed by the DTD's structural
    /// `Hash`/`Eq` (start symbol plus declarations). Sharing one formula
    /// across the queries of a problem keeps the lean small: a coverage
    /// check against four queries under the same type must not carry four
    /// isomorphic copies of the type translation. Keying on the structure
    /// itself — rather than a rendered string — means two distinct DTDs can
    /// never alias (a label containing `;` or `=` used to be able to
    /// collide with the old `start=…;name=model;…` rendering).
    type_cache: std::collections::HashMap<Dtd, Formula>,
}

impl Analyzer {
    /// Creates an analyzer with the paper-faithful solver options and the
    /// symbolic backend.
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Creates an analyzer with custom options (backend choice,
    /// ablations).
    pub fn with_options(options: AnalyzerOptions) -> Self {
        Analyzer {
            lg: Logic::new(),
            options,
            bdd: bdd::Bdd::new(),
            type_cache: std::collections::HashMap::new(),
        }
    }

    /// The backend answering this analyzer's queries.
    pub fn backend(&self) -> BackendChoice {
        self.options.backend
    }

    /// Switches the solver backend; compiled formulas and the type cache
    /// are kept (they are backend-independent).
    pub fn set_backend(&mut self, backend: BackendChoice) {
        self.options.backend = backend;
    }

    /// The (cached) Lµ translation of a DTD.
    pub(crate) fn type_formula(&mut self, dtd: &Dtd) -> Formula {
        if let Some(&f) = self.type_cache.get(dtd) {
            return f;
        }
        let f = dtd.formula(&mut self.lg);
        self.type_cache.insert(dtd.clone(), f);
        f
    }

    /// The underlying formula arena (for advanced uses: custom formulas,
    /// display, model checking).
    pub fn logic_mut(&mut self) -> &mut Logic {
        &mut self.lg
    }

    /// `E→⟦e⟧χ` with χ the type's formula (or ⊤): the query translation
    /// used by all decision problems (§8).
    ///
    /// The type context is *root-anchored*: the context node must be the
    /// document root (`¬⟨1̄⟩⊤ ∧ ¬⟨2̄⟩⊤`) of a tree of the type, so the
    /// analysis quantifies exactly over the valid documents, evaluating the
    /// query from their root. This is the additional root restriction §5.2
    /// recommends when a type constrains a query. Use
    /// [`Analyzer::query_formula_floating`] for the unanchored variant.
    pub fn query_formula(&mut self, e: &Expr, ty: Option<&Dtd>) -> Formula {
        let chi = match ty {
            Some(dtd) => {
                let t = self.type_formula(dtd);
                let no_parent = self.lg.not_diam_true(mulogic::Program::Up1);
                let no_left = self.lg.not_diam_true(mulogic::Program::Up2);
                let at_root = self.lg.and(no_parent, no_left);
                self.lg.and(t, at_root)
            }
            None => self.lg.tt(),
        };
        xpath::compile_expr(&mut self.lg, e, chi)
    }

    /// Like [`Analyzer::query_formula`] but without anchoring the typed
    /// context node at the document root: the context satisfies the type
    /// formula wherever it sits in a larger tree (the bare translation of
    /// §5.2/§8).
    pub fn query_formula_floating(&mut self, e: &Expr, ty: Option<&Dtd>) -> Formula {
        let chi = match ty {
            Some(dtd) => self.type_formula(dtd),
            None => self.lg.tt(),
        };
        xpath::compile_expr(&mut self.lg, e, chi)
    }

    /// Decides satisfiability of an arbitrary Lµ formula on the configured
    /// backend, reusing this analyzer's long-lived BDD manager, under
    /// [`Limits::default`].
    pub fn solve_formula(&mut self, f: Formula) -> Result<solver::Solved, SolveError> {
        self.solve_formula_bounded(f, &Limits::default())
    }

    /// [`Analyzer::solve_formula`] under the caller's [`Limits`].
    pub fn solve_formula_bounded(
        &mut self,
        f: Formula,
        limits: &Limits,
    ) -> Result<solver::Solved, SolveError> {
        self.solve_formula_traced(f, limits, &Recorder::noop())
    }

    /// [`Analyzer::solve_formula_bounded`] with phase events recorded on
    /// `rec` (lean construction, BDD build, per-iteration fixpoint steps,
    /// budget hits). A noop recorder makes this identical to the untraced
    /// path.
    pub fn solve_formula_traced(
        &mut self,
        f: Formula,
        limits: &Limits,
        rec: &Recorder,
    ) -> Result<solver::Solved, SolveError> {
        solve_with_traced(
            &mut self.lg,
            f,
            self.options.backend,
            &self.options.symbolic,
            &mut self.bdd,
            limits,
            rec,
        )
    }

    /// Solves one typed decision [`Problem`] under the given [`Limits`] —
    /// the single dispatch point every decision method of this analyzer
    /// (and the engine's protocol layer) funnels through.
    ///
    /// The limits govern the whole problem: a multi-goal problem (an
    /// equivalence solves two containments) charges each sub-solve against
    /// the one wall-clock deadline, while per-solve budgets (BDD nodes)
    /// apply to each sub-solve, whose manager is reset in between. A
    /// budget hit returns [`SolveError::ResourceExhausted`] naming the
    /// resource — the property is then neither proved nor refuted, and the
    /// caller may retry with a larger budget.
    pub fn solve(&mut self, problem: &Problem, limits: &Limits) -> AnalysisResult {
        self.solve_traced(problem, limits, &Recorder::noop())
    }

    /// [`Analyzer::solve`] with the solve's phases recorded on `rec`: a
    /// `solve_begin`/`solve_end` event pair bracketing the whole problem
    /// (operation name, backend, final status, wall time), a `compile`
    /// phase per goal construction, and whatever the backend emits
    /// (lean/build/enumerate phases, per-iteration `step` events, `limit`
    /// events on budget hits). A noop recorder makes this identical to
    /// [`Analyzer::solve`].
    pub fn solve_traced(
        &mut self,
        problem: &Problem,
        limits: &Limits,
        rec: &Recorder,
    ) -> AnalysisResult {
        let started = rec.enabled().then(Instant::now);
        rec.event(
            "solve_begin",
            &[
                ("op", FieldValue::Str(problem.op_name())),
                ("backend", FieldValue::Str(self.options.backend.as_str())),
            ],
        );
        let result = self.solve_inner(problem, limits, rec);
        if let Some(started) = started {
            let status = match &result {
                Ok(a) if a.holds => "holds",
                Ok(_) => "fails",
                Err(SolveError::ResourceExhausted { .. }) => "unknown",
                Err(_) => "error",
            };
            rec.event(
                "solve_end",
                &[
                    ("status", FieldValue::Str(status)),
                    (
                        "wall_us",
                        FieldValue::U64(started.elapsed().as_micros() as u64),
                    ),
                ],
            );
        }
        result
    }

    fn solve_inner(
        &mut self,
        problem: &Problem,
        limits: &Limits,
        rec: &Recorder,
    ) -> AnalysisResult {
        match problem {
            Problem::Empty { query, ty } => {
                let span = rec.span("compile");
                let f = self.query_formula(query, ty.as_deref());
                drop(span);
                self.check_unsat_traced(f, limits, rec, &dtd_refs(&[ty]))
            }
            Problem::Sat { query, ty } => {
                let span = rec.span("compile");
                let f = self.query_formula(query, ty.as_deref());
                drop(span);
                self.check_sat(f, limits, rec, &dtd_refs(&[ty]))
            }
            Problem::Contains {
                lhs,
                ltype,
                rhs,
                rtype,
            } => {
                let span = rec.span("compile");
                let goal = self.containment_goal(lhs, ltype.as_deref(), rhs, rtype.as_deref());
                drop(span);
                // A containment witness inhabits the *left* type only: the
                // right-hand query (and its type) appear negated in the goal.
                self.check_unsat_traced(goal, limits, rec, &dtd_refs(&[ltype]))
            }
            Problem::Overlap {
                lhs,
                ltype,
                rhs,
                rtype,
            } => {
                let span = rec.span("compile");
                let f1 = self.query_formula(lhs, ltype.as_deref());
                let f2 = self.query_formula(rhs, rtype.as_deref());
                let goal = self.lg.and(f1, f2);
                drop(span);
                self.check_sat(goal, limits, rec, &dtd_refs(&[ltype, rtype]))
            }
            Problem::Covers { query, ty, by } => {
                let span = rec.span("compile");
                let mut goal = self.query_formula(query, ty.as_deref());
                for (ei, ti) in by {
                    let fi = self.query_formula(ei, ti.as_deref());
                    let nfi = self.lg.not(fi);
                    goal = self.lg.and(goal, nfi);
                }
                drop(span);
                self.check_unsat_traced(goal, limits, rec, &dtd_refs(&[ty]))
            }
            Problem::TypeCheck {
                query,
                input,
                output,
            } => {
                let span = rec.span("compile");
                let f = self.query_formula(query, Some(input));
                let out = self.type_formula(output);
                let nout = self.lg.not(out);
                let goal = self.lg.and(f, nout);
                drop(span);
                // The witness is a valid *input* document on which the query
                // selects a node outside the output type.
                self.check_unsat_traced(goal, limits, rec, &[input.as_ref()])
            }
            Problem::Equiv {
                lhs,
                ltype,
                rhs,
                rtype,
            } => {
                // Both containments are charged against one deadline; the
                // second direction runs on whatever wall clock remains.
                let started = Instant::now();
                let span = rec.span("compile");
                let fwd_goal = self.containment_goal(lhs, ltype.as_deref(), rhs, rtype.as_deref());
                drop(span);
                let fwd = self.check_unsat_traced(fwd_goal, limits, rec, &dtd_refs(&[ltype]))?;
                let remaining = limits.after(started.elapsed())?;
                let span = rec.span("compile");
                let bwd_goal = self.containment_goal(rhs, rtype.as_deref(), lhs, ltype.as_deref());
                drop(span);
                let bwd =
                    self.check_unsat_traced(bwd_goal, &remaining, rec, &dtd_refs(&[rtype]))?;
                Ok(Analysis {
                    holds: fwd.holds && bwd.holds,
                    // The witness is whichever direction failed first.
                    counter_example: fwd.counter_example.or(bwd.counter_example),
                    stats: fwd.stats.merge(bwd.stats),
                    backend: self.options.backend,
                })
            }
        }
    }

    /// `E→⟦e1⟧⟦T1⟧ ∧ ¬E→⟦e2⟧⟦T2⟧` — unsatisfiable iff `e1 ⊆ e2`.
    fn containment_goal(
        &mut self,
        e1: &Expr,
        t1: Option<&Dtd>,
        e2: &Expr,
        t2: Option<&Dtd>,
    ) -> Formula {
        let f1 = self.query_formula(e1, t1);
        let f2 = self.query_formula(e2, t2);
        let nf2 = self.lg.not(f2);
        self.lg.and(f1, nf2)
    }

    pub(crate) fn check_unsat(&mut self, f: Formula, limits: &Limits) -> AnalysisResult {
        self.check_unsat_traced(f, limits, &Recorder::noop(), &[])
    }

    fn check_unsat_traced(
        &mut self,
        f: Formula,
        limits: &Limits,
        rec: &Recorder,
        dtds: &[&Dtd],
    ) -> AnalysisResult {
        let solved = self.solve_formula_traced(f, limits, rec)?;
        Ok(match solved.outcome {
            Outcome::Unsatisfiable => Analysis {
                holds: true,
                counter_example: None,
                stats: solved.stats,
                backend: self.options.backend,
            },
            Outcome::Satisfiable(m) => {
                let span = rec.span("verify");
                witness::verify_model(&self.lg, f, &m, dtds)?;
                drop(span);
                Analysis {
                    holds: false,
                    counter_example: Some(m),
                    stats: solved.stats,
                    backend: self.options.backend,
                }
            }
        })
    }

    fn check_sat(
        &mut self,
        f: Formula,
        limits: &Limits,
        rec: &Recorder,
        dtds: &[&Dtd],
    ) -> AnalysisResult {
        let solved = self.solve_formula_traced(f, limits, rec)?;
        Ok(match solved.outcome {
            Outcome::Satisfiable(m) => {
                let span = rec.span("verify");
                witness::verify_model(&self.lg, f, &m, dtds)?;
                drop(span);
                Analysis {
                    holds: true,
                    counter_example: Some(m),
                    stats: solved.stats,
                    backend: self.options.backend,
                }
            }
            Outcome::Unsatisfiable => Analysis {
                holds: false,
                counter_example: None,
                stats: solved.stats,
                backend: self.options.backend,
            },
        })
    }

    /// XPath emptiness: `e` selects no node in any tree (of the type).
    /// Delegates to [`Analyzer::solve`] under [`Limits::default`].
    pub fn is_empty(&mut self, e: &Expr, ty: Option<&Dtd>) -> AnalysisResult {
        let p = Problem::empty(e.clone(), arc_dtd(ty));
        self.solve(&p, &Limits::default())
    }

    /// XPath satisfiability: `e` selects a node in some tree of the type
    /// (the `e7`/`e8` rows of Table 2). The witness is a satisfying tree.
    /// Delegates to [`Analyzer::solve`] under [`Limits::default`].
    pub fn is_satisfiable(&mut self, e: &Expr, ty: Option<&Dtd>) -> AnalysisResult {
        let p = Problem::sat(e.clone(), arc_dtd(ty));
        self.solve(&p, &Limits::default())
    }

    /// XPath containment `e1 ⊆ e2` under per-side type constraints:
    /// `E→⟦e1⟧⟦T1⟧ ∧ ¬E→⟦e2⟧⟦T2⟧` must be unsatisfiable. Delegates to
    /// [`Analyzer::solve`] under [`Limits::default`].
    pub fn contains(
        &mut self,
        e1: &Expr,
        t1: Option<&Dtd>,
        e2: &Expr,
        t2: Option<&Dtd>,
    ) -> AnalysisResult {
        let p = Problem::contains(e1.clone(), arc_dtd(t1), e2.clone(), arc_dtd(t2));
        self.solve(&p, &Limits::default())
    }

    /// XPath overlap: some node is selected by both queries. Delegates to
    /// [`Analyzer::solve`] under [`Limits::default`].
    pub fn overlaps(
        &mut self,
        e1: &Expr,
        t1: Option<&Dtd>,
        e2: &Expr,
        t2: Option<&Dtd>,
    ) -> AnalysisResult {
        let p = Problem::overlap(e1.clone(), arc_dtd(t1), e2.clone(), arc_dtd(t2));
        self.solve(&p, &Limits::default())
    }

    /// XPath coverage: every node selected by `e` is selected by at least
    /// one of `covers` (each under its own optional type constraint).
    /// Delegates to [`Analyzer::solve`] under [`Limits::default`].
    pub fn covers(
        &mut self,
        e: &Expr,
        ty: Option<&Dtd>,
        covers: &[(&Expr, Option<&Dtd>)],
    ) -> AnalysisResult {
        let p = Problem::Covers {
            query: Arc::new(e.clone()),
            ty: arc_dtd(ty),
            by: covers
                .iter()
                .map(|&(ei, ti)| (Arc::new(ei.clone()), arc_dtd(ti)))
                .collect(),
        };
        self.solve(&p, &Limits::default())
    }

    /// Static type-checking of an annotated query: every node selected by
    /// `e` under the input type is a valid root of the output type
    /// (`E→⟦e⟧⟦T_in⟧ ∧ ¬⟦T_out⟧` unsatisfiable). Delegates to
    /// [`Analyzer::solve`] under [`Limits::default`].
    pub fn type_checks(&mut self, e: &Expr, input: &Dtd, output: &Dtd) -> AnalysisResult {
        let p = Problem::type_check(e.clone(), input.clone(), output.clone());
        self.solve(&p, &Limits::default())
    }

    /// XPath equivalence under type constraints: containment both ways.
    /// Returns the two directions (`e1 ⊆ e2`, `e2 ⊆ e1`); for the single
    /// merged verdict, solve a [`Problem::Equiv`] through
    /// [`Analyzer::solve`].
    pub fn equivalent(
        &mut self,
        e1: &Expr,
        t1: Option<&Dtd>,
        e2: &Expr,
        t2: Option<&Dtd>,
    ) -> Result<(Analysis, Analysis), SolveError> {
        let fwd = self.contains(e1, t1, e2, t2)?;
        let bwd = self.contains(e2, t2, e1, t1)?;
        Ok((fwd, bwd))
    }
}

/// Clones an optional borrowed DTD into the `Arc` ownership a [`Problem`]
/// carries.
fn arc_dtd(ty: Option<&Dtd>) -> Option<Arc<Dtd>> {
    ty.map(|d| Arc::new(d.clone()))
}

/// The governing DTDs of a (sub-)problem: the present ones among the type
/// slots whose query appears *positively* in the goal. These are the types a
/// witness document must inhabit, so [`witness::verify_model`] re-validates
/// against each.
fn dtd_refs<'a>(tys: &[&'a Option<Arc<Dtd>>]) -> Vec<&'a Dtd> {
    tys.iter().filter_map(|t| t.as_deref()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath::parse;

    #[test]
    fn fig18_containment() {
        let mut az = Analyzer::new();
        let e1 = parse("child::c/preceding-sibling::a[child::b]").unwrap();
        let e2 = parse("child::c[child::b]").unwrap();
        let v = az.contains(&e1, None, &e2, None).unwrap();
        assert!(!v.holds);
        let m = v.counter_example.unwrap();
        // The paper's counter-example has an `a` with a `b` child followed
        // by a `c` sibling.
        let xml = m.xml();
        assert!(xml.contains("<a>"), "{xml}");
        assert!(xml.contains("<b"), "{xml}");
        assert!(xml.contains("<c"), "{xml}");
    }

    #[test]
    fn self_containment_and_equivalence() {
        let mut az = Analyzer::new();
        let e = parse("a/b[c]").unwrap();
        let v = az.contains(&e, None, &e, None).unwrap();
        assert!(v.holds);
        let (f, b) = az.equivalent(&e, None, &e, None).unwrap();
        assert!(f.holds && b.holds);
    }

    #[test]
    fn emptiness() {
        let mut az = Analyzer::new();
        // a ∩ b at the same node: empty.
        let e = parse("child::a ∩ child::b").unwrap();
        let v = az.is_empty(&e, None).unwrap();
        assert!(v.holds);
        let e2 = parse("child::a").unwrap();
        let v2 = az.is_empty(&e2, None).unwrap();
        assert!(!v2.holds);
        assert!(v2.counter_example.is_some());
    }

    #[test]
    fn overlap() {
        let mut az = Analyzer::new();
        let e1 = parse("child::*[child::b]").unwrap();
        let e2 = parse("child::a").unwrap();
        let v = az.overlaps(&e1, None, &e2, None).unwrap();
        assert!(v.holds);
        let w = v.counter_example.unwrap();
        assert!(w.xml().contains("<a"), "{w}");
        let e3 = parse("child::c").unwrap();
        assert!(!az.overlaps(&e2, None, &e3, None).unwrap().holds);
    }

    #[test]
    fn coverage() {
        let mut az = Analyzer::new();
        let e = parse("child::*").unwrap();
        let ea = parse("child::a").unwrap();
        let estar = parse("child::*[not(self::a)]").unwrap();
        let v = az.covers(&e, None, &[(&ea, None), (&estar, None)]).unwrap();
        assert!(v.holds);
        // Dropping one disjunct breaks coverage.
        let v2 = az.covers(&e, None, &[(&ea, None)]).unwrap();
        assert!(!v2.holds);
    }

    #[test]
    fn containment_under_type() {
        // Under <!ELEMENT r (x, y)> …, child::* from the root is covered by
        // child::x | child::y.
        let dtd = Dtd::parse("<!ELEMENT r (x, y)> <!ELEMENT x EMPTY> <!ELEMENT y EMPTY>").unwrap();
        let mut az = Analyzer::new();
        let all = parse("child::*").unwrap();
        let xy = parse("child::x | child::y").unwrap();
        let v = az.contains(&all, Some(&dtd), &xy, Some(&dtd)).unwrap();
        assert!(v.holds, "{:?}", v.counter_example.map(|m| m.xml()));
        // Without the type it fails.
        let v2 = az.contains(&all, None, &xy, None).unwrap();
        assert!(!v2.holds);
    }

    #[test]
    fn type_checking() {
        // The output type's start variable is `x(C, ε)` (Fig 14): it also
        // constrains the selected node to have no following sibling, so the
        // input type uses a single occurrence of x.
        let input = Dtd::parse("<!ELEMENT r (x)> <!ELEMENT x (y)> <!ELEMENT y EMPTY>").unwrap();
        let out_ok = Dtd::parse("<!ELEMENT x (y)> <!ELEMENT y EMPTY>").unwrap();
        let out_bad = Dtd::parse("<!ELEMENT x EMPTY>").unwrap();
        let mut az = Analyzer::new();
        let e = parse("child::x").unwrap();
        assert!(az.type_checks(&e, &input, &out_ok).unwrap().holds);
        let v = az.type_checks(&e, &input, &out_bad).unwrap();
        assert!(!v.holds);
        assert!(v.counter_example.is_some());
    }

    #[test]
    fn solve_is_the_single_dispatch_point() {
        // Every per-op wrapper and the corresponding Problem variant must
        // produce the same verdict.
        let mut az = Analyzer::new();
        let e1 = parse("child::c/preceding-sibling::a[child::b]").unwrap();
        let e2 = parse("child::c[child::b]").unwrap();
        let wrapped = az.contains(&e1, None, &e2, None).unwrap();
        let p = Problem::contains(e1.clone(), None, e2.clone(), None);
        let solved = az.solve(&p, &Limits::default()).unwrap();
        assert_eq!(wrapped.holds, solved.holds);
        assert_eq!(
            wrapped.counter_example.as_ref().map(Model::xml),
            solved.counter_example.as_ref().map(Model::xml)
        );
        // Equiv through solve merges the two directions into one verdict.
        let eq = Problem::equiv(e1, None, e2, None);
        let v = az.solve(&eq, &Limits::default()).unwrap();
        assert!(!v.holds);
        assert!(v.counter_example.is_some());
        assert!(v.stats.iterations > 0);
    }

    #[test]
    fn exhausted_solves_name_the_resource() {
        let mut az = Analyzer::new();
        let p = Problem::sat(parse("a/b[c]").unwrap(), None);
        // A starved node budget: the typed third verdict, not a panic.
        let starved = Limits {
            max_bdd_nodes: Some(4),
            ..Limits::default()
        };
        match az.solve(&p, &starved) {
            Err(SolveError::ResourceExhausted {
                resource: solver::Resource::BddNodes,
                spent,
                limit,
            }) => {
                assert!(spent > limit);
            }
            other => panic!("expected node exhaustion, got {other:?}"),
        }
        // A zero deadline exhausts the wall clock on an equivalence too
        // (the two containments share one deadline).
        let eq = Problem::equiv(parse("a/b").unwrap(), None, parse("a/*").unwrap(), None);
        let instant = Limits {
            deadline: Some(std::time::Duration::ZERO),
            ..Limits::default()
        };
        match az.solve(&eq, &instant) {
            Err(SolveError::ResourceExhausted {
                resource: solver::Resource::WallClock,
                ..
            }) => {}
            other => panic!("expected wall-clock exhaustion, got {other:?}"),
        }
        // The same problems decide fine once the budgets are lifted
        // (a/b ≡ a/* fails in the a/* ⊆ a/b direction, with a witness).
        assert!(az.solve(&p, &Limits::default()).unwrap().holds);
        let v = az.solve(&eq, &Limits::default()).unwrap();
        assert!(!v.holds);
        assert!(v.counter_example.is_some());
    }

    #[test]
    fn traced_solves_bracket_the_problem() {
        use obs::MemorySink;
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let rec = Recorder::new(sink.clone());
        let mut az = Analyzer::new();
        let p = Problem::contains(
            parse("child::c/preceding-sibling::a[child::b]").unwrap(),
            None,
            parse("child::c[child::b]").unwrap(),
            None,
        );
        let v = az.solve_traced(&p, &Limits::default(), &rec).unwrap();
        assert!(!v.holds);
        let events = sink.drain();
        // The stream opens with solve_begin naming the op and backend…
        let begin = &events[0];
        assert_eq!(begin.kind, "solve_begin");
        assert!(begin
            .fields
            .iter()
            .any(|(k, v)| *k == "op" && *v == FieldValue::Str("contains")));
        assert!(begin
            .fields
            .iter()
            .any(|(k, v)| *k == "backend" && *v == FieldValue::Str("symbolic")));
        // …closes with solve_end carrying the verdict status…
        let end = events.last().unwrap();
        assert_eq!(end.kind, "solve_end");
        assert!(end
            .fields
            .iter()
            .any(|(k, v)| *k == "status" && *v == FieldValue::Str("fails")));
        assert!(end
            .fields
            .iter()
            .any(|(k, v)| matches!((*k, v), ("wall_us", FieldValue::U64(_)))));
        // …and records the compile and fixpoint phases in between, then,
        // since the containment goal is satisfiable, the reconstruction of
        // its counter-example and that witness's verification.
        let phases: Vec<_> = events
            .iter()
            .filter(|e| e.kind == "phase")
            .filter_map(|e| {
                e.fields.iter().find_map(|(k, v)| match (k, v) {
                    (&"phase", FieldValue::Str(s)) => Some(*s),
                    _ => None,
                })
            })
            .collect();
        assert!(phases.contains(&"compile"), "{phases:?}");
        let pos = |name| phases.iter().position(|p| *p == name);
        assert!(pos("fixpoint").is_some(), "{phases:?}");
        assert!(pos("reconstruct") > pos("fixpoint"), "{phases:?}");
        assert!(pos("verify") > pos("reconstruct"), "{phases:?}");
        // An untraced solve agrees and emits nothing.
        let quiet = az.solve(&p, &Limits::default()).unwrap();
        assert_eq!(quiet.holds, v.holds);
        assert!(sink.drain().is_empty());
        // Exhaustion maps to the "unknown" status.
        let starved = Limits {
            max_bdd_nodes: Some(2),
            ..Limits::default()
        };
        az.solve_traced(&p, &starved, &rec).unwrap_err();
        let events = sink.drain();
        let end = events.last().unwrap();
        assert_eq!(end.kind, "solve_end");
        assert!(end
            .fields
            .iter()
            .any(|(k, v)| *k == "status" && *v == FieldValue::Str("unknown")));
        assert!(events.iter().any(|e| e.kind == "limit"));
    }

    #[test]
    fn type_cache_is_structural() {
        let mut az = Analyzer::new();
        let a = Dtd::parse("<!ELEMENT r (x)> <!ELEMENT x EMPTY>").unwrap();
        let b = Dtd::parse("<!ELEMENT r (x)>  <!ELEMENT x EMPTY>").unwrap();
        let c = Dtd::parse("<!ELEMENT r (x*)> <!ELEMENT x EMPTY>").unwrap();
        let fa = az.type_formula(&a);
        let fb = az.type_formula(&b);
        let fc = az.type_formula(&c);
        // Structurally equal DTDs share one compiled formula…
        assert_eq!(fa, fb);
        assert_eq!(az.type_cache.len(), 2);
        // …and structurally distinct ones never alias.
        assert_ne!(fa, fc);
    }

    #[test]
    fn type_checking_rejects_extra_siblings() {
        // With x* in the input, a selected x may have a following x
        // sibling, which the output type's root (no next sibling) rejects.
        let input = Dtd::parse("<!ELEMENT r (x*)> <!ELEMENT x (y)> <!ELEMENT y EMPTY>").unwrap();
        let out = Dtd::parse("<!ELEMENT x (y)> <!ELEMENT y EMPTY>").unwrap();
        let mut az = Analyzer::new();
        let e = parse("child::x").unwrap();
        let v = az.type_checks(&e, &input, &out).unwrap();
        assert!(!v.holds);
    }
}
