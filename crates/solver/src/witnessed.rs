//! The literal algorithm of Fig 16: triples `(t, w₁, w₂)` with explicit
//! witness sets and the recursive `dsat` final check.
//!
//! Unlike the other two backends, this one does *not* use the plunging
//! formula of §7.1: it keeps, for every proved type, the sets of types that
//! witness its `⟨1⟩`/`⟨2⟩` obligations, and `FinalCheck` searches the
//! witness forest for a type satisfying ψ under a root with no pending
//! backward modality — exactly the paper's text. It exists to validate the
//! plunging simplification: all three backends must agree.
//!
//! State is kept as a map `(type, mark) → (w₁, w₂)` rather than a set of
//! triples: witness sets only grow, so the newest triple for a type
//! subsumes the older ones.
//!
//! The iteration loop lives in the shared kernel
//! ([`run_fixpoint`](crate::kernel::run_fixpoint)); this module supplies
//! the witness-forest [`Backend`] implementation, whose `check` is the
//! recursive `dsat` search instead of the plunge filter.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use ftree::BinaryTree;
use mulogic::{Closure, Formula, Lean, Logic, Program};

use obs::Recorder;

use crate::bits::{status_columns, TypeEnumerator, MAX_EXPLICIT_DIAMONDS};
use crate::kernel::{limit_event, run_fixpoint_traced, Backend, SolveError, StepObservation};
use crate::limits::{Exhausted, Limits};
use crate::outcome::{Model, Solved, Telemetry};

/// A node of the proof forest: a type index plus whether its proved subtree
/// contains the start mark.
type Key = (usize, bool);

struct Tables {
    types: Vec<crate::bits::TypeBits>,
    arg_status: Vec<Vec<bool>>,
    goal_status: Vec<bool>,
    diams: Vec<(usize, Program)>,
    dt: [usize; 4],
    start_idx: usize,
    /// Lean positions of the atomic propositions with their labels.
    props: Vec<(usize, ftree::Label)>,
}

impl Tables {
    fn build(
        lg: &mut Logic,
        lean: &Lean,
        goal: Formula,
        limits: &Limits,
        started: Instant,
    ) -> Result<Tables, Exhausted> {
        let en = TypeEnumerator::new(lean);
        // The enumeration and the word-parallel status evaluation both
        // poll the limits, so a cancelled solve aborts mid-construction.
        let types = en.enumerate(true, limits, started)?;
        let entries: Vec<(usize, Program, Formula)> = lean.diam_entries().collect();
        let formulas: Vec<Formula> = entries
            .iter()
            .map(|&(_, _, phi)| phi)
            .chain([goal])
            .collect();
        let mut cols = status_columns(lg, lean, &types, &formulas, limits, started)?;
        let goal_col = cols.pop().expect("goal column");
        let n = types.len();
        let arg_status: Vec<Vec<bool>> = (0..n)
            .map(|ti| cols.iter().map(|c| c.get(ti)).collect())
            .collect();
        let goal_status: Vec<bool> = (0..n).map(|ti| goal_col.get(ti)).collect();
        Ok(Tables {
            types,
            arg_status,
            goal_status,
            diams: entries.iter().map(|&(i, p, _)| (i, p)).collect(),
            dt: [
                lean.diam_true_index(Program::Down1),
                lean.diam_true_index(Program::Down2),
                lean.diam_true_index(Program::Up1),
                lean.diam_true_index(Program::Up2),
            ],
            start_idx: lean.start_index(),
            props: lean.prop_entries().collect(),
        })
    }

    fn delta(&self, a: Program, ti: usize, tj: usize) -> bool {
        let conv = a.converse();
        for (k, &(pos, p)) in self.diams.iter().enumerate() {
            if p == a {
                if self.types[ti].get(pos) != self.arg_status[tj][k] {
                    return false;
                }
            } else if p == conv && self.types[tj].get(pos) != self.arg_status[ti][k] {
                return false;
            }
        }
        true
    }

    fn isparent(&self, ti: usize, a: Program) -> bool {
        let idx = match a {
            Program::Down1 => self.dt[0],
            Program::Down2 => self.dt[1],
            Program::Up1 => self.dt[2],
            Program::Up2 => self.dt[3],
        };
        self.types[ti].get(idx)
    }

    fn child_ok(&self, a: Program, ti: usize, tj: usize) -> bool {
        self.isparent(tj, a.converse()) && self.delta(a, ti, tj)
    }

    fn marked_here(&self, ti: usize) -> bool {
        self.types[ti].get(self.start_idx)
    }
}

/// `w_a(t, X)` of Fig 16 over one of the two mark classes.
///
/// Empty when `t` has no `a`-successor at all: a witness for a modality the
/// type does not claim would let `dsat` walk through a child that the
/// reconstructed model does not contain.
fn witness_set(tab: &Tables, a: Program, ti: usize, pool: &HashSet<Key>, marked: bool) -> Vec<Key> {
    if !tab.isparent(ti, a) {
        return Vec::new();
    }
    pool.iter()
        .filter(|&&(tj, m)| m == marked && tab.child_ok(a, ti, tj))
        .copied()
        .collect()
}

/// The witness-forest backend state driven by the kernel's fixpoint loop.
///
/// `X` is the set of proved keys plus their latest witness sets. The
/// witness computation is monotone in `X`, so overwriting always stores a
/// superset; `first_proved` remembers the round a key entered `X`, which
/// well-founds the reconstruction.
struct Witnessed {
    tab: Tables,
    uses_mark: bool,
    proved: HashSet<Key>,
    witnesses: HashMap<Key, (Vec<Key>, Vec<Key>)>,
    first_proved: HashMap<Key, usize>,
    round: usize,
}

impl Witnessed {
    fn new(
        lg: &mut Logic,
        lean: &Lean,
        goal: Formula,
        uses_mark: bool,
        limits: &Limits,
        started: Instant,
    ) -> Result<Witnessed, Exhausted> {
        Ok(Witnessed {
            tab: Tables::build(lg, lean, goal, limits, started)?,
            uses_mark,
            proved: HashSet::new(),
            witnesses: HashMap::new(),
            first_proved: HashMap::new(),
            round: 0,
        })
    }
}

impl Backend for Witnessed {
    /// A root triple plus the `dsat` witness path to a ψ-satisfying type.
    type Hit = (Key, Vec<Key>);

    fn step(&mut self) -> Result<bool, Exhausted> {
        self.round += 1;
        let tab = &self.tab;
        let n = tab.types.len();
        let prev = self.proved.clone();
        let mut changed = false;
        for ti in 0..n {
            // Unmarked triples: no mark here, unmarked witnesses.
            let it = self.round;
            let first_proved = &mut self.first_proved;
            let mut try_add = |proved: &mut HashSet<Key>,
                               witnesses: &mut HashMap<Key, (Vec<Key>, Vec<Key>)>,
                               key: Key,
                               w1: Vec<Key>,
                               w2: Vec<Key>|
             -> bool {
                let fresh = proved.insert(key);
                witnesses.insert(key, (w1, w2));
                first_proved.entry(key).or_insert(it);
                fresh
            };
            if !tab.marked_here(ti) {
                let w1 = witness_set(tab, Program::Down1, ti, &prev, false);
                let w2 = witness_set(tab, Program::Down2, ti, &prev, false);
                if (!tab.isparent(ti, Program::Down1) || !w1.is_empty())
                    && (!tab.isparent(ti, Program::Down2) || !w2.is_empty())
                {
                    changed |= try_add(&mut self.proved, &mut self.witnesses, (ti, false), w1, w2);
                }
            }
            if self.uses_mark {
                // Marked triples: the three cases of Fig 16.
                let w1u = witness_set(tab, Program::Down1, ti, &prev, false);
                let w2u = witness_set(tab, Program::Down2, ti, &prev, false);
                let ok_here = tab.marked_here(ti)
                    && (!tab.isparent(ti, Program::Down1) || !w1u.is_empty())
                    && (!tab.isparent(ti, Program::Down2) || !w2u.is_empty());
                if ok_here {
                    changed |= try_add(
                        &mut self.proved,
                        &mut self.witnesses,
                        (ti, true),
                        w1u.clone(),
                        w2u.clone(),
                    );
                }
                if !tab.marked_here(ti) {
                    let w1m = witness_set(tab, Program::Down1, ti, &prev, true);
                    let w2m = witness_set(tab, Program::Down2, ti, &prev, true);
                    // Mark below on the 1 side.
                    if tab.isparent(ti, Program::Down1)
                        && !w1m.is_empty()
                        && (!tab.isparent(ti, Program::Down2) || !w2u.is_empty())
                    {
                        changed |= try_add(
                            &mut self.proved,
                            &mut self.witnesses,
                            (ti, true),
                            w1m.clone(),
                            w2u.clone(),
                        );
                    } else if tab.isparent(ti, Program::Down2)
                        && !w2m.is_empty()
                        && (!tab.isparent(ti, Program::Down1) || !w1u.is_empty())
                    {
                        changed |=
                            try_add(&mut self.proved, &mut self.witnesses, (ti, true), w1u, w2m);
                    }
                }
            }
        }
        Ok(changed)
    }

    fn check(&mut self) -> Option<(Key, Vec<Key>)> {
        // FinalCheck: a root triple whose witness forest satisfies ψ (dsat).
        let tab = &self.tab;
        for &key in &self.proved {
            let (ti, marked) = key;
            if marked != self.uses_mark
                || tab.isparent(ti, Program::Up1)
                || tab.isparent(ti, Program::Up2)
            {
                continue;
            }
            if let Some(path) = dsat_path(tab, &self.witnesses, key, &mut HashSet::new()) {
                if std::env::var_os("XSAT_DEBUG").is_some() {
                    eprintln!("[witnessed] root {key:?} path {path:?}");
                    for &(ti, m) in &path {
                        eprintln!(
                            "  key ({ti},{m}): bits {:?} goal={}",
                            tab.types[ti], tab.goal_status[ti]
                        );
                    }
                }
                return Some((key, path));
            }
        }
        None
    }

    fn reconstruct(&mut self, (root, path): (Key, Vec<Key>)) -> Model {
        let tree = rebuild(&self.tab, &self.witnesses, &self.first_proved, root, &path);
        Model::from_binary(&tree)
    }

    fn telemetry(&self) -> Telemetry {
        Telemetry::Witnessed {
            types: self.tab.types.len(),
            proved: self.proved.len(),
        }
    }

    fn observe(&self) -> StepObservation {
        StepObservation {
            store_nodes: self.tab.types.len() as u64,
            proved: self.proved.len() as u64,
            ..StepObservation::default()
        }
    }
}

/// Diamond count of the witnessed backend's (unplunged) lean for `goal` —
/// the enumeration-feasibility measure checked by
/// [`solve_with`](crate::solve_with): the governed dispatch path refuses
/// to enumerate leans with more than
/// [`Limits::max_lean_diamonds`](crate::Limits::max_lean_diamonds)
/// diamonds, leaving only the symbolic backend feasible. Exposed so
/// front-end analyses (the lint engine's `wildcard-explosion` rule) can
/// read the same infeasibility accounting without running a solve. The
/// arena's hash-consing makes the recomputation inside
/// [`solve_witnessed`] free of duplicate nodes.
pub fn lean_diamonds(lg: &mut Logic, goal: Formula) -> usize {
    let goal = lg.collapse_nu(goal);
    let closure = Closure::compute(lg, goal);
    let lean = Lean::compute(lg, &closure);
    lean.diam_entries().count()
}

/// Decides satisfiability with the witnessed Fig 16 algorithm, unbounded.
///
/// Exponential like [`solve_explicit`](crate::solve_explicit); meant for
/// small formulas and cross-validation.
///
/// # Panics
///
/// Panics on open goals or leans with more than
/// [`MAX_EXPLICIT_DIAMONDS`](crate::MAX_EXPLICIT_DIAMONDS) diamonds. The
/// budget-governed path ([`crate::solve_with`]) reports oversized leans as
/// a typed resource exhaustion instead.
pub fn solve_witnessed(lg: &mut Logic, goal: Formula) -> Solved {
    let diamonds = lean_diamonds(lg, goal);
    assert!(
        diamonds <= MAX_EXPLICIT_DIAMONDS,
        "lean too large for the witnessed solver: {diamonds} diamonds (max {MAX_EXPLICIT_DIAMONDS})"
    );
    solve_witnessed_bounded(lg, goal, &Limits::none(), &Recorder::noop())
        .expect("an unbounded witnessed run cannot exhaust")
}

/// [`solve_witnessed`] under the caller's limits (the kernel's governed
/// dispatch path; the lean bound has already been checked there). The
/// closure/lean computation and type enumeration are charged against the
/// wall-clock deadline: the driver only gets what construction left over.
pub(crate) fn solve_witnessed_bounded(
    lg: &mut Logic,
    goal: Formula,
    limits: &Limits,
    rec: &Recorder,
) -> Result<Solved, SolveError> {
    let started = std::time::Instant::now();
    let (lean, closure, uses_mark, goal) = {
        let _span = rec.span("lean");
        let goal = lg.collapse_nu(goal);
        assert!(lg.is_closed(goal), "satisfiability goal must be closed");
        let closure = Closure::compute(lg, goal);
        let lean = Lean::compute(lg, &closure);
        let uses_mark = lg.mentions_start(goal);
        (lean, closure, uses_mark, goal)
    };
    let backend = {
        let _span = rec.span("enumerate");
        Witnessed::new(lg, &lean, goal, uses_mark, limits, started)
    }
    .map_err(|e| {
        limit_event(rec, &e);
        SolveError::from(e)
    })?;
    let remaining = limits.after(started.elapsed()).inspect_err(|e| {
        limit_event(rec, e);
    })?;
    run_fixpoint_traced(backend, lean.len(), closure.len(), &remaining, rec)
}

/// `dsat(x, ψ)`: ψ holds at the triple's type or somewhere down its
/// witness forest. Returns the witness path from `key` (inclusive) to the
/// satisfying triple, so the reconstruction can route the model through it.
fn dsat_path(
    tab: &Tables,
    witnesses: &HashMap<Key, (Vec<Key>, Vec<Key>)>,
    key: Key,
    seen: &mut HashSet<Key>,
) -> Option<Vec<Key>> {
    if !seen.insert(key) {
        return None;
    }
    // ψ ∈̇ t: the type itself satisfies the goal (the mark flag of the key
    // does not change the type's truth assignment — `s ∈ t` already does).
    if tab.goal_status[key.0] {
        return Some(vec![key]);
    }
    let (w1, w2) = witnesses.get(&key)?;
    for &k in w1.iter().chain(w2.iter()) {
        if let Some(mut path) = dsat_path(tab, witnesses, k, seen) {
            path.insert(0, key);
            return Some(path);
        }
    }
    None
}

/// Rebuilds a satisfying tree from the witness forest (depth-first, first
/// witness).
fn rebuild(
    tab: &Tables,
    witnesses: &HashMap<Key, (Vec<Key>, Vec<Key>)>,
    first_proved: &HashMap<Key, usize>,
    key: Key,
    goal_path: &[Key],
) -> BinaryTree {
    let (ti, _marked) = key;
    let my_round = first_proved[&key];
    let (w1, w2) = witnesses.get(&key).cloned().unwrap_or_default();
    // The model must contain the ψ-satisfying node: when this key is on the
    // dsat path, the next path key is routed through whichever side's
    // witness set contains it; the other side (and everything off the path)
    // takes the earliest-proved witness, which is well-founded — when `key`
    // was first proved each required witness already existed.
    let next_on_path = match goal_path {
        [first, next, ..] if *first == key => Some(*next),
        _ => None,
    };
    let pick = |ws: &[Key], need: bool, route: Option<Key>| -> Option<Key> {
        if !need {
            return None;
        }
        if let Some(k) = route {
            return Some(k);
        }
        ws.iter()
            .filter(|k| first_proved[*k] < my_round)
            .min_by_key(|k| first_proved[*k])
            .copied()
    };
    let (route1, route2) = match next_on_path {
        Some(k) if w1.contains(&k) => (Some(k), None),
        Some(k) => (None, Some(k)),
        None => (None, None),
    };
    let tail: &[Key] = if next_on_path.is_some() {
        &goal_path[1..]
    } else {
        &[]
    };
    let c1 = pick(&w1, tab.isparent(ti, Program::Down1), route1).map(|k| {
        rebuild(
            tab,
            witnesses,
            first_proved,
            k,
            if route1.is_some() { tail } else { &[] },
        )
    });
    let c2 = pick(&w2, tab.isparent(ti, Program::Down2), route2).map(|k| {
        rebuild(
            tab,
            witnesses,
            first_proved,
            k,
            if route2.is_some() { tail } else { &[] },
        )
    });
    let lbl = label_of(tab, ti);
    BinaryTree::new(lbl, tab.marked_here(ti), c1, c2)
}

fn label_of(tab: &Tables, ti: usize) -> ftree::Label {
    tab.props
        .iter()
        .find(|&&(pos, _)| tab.types[ti].get(pos))
        .map(|&(_, l)| l)
        .expect("every type carries exactly one proposition")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mulogic::ModelChecker;

    fn solve(src: &str) -> Solved {
        let mut lg = Logic::new();
        let goal = lg.parse(src).unwrap();
        solve_witnessed(&mut lg, goal)
    }

    #[test]
    fn verdicts() {
        assert!(solve("a").outcome.is_satisfiable());
        assert!(!solve("a & ~a").outcome.is_satisfiable());
        assert!(solve("a & <1>(b & <2>c)").outcome.is_satisfiable());
        assert!(!solve("s & <1>s").outcome.is_satisfiable());
    }

    #[test]
    fn models_check_out() {
        for src in [
            "a & <1>(b & <-1>a)",
            "<-1><2>s",
            "let_mu X = b | <2>X in <1>X",
            "b & <-2>a",
        ] {
            let mut lg = Logic::new();
            let goal = lg.parse(src).unwrap();
            let s = solve_witnessed(&mut lg, goal);
            let m = s.outcome.model().unwrap_or_else(|| panic!("{src} unsat"));
            let mc = ModelChecker::new_row(m.roots());
            assert!(!mc.eval(&lg, goal).is_empty(), "{src}: {m}");
        }
    }

    #[test]
    fn goal_node_is_in_the_model() {
        // The dsat path routing must place the ψ-satisfying node in the
        // reconstructed tree even when it is not at the root.
        let mut lg = Logic::new();
        let goal = lg.parse("<-1>(a & ~b)").unwrap();
        let s = solve_witnessed(&mut lg, goal);
        let m = s.outcome.model().unwrap();
        let mc = ModelChecker::new_row(m.roots());
        assert!(!mc.eval(&lg, goal).is_empty(), "{m}");
    }

    #[test]
    fn stats() {
        let s = solve("a & <1>b");
        assert!(s.stats.telemetry.explicit_types().unwrap() > 0);
        assert_eq!(s.stats.telemetry.backend_name(), "witnessed");
        assert!(s.stats.iterations >= 2);
    }
}
