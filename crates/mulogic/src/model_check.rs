//! Model checker: the denotational semantics of Fig 2 evaluated over the
//! foci of one concrete finite tree.
//!
//! The interpretation domain is the (finite) set of focused trees obtained
//! by focusing each node of a given tree. `⟨a⟩ϕ` holds at a focus `f` iff
//! `f⟨a⟩` is defined and satisfies ϕ; fixpoints are computed by Kleene
//! iteration (least from ∅, greatest from the full set).
//!
//! A subformula with no free fixpoint variable denotes the same foci set
//! wherever it occurs, so within one evaluation each closed subformula met
//! under a binder is computed once and its set reused: a Kleene round
//! recomputes only the subformulas that mention a fixpoint variable. A DTD
//! type formula nested inside a query's recursion is therefore evaluated
//! once per check, not once per round of every enclosing fixpoint.
//!
//! This module is the semantic *oracle* of the code base: translations and
//! the satisfiability solver are property-tested against it.

use std::collections::HashMap;

use ftree::{FocusedTree, Tree};

use crate::syntax::{Formula, FormulaKind, Program, Var};
use crate::Logic;

/// A set of foci of the checker's tree, as a bit set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FociSet {
    words: Vec<u64>,
    len: usize,
}

impl FociSet {
    fn empty(len: usize) -> Self {
        FociSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    fn full(len: usize) -> Self {
        let mut s = FociSet::empty(len);
        for i in 0..len {
            s.insert(i);
        }
        s
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Whether focus index `i` belongs to the set.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of foci in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn union_with(&mut self, o: &FociSet) {
        for (a, b) in self.words.iter_mut().zip(&o.words) {
            *a |= b;
        }
    }

    fn inter_with(&mut self, o: &FociSet) {
        for (a, b) in self.words.iter_mut().zip(&o.words) {
            *a &= b;
        }
    }

    /// Indices of member foci, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&i| self.contains(i))
    }
}

/// Evaluates Lµ formulas over the foci of a fixed tree.
///
/// # Example
///
/// ```
/// use ftree::Tree;
/// use mulogic::{Logic, ModelChecker};
///
/// let mut lg = Logic::new();
/// // "some following sibling is named c"
/// let f = lg.parse("let_mu X = <2>c | <2>X in X").unwrap();
/// let tree = Tree::parse_xml("<r><a/><b/><c/></r>").unwrap();
/// let mc = ModelChecker::new(&tree);
/// let sat = mc.eval(&lg, f);
/// // holds at <a/> and <b/>, not at <c/> or <r>
/// assert_eq!(sat.count(), 2);
/// ```
#[derive(Debug)]
pub struct ModelChecker {
    foci: Vec<FocusedTree>,
    /// `succ[p][i] = Some(j)` iff `foci[i]⟨p⟩ = foci[j]`.
    succ: [Vec<Option<usize>>; 4],
    marked: FociSet,
}

impl ModelChecker {
    /// Builds the focus universe and transition tables of `tree`.
    pub fn new(tree: &Tree) -> Self {
        Self::new_row(std::slice::from_ref(tree))
    }

    /// Builds the checker over a top-level sibling row (a *hedge*): the
    /// general shape of the logic's models, whose `Top` context may hold
    /// siblings.
    pub fn new_row(row: &[Tree]) -> Self {
        let foci = FocusedTree::row_foci(row);
        let index: HashMap<&FocusedTree, usize> =
            foci.iter().enumerate().map(|(i, f)| (f, i)).collect();
        let mut succ = [const { Vec::new() }; 4];
        for (pi, p) in Program::ALL.iter().enumerate() {
            succ[pi] = foci
                .iter()
                .map(|f| f.step(*p).and_then(|g| index.get(&g).copied()))
                .collect();
        }
        let mut marked = FociSet::empty(foci.len());
        for (i, f) in foci.iter().enumerate() {
            if f.is_marked() {
                marked.insert(i);
            }
        }
        ModelChecker { foci, succ, marked }
    }

    /// The focus universe, in document order (index 0 is the root).
    pub fn foci(&self) -> &[FocusedTree] {
        &self.foci
    }

    /// Index of a focus in the universe, if it focuses this tree.
    pub fn index_of(&self, f: &FocusedTree) -> Option<usize> {
        self.foci.iter().position(|g| g == f)
    }

    /// The interpretation `⟦f⟧∅` restricted to this tree's foci.
    pub fn eval(&self, lg: &Logic, f: Formula) -> FociSet {
        Eval::new(self, lg).eval(f).0
    }

    /// Whether `f` holds at the given focus.
    pub fn holds_at(&self, lg: &Logic, f: Formula, focus: &FocusedTree) -> bool {
        match self.index_of(focus) {
            Some(i) => self.eval(lg, f).contains(i),
            None => false,
        }
    }

    /// Foci satisfying `f`, materialized.
    pub fn sat_foci(&self, lg: &Logic, f: Formula) -> Vec<FocusedTree> {
        let s = self.eval(lg, f);
        s.iter().map(|i| self.foci[i].clone()).collect()
    }

    /// The denotation of an atom, a formula with no subformula and no
    /// variable; `None` for any other formula.
    fn atom(&self, kind: &FormulaKind) -> Option<FociSet> {
        let n = self.foci.len();
        let mut s = FociSet::empty(n);
        match kind {
            FormulaKind::True => return Some(FociSet::full(n)),
            FormulaKind::False => {}
            FormulaKind::Prop(l) => {
                for (i, fo) in self.foci.iter().enumerate() {
                    if fo.label() == *l {
                        s.insert(i);
                    }
                }
            }
            FormulaKind::NotProp(l) => {
                for (i, fo) in self.foci.iter().enumerate() {
                    if fo.label() != *l {
                        s.insert(i);
                    }
                }
            }
            FormulaKind::Start => return Some(self.marked.clone()),
            FormulaKind::NotStart => {
                for i in 0..n {
                    if !self.marked.contains(i) {
                        s.insert(i);
                    }
                }
            }
            FormulaKind::NotDiamTrue(p) => {
                for (i, j) in self.succ[program_index(*p)].iter().enumerate() {
                    if j.is_none() {
                        s.insert(i);
                    }
                }
            }
            _ => return None,
        }
        Some(s)
    }

    /// `⟦⟨p⟩ϕ⟧` from `⟦ϕ⟧`.
    fn diam(&self, p: Program, sp: &FociSet) -> FociSet {
        let mut s = FociSet::empty(self.foci.len());
        for (i, j) in self.succ[program_index(p)].iter().enumerate() {
            if j.is_some_and(|j| sp.contains(j)) {
                s.insert(i);
            }
        }
        s
    }
}

/// Position of `p` in [`Program::ALL`], the row of the successor tables.
fn program_index(p: Program) -> usize {
    Program::ALL.iter().position(|&x| x == p).expect("program")
}

/// No frame: what [`Eval::eval`] reports for a subformula that reads no
/// fixpoint variable.
const NO_FRAME: usize = usize::MAX;

/// A fixpoint variable bound during an evaluation.
struct Frame {
    var: Var,
    /// The variable's current Kleene approximant.
    value: FociSet,
    /// The frame this binding shadows, if any.
    shadows: Option<usize>,
}

/// One evaluation of a formula over a checker's foci.
///
/// Bound variables live on a stack of frames, outermost first. Evaluating
/// a subformula also reports the lowest frame it read: when that frame was
/// pushed inside the subformula (or none was read), the subformula is
/// closed, its set is the same in every environment, and it is memoized.
/// Only subformulas met under a binder are memoized: outside every
/// fixpoint no Kleene round repeats their evaluation.
struct Eval<'a> {
    mc: &'a ModelChecker,
    lg: &'a Logic,
    frames: Vec<Frame>,
    /// Innermost frame binding each variable in scope.
    slot: HashMap<Var, usize>,
    closed: HashMap<Formula, FociSet>,
}

impl<'a> Eval<'a> {
    fn new(mc: &'a ModelChecker, lg: &'a Logic) -> Self {
        Eval {
            mc,
            lg,
            frames: Vec::new(),
            slot: HashMap::new(),
            closed: HashMap::new(),
        }
    }

    /// `⟦f⟧` under the current frames, with the lowest frame it read.
    fn eval(&mut self, f: Formula) -> (FociSet, usize) {
        let lg = self.lg;
        let kind = lg.kind(f);
        if let FormulaKind::Var(v) = kind {
            let Some(&at) = self.slot.get(v) else {
                panic!("model check: unbound variable {}", lg.var_name(*v));
            };
            return (self.frames[at].value.clone(), at);
        }
        if let Some(s) = self.mc.atom(kind) {
            return (s, NO_FRAME);
        }
        let depth = self.frames.len();
        if depth > 0 {
            if let Some(s) = self.closed.get(&f) {
                return (s.clone(), NO_FRAME);
            }
        }
        let (s, read) = match kind {
            FormulaKind::Or(a, b) | FormulaKind::And(a, b) => {
                let (mut sa, ra) = self.eval(*a);
                let (sb, rb) = self.eval(*b);
                if matches!(kind, FormulaKind::Or(..)) {
                    sa.union_with(&sb);
                } else {
                    sa.inter_with(&sb);
                }
                (sa, ra.min(rb))
            }
            FormulaKind::Diam(p, phi) => {
                let (sp, read) = self.eval(*phi);
                (self.mc.diam(*p, &sp), read)
            }
            FormulaKind::Mu(binds, body) => self.fixpoint(binds, *body, false),
            FormulaKind::Nu(binds, body) => self.fixpoint(binds, *body, true),
            _ => unreachable!("atoms and variables return above"),
        };
        if depth > 0 && read >= depth {
            self.closed.insert(f, s.clone());
        }
        (s, read)
    }

    /// Kleene iteration of `binds` from ∅ (least) or every focus
    /// (greatest), all bindings updated together each round, then `body`.
    fn fixpoint(
        &mut self,
        binds: &[(Var, Formula)],
        body: Formula,
        greatest: bool,
    ) -> (FociSet, usize) {
        let n = self.mc.foci.len();
        let base = self.frames.len();
        for (k, &(var, _)) in binds.iter().enumerate() {
            let shadows = self.slot.insert(var, base + k);
            let value = if greatest {
                FociSet::full(n)
            } else {
                FociSet::empty(n)
            };
            self.frames.push(Frame {
                var,
                value,
                shadows,
            });
        }
        let mut read = NO_FRAME;
        let mut next = Vec::with_capacity(binds.len());
        loop {
            for &(_, phi) in binds {
                let (s, r) = self.eval(phi);
                read = read.min(r);
                next.push(s);
            }
            let mut stable = true;
            for (frame, s) in self.frames[base..].iter_mut().zip(next.drain(..)) {
                if frame.value != s {
                    frame.value = s;
                    stable = false;
                }
            }
            if stable {
                break;
            }
        }
        let (s, r) = self.eval(body);
        for frame in self.frames.drain(base..).rev() {
            match frame.shadows {
                Some(outer) => self.slot.insert(frame.var, outer),
                None => self.slot.remove(&frame.var),
            };
        }
        (s, read.min(r))
    }
}

/// The evaluator [`Eval`] replaced, kept as the reference it is tested
/// against: an environment map cloned into every fixpoint, and every
/// subformula re-evaluated in every Kleene round.
#[cfg(test)]
impl ModelChecker {
    fn eval_reference(&self, lg: &Logic, f: Formula) -> FociSet {
        self.eval_env(lg, f, &HashMap::new())
    }

    fn eval_env(&self, lg: &Logic, f: Formula, env: &HashMap<Var, FociSet>) -> FociSet {
        let n = self.foci.len();
        match lg.kind(f) {
            FormulaKind::True => FociSet::full(n),
            FormulaKind::False => FociSet::empty(n),
            FormulaKind::Prop(l) => {
                let mut s = FociSet::empty(n);
                for (i, fo) in self.foci.iter().enumerate() {
                    if fo.label() == *l {
                        s.insert(i);
                    }
                }
                s
            }
            FormulaKind::NotProp(l) => {
                let mut s = FociSet::empty(n);
                for (i, fo) in self.foci.iter().enumerate() {
                    if fo.label() != *l {
                        s.insert(i);
                    }
                }
                s
            }
            FormulaKind::Start => self.marked.clone(),
            FormulaKind::NotStart => {
                let mut s = FociSet::empty(n);
                for i in 0..n {
                    if !self.marked.contains(i) {
                        s.insert(i);
                    }
                }
                s
            }
            FormulaKind::Var(v) => env
                .get(v)
                .cloned()
                .unwrap_or_else(|| panic!("model check: unbound variable {}", lg.var_name(*v))),
            FormulaKind::Or(a, b) => {
                let mut sa = self.eval_env(lg, *a, env);
                sa.union_with(&self.eval_env(lg, *b, env));
                sa
            }
            FormulaKind::And(a, b) => {
                let mut sa = self.eval_env(lg, *a, env);
                sa.inter_with(&self.eval_env(lg, *b, env));
                sa
            }
            FormulaKind::Diam(p, phi) => {
                let sp = self.eval_env(lg, *phi, env);
                let pi = Program::ALL.iter().position(|x| x == p).expect("program");
                let mut s = FociSet::empty(n);
                for i in 0..n {
                    if let Some(j) = self.succ[pi][i] {
                        if sp.contains(j) {
                            s.insert(i);
                        }
                    }
                }
                s
            }
            FormulaKind::NotDiamTrue(p) => {
                let pi = Program::ALL.iter().position(|x| x == p).expect("program");
                let mut s = FociSet::empty(n);
                for i in 0..n {
                    if self.succ[pi][i].is_none() {
                        s.insert(i);
                    }
                }
                s
            }
            FormulaKind::Mu(binds, body) => self.eval_fixpoint(lg, binds, *body, env, false),
            FormulaKind::Nu(binds, body) => self.eval_fixpoint(lg, binds, *body, env, true),
        }
    }

    fn eval_fixpoint(
        &self,
        lg: &Logic,
        binds: &[(Var, Formula)],
        body: Formula,
        env: &HashMap<Var, FociSet>,
        greatest: bool,
    ) -> FociSet {
        let n = self.foci.len();
        let mut cur = env.clone();
        for &(v, _) in binds {
            cur.insert(
                v,
                if greatest {
                    FociSet::full(n)
                } else {
                    FociSet::empty(n)
                },
            );
        }
        loop {
            let next: Vec<(Var, FociSet)> = binds
                .iter()
                .map(|&(v, phi)| (v, self.eval_env(lg, phi, &cur)))
                .collect();
            let stable = next.iter().all(|(v, s)| cur.get(v) == Some(s));
            for (v, s) in next {
                cur.insert(v, s);
            }
            if stable {
                break;
            }
        }
        self.eval_env(lg, body, &cur)
    }
}

/// Whether `f` is satisfied somewhere on the top-level sibling row `roots`
/// — the oracle predicate behind witness verification.
///
/// The satisfiability solvers answer "some finite tree has a focus
/// satisfying ψ" (the plunging formula of §7.1 quantifies over foci), so a
/// reconstructed model is *valid* exactly when ψ's denotation over the
/// model's foci is non-empty. Every counter-example the analyzer emits is
/// re-checked through this function before it leaves the engine.
///
/// # Example
///
/// ```
/// use ftree::Tree;
/// use mulogic::{model_check, Logic};
///
/// let mut lg = Logic::new();
/// let f = lg.parse("a & <1>b").unwrap();
/// let good = Tree::parse_xml("<a><b/></a>").unwrap();
/// let bad = Tree::parse_xml("<a><c/></a>").unwrap();
/// assert!(model_check(&lg, f, std::slice::from_ref(&good)));
/// assert!(!model_check(&lg, f, std::slice::from_ref(&bad)));
/// ```
pub fn model_check(lg: &Logic, f: Formula, roots: &[Tree]) -> bool {
    if roots.is_empty() {
        return false;
    }
    !ModelChecker::new_row(roots).eval(lg, f).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_gen::{arb_tree, prog, LABELS};
    use ftree::{Direction, Label};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn tree() -> Tree {
        // <a><b><d/></b><c/></a>
        Tree::parse_xml("<a><b><d/></b><c/></a>").unwrap()
    }

    #[test]
    fn props_and_modalities() {
        let mut lg = Logic::new();
        let mc = ModelChecker::new(&tree());
        let b = lg.prop(Label::new("b"));
        let sat = mc.eval(&lg, b);
        assert_eq!(sat.count(), 1);
        // ⟨1⟩b holds at a only.
        let d = lg.diam(Direction::Down1, b);
        let sat = mc.sat_foci(&lg, d);
        assert_eq!(sat.len(), 1);
        assert_eq!(sat[0].label().as_str(), "a");
    }

    #[test]
    fn no_first_child_at_leaves() {
        let mut lg = Logic::new();
        let mc = ModelChecker::new(&tree());
        let f = lg.not_diam_true(Direction::Down1);
        let sat = mc.sat_foci(&lg, f);
        let mut labels: Vec<&str> = sat.iter().map(|f| f.label().as_str()).collect();
        labels.sort();
        assert_eq!(labels, vec!["c", "d"]);
    }

    #[test]
    fn least_fixpoint_descendant() {
        let mut lg = Logic::new();
        // µX. ⟨1⟩(d ∨ X) ∨ ⟨2⟩X : "d is among my descendants" (binary-style)
        let d = lg.prop(Label::new("d"));
        let x = lg.fresh_var("X");
        let xv = lg.var(x);
        let or_inner = lg.or(d, xv);
        let d1 = lg.diam(Direction::Down1, or_inner);
        let d2 = lg.diam(Direction::Down2, xv);
        let phi = lg.or(d1, d2);
        let f = lg.mu1(x, phi);
        let mc = ModelChecker::new(&tree());
        let sat = mc.sat_foci(&lg, f);
        let mut labels: Vec<&str> = sat.iter().map(|f| f.label().as_str()).collect();
        labels.sort();
        // In binary style: b has ⟨1⟩d; a has ⟨1⟩(b with X)... a and b hold.
        assert_eq!(labels, vec!["a", "b"]);
    }

    #[test]
    fn empty_least_vs_greatest_nonguarded() {
        // ϕ = µX.⟨1⟩X ∨ ⟨1̄⟩X has an empty interpretation;
        // ψ = νX.⟨1⟩X ∨ ⟨1̄⟩X holds at parent-child pairs (paper §4 example).
        let mut lg = Logic::new();
        let x = lg.fresh_var("X");
        let xv = lg.var(x);
        let d1 = lg.diam(Direction::Down1, xv);
        let u1 = lg.diam(Direction::Up1, xv);
        let or = lg.or(d1, u1);
        let mu = lg.mu1(x, or);
        let nu = lg.nu1(x, or);
        let t = Tree::parse_xml("<a><b/></a>").unwrap();
        let mc = ModelChecker::new(&t);
        assert!(mc.eval(&lg, mu).is_empty());
        assert_eq!(mc.eval(&lg, nu).count(), 2);
    }

    #[test]
    fn start_mark() {
        let mut lg = Logic::new();
        let t = Tree::parse_xml("<a><b s=\"1\"/></a>").unwrap();
        let mc = ModelChecker::new(&t);
        let s = lg.start();
        let sat = mc.sat_foci(&lg, s);
        assert_eq!(sat.len(), 1);
        assert_eq!(sat[0].label().as_str(), "b");
    }

    #[test]
    fn mutually_recursive_fixpoint() {
        // µ(X = ⟨1⟩Y, Y = c ∨ ⟨2⟩Y) in X : "some child is named c".
        let mut lg = Logic::new();
        let c = lg.prop(Label::new("c"));
        let x = lg.fresh_var("X");
        let y = lg.fresh_var("Y");
        let yv = lg.var(y);
        let xv = lg.var(x);
        let def_y = {
            let d2 = lg.diam(Direction::Down2, yv);
            lg.or(c, d2)
        };
        let def_x = lg.diam(Direction::Down1, yv);
        let f = lg.mu(vec![(x, def_x), (y, def_y)], xv);
        let mc = ModelChecker::new(&tree());
        let sat = mc.sat_foci(&lg, f);
        assert_eq!(sat.len(), 1);
        assert_eq!(sat[0].label().as_str(), "a");
    }

    /// Builds a formula from a stream of random words. Fixpoints bind one
    /// to three variables whose definitions may refer to each other
    /// (mutual recursion) and may rebind a variable of the scope; a
    /// fixpoint may be closed and nested under an open one; and earlier
    /// subterms are reused, so the formula shares subterms.
    struct Gen<'a> {
        lg: &'a mut Logic,
        words: std::iter::Cycle<std::vec::IntoIter<u64>>,
        built: Vec<Formula>,
    }

    impl<'a> Gen<'a> {
        fn new(lg: &'a mut Logic, words: Vec<u64>) -> Self {
            Gen {
                lg,
                words: words.into_iter().cycle(),
                built: Vec::new(),
            }
        }

        fn pick(&mut self, n: usize) -> usize {
            (self.words.next().unwrap_or(0) % n as u64) as usize
        }

        fn formula(&mut self, depth: u32, scope: &[Var]) -> Formula {
            if depth == 0 {
                return self.leaf(scope);
            }
            let choice = self.pick(8);
            let f = match choice {
                0 | 1 => {
                    let a = self.formula(depth - 1, scope);
                    let b = self.formula(depth - 1, scope);
                    if choice == 0 {
                        self.lg.or(a, b)
                    } else {
                        self.lg.and(a, b)
                    }
                }
                2 | 3 => {
                    let p = prog(self.pick(4) as u8);
                    let a = self.formula(depth - 1, scope);
                    self.lg.diam(p, a)
                }
                4 => self.fixpoint(depth - 1, &[]),
                5 | 6 => self.fixpoint(depth - 1, scope),
                _ => match self.shared(scope) {
                    Some(g) => g,
                    None => self.leaf(scope),
                },
            };
            self.built.push(f);
            f
        }

        fn leaf(&mut self, scope: &[Var]) -> Formula {
            let label = Label::new(LABELS[self.pick(LABELS.len())]);
            match self.pick(9) {
                0..=2 if !scope.is_empty() => {
                    let v = scope[self.pick(scope.len())];
                    self.lg.var(v)
                }
                3 => self.lg.tt(),
                4 => self.lg.start(),
                5 => self.lg.not_start(),
                6 => {
                    let p = prog(self.pick(4) as u8);
                    self.lg.not_diam_true(p)
                }
                7 => self.lg.not_prop(label),
                _ => self.lg.prop(label),
            }
        }

        /// An earlier subterm whose free variables are all in `scope`.
        fn shared(&mut self, scope: &[Var]) -> Option<Formula> {
            let fits: Vec<Formula> = self
                .built
                .iter()
                .copied()
                .filter(|&g| self.lg.free_vars(g).iter().all(|v| scope.contains(v)))
                .collect();
            (!fits.is_empty()).then(|| fits[self.pick(fits.len())])
        }

        fn fixpoint(&mut self, depth: u32, scope: &[Var]) -> Formula {
            let mut inner = scope.to_vec();
            let mut vars = Vec::new();
            for _ in 0..=self.pick(3) {
                let v = if !scope.is_empty() && self.pick(4) == 0 {
                    scope[self.pick(scope.len())]
                } else {
                    self.lg.fresh_var("X")
                };
                if !vars.contains(&v) {
                    vars.push(v);
                    inner.push(v);
                }
            }
            let mut binds = Vec::new();
            for &v in &vars {
                binds.push((v, self.formula(depth, &inner)));
            }
            let body = if self.pick(2) == 0 {
                let v = vars[self.pick(vars.len())];
                self.lg.var(v)
            } else {
                self.formula(depth, &inner)
            };
            if self.pick(2) == 0 {
                self.lg.mu(binds, body)
            } else {
                self.lg.nu(binds, body)
            }
        }
    }

    /// A row of one to three trees with at most one start mark.
    fn arb_row() -> impl Strategy<Value = Vec<Tree>> {
        (prop::collection::vec(arb_tree(3), 1..3), any::<u64>()).prop_map(|(mut row, m)| {
            let paths: Vec<(usize, Vec<usize>)> = row
                .iter()
                .enumerate()
                .flat_map(|(i, t)| t.node_paths().into_iter().map(move |p| (i, p)))
                .collect();
            if m % 4 != 0 {
                let (i, path) = &paths[(m / 4) as usize % paths.len()];
                row[*i] = row[*i].mark_at(path).expect("path of the tree");
            }
            row
        })
    }

    fn arb_words() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(any::<u64>(), 8..48)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The memoizing evaluator and the reference agree foci set for
        /// foci set, on the generated formula and on every closed
        /// subformula built along the way, over single trees and hedges.
        #[test]
        fn memoized_eval_matches_reference(row in arb_row(), words in arb_words()) {
            let mut lg = Logic::new();
            let mut gen = Gen::new(&mut lg, words);
            let f = gen.formula(4, &[]);
            let built = std::mem::take(&mut gen.built);
            let mc = match &row[..] {
                [t] => ModelChecker::new(t),
                _ => ModelChecker::new_row(&row),
            };
            prop_assert_eq!(mc.eval(&lg, f), mc.eval_reference(&lg, f));
            for g in built {
                if lg.is_closed(g) {
                    prop_assert_eq!(mc.eval(&lg, g), mc.eval_reference(&lg, g));
                }
            }
        }
    }

    /// The generator reaches the shapes the property is about: n-ary
    /// fixpoints, closed fixpoints under open ones, and subterms shared
    /// by several parents.
    #[test]
    fn generator_covers_the_shapes() {
        let (mut mutual, mut closed_under_open, mut shared) = (0, 0, 0);
        let mut rng = TestRng::from_name("model_check::generator_covers_the_shapes");
        for _ in 0..64 {
            let mut lg = Logic::new();
            let f = Gen::new(&mut lg, arb_words().generate(&mut rng)).formula(4, &[]);
            let mut parents: HashMap<Formula, usize> = HashMap::new();
            let mut seen = std::collections::HashSet::new();
            let mut stack = vec![(f, false)];
            while let Some((g, under_open)) = stack.pop() {
                let kind = lg.kind(g);
                let children: Vec<Formula> = match kind {
                    FormulaKind::Or(a, b) | FormulaKind::And(a, b) => vec![*a, *b],
                    FormulaKind::Diam(_, a) => vec![*a],
                    FormulaKind::Mu(binds, body) | FormulaKind::Nu(binds, body) => {
                        mutual += usize::from(binds.len() > 1);
                        if under_open && lg.is_closed(g) {
                            closed_under_open += 1;
                        }
                        binds.iter().map(|&(_, d)| d).chain([*body]).collect()
                    }
                    _ => Vec::new(),
                };
                let open_binder =
                    matches!(kind, FormulaKind::Mu(..) | FormulaKind::Nu(..)) && !lg.is_closed(g);
                if !seen.insert((g, under_open)) {
                    continue;
                }
                for c in children {
                    *parents.entry(c).or_default() += 1;
                    stack.push((c, under_open || open_binder));
                }
            }
            shared += parents
                .iter()
                .filter(|&(&g, &n)| n > 1 && !matches!(lg.kind(g), FormulaKind::Var(_)))
                .count();
        }
        assert!(mutual > 0 && closed_under_open > 0 && shared > 0);
    }
}
