//! The formula arena: hash-consing, smart constructors, negation,
//! substitution and fixpoint unfolding.

use std::collections::HashMap;
use std::rc::Rc;

use ftree::Label;

use crate::syntax::{Formula, FormulaKind, Program, Var};

/// Arena and factory for Lµ formulas.
///
/// All formulas live in a `Logic`; [`Formula`] values are indices into it.
/// Construction hash-conses: building the same shape twice yields the same
/// id, so structural equality is id equality and downstream algorithms can
/// memoize on ids.
///
/// The constructors apply the obvious boolean simplifications
/// (`⊤ ∧ ϕ = ϕ`, `⟨a⟩⊥ = ⊥`, idempotence, …) but keep the paper's syntax
/// otherwise.
///
/// # Example
///
/// ```
/// use mulogic::Logic;
/// use ftree::Label;
///
/// let mut lg = Logic::new();
/// let a = lg.prop(Label::new("a"));
/// let t = lg.tt();
/// let f = lg.and(a, t);
/// assert_eq!(f, a); // ⊤ is the unit of ∧
/// ```
#[derive(Debug, Default)]
pub struct Logic {
    nodes: Vec<FormulaKind>,
    interned: HashMap<FormulaKind, Formula>,
    var_names: Vec<String>,
}

impl Logic {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Logic::default()
    }

    /// Number of distinct formula nodes allocated.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no formula has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The shape of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` was created by a different arena.
    pub fn kind(&self, f: Formula) -> &FormulaKind {
        &self.nodes[f.index()]
    }

    fn intern(&mut self, kind: FormulaKind) -> Formula {
        if let Some(&f) = self.interned.get(&kind) {
            return f;
        }
        let id = Formula(u32::try_from(self.nodes.len()).expect("formula arena overflow"));
        self.nodes.push(kind.clone());
        self.interned.insert(kind, id);
        id
    }

    /// Allocates a fresh fixpoint variable whose display name starts with
    /// `hint`.
    pub fn fresh_var(&mut self, hint: &str) -> Var {
        let id = u32::try_from(self.var_names.len()).expect("variable arena overflow");
        self.var_names.push(format!("{hint}{id}"));
        Var(id)
    }

    /// Allocates a fresh variable with exactly the given display name (used
    /// by the parser).
    pub(crate) fn named_var(&mut self, name: &str) -> Var {
        let id = u32::try_from(self.var_names.len()).expect("variable arena overflow");
        self.var_names.push(name.to_owned());
        Var(id)
    }

    /// The display name of `v`.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    // ----- constructors ---------------------------------------------------

    /// `⊤`.
    pub fn tt(&mut self) -> Formula {
        self.intern(FormulaKind::True)
    }

    /// `⊥` (the paper writes `σ ∧ ¬σ`).
    pub fn ff(&mut self) -> Formula {
        self.intern(FormulaKind::False)
    }

    /// Atomic proposition `σ`.
    pub fn prop(&mut self, label: Label) -> Formula {
        self.intern(FormulaKind::Prop(label))
    }

    /// Negated atomic proposition `¬σ`.
    pub fn not_prop(&mut self, label: Label) -> Formula {
        self.intern(FormulaKind::NotProp(label))
    }

    /// The start proposition `s`.
    pub fn start(&mut self) -> Formula {
        self.intern(FormulaKind::Start)
    }

    /// The negated start proposition `¬s`.
    pub fn not_start(&mut self) -> Formula {
        self.intern(FormulaKind::NotStart)
    }

    /// A fixpoint variable occurrence.
    pub fn var(&mut self, v: Var) -> Formula {
        self.intern(FormulaKind::Var(v))
    }

    /// Disjunction `ϕ ∨ ψ`, simplified.
    pub fn or(&mut self, a: Formula, b: Formula) -> Formula {
        match (self.kind(a), self.kind(b)) {
            (FormulaKind::True, _) | (_, FormulaKind::False) => a,
            (FormulaKind::False, _) | (_, FormulaKind::True) => b,
            _ if a == b => a,
            _ => self.intern(FormulaKind::Or(a, b)),
        }
    }

    /// Conjunction `ϕ ∧ ψ`, simplified.
    pub fn and(&mut self, a: Formula, b: Formula) -> Formula {
        match (self.kind(a), self.kind(b)) {
            (FormulaKind::False, _) => a,
            (_, FormulaKind::False) => b,
            (FormulaKind::True, _) => b,
            (_, FormulaKind::True) => a,
            _ if a == b => a,
            _ => self.intern(FormulaKind::And(a, b)),
        }
    }

    /// N-ary disjunction.
    pub fn or_all(&mut self, items: impl IntoIterator<Item = Formula>) -> Formula {
        let mut acc = self.ff();
        for f in items {
            acc = self.or(acc, f);
        }
        acc
    }

    /// N-ary conjunction.
    pub fn and_all(&mut self, items: impl IntoIterator<Item = Formula>) -> Formula {
        let mut acc = self.tt();
        for f in items {
            acc = self.and(acc, f);
        }
        acc
    }

    /// Existential modality `⟨a⟩ϕ` (with `⟨a⟩⊥ = ⊥`).
    pub fn diam(&mut self, a: Program, f: Formula) -> Formula {
        if matches!(self.kind(f), FormulaKind::False) {
            return f;
        }
        self.intern(FormulaKind::Diam(a, f))
    }

    /// `¬⟨a⟩⊤`: no `a`-neighbour.
    pub fn not_diam_true(&mut self, a: Program) -> Formula {
        self.intern(FormulaKind::NotDiamTrue(a))
    }

    /// N-ary least fixpoint `µ(Xᵢ = ϕᵢ) in ψ`.
    ///
    /// # Panics
    ///
    /// Panics if `bindings` is empty or binds the same variable twice.
    pub fn mu(&mut self, bindings: Vec<(Var, Formula)>, body: Formula) -> Formula {
        self.fixpoint(bindings, body, /* greatest */ false)
    }

    /// N-ary greatest fixpoint `ν(Xᵢ = ϕᵢ) in ψ`.
    ///
    /// # Panics
    ///
    /// Panics if `bindings` is empty or binds the same variable twice.
    pub fn nu(&mut self, bindings: Vec<(Var, Formula)>, body: Formula) -> Formula {
        self.fixpoint(bindings, body, /* greatest */ true)
    }

    fn fixpoint(
        &mut self,
        bindings: Vec<(Var, Formula)>,
        body: Formula,
        greatest: bool,
    ) -> Formula {
        assert!(!bindings.is_empty(), "fixpoint with no bindings");
        let mut seen = std::collections::HashSet::new();
        for (v, _) in &bindings {
            assert!(seen.insert(*v), "duplicate fixpoint binding");
        }
        let kind = if greatest {
            FormulaKind::Nu(bindings.into_boxed_slice(), body)
        } else {
            FormulaKind::Mu(bindings.into_boxed_slice(), body)
        };
        self.intern(kind)
    }

    /// The unary least fixpoint `µX.ϕ`, i.e. `µ(X = ϕ) in X`.
    ///
    /// The paper abbreviates `µX = ϕ in ϕ`; both denote the same set, and
    /// representing the body as `X` keeps formulas small.
    pub fn mu1(&mut self, v: Var, phi: Formula) -> Formula {
        let body = self.var(v);
        self.mu(vec![(v, phi)], body)
    }

    /// The unary greatest fixpoint `νX.ϕ`.
    pub fn nu1(&mut self, v: Var, phi: Formula) -> Formula {
        let body = self.var(v);
        self.nu(vec![(v, phi)], body)
    }

    // ----- derived operations ---------------------------------------------

    /// Full negation `¬ϕ`, pushed to the atoms.
    ///
    /// Uses De Morgan's laws, `¬⟨a⟩ϕ = ¬⟨a⟩⊤ ∨ ⟨a⟩¬ϕ`, and the fixpoint
    /// duality `¬µX̄ = ϕ̄ in ψ = νX̄ = ¬ϕ̄{X̄/¬X̄} in ¬ψ{X̄/¬X̄}` (and
    /// symmetrically). The substitution `X/¬X` cancels with the surrounding
    /// negation, so variables are left untouched. Negation is an involution:
    /// `lg.not(lg.not(f)) == f`.
    ///
    /// On finite trees cycle-free µ and ν coincide (Lemma 4.2), so after
    /// [`Logic::collapse_nu`] this is exactly the µ-only negation of §4.
    pub fn not(&mut self, f: Formula) -> Formula {
        let mut memo = HashMap::new();
        self.not_rec(f, &mut memo)
    }

    fn not_rec(&mut self, f: Formula, memo: &mut HashMap<Formula, Formula>) -> Formula {
        if let Some(&g) = memo.get(&f) {
            return g;
        }
        let g = match self.kind(f).clone() {
            FormulaKind::True => self.ff(),
            FormulaKind::False => self.tt(),
            FormulaKind::Prop(l) => self.not_prop(l),
            FormulaKind::NotProp(l) => self.prop(l),
            FormulaKind::Start => self.not_start(),
            FormulaKind::NotStart => self.start(),
            FormulaKind::Var(v) => self.var(v),
            FormulaKind::Or(a, b) => {
                // ¬(¬⟨a⟩⊤ ∨ ⟨a⟩ξ) = ⟨a⟩⊤ ∧ ⟨a⟩¬ξ = ⟨a⟩¬ξ — tree successors
                // are deterministic. Recognizing the shape produced by the
                // Diam case below makes negation an involution.
                if let (FormulaKind::NotDiamTrue(pa), FormulaKind::Diam(pb, xi)) =
                    (self.kind(a).clone(), self.kind(b).clone())
                {
                    if pa == pb {
                        let nxi = self.not_rec(xi, memo);
                        let v = self.diam(pa, nxi);
                        memo.insert(f, v);
                        return v;
                    }
                }
                let (na, nb) = (self.not_rec(a, memo), self.not_rec(b, memo));
                self.and(na, nb)
            }
            FormulaKind::And(a, b) => {
                let (na, nb) = (self.not_rec(a, memo), self.not_rec(b, memo));
                self.or(na, nb)
            }
            FormulaKind::Diam(a, phi) => {
                if matches!(self.kind(phi), FormulaKind::True) {
                    self.not_diam_true(a)
                } else {
                    let np = self.not_rec(phi, memo);
                    let nd = self.not_diam_true(a);
                    let dn = self.diam(a, np);
                    self.or(nd, dn)
                }
            }
            FormulaKind::NotDiamTrue(a) => {
                let t = self.tt();
                self.diam(a, t)
            }
            FormulaKind::Mu(binds, body) => {
                let nbinds = binds
                    .iter()
                    .map(|&(v, phi)| (v, self.not_rec(phi, memo)))
                    .collect();
                let nbody = self.not_rec(body, memo);
                self.nu(nbinds, nbody)
            }
            FormulaKind::Nu(binds, body) => {
                let nbinds = binds
                    .iter()
                    .map(|&(v, phi)| (v, self.not_rec(phi, memo)))
                    .collect();
                let nbody = self.not_rec(body, memo);
                self.mu(nbinds, nbody)
            }
        };
        memo.insert(f, g);
        g
    }

    /// Rewrites every greatest fixpoint into a least fixpoint.
    ///
    /// On finite focused trees, for *cycle-free* formulas, the two fixpoints
    /// have the same interpretation (Lemma 4.2); the satisfiability solver
    /// works on the µ-only result.
    pub fn collapse_nu(&mut self, f: Formula) -> Formula {
        let mut memo = HashMap::new();
        self.collapse_rec(f, &mut memo)
    }

    fn collapse_rec(&mut self, f: Formula, memo: &mut HashMap<Formula, Formula>) -> Formula {
        if let Some(&g) = memo.get(&f) {
            return g;
        }
        let g = match self.kind(f).clone() {
            FormulaKind::Or(a, b) => {
                let (ca, cb) = (self.collapse_rec(a, memo), self.collapse_rec(b, memo));
                self.or(ca, cb)
            }
            FormulaKind::And(a, b) => {
                let (ca, cb) = (self.collapse_rec(a, memo), self.collapse_rec(b, memo));
                self.and(ca, cb)
            }
            FormulaKind::Diam(a, phi) => {
                let cp = self.collapse_rec(phi, memo);
                self.diam(a, cp)
            }
            FormulaKind::Mu(binds, body) | FormulaKind::Nu(binds, body) => {
                let cbinds = binds
                    .iter()
                    .map(|&(v, phi)| (v, self.collapse_rec(phi, memo)))
                    .collect();
                let cbody = self.collapse_rec(body, memo);
                self.mu(cbinds, cbody)
            }
            _ => f,
        };
        memo.insert(f, g);
        g
    }

    /// Capture-avoiding substitution of `map` in `f`.
    ///
    /// Binders shadow: a fixpoint re-binding a substituted variable stops the
    /// substitution below it.
    pub fn subst(&mut self, f: Formula, map: &HashMap<Var, Formula>) -> Formula {
        if map.is_empty() {
            return f;
        }
        let mut memo = HashMap::new();
        self.subst_rec(f, map, &mut memo)
    }

    fn subst_rec(
        &mut self,
        f: Formula,
        map: &HashMap<Var, Formula>,
        memo: &mut HashMap<Formula, Formula>,
    ) -> Formula {
        if let Some(&g) = memo.get(&f) {
            return g;
        }
        let g = match self.kind(f).clone() {
            FormulaKind::Var(v) => map.get(&v).copied().unwrap_or(f),
            FormulaKind::Or(a, b) => {
                let (sa, sb) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                self.or(sa, sb)
            }
            FormulaKind::And(a, b) => {
                let (sa, sb) = (self.subst_rec(a, map, memo), self.subst_rec(b, map, memo));
                self.and(sa, sb)
            }
            FormulaKind::Diam(a, phi) => {
                let sp = self.subst_rec(phi, map, memo);
                self.diam(a, sp)
            }
            FormulaKind::Mu(binds, body) | FormulaKind::Nu(binds, body) => {
                let greatest = matches!(self.kind(f), FormulaKind::Nu(..));
                let shadowed: Vec<Var> = binds
                    .iter()
                    .map(|&(v, _)| v)
                    .filter(|v| map.contains_key(v))
                    .collect();
                if shadowed.is_empty() {
                    let sbinds = binds
                        .iter()
                        .map(|&(v, phi)| (v, self.subst_rec(phi, map, memo)))
                        .collect();
                    let sbody = self.subst_rec(body, map, memo);
                    self.fixpoint(sbinds, sbody, greatest)
                } else {
                    // Shadowing: drop the shadowed keys for the whole scope
                    // (binders bind uniformly in definitions and body).
                    let mut inner = map.clone();
                    for v in shadowed {
                        inner.remove(&v);
                    }
                    let mut inner_memo = HashMap::new();
                    let sbinds = binds
                        .iter()
                        .map(|&(v, phi)| (v, self.subst_rec(phi, &inner, &mut inner_memo)))
                        .collect();
                    let sbody = self.subst_rec(body, &inner, &mut inner_memo);
                    self.fixpoint(sbinds, sbody, greatest)
                }
            }
            _ => f,
        };
        memo.insert(f, g);
        g
    }

    /// One-step fixpoint unfolding `exp(ϕ)` (§6.1).
    ///
    /// For `ϕ = µX̄ = ϕ̄ in ψ`, returns `ψ{(µX̄ = ϕ̄ in Xᵢ)/Xᵢ}`; when the
    /// body is itself a bound variable `Xᵢ` the definition `ϕᵢ` is expanded
    /// first (this is the standard Fisher–Ladner unfolding and is what makes
    /// the truth-assignment derivations of Fig 15 finite).
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a least fixpoint.
    pub fn exp(&mut self, f: Formula) -> Formula {
        let FormulaKind::Mu(binds, body) = self.kind(f).clone() else {
            panic!("exp: not a least fixpoint");
        };
        let mut map = HashMap::with_capacity(binds.len());
        for &(v, _) in &binds {
            let vf = self.var(v);
            let handle = self.mu(binds.to_vec(), vf);
            map.insert(v, handle);
        }
        // If the body is a bound variable, unfold its definition once.
        let target = match self.kind(body) {
            FormulaKind::Var(v) => binds
                .iter()
                .find(|&&(bv, _)| bv == *v)
                .map_or(body, |&(_, phi)| phi),
            _ => body,
        };
        self.subst(target, &map)
    }

    /// The free fixpoint variables of `f`.
    pub fn free_vars(&self, f: Formula) -> std::collections::HashSet<Var> {
        let fv = self.free_vars_of(f, &mut HashMap::new());
        fv.iter().flat_map(|vs| vs.iter().copied()).collect()
    }

    /// The free variables of `f`, sorted (`None` when there are none),
    /// with those of its subformulas memoized: they do not depend on where
    /// a subformula occurs, so each node of the DAG is visited once. Sets
    /// are shared, not copied, where a node has the free variables of one
    /// of its children.
    fn free_vars_of(&self, f: Formula, memo: &mut HashMap<Formula, FreeVars>) -> FreeVars {
        let kind = self.kind(f);
        if !matches!(
            kind,
            FormulaKind::Var(_)
                | FormulaKind::Or(..)
                | FormulaKind::And(..)
                | FormulaKind::Diam(..)
                | FormulaKind::Mu(..)
                | FormulaKind::Nu(..)
        ) {
            return None;
        }
        if let Some(fv) = memo.get(&f) {
            return fv.clone();
        }
        let fv = match kind {
            FormulaKind::Var(v) => Some(Rc::from([*v])),
            FormulaKind::Or(a, b) | FormulaKind::And(a, b) => {
                let fa = self.free_vars_of(*a, memo);
                let fb = self.free_vars_of(*b, memo);
                union(fa, fb)
            }
            FormulaKind::Diam(_, p) => self.free_vars_of(*p, memo),
            FormulaKind::Mu(binds, body) | FormulaKind::Nu(binds, body) => {
                let mut fv = self.free_vars_of(*body, memo);
                for &(_, phi) in binds {
                    let fphi = self.free_vars_of(phi, memo);
                    fv = union(fv, fphi);
                }
                let bound = |v: &Var| binds.iter().any(|(b, _)| b == v);
                match fv {
                    Some(vs) if vs.iter().any(bound) => {
                        let unbound: Vec<Var> = vs.iter().copied().filter(|v| !bound(v)).collect();
                        (!unbound.is_empty()).then(|| unbound.into())
                    }
                    fv => fv,
                }
            }
            _ => unreachable!("atoms return above"),
        };
        memo.insert(f, fv.clone());
        fv
    }

    /// Whether `f` has no free variables.
    pub fn is_closed(&self, f: Formula) -> bool {
        self.free_vars_of(f, &mut HashMap::new()).is_none()
    }

    /// Whether `f` contains the start proposition `s` (positively or
    /// negatively).
    pub fn mentions_start(&self, f: Formula) -> bool {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(g) = stack.pop() {
            if !seen.insert(g) {
                continue;
            }
            match self.kind(g) {
                FormulaKind::Start | FormulaKind::NotStart => return true,
                FormulaKind::Or(a, b) | FormulaKind::And(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                FormulaKind::Diam(_, p) => stack.push(*p),
                FormulaKind::Mu(binds, body) | FormulaKind::Nu(binds, body) => {
                    stack.extend(binds.iter().map(|&(_, p)| p));
                    stack.push(*body);
                }
                _ => {}
            }
        }
        false
    }

    /// Syntactic size of `f` (number of syntax-tree nodes, counting shared
    /// subterms once per occurrence is avoided: shared nodes count once).
    pub fn size(&self, f: Formula) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        let mut n = 0;
        while let Some(g) = stack.pop() {
            if !seen.insert(g) {
                continue;
            }
            n += 1;
            match self.kind(g) {
                FormulaKind::Or(a, b) | FormulaKind::And(a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                FormulaKind::Diam(_, p) => stack.push(*p),
                FormulaKind::Mu(binds, body) | FormulaKind::Nu(binds, body) => {
                    stack.extend(binds.iter().map(|&(_, p)| p));
                    stack.push(*body);
                }
                _ => {}
            }
        }
        n
    }
}

/// A sorted, non-empty set of free variables, or `None` for the empty set.
type FreeVars = Option<Rc<[Var]>>;

/// The union of two variable sets, sharing an operand when the other adds
/// nothing to it.
fn union(a: FreeVars, b: FreeVars) -> FreeVars {
    let (a, b) = match (a, b) {
        (Some(a), Some(b)) => (a, b),
        (a, None) => return a,
        (None, b) => return b,
    };
    if Rc::ptr_eq(&a, &b) || b.iter().all(|v| a.binary_search(v).is_ok()) {
        return Some(a);
    }
    if a.iter().all(|v| b.binary_search(v).is_ok()) {
        return Some(b);
    }
    let mut out: Vec<Var> = a.iter().chain(b.iter()).copied().collect();
    out.sort_unstable();
    out.dedup();
    Some(out.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftree::Direction;

    #[test]
    fn hash_consing() {
        let mut lg = Logic::new();
        let a = lg.prop(Label::new("a"));
        let b = lg.prop(Label::new("b"));
        let f1 = lg.and(a, b);
        let f2 = lg.and(a, b);
        assert_eq!(f1, f2);
    }

    #[test]
    fn boolean_simplifications() {
        let mut lg = Logic::new();
        let a = lg.prop(Label::new("a"));
        let tt = lg.tt();
        let ff = lg.ff();
        assert_eq!(lg.and(tt, a), a);
        assert_eq!(lg.and(a, ff), ff);
        assert_eq!(lg.or(ff, a), a);
        assert_eq!(lg.or(a, tt), tt);
        assert_eq!(lg.or(a, a), a);
        assert_eq!(lg.diam(Direction::Down1, ff), ff);
    }

    #[test]
    fn negation_involution() {
        let mut lg = Logic::new();
        let a = lg.prop(Label::new("a"));
        let v = lg.fresh_var("X");
        let vf = lg.var(v);
        let d = lg.diam(Direction::Down2, vf);
        let body = lg.or(a, d);
        let f = lg.mu1(v, body);
        let nf = lg.not(f);
        assert_ne!(nf, f);
        assert_eq!(lg.not(nf), f);
    }

    #[test]
    fn negation_of_modality() {
        let mut lg = Logic::new();
        let a = lg.prop(Label::new("a"));
        let d = lg.diam(Direction::Down1, a);
        let nd = lg.not(d);
        // ¬⟨1⟩a = ¬⟨1⟩⊤ ∨ ⟨1⟩¬a
        let expect = {
            let na = lg.not_prop(Label::new("a"));
            let dn = lg.diam(Direction::Down1, na);
            let ndt = lg.not_diam_true(Direction::Down1);
            lg.or(ndt, dn)
        };
        assert_eq!(nd, expect);
    }

    #[test]
    fn exp_unfolds_once() {
        let mut lg = Logic::new();
        // µX. a ∨ ⟨2⟩X
        let a = lg.prop(Label::new("a"));
        let x = lg.fresh_var("X");
        let xv = lg.var(x);
        let d = lg.diam(Direction::Down2, xv);
        let phi = lg.or(a, d);
        let f = lg.mu1(x, phi);
        let e = lg.exp(f);
        // a ∨ ⟨2⟩(µX = a∨⟨2⟩X in X)
        match lg.kind(e) {
            FormulaKind::Or(l, r) => {
                assert_eq!(*l, a);
                match lg.kind(*r) {
                    FormulaKind::Diam(Direction::Down2, inner) => {
                        assert!(matches!(lg.kind(*inner), FormulaKind::Mu(..)));
                        // Unfolding again gives the same formula: cl is finite.
                        assert_eq!(lg.exp(*inner), e);
                    }
                    k => panic!("unexpected shape {k:?}"),
                }
            }
            k => panic!("unexpected shape {k:?}"),
        }
    }

    #[test]
    fn subst_respects_shadowing() {
        let mut lg = Logic::new();
        let x = lg.fresh_var("X");
        let a = lg.prop(Label::new("a"));
        let xv = lg.var(x);
        // µX. X (degenerate but fine for substitution testing)
        let inner = lg.mu1(x, xv);
        let f = lg.and(xv, inner);
        let map = HashMap::from([(x, a)]);
        let g = lg.subst(f, &map);
        // Outer occurrence replaced, bound occurrence untouched.
        match lg.kind(g) {
            FormulaKind::And(l, r) => {
                assert_eq!(*l, a);
                assert_eq!(*r, inner);
            }
            k => panic!("unexpected shape {k:?}"),
        }
    }

    #[test]
    fn free_vars_and_closed() {
        let mut lg = Logic::new();
        let x = lg.fresh_var("X");
        let y = lg.fresh_var("Y");
        let xv = lg.var(x);
        let yv = lg.var(y);
        let body = lg.or(xv, yv);
        let f = lg.mu1(x, body);
        let fv = lg.free_vars(f);
        assert!(fv.contains(&y));
        assert!(!fv.contains(&x));
        assert!(!lg.is_closed(f));
    }

    #[test]
    fn free_vars_of_a_subterm_shared_under_different_binders() {
        // ν(X = ν(Y = X, Z = ⊤) in Y ∧ ν(W = Y, Z = ⊤) in W) in X: the
        // occurrence of Y under W's binder is free, though the same node
        // also occurs where Y is bound, at the same binder depth.
        let mut lg = Logic::new();
        let [x, y, z, w] = ["X", "Y", "Z", "W"].map(|n| lg.fresh_var(n));
        let tt = lg.tt();
        let (xv, yv, wv) = (lg.var(x), lg.var(y), lg.var(w));
        let bound_y = lg.nu(vec![(y, xv), (z, tt)], yv);
        let free_y = lg.nu(vec![(w, yv), (z, tt)], wv);
        let def = lg.and(bound_y, free_y);
        let f = lg.nu1(x, def);
        assert_eq!(lg.free_vars(f), [y].into_iter().collect());
        assert!(!lg.is_closed(f));
    }

    #[test]
    fn collapse_nu_rewrites() {
        let mut lg = Logic::new();
        let x = lg.fresh_var("X");
        let xv = lg.var(x);
        let d = lg.diam(Direction::Down1, xv);
        let f = lg.nu1(x, d);
        let g = lg.collapse_nu(f);
        assert!(matches!(lg.kind(g), FormulaKind::Mu(..)));
    }

    #[test]
    fn mentions_start() {
        let mut lg = Logic::new();
        let s = lg.start();
        let a = lg.prop(Label::new("a"));
        let f = lg.and(a, s);
        assert!(lg.mentions_start(f));
        assert!(!lg.mentions_start(a));
    }

    #[test]
    #[should_panic(expected = "duplicate fixpoint binding")]
    fn duplicate_binding_panics() {
        let mut lg = Logic::new();
        let x = lg.fresh_var("X");
        let a = lg.prop(Label::new("a"));
        let xv = lg.var(x);
        lg.mu(vec![(x, a), (x, a)], xv);
    }
}
