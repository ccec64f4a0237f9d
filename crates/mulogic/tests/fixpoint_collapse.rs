//! Semantic property tests for the logic:
//!
//! * **Lemma 4.2** — on finite trees, µ and ν coincide for cycle-free
//!   formulas: the model checker must give the same answer for a guarded
//!   recursion interpreted as least or as greatest fixpoint;
//! * **negation** — `⟦¬ϕ⟧` is the complement of `⟦ϕ⟧` over the foci of any
//!   tree (the boolean-closure property the collapse enables);
//! * the counter-example of §4: for formulas with modality cycles the two
//!   fixpoints genuinely differ.

mod common;

use common::{arb_tree, prog, LABELS};
use ftree::{Label, Tree};
use mulogic::{cycle_free, Formula, Logic, ModelChecker, Program};
use proptest::prelude::*;

/// A guarded single-variable recursion µ/νX. base ∨ ⟨p⟩X.
#[derive(Debug, Clone)]
struct Rec {
    base_label: &'static str,
    program: u8,
}

fn build(lg: &mut Logic, r: &Rec, greatest: bool) -> Formula {
    let base = lg.prop(Label::new(r.base_label));
    let x = lg.fresh_var("X");
    let xv = lg.var(x);
    let step = lg.diam(prog(r.program), xv);
    let body = lg.or(base, step);
    if greatest {
        lg.nu1(x, body)
    } else {
        lg.mu1(x, body)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Lemma 4.2: µ and ν interpretations coincide for guarded,
    /// single-direction (hence cycle-free) recursions on finite trees.
    #[test]
    fn mu_equals_nu_on_cycle_free(
        t in arb_tree(3),
        base in prop::sample::select(&LABELS[..]),
        p in 0u8..4,
    ) {
        let mut lg = Logic::new();
        let r = Rec { base_label: base, program: p };
        let mu = build(&mut lg, &r, false);
        let nu = build(&mut lg, &r, true);
        prop_assert!(cycle_free(&lg, mu));
        let mc = ModelChecker::new(&t);
        prop_assert_eq!(mc.eval(&lg, mu), mc.eval(&lg, nu));
    }

    /// Boolean closure: `⟦lg.not(ϕ)⟧` complements `⟦ϕ⟧` focus-by-focus.
    #[test]
    fn negation_is_semantic_complement(
        t in arb_tree(3),
        base in prop::sample::select(&LABELS[..]),
        p in 0u8..4,
    ) {
        let mut lg = Logic::new();
        let r = Rec { base_label: base, program: p };
        let f = build(&mut lg, &r, false);
        let collapsed = lg.collapse_nu(f);
        let nf = lg.not(collapsed);
        let nf_mu = lg.collapse_nu(nf);
        let mc = ModelChecker::new(&t);
        let pos = mc.eval(&lg, collapsed);
        let neg = mc.eval(&lg, nf_mu);
        for i in 0..mc.foci().len() {
            prop_assert!(pos.contains(i) != neg.contains(i));
        }
    }
}

/// §4's example where the fixpoints differ: νX.⟨1⟩X ∨ ⟨1̄⟩X is nonempty on
/// a two-node tree while µX.⟨1⟩X ∨ ⟨1̄⟩X is empty — the formula is not
/// cycle-free, so Lemma 4.2 does not apply.
#[test]
fn non_cycle_free_fixpoints_differ() {
    let mut lg = Logic::new();
    let x = lg.fresh_var("X");
    let xv = lg.var(x);
    let d = lg.diam(Program::Down1, xv);
    let u = lg.diam(Program::Up1, xv);
    let body = lg.or(d, u);
    let mu = lg.mu1(x, body);
    let nu = lg.nu1(x, body);
    assert!(!cycle_free(&lg, mu));
    let t = Tree::parse_xml("<a><b/></a>").unwrap();
    let mc = ModelChecker::new(&t);
    assert!(mc.eval(&lg, mu).is_empty());
    assert_eq!(mc.eval(&lg, nu).count(), 2);
}

/// µX.⟨1⟩⟨1̄⟩X vs νX.⟨1⟩⟨1̄⟩X (§4): empty vs "has a first child".
#[test]
fn modality_cycle_example() {
    let mut lg = Logic::new();
    let x = lg.fresh_var("X");
    let xv = lg.var(x);
    let u = lg.diam(Program::Up1, xv);
    let d = lg.diam(Program::Down1, u);
    let mu = lg.mu1(x, d);
    let nu = lg.nu1(x, d);
    let t = Tree::parse_xml("<a><b/><c/></a>").unwrap();
    let mc = ModelChecker::new(&t);
    assert!(mc.eval(&lg, mu).is_empty());
    // ν: every node with a first child satisfies it — only <a> here.
    let sat = mc.sat_foci(&lg, nu);
    assert_eq!(sat.len(), 1);
    assert_eq!(sat[0].label().as_str(), "a");
}
