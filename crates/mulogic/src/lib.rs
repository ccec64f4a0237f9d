//! The logic **Lµ**: an alternation-free modal µ-calculus with converse,
//! interpreted over finite focused trees (paper §4).
//!
//! The crate provides:
//!
//! * [`Logic`] — a hash-consing arena of formulas ([`Formula`] is a cheap
//!   copyable id), with smart constructors, full negation (De Morgan plus the
//!   fixpoint dualities), substitution and the one-step unfolding `exp(·)`;
//! * [`cycle_free`] — the syntactic cycle-freeness judgment of Fig 3, the
//!   side condition under which least and greatest fixpoints collapse on
//!   finite trees (Lemma 4.2);
//! * [`Closure`] — the Fisher–Ladner closure `cl(ψ)` and the *lean*
//!   `Lean(ψ)` of §6.1, the set of atoms from which ψ-types are built;
//! * [`status`] — the truth-assignment relation `ϕ ∈̇ t` of Fig 15,
//!   abstracted over a boolean algebra so the same code drives both the
//!   explicit solver (on bit vectors) and the symbolic solver (on BDDs);
//! * [`ModelChecker`] — the denotational semantics of Fig 2 evaluated over
//!   the foci of a concrete finite tree; used as an executable oracle in
//!   tests and to verify reconstructed counter-examples;
//! * a parser and pretty-printer for the concrete syntax the paper uses in
//!   its examples (`let_mu X = ... in ...`, `<1>T`, `~a`, `&`, `|`).
//!
//! # Example
//!
//! ```
//! use mulogic::Logic;
//!
//! let mut lg = Logic::new();
//! // µX. b ∨ ⟨2⟩X — "some following sibling is named b"
//! let f = lg.parse("let_mu X = b | <2>X in X").unwrap();
//! assert!(mulogic::cycle_free(&lg, f));
//! let nf = lg.not(f);
//! assert_eq!(lg.not(nf), f); // negation is an involution
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod closure;
mod cyclefree;
mod display;
mod logic;
mod model_check;
mod parser;
mod status;
mod syntax;

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_gen;

pub use closure::{Closure, Lean, LeanAtom};
pub use cyclefree::cycle_free;
pub use logic::Logic;
pub use model_check::{model_check, FociSet, ModelChecker};
pub use parser::ParseFormulaError;
pub use status::{status, BitsAlg, BoolAlg};
pub use syntax::{Formula, FormulaKind, Program, Var};
