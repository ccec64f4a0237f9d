//! Satisfiability of Lµ over finite focused trees (paper §6–§7).
//!
//! Given a closed, cycle-free, µ-only formula (obtain one with
//! [`mulogic::Logic::collapse_nu`]; the [`Prepared`] step does it for you),
//! the solvers decide whether some finite focused tree satisfies it, and if
//! so reconstruct a minimal satisfying tree (§7.2).
//!
//! Three backends implement the same bottom-up fixpoint over ψ-types,
//! expressed as impls of the [`Backend`] trait and driven by the shared
//! [`run_fixpoint`] kernel loop:
//!
//! * [`solve_explicit`] — the literal algorithm of §6.2 over enumerated
//!   bit-vector types; exponential in the number of lean modalities, used
//!   as a reference implementation and for cross-validation;
//! * [`solve_symbolic`] — the BDD-based implementation of §7: sets of
//!   ψ-types as boolean functions, compatibility relations `∆_a` as
//!   conjunctively-partitioned clause lists folded with early
//!   quantification (§7.3), breadth-first variable order (§7.4), and a
//!   marked/unmarked set pair enforcing start-mark uniqueness (Fig 16);
//! * [`solve_witnessed`] — the literal Fig 16 triples with explicit
//!   witness sets and the recursive `dsat` final check.
//!
//! The first two check satisfiability through the plunging formula
//! `µX.ϕ ∨ ⟨1⟩X ∨ ⟨2⟩X` at root types (§7.1), so only *sets* of types are
//! tracked; per-iteration snapshots then drive minimal-depth counter-example
//! reconstruction.
//!
//! Backend selection is a first-class concept: [`BackendChoice`] names the
//! three backends and [`solve_with`] dispatches on it. The symbolic backend
//! is the paper's algorithm; the other two are its reference oracles. Each
//! run reports typed per-backend [`Telemetry`] in its [`Stats`].
//!
//! Runs are *resource-governed*: [`solve_with`] (and the kernel's
//! [`run_fixpoint`]) take a [`Limits`] value — wall-clock deadline, BDD
//! node budget, fixpoint iteration cap, and the lean-diamond cap of the
//! enumerating backends — and report a budget hit as the typed
//! [`SolveError::ResourceExhausted`], the "unknown" third verdict a
//! service turns into admission control. The direct `solve_*` wrappers run
//! unbounded ([`Limits::none`]).
//!
//! # Example
//!
//! ```
//! use mulogic::Logic;
//! use solver::solve_symbolic;
//!
//! let mut lg = Logic::new();
//! // "the focus is an a-node whose first child is named b"
//! let goal = lg.parse("a & <1>b")?;
//! let solved = solve_symbolic(&mut lg, goal);
//! let model = solved.outcome.model().expect("satisfiable");
//! assert_eq!(model.tree().label().as_str(), "a");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod explicit;
pub mod kernel;
mod limits;
mod outcome;
mod prepare;
mod symbolic;
mod witnessed;

pub use bits::{TypeBits, TypeEnumerator, MAX_EXPLICIT_DIAMONDS};
pub use explicit::solve_explicit;
pub use kernel::{
    run_fixpoint, run_fixpoint_traced, solve_with, solve_with_in, solve_with_traced, Backend,
    BackendChoice, SolveError, StepObservation,
};
pub use limits::{CancelToken, Exhausted, Limits, Resource};
pub use outcome::{BddCounters, Model, Outcome, Solved, Stats, Telemetry};
pub use prepare::Prepared;
pub use symbolic::{
    solve_symbolic, solve_symbolic_in, solve_symbolic_traced, solve_symbolic_with, SymbolicOptions,
    VarOrder,
};
pub use witnessed::{lean_diamonds, solve_witnessed};
