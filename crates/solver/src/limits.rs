//! Resource governance of a solve: budgets, the resources they meter, and
//! the typed exhaustion report.
//!
//! The paper's decision procedures are EXPTIME in the lean, so a service
//! answering untrusted requests must bound every run: a hostile (or merely
//! huge) lean can otherwise pin a worker for an unbounded time or grow the
//! BDD store without limit. [`Limits`] is that admission-control contract,
//! threaded from the engine protocol (`"limits"` request objects, `xsat
//! --timeout-ms/--max-bdd-nodes/--max-lean`) through
//! [`Analyzer::solve`](../analyzer) down to
//! [`run_fixpoint`](crate::run_fixpoint) and the BDD manager's allocation
//! path. Hitting a budget is *not* an error in the solver-bug sense: it is
//! the third verdict — the caller learns which [`Resource`] ran out and can
//! retry with a larger budget.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bits::MAX_EXPLICIT_DIAMONDS;

/// Cooperative cancellation of an in-flight solve.
///
/// The serving tier clones one armed drain token into the limits of every
/// admitted request; a shutdown past its drain deadline flips the shared
/// flag and every running solve aborts at its next poll point — the
/// per-`Upd`-step check in [`run_fixpoint`](crate::run_fixpoint), the
/// symbolic backend's budget poll between relational-product clauses, and
/// the enumeration and table-construction loops of the enumerating
/// backends — with a [`Resource::Cancelled`] exhaustion. The default token
/// is inert: it is never cancelled and polling it is a single `Option`
/// check.
///
/// The token deliberately does not participate in equality or hashing:
/// two [`Limits`] that differ only in their cancellation wiring describe
/// the same budget contract (the engine's memo cache keys on `Limits`).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Option<Arc<AtomicBool>>);

impl CancelToken {
    /// The inert token: never cancelled, costs one `Option` check to poll.
    pub const fn inert() -> CancelToken {
        CancelToken(None)
    }

    /// A fresh shared flag, initially not cancelled. Clones observe each
    /// other's [`cancel`](CancelToken::cancel).
    pub fn armed() -> CancelToken {
        CancelToken(Some(Arc::new(AtomicBool::new(false))))
    }

    /// Whether this token can ever report cancellation.
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// Requests cancellation. A no-op on the inert token.
    pub fn cancel(&self) {
        if let Some(flag) = &self.0 {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, _: &CancelToken) -> bool {
        true
    }
}

impl Eq for CancelToken {}

impl std::hash::Hash for CancelToken {
    fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
}

/// Resource budgets of one solve.
///
/// Every field is a per-solve budget (the two directions of an equivalence
/// share the wall-clock deadline but each get a fresh node budget — the
/// manager is reset between sub-solves). `Limits::default()` is the
/// service posture: no time or node budget, but the explicit enumeration
/// capped at [`MAX_EXPLICIT_DIAMONDS`] lean diamonds; [`Limits::none`]
/// lifts every cap (the posture of the direct `solve_*` wrappers).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Limits {
    /// Wall-clock budget of the whole solve. Checked before every `Upd`
    /// iteration by [`run_fixpoint`](crate::run_fixpoint) and, on the
    /// symbolic backend, between the clauses of each relational-product
    /// fold.
    pub deadline: Option<Duration>,
    /// Budget on live BDD nodes, enforced by the manager at allocation
    /// (the check is sticky: once an allocation pushes the arena past the
    /// budget the run reports exhaustion at its next poll point).
    pub max_bdd_nodes: Option<usize>,
    /// Cap on `Upd` fixpoint iterations.
    pub max_iterations: Option<usize>,
    /// Cap on `⟨a⟩ϕ` lean entries accepted by the enumerating backends
    /// (explicit and witnessed). The
    /// enumeration is exponential in this count; the default is the
    /// paper-scale [`MAX_EXPLICIT_DIAMONDS`]. Values above the
    /// enumeration's representation limit (26) are clamped to it by the
    /// governed dispatch path, so an arbitrarily large cap still yields a
    /// typed exhaustion — never a panic.
    pub max_lean_diamonds: usize,
    /// Cooperative cancellation, polled alongside the deadline at every
    /// budget check. Inert by default; the serving tier arms one drain
    /// token shared by every admitted solve. Ignored by equality and
    /// hashing.
    pub cancel: CancelToken,
}

impl Limits {
    /// No budgets at all: the posture of the direct `solve_*` wrappers,
    /// under which a fixpoint run cannot exhaust.
    pub const fn none() -> Limits {
        Limits {
            deadline: None,
            max_bdd_nodes: None,
            max_iterations: None,
            max_lean_diamonds: usize::MAX,
            cancel: CancelToken::inert(),
        }
    }

    /// Whether any budget is set (the fast path skips deadline reads when
    /// none is). An armed cancel token counts as a bound: the run must
    /// keep polling.
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none()
            && self.max_bdd_nodes.is_none()
            && self.max_iterations.is_none()
            && self.max_lean_diamonds == usize::MAX
            && !self.cancel.is_armed()
    }

    /// One cooperative budget poll: the cancel token first, then the
    /// wall-clock deadline against `started`. Used by the long
    /// construction loops (type enumeration, status tables) that run
    /// before the fixpoint driver's own per-step checks.
    pub fn poll(&self, started: Instant) -> Result<(), Exhausted> {
        if self.cancel.is_cancelled() {
            return Err(Exhausted::cancelled(started.elapsed()));
        }
        if let Some(deadline) = self.deadline {
            let elapsed = started.elapsed();
            if elapsed >= deadline {
                return Err(Exhausted::wall_clock(elapsed, deadline));
            }
        }
        Ok(())
    }

    /// The limits that remain after `elapsed` of the wall-clock budget has
    /// been spent — what a multi-part problem (an equivalence solves two
    /// containments) hands to its next sub-solve. Errs with a
    /// [`Resource::WallClock`] exhaustion when nothing remains.
    pub fn after(&self, elapsed: Duration) -> Result<Limits, Exhausted> {
        match self.deadline {
            None => Ok(self.clone()),
            Some(total) => {
                let left = total.saturating_sub(elapsed);
                if left.is_zero() {
                    return Err(Exhausted::wall_clock(elapsed, total));
                }
                Ok(Limits {
                    deadline: Some(left),
                    ..self.clone()
                })
            }
        }
    }
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_lean_diamonds: MAX_EXPLICIT_DIAMONDS,
            ..Limits::none()
        }
    }
}

/// The meterable resources of a solve — the `resource` tag of a
/// [`ResourceExhausted`](crate::SolveError::ResourceExhausted) report and
/// of the protocol's `"status":"unknown"` verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Wall-clock time, metered in milliseconds.
    WallClock,
    /// Live BDD nodes in the symbolic backend's manager.
    BddNodes,
    /// `Upd` fixpoint iterations.
    Iterations,
    /// `⟨a⟩ϕ` lean entries presented to an enumerating backend.
    LeanDiamonds,
    /// Cooperative cancellation: the caller tripped the solve's
    /// [`CancelToken`] (a draining server cancelling stragglers).
    Cancelled,
}

impl Resource {
    /// The protocol name of the resource.
    pub fn as_str(self) -> &'static str {
        match self {
            Resource::WallClock => "wall_clock_ms",
            Resource::BddNodes => "bdd_nodes",
            Resource::Iterations => "iterations",
            Resource::LeanDiamonds => "lean_diamonds",
            Resource::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A budget hit, reported by a backend or the fixpoint driver: which
/// resource ran out, how much was spent, and what the budget was.
///
/// `spent` and `limit` are in the resource's natural unit (milliseconds
/// for wall clock, counts otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    /// The resource that ran out.
    pub resource: Resource,
    /// How much was spent when the budget check fired.
    pub spent: u64,
    /// The configured budget.
    pub limit: u64,
}

impl Exhausted {
    /// A wall-clock exhaustion from the elapsed time and the deadline.
    pub fn wall_clock(elapsed: Duration, deadline: Duration) -> Exhausted {
        Exhausted {
            resource: Resource::WallClock,
            spent: elapsed.as_millis() as u64,
            limit: deadline.as_millis() as u64,
        }
    }

    /// A cancellation report: the cancel token was tripped after
    /// `elapsed` of this run. There is no meaningful budget; `limit` is 0.
    pub fn cancelled(elapsed: Duration) -> Exhausted {
        Exhausted {
            resource: Resource::Cancelled,
            spent: elapsed.as_millis() as u64,
            limit: 0,
        }
    }
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::WallClock => write!(
                f,
                "resource exhausted: wall clock at {} ms, the deadline is {} ms",
                self.spent, self.limit
            ),
            Resource::BddNodes => write!(
                f,
                "resource exhausted: {} live BDD nodes, the budget is {}",
                self.spent, self.limit
            ),
            Resource::Iterations => write!(
                f,
                "resource exhausted: {} fixpoint iterations, the cap is {}",
                self.spent, self.limit
            ),
            Resource::LeanDiamonds => write!(
                f,
                "resource exhausted: lean has {} diamonds, the cap is {}",
                self.spent, self.limit
            ),
            Resource::Cancelled => {
                write!(f, "resource exhausted: cancelled after {} ms", self.spent)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_caps_only_the_enumeration() {
        let d = Limits::default();
        assert_eq!(d.deadline, None);
        assert_eq!(d.max_bdd_nodes, None);
        assert_eq!(d.max_iterations, None);
        assert_eq!(d.max_lean_diamonds, MAX_EXPLICIT_DIAMONDS);
        assert!(!d.is_unbounded());
        assert!(Limits::none().is_unbounded());
    }

    #[test]
    fn after_subtracts_the_deadline() {
        let l = Limits {
            deadline: Some(Duration::from_millis(100)),
            ..Limits::default()
        };
        let rest = l.after(Duration::from_millis(40)).unwrap();
        assert_eq!(rest.deadline, Some(Duration::from_millis(60)));
        let gone = l.after(Duration::from_millis(100)).unwrap_err();
        assert_eq!(gone.resource, Resource::WallClock);
        assert_eq!(gone.limit, 100);
        // Without a deadline `after` is the identity.
        assert_eq!(
            Limits::default().after(Duration::from_secs(9)).unwrap(),
            Limits::default()
        );
    }

    #[test]
    fn cancel_token_is_shared_and_invisible_to_equality() {
        let token = CancelToken::armed();
        let drained = Limits {
            cancel: token.clone(),
            ..Limits::default()
        };
        // Armed-but-uncancelled polls pass; the token still counts as a
        // bound so pollers are not skipped.
        assert!(drained.poll(Instant::now()).is_ok());
        assert!(!Limits {
            cancel: token.clone(),
            ..Limits::none()
        }
        .is_unbounded());
        token.cancel();
        let e = drained.poll(Instant::now()).unwrap_err();
        assert_eq!(e.resource, Resource::Cancelled);
        assert_eq!(Resource::Cancelled.as_str(), "cancelled");
        // The token never participates in the budget contract's identity:
        // the memo cache must key identically-budgeted solves together.
        assert_eq!(drained, Limits::default());
        // `after` carries the token along.
        let timed = Limits {
            deadline: Some(Duration::from_millis(100)),
            cancel: token.clone(),
            ..Limits::default()
        };
        let rest = timed.after(Duration::from_millis(10)).unwrap();
        assert!(rest.cancel.is_cancelled());
    }

    #[test]
    fn exhaustion_messages_name_the_resource() {
        let e = Exhausted {
            resource: Resource::Iterations,
            spent: 7,
            limit: 7,
        };
        assert_eq!(
            e.to_string(),
            "resource exhausted: 7 fixpoint iterations, the cap is 7"
        );
        assert_eq!(Resource::BddNodes.as_str(), "bdd_nodes");
        assert_eq!(Resource::WallClock.to_string(), "wall_clock_ms");
    }
}
