//! Verdict checking, independent of the solver under test.
//!
//! * [`replay`] re-evaluates a witness with the XPath interpreter of
//!   Fig 5/6 (`xpath::eval_on_tree`) and validates it against every
//!   governing DTD (`Dtd::validates`); neither shares code with the
//!   satisfiability solvers.
//! * [`TABLE2_PINS`] fixes the verdicts of the paper's Table 2 rows.
//! * [`classify`] sorts a protocol response into right, wrong or failed
//!   against a reference verdict from the `explicit` backend.

use std::collections::HashSet;

use analyzer::Problem;
use engine::Value;
use ftree::{FocusedTree, Tree};
use solver::Model;
use xpath::Expr;

/// The pinned verdicts of Table 2, one entry per solved direction:
/// row 1 `e1 ⊆ e2` holds and `e2 ⊆ e1` fails; row 2 holds both ways;
/// row 3 fails both ways (the repository's recorded divergence from the
/// paper, which reports `e6 ⊆ e5`); rows 4–5 are satisfiable; row 6 is
/// not covered.
pub const TABLE2_PINS: [&[bool]; 6] = [
    &[true, false],
    &[true, true],
    &[false, false],
    &[true],
    &[true],
    &[false],
];

fn selected(e: &Expr, root: &Tree) -> HashSet<FocusedTree> {
    xpath::eval_on_tree(e, root).into_iter().collect()
}

/// Whether a verdict must come with a witness: a failed containment,
/// coverage, emptiness or type-check, or a satisfiable query or overlap.
fn needs_witness(p: &Problem, holds: bool) -> bool {
    match p {
        Problem::Sat { .. } | Problem::Overlap { .. } => holds,
        _ => !holds,
    }
}

/// Replays `witness` for the claim `(p, holds)`: the XPath interpreter
/// must confirm what the verdict says about the witness, and the witness
/// must be valid against each type its positive queries run under.
pub fn replay(p: &Problem, holds: bool, witness: Option<&Model>) -> Result<(), String> {
    let Some(m) = witness else {
        return if needs_witness(p, holds) {
            Err("the verdict needs a witness and has none".to_owned())
        } else {
            Ok(())
        };
    };
    let [root] = m.roots() else {
        // A hedge is outside the interpreter's domain (a single marked
        // document); the solver's own model check covered it.
        return Ok(());
    };
    if root.mark_count() != 1 {
        return Err(format!("witness {} has no single start mark", m.xml()));
    }
    let sel = |e: &Expr| selected(e, root);
    let confirmed = match p {
        Problem::Sat { query, .. } => !sel(query).is_empty(),
        Problem::Empty { query, .. } => !sel(query).is_empty(),
        Problem::Overlap { lhs, rhs, .. } => sel(lhs).intersection(&sel(rhs)).next().is_some(),
        Problem::Contains { lhs, rhs, .. } => sel(lhs).difference(&sel(rhs)).next().is_some(),
        Problem::Equiv { lhs, rhs, .. } => sel(lhs) != sel(rhs),
        Problem::Covers { query, by, .. } => {
            let mut left = sel(query);
            for (e, _) in by {
                left = left.difference(&sel(e)).cloned().collect();
            }
            !left.is_empty()
        }
        // The output type's root condition is not an XPath claim; the DTD
        // check below still applies to the input side.
        Problem::TypeCheck { query, .. } => !sel(query).is_empty(),
    };
    if !confirmed {
        return Err(format!(
            "the XPath interpreter refutes witness {} for {} (holds = {holds})",
            m.xml(),
            p.op_name()
        ));
    }
    let governing: Vec<_> = match p {
        Problem::Sat { ty, .. } | Problem::Empty { ty, .. } | Problem::Covers { ty, .. } => {
            ty.iter().collect()
        }
        Problem::Contains { ltype, .. } => ltype.iter().collect(),
        Problem::Overlap { ltype, rtype, .. } => ltype.iter().chain(rtype.iter()).collect(),
        Problem::Equiv { .. } => Vec::new(),
        Problem::TypeCheck { input, .. } => vec![input],
    };
    for dtd in governing {
        if !dtd.validates(root) {
            return Err(format!("witness {} is not valid against its DTD", m.xml()));
        }
    }
    Ok(())
}

/// Checks one Table 2 row: each direction's verdict against the pin and
/// each witness through [`replay`].
pub fn check_table2_row(
    row: usize,
    results: &[(&Problem, bool, Option<&Model>)],
) -> Result<(), String> {
    let pins = TABLE2_PINS[row];
    if results.len() != pins.len() {
        return Err(format!(
            "row {}: {} verdicts for {} pins",
            row + 1,
            results.len(),
            pins.len()
        ));
    }
    for (i, ((p, holds, w), want)) in results.iter().zip(pins.iter()).enumerate() {
        if holds != want {
            return Err(format!(
                "row {} direction {}: verdict {holds}, pinned {want}",
                row + 1,
                i + 1
            ));
        }
        replay(p, *holds, *w).map_err(|e| format!("row {} direction {}: {e}", row + 1, i + 1))?;
    }
    Ok(())
}

/// The lean-diamond cap of the `explicit` reference solves. The default
/// (16) bounds interactive use; the reference runs outside every timed
/// region and can afford a few more.
pub const REFERENCE_MAX_LEAN: usize = 20;

/// `line` (a decision or lint request) with the reference's limits.
pub fn reference_line(line: &str) -> String {
    format!(
        "{},\"limits\":{{\"max_lean\":{REFERENCE_MAX_LEAN}}}}}",
        &line[..line.len() - 1]
    )
}

/// How one protocol response compares with the reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// Decided, and the same verdict as the reference.
    Right,
    /// Decided, with the opposite verdict: the run is incorrect.
    Wrong(String),
    /// `error`, `unknown` or `shed`: counted as failed.
    Failed(String),
}

/// Compares a decision response with the reference verdict `want`.
pub fn classify(resp: &Value, want: bool) -> Check {
    let status = resp.get("status").and_then(Value::as_str).unwrap_or("");
    match (status, resp.get("holds").and_then(Value::as_bool)) {
        ("holds" | "fails", Some(holds)) if holds == want => Check::Right,
        ("holds" | "fails", Some(holds)) => Check::Wrong(format!(
            "verdict {holds}, reference {want}: {}",
            resp.to_json()
        )),
        _ => Check::Failed(resp.to_json()),
    }
}
