//! Solver results: satisfiability verdicts, models and statistics.

use std::fmt;
use std::time::Duration;

use ftree::{BinaryTree, Label, Tree};

/// A satisfying model: a row of sibling trees (usually a single root).
///
/// The logic's models are focused trees whose top-level context may hold
/// siblings, so a satisfying "document" is in general a hedge; XML documents
/// are the common single-rooted case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    roots: Vec<Tree>,
}

impl Model {
    pub(crate) fn from_binary(root: &BinaryTree) -> Model {
        Model {
            roots: root.to_unranked_row(),
        }
    }

    /// Builds a model from an explicit root row. Used by witness
    /// verification tests and the regression corpus to replay hand-written
    /// counter-examples through the same oracles that gate solver output.
    pub fn from_trees(roots: Vec<Tree>) -> Model {
        Model { roots }
    }

    /// The root row of the model.
    pub fn roots(&self) -> &[Tree] {
        &self.roots
    }

    /// The model as a single tree: the root itself if the row is a
    /// singleton, otherwise a synthetic `#hedge` element wrapping the row.
    pub fn tree(&self) -> Tree {
        match self.roots.as_slice() {
            [one] => one.clone(),
            row => Tree::node(Label::new("hedge"), row.to_vec()),
        }
    }

    /// Renders the model as XML (the start mark becomes `s="1"`).
    pub fn xml(&self) -> String {
        self.tree().to_xml()
    }

    /// Renders the model as indented multi-line XML, for human-facing
    /// counter-example output (`xsat … --explain`).
    pub fn xml_pretty(&self) -> String {
        self.tree().to_xml_pretty()
    }

    /// Total node count.
    pub fn size(&self) -> usize {
        self.roots.iter().map(Tree::size).sum()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.xml())
    }
}

/// The verdict of a satisfiability run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A finite focused tree satisfies the formula; a minimal one is
    /// reconstructed (§7.2).
    Satisfiable(Model),
    /// No finite focused tree satisfies the formula.
    Unsatisfiable,
}

impl Outcome {
    /// Whether the verdict is satisfiable.
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, Outcome::Satisfiable(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            Outcome::Satisfiable(m) => Some(m),
            Outcome::Unsatisfiable => None,
        }
    }
}

/// Counters of the BDD kernel underlying one symbolic run — the
/// engineering telemetry of the unique-table arena and the unified
/// operation cache.
///
/// All fields are integers so [`Telemetry`] stays `Eq`/hashable; the
/// derived ratios are exposed as methods ([`BddCounters::load_factor`],
/// [`BddCounters::cache_hit_rate`]) and serialized alongside the raw
/// counters by the engine protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BddCounters {
    /// High-water mark of live BDD nodes over the run.
    pub peak_nodes: usize,
    /// Nodes allocated over the run (monotone: unlike the live count it
    /// survives garbage collection, so it measures allocation pressure).
    pub created_nodes: usize,
    /// Open-addressed unique-table slots at the end of the run.
    pub table_capacity: usize,
    /// Operation-cache lookups that found their result.
    pub cache_hits: u64,
    /// Operation-cache lookups in total.
    pub cache_lookups: u64,
}

impl BddCounters {
    /// Unique-table load factor at the high-water mark:
    /// `peak_nodes / table_capacity`. Peak and capacity are both maxima
    /// of one monotone-capacity manager, so the ratio stays meaningful —
    /// and bounded by the table's 3/4 growth invariant — under
    /// [`Telemetry::merge`], where live node counts sum.
    pub fn load_factor(&self) -> f64 {
        if self.table_capacity == 0 {
            return 0.0;
        }
        self.peak_nodes as f64 / self.table_capacity as f64
    }

    /// Operation-cache hit rate over the run (0 when nothing was looked
    /// up).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.cache_lookups as f64
    }

    /// Combines the counters of two runs: peaks and capacities take the
    /// maximum (they describe high-water marks of a store), allocation and
    /// cache traffic sum.
    pub fn merge(self, other: BddCounters) -> BddCounters {
        BddCounters {
            peak_nodes: self.peak_nodes.max(other.peak_nodes),
            created_nodes: self.created_nodes + other.created_nodes,
            table_capacity: self.table_capacity.max(other.table_capacity),
            cache_hits: self.cache_hits + other.cache_hits,
            cache_lookups: self.cache_lookups + other.cache_lookups,
        }
    }
}

/// The kernel's raw run counters map one-to-one onto the telemetry type
/// (which stays a separate struct so the wire shape is decoupled from the
/// kernel); this is the single conversion point.
impl From<bdd::BddStats> for BddCounters {
    fn from(s: bdd::BddStats) -> BddCounters {
        BddCounters {
            peak_nodes: s.peak_nodes,
            created_nodes: s.created_nodes,
            table_capacity: s.table_capacity,
            cache_hits: s.cache_hits,
            cache_lookups: s.cache_lookups,
        }
    }
}

/// Backend-specific measurements of one solver run.
///
/// Each backend reports the counters that are meaningful for its
/// representation. This replaces the old pair of `Option` fields on
/// [`Stats`] whose populated/empty combinations encoded the backend
/// implicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Telemetry {
    /// The symbolic BDD backend (§7).
    Symbolic {
        /// Total BDD nodes live in the store when the run finished.
        bdd_nodes: usize,
        /// Kernel counters: peak/created nodes, unique-table capacity,
        /// operation-cache traffic.
        counters: BddCounters,
    },
    /// The explicit enumeration backend (§6.2).
    Explicit {
        /// ψ-types enumerated.
        types: usize,
    },
    /// The witnessed Fig 16 backend.
    Witnessed {
        /// ψ-types enumerated.
        types: usize,
        /// Triples proved when the run finished.
        proved: usize,
    },
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::Symbolic {
            bdd_nodes: 0,
            counters: BddCounters::default(),
        }
    }
}

impl Telemetry {
    /// The backend that produced this telemetry, by protocol name.
    pub fn backend_name(&self) -> &'static str {
        match self {
            Telemetry::Symbolic { .. } => "symbolic",
            Telemetry::Explicit { .. } => "explicit",
            Telemetry::Witnessed { .. } => "witnessed",
        }
    }

    /// BDD nodes, for a symbolic run.
    pub fn bdd_nodes(&self) -> Option<usize> {
        match self {
            Telemetry::Symbolic { bdd_nodes, .. } => Some(*bdd_nodes),
            _ => None,
        }
    }

    /// BDD kernel counters, for a symbolic run.
    pub fn bdd_counters(&self) -> Option<&BddCounters> {
        match self {
            Telemetry::Symbolic { counters, .. } => Some(counters),
            _ => None,
        }
    }

    /// Unique-table load factor, for a symbolic run.
    pub fn load_factor(&self) -> Option<f64> {
        self.bdd_counters().map(BddCounters::load_factor)
    }

    /// Operation-cache hit rate, for a symbolic run.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        self.bdd_counters().map(BddCounters::cache_hit_rate)
    }

    /// Enumerated ψ-types, for an enumerating run.
    pub fn explicit_types(&self) -> Option<usize> {
        match self {
            Telemetry::Explicit { types } | Telemetry::Witnessed { types, .. } => Some(*types),
            Telemetry::Symbolic { .. } => None,
        }
    }

    /// Combines the telemetry of two sub-problems (e.g. the two directions
    /// of an equivalence) field-wise: allocation and cache counters sum,
    /// high-water marks take the maximum.
    ///
    /// Every sub-solve of one problem runs on the same backend, so the two
    /// sides always match. A mismatched pair keeps `self` unchanged.
    pub fn merge(self, other: Telemetry) -> Telemetry {
        use Telemetry::{Explicit, Symbolic, Witnessed};
        match (self, other) {
            (
                Symbolic {
                    bdd_nodes: a,
                    counters: ca,
                },
                Symbolic {
                    bdd_nodes: b,
                    counters: cb,
                },
            ) => Symbolic {
                bdd_nodes: a + b,
                counters: ca.merge(cb),
            },
            (Explicit { types: a }, Explicit { types: b }) => Explicit { types: a + b },
            (
                Witnessed {
                    types: a,
                    proved: pa,
                },
                Witnessed {
                    types: b,
                    proved: pb,
                },
            ) => Witnessed {
                types: a + b,
                proved: pa + pb,
            },
            (this, _) => this,
        }
    }
}

/// Measurements of one solver run.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// `|Lean(ψ)|` — the exponent of the complexity bound.
    pub lean_size: usize,
    /// `|cl(ψ)|`.
    pub closure_size: usize,
    /// Fixpoint iterations performed.
    pub iterations: usize,
    /// Wall-clock time of the satisfiability loop.
    pub duration: Duration,
    /// Backend-specific counters.
    pub telemetry: Telemetry,
}

impl Stats {
    /// Combines the measurements of two sub-solves of one logical problem
    /// (e.g. the two directions of an equivalence): sizes take the
    /// maximum, iterations and wall clock sum, telemetry merges
    /// field-wise (see [`Telemetry::merge`]).
    pub fn merge(self, other: Stats) -> Stats {
        Stats {
            lean_size: self.lean_size.max(other.lean_size),
            closure_size: self.closure_size.max(other.closure_size),
            iterations: self.iterations + other.iterations,
            duration: self.duration + other.duration,
            telemetry: self.telemetry.merge(other.telemetry),
        }
    }
}

/// A verdict together with its statistics.
#[derive(Debug)]
pub struct Solved {
    /// The verdict.
    pub outcome: Outcome,
    /// Measurements.
    pub stats: Stats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_single_root() {
        let t = Tree::parse_xml("<a><b/></a>").unwrap();
        let b = BinaryTree::from_unranked(&t);
        let m = Model::from_binary(&b);
        assert_eq!(m.roots().len(), 1);
        assert_eq!(m.tree(), t);
        assert_eq!(m.size(), 2);
    }

    #[test]
    fn model_hedge() {
        let a = BinaryTree::new(
            "a",
            false,
            None,
            Some(BinaryTree::new("b", false, None, None)),
        );
        let m = Model::from_binary(&a);
        assert_eq!(m.roots().len(), 2);
        assert_eq!(m.tree().label().as_str(), "hedge");
    }

    #[test]
    fn outcome_accessors() {
        let o = Outcome::Unsatisfiable;
        assert!(!o.is_satisfiable());
        assert!(o.model().is_none());
    }

    fn sym(bdd_nodes: usize, counters: BddCounters) -> Telemetry {
        Telemetry::Symbolic {
            bdd_nodes,
            counters,
        }
    }

    #[test]
    fn telemetry_accessors_and_merge() {
        let c10 = BddCounters {
            peak_nodes: 12,
            created_nodes: 20,
            table_capacity: 1024,
            cache_hits: 30,
            cache_lookups: 40,
        };
        let s = sym(10, c10);
        let e = Telemetry::Explicit { types: 4 };
        assert_eq!(s.bdd_nodes(), Some(10));
        assert_eq!(s.explicit_types(), None);
        assert_eq!(e.explicit_types(), Some(4));
        assert_eq!(e.bdd_counters(), None);
        assert_eq!(s.cache_hit_rate(), Some(0.75));
        assert_eq!(s.load_factor(), Some(12.0 / 1024.0));
        let c5 = BddCounters {
            peak_nodes: 50,
            created_nodes: 7,
            table_capacity: 512,
            cache_hits: 1,
            cache_lookups: 2,
        };
        let merged = s.clone().merge(sym(5, c5));
        assert_eq!(
            merged,
            sym(
                15,
                BddCounters {
                    peak_nodes: 50,
                    created_nodes: 27,
                    table_capacity: 1024,
                    cache_hits: 31,
                    cache_lookups: 42,
                }
            )
        );
        assert_eq!(
            e.clone().merge(Telemetry::Explicit { types: 3 }),
            Telemetry::Explicit { types: 7 }
        );
        let w = Telemetry::Witnessed {
            types: 2,
            proved: 3,
        };
        assert_eq!(
            w.clone().merge(w.clone()),
            Telemetry::Witnessed {
                types: 4,
                proved: 6,
            }
        );
        // A mismatched pair keeps the left side.
        assert_eq!(s.clone().merge(w), s);
    }
}
