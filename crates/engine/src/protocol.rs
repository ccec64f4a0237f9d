//! The JSON-lines wire protocol, version 2: requests in, verdicts out.
//!
//! Each request is one JSON object per line. Every request may carry an
//! `"id"` field (any JSON value), echoed verbatim on its response so
//! pipelined clients can correlate. Decision ops reference queries and
//! types by registered name, with inline XPath / DTD source accepted as a
//! fallback (see [`Workspace`]), and may carry a `"backend"` field
//! (`symbolic` | `explicit` | `witnessed`) selecting the solver
//! and a `"limits"` object overriding the engine's resource budgets
//! per request (see [`LimitsSpec`]).
//!
//! Protocol v2 gives every verdict a `"status"` field — `holds`, `fails`,
//! `unknown` (a resource budget ran out; the exhausted resource is named)
//! or `error` — and echoes the protocol version on `stats`. Operation
//! aliases are folded through one canonical table ([`Op::TABLE`]), shared
//! by the parser, the verdict echo, and `docs/PROTOCOL.md`.
//!
//! ```text
//! {"op":"dtd","name":"d1","source":"<!ELEMENT a (b*)> <!ELEMENT b EMPTY>"}
//! {"op":"query","name":"q1","xpath":"a/b"}
//! {"op":"contains","lhs":"q1","rhs":"a/*","type":"d1"}
//! {"op":"contains","lhs":"q1","rhs":"a/*","backend":"explicit"}
//! {"op":"sat","query":"q1","limits":{"timeout_ms":250,"max_bdd_nodes":200000}}
//! {"op":"covers","query":"child::*","by":["child::a","child::*[not(self::a)]"]}
//! {"op":"typecheck","query":"child::x","input":"din","output":"dout"}
//! {"op":"stats"}
//! ```

use std::sync::Arc;

use analyzer::{BackendChoice, Limits, Telemetry};

use crate::json::{obj, Value};
use crate::problem::{CounterExample, Problem, UnknownVerdict, Verdict};
use crate::workspace::Workspace;

/// The protocol version spoken by this engine, echoed on `stats`
/// responses. Version 2 added `status` on every verdict, per-request
/// `limits`, and `unknown` verdicts for exhausted budgets.
pub const PROTOCOL_VERSION: u64 = 2;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client correlation id, echoed on the response.
    pub id: Option<Value>,
    /// The operation.
    pub kind: RequestKind,
}

/// The operation of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Register (or rebind) a named DTD.
    RegisterDtd {
        /// Workspace name.
        name: String,
        /// DTD source text.
        source: String,
    },
    /// Register (or rebind) a named query.
    RegisterQuery {
        /// Workspace name.
        name: String,
        /// XPath source text.
        xpath: String,
    },
    /// Pose a decision problem.
    Problem {
        /// The problem, by reference (names or inline sources).
        spec: ProblemSpec,
        /// Requested solver backend; `None` falls back to the engine
        /// default.
        backend: Option<BackendChoice>,
        /// Per-request limit overrides; fields not given fall back to the
        /// engine's default limits.
        limits: Option<LimitsSpec>,
        /// Whether to return the solve's phase-event trace on the
        /// response (`"trace": true`).
        trace: bool,
    },
    /// Lint the workspace: run the solver-backed rule registry over every
    /// registered query and DTD.
    Lint(LintSpec),
    /// Report engine counters.
    Stats,
    /// Snapshot the process-wide metrics registry.
    Metrics,
    /// Dump the ring buffer of captured slow solves.
    SlowLog,
    /// Drop all registrations and cached verdicts.
    Reset,
}

/// The decision operations, with one canonical wire-alias table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// XPath emptiness.
    Empty,
    /// XPath satisfiability.
    Sat,
    /// XPath containment.
    Contains,
    /// XPath overlap.
    Overlap,
    /// XPath coverage.
    Covers,
    /// XPath equivalence.
    Equiv,
    /// Static type-checking.
    TypeCheck,
}

impl Op {
    /// The canonical wire-alias table: for each op, its accepted request
    /// names, canonical name first. This is the *single* alias authority —
    /// the request parser resolves against it, the verdict `op` echo is
    /// its first column, and `docs/PROTOCOL.md` documents it verbatim.
    pub const TABLE: &'static [(Op, &'static [&'static str])] = &[
        (Op::Empty, &["empty", "emptiness"]),
        (Op::Sat, &["sat", "satisfiable"]),
        (Op::Contains, &["contains", "containment"]),
        (Op::Overlap, &["overlap", "overlaps"]),
        (Op::Covers, &["covers", "coverage"]),
        (Op::Equiv, &["equiv", "equivalent"]),
        (Op::TypeCheck, &["typecheck", "type-check"]),
    ];

    /// The canonical name (the verdict echo; aliases folded).
    pub fn canonical(self) -> &'static str {
        Op::TABLE
            .iter()
            .find(|(op, _)| *op == self)
            .map(|(_, names)| names[0])
            .expect("every op is in the table")
    }

    /// Resolves a wire name (canonical or alias) to its op.
    pub fn from_wire(name: &str) -> Option<Op> {
        Op::TABLE
            .iter()
            .find(|(_, names)| names.contains(&name))
            .map(|(op, _)| *op)
    }
}

/// Wire verdict status (protocol v2): the answer class of a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The decided property holds.
    Holds,
    /// The decided property does not hold.
    Fails,
    /// A resource budget ran out before the solve could decide.
    Unknown,
    /// The request failed (parse, resolution, or solver-level error).
    Error,
}

impl Status {
    /// The wire name of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Holds => "holds",
            Status::Fails => "fails",
            Status::Unknown => "unknown",
            Status::Error => "error",
        }
    }

    /// The status of a definite verdict.
    pub fn of(holds: bool) -> Status {
        if holds {
            Status::Holds
        } else {
            Status::Fails
        }
    }
}

/// A decision problem by reference (names or inline sources), before
/// resolution against a workspace — the typed mirror of
/// [`Problem`], one variant per [`Op`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemSpec {
    /// `empty`: does the query select nothing?
    Empty {
        /// Query reference.
        query: String,
        /// Optional type reference.
        ty: Option<String>,
    },
    /// `sat`: does the query select something?
    Sat {
        /// Query reference.
        query: String,
        /// Optional type reference.
        ty: Option<String>,
    },
    /// `contains`: `lhs ⊆ rhs`.
    Contains {
        /// Left query reference.
        lhs: String,
        /// Type reference of `lhs`.
        ltype: Option<String>,
        /// Right query reference.
        rhs: String,
        /// Type reference of `rhs`.
        rtype: Option<String>,
    },
    /// `overlap`: some node selected by both.
    Overlap {
        /// Left query reference.
        lhs: String,
        /// Type reference of `lhs`.
        ltype: Option<String>,
        /// Right query reference.
        rhs: String,
        /// Type reference of `rhs`.
        rtype: Option<String>,
    },
    /// `covers`: the query within the union of the covering queries.
    Covers {
        /// Covered query reference.
        query: String,
        /// Optional type reference, shared by every query.
        ty: Option<String>,
        /// Covering query references (non-empty).
        by: Vec<String>,
    },
    /// `equiv`: containment both ways.
    Equiv {
        /// Left query reference.
        lhs: String,
        /// Type reference of `lhs`.
        ltype: Option<String>,
        /// Right query reference.
        rhs: String,
        /// Type reference of `rhs`.
        rtype: Option<String>,
    },
    /// `typecheck`: selected nodes valid against the output type.
    TypeCheck {
        /// Query reference.
        query: String,
        /// Input type reference.
        input: String,
        /// Output type reference.
        output: String,
    },
}

impl ProblemSpec {
    /// The operation of the spec.
    pub fn op(&self) -> Op {
        match self {
            ProblemSpec::Empty { .. } => Op::Empty,
            ProblemSpec::Sat { .. } => Op::Sat,
            ProblemSpec::Contains { .. } => Op::Contains,
            ProblemSpec::Overlap { .. } => Op::Overlap,
            ProblemSpec::Covers { .. } => Op::Covers,
            ProblemSpec::Equiv { .. } => Op::Equiv,
            ProblemSpec::TypeCheck { .. } => Op::TypeCheck,
        }
    }

    /// Resolves name references against the workspace into a structural
    /// [`Problem`].
    pub fn resolve(&self, ws: &Workspace) -> Result<Problem, String> {
        let ty = |name: &Option<String>| -> Result<Option<Arc<treetypes::Dtd>>, String> {
            match name {
                Some(name) => ws.resolve_dtd(name).map(Some),
                None => Ok(None),
            }
        };
        match self {
            ProblemSpec::Empty { query, ty: t } => Ok(Problem::Empty {
                query: ws.resolve_query(query)?,
                ty: ty(t)?,
            }),
            ProblemSpec::Sat { query, ty: t } => Ok(Problem::Sat {
                query: ws.resolve_query(query)?,
                ty: ty(t)?,
            }),
            ProblemSpec::Contains {
                lhs,
                ltype,
                rhs,
                rtype,
            } => Ok(Problem::Contains {
                lhs: ws.resolve_query(lhs)?,
                ltype: ty(ltype)?,
                rhs: ws.resolve_query(rhs)?,
                rtype: ty(rtype)?,
            }),
            ProblemSpec::Overlap {
                lhs,
                ltype,
                rhs,
                rtype,
            } => Ok(Problem::Overlap {
                lhs: ws.resolve_query(lhs)?,
                ltype: ty(ltype)?,
                rhs: ws.resolve_query(rhs)?,
                rtype: ty(rtype)?,
            }),
            ProblemSpec::Equiv {
                lhs,
                ltype,
                rhs,
                rtype,
            } => Ok(Problem::Equiv {
                lhs: ws.resolve_query(lhs)?,
                ltype: ty(ltype)?,
                rhs: ws.resolve_query(rhs)?,
                rtype: ty(rtype)?,
            }),
            ProblemSpec::Covers { query, ty: t, by } => {
                let shared = ty(t)?;
                Ok(Problem::Covers {
                    query: ws.resolve_query(query)?,
                    ty: shared.clone(),
                    by: by
                        .iter()
                        .map(|q| Ok((ws.resolve_query(q)?, shared.clone())))
                        .collect::<Result<_, String>>()?,
                })
            }
            ProblemSpec::TypeCheck {
                query,
                input,
                output,
            } => Ok(Problem::TypeCheck {
                query: ws.resolve_query(query)?,
                input: ws.resolve_dtd(input)?,
                output: ws.resolve_dtd(output)?,
            }),
        }
    }
}

/// The configuration of a `lint` request, before defaults are applied.
///
/// Wire shape:
///
/// ```text
/// {"op":"lint","type":"d1",
///  "rules":{"dead-step":"error","query-shadowing":"off"},
///  "max_diamonds":16,"limits":{"timeout_ms":500},"backend":"symbolic"}
/// ```
///
/// Every field is optional. `rules` maps rule ids ([`lint::RuleId::TABLE`])
/// to a severity (`error` | `warning` | `info`, with `deny`/`warn` as
/// aliases) or to `off`/`allow` to disable the rule; unlisted rules run at
/// their default severity. `type` names the governing DTD (defaulting to
/// the single registered DTD when there is exactly one). `max_diamonds`
/// overrides the `wildcard-explosion` threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct LintSpec {
    /// Per-rule overrides, in wire order.
    pub rules: Vec<(lint::RuleId, lint::RuleSetting)>,
    /// The governing type name (see [`lint::LintConfig::type_name`]).
    pub type_name: Option<String>,
    /// `wildcard-explosion` threshold override.
    pub max_diamonds: Option<usize>,
    /// Requested solver backend for the probes.
    pub backend: Option<BackendChoice>,
    /// Per-request limit overrides for every probe solve.
    pub limits: Option<LimitsSpec>,
}

impl LintSpec {
    /// The effective lint configuration.
    pub fn config(&self) -> lint::LintConfig {
        let mut config = lint::LintConfig {
            type_name: self.type_name.clone(),
            ..lint::LintConfig::default()
        };
        if let Some(n) = self.max_diamonds {
            config.max_diamonds = n;
        }
        for &(rule, setting) in &self.rules {
            config.settings.insert(rule, setting);
        }
        config
    }
}

/// Parses the fields of a `lint` request.
fn lint_spec(v: &Value) -> Result<LintSpec, String> {
    let mut rules = Vec::new();
    if let Some(r) = v.get("rules") {
        let Value::Obj(fields) = r else {
            return Err("`rules` must be an object mapping rule ids to severities".to_owned());
        };
        for (key, val) in fields {
            let rule =
                lint::RuleId::from_wire(key).ok_or_else(|| format!("unknown lint rule `{key}`"))?;
            let name = val
                .as_str()
                .ok_or_else(|| format!("rule `{key}` setting must be a string"))?;
            let setting = match name {
                "off" | "allow" => lint::RuleSetting::Off,
                other => lint::Severity::from_wire(other)
                    .map(lint::RuleSetting::At)
                    .ok_or_else(|| {
                        format!(
                            "unknown severity `{other}` for rule `{key}` \
                             (expected error, warning, info or off)"
                        )
                    })?,
            };
            rules.push((rule, setting));
        }
    }
    let max_diamonds = match v.get("max_diamonds") {
        None => None,
        Some(n) => Some(
            n.as_f64()
                .filter(|x| x.fract() == 0.0 && *x >= 0.0)
                .map(|x| x as usize)
                .ok_or_else(|| "`max_diamonds` must be a non-negative integer".to_owned())?,
        ),
    };
    Ok(LintSpec {
        rules,
        type_name: opt_str_field(v, "type"),
        max_diamonds,
        backend: backend_field(v)?,
        limits: limits_field(v)?,
    })
}

/// Per-request limit overrides, parsed from the `"limits"` object.
///
/// Each field overrides the corresponding engine default when present;
/// absent fields inherit it. Wire keys: `timeout_ms`, `max_bdd_nodes`,
/// `max_iterations`, `max_lean`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct LimitsSpec {
    /// Wall-clock budget override, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// BDD node budget override.
    pub max_bdd_nodes: Option<usize>,
    /// Fixpoint iteration cap override.
    pub max_iterations: Option<usize>,
    /// Lean-diamond cap override for the enumerating backends.
    pub max_lean: Option<usize>,
}

impl LimitsSpec {
    /// The effective limits: the engine defaults with this spec's
    /// overrides applied.
    pub fn apply(&self, base: &Limits) -> Limits {
        Limits {
            deadline: self
                .timeout_ms
                .map(std::time::Duration::from_millis)
                .or(base.deadline),
            max_bdd_nodes: self.max_bdd_nodes.or(base.max_bdd_nodes),
            max_iterations: self.max_iterations.or(base.max_iterations),
            max_lean_diamonds: self.max_lean.unwrap_or(base.max_lean_diamonds),
            cancel: base.cancel.clone(),
        }
    }
}

impl Request {
    /// Parses one JSON-line request.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = crate::json::parse(line).map_err(|e| e.to_string())?;
        Request::from_value(&v)
    }

    /// Interprets a parsed JSON value as a request.
    pub fn from_value(v: &Value) -> Result<Request, String> {
        let id = v.get("id").cloned();
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| "request needs a string `op` field".to_owned())?;
        let kind = match op {
            "dtd" | "register-dtd" => RequestKind::RegisterDtd {
                name: str_field(v, "name")?,
                source: str_field(v, "source")?,
            },
            "query" | "register-query" => RequestKind::RegisterQuery {
                name: str_field(v, "name")?,
                xpath: str_field(v, "xpath")?,
            },
            "lint" => RequestKind::Lint(lint_spec(v)?),
            "stats" => RequestKind::Stats,
            "metrics" => RequestKind::Metrics,
            "slowlog" | "slow-log" => RequestKind::SlowLog,
            "reset" => RequestKind::Reset,
            other => match Op::from_wire(other) {
                Some(op) => RequestKind::Problem {
                    spec: problem_spec(op, v)?,
                    backend: backend_field(v)?,
                    limits: limits_field(v)?,
                    trace: trace_field(v)?,
                },
                None => return Err(format!("unknown op `{other}`")),
            },
        };
        Ok(Request { id, kind })
    }
}

/// Parses the op-specific fields of a decision request.
fn problem_spec(op: Op, v: &Value) -> Result<ProblemSpec, String> {
    // Shared shape of the binary ops: `lhs`, `rhs`, and either one `type`
    // for both sides or per-side `ltype` / `rtype`.
    let binary = |v: &Value| -> Result<(String, Option<String>, String, Option<String>), String> {
        let both = opt_str_field(v, "type");
        let ltype = opt_str_field(v, "ltype").or_else(|| both.clone());
        let rtype = opt_str_field(v, "rtype").or(both);
        Ok((str_field(v, "lhs")?, ltype, str_field(v, "rhs")?, rtype))
    };
    Ok(match op {
        Op::Empty => ProblemSpec::Empty {
            query: str_field(v, "query")?,
            ty: opt_str_field(v, "type"),
        },
        Op::Sat => ProblemSpec::Sat {
            query: str_field(v, "query")?,
            ty: opt_str_field(v, "type"),
        },
        Op::Contains => {
            let (lhs, ltype, rhs, rtype) = binary(v)?;
            ProblemSpec::Contains {
                lhs,
                ltype,
                rhs,
                rtype,
            }
        }
        Op::Overlap => {
            let (lhs, ltype, rhs, rtype) = binary(v)?;
            ProblemSpec::Overlap {
                lhs,
                ltype,
                rhs,
                rtype,
            }
        }
        Op::Equiv => {
            let (lhs, ltype, rhs, rtype) = binary(v)?;
            ProblemSpec::Equiv {
                lhs,
                ltype,
                rhs,
                rtype,
            }
        }
        Op::Covers => {
            let by_items = v
                .get("by")
                .and_then(Value::as_arr)
                .ok_or_else(|| "`covers` needs a `by` array of query references".to_owned())?;
            if by_items.is_empty() {
                return Err("`covers` needs at least one covering query".to_owned());
            }
            let by = by_items
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "`by` entries must be strings".to_owned())
                })
                .collect::<Result<_, _>>()?;
            ProblemSpec::Covers {
                query: str_field(v, "query")?,
                ty: opt_str_field(v, "type"),
                by,
            }
        }
        Op::TypeCheck => ProblemSpec::TypeCheck {
            query: str_field(v, "query")?,
            input: str_field(v, "input")?,
            output: str_field(v, "output")?,
        },
    })
}

/// Parses the optional `trace` flag of a decision request.
fn trace_field(v: &Value) -> Result<bool, String> {
    match v.get("trace") {
        None => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err("`trace` must be a boolean".to_owned()),
    }
}

/// Parses the optional `backend` field of a request.
fn backend_field(v: &Value) -> Result<Option<BackendChoice>, String> {
    match v.get("backend") {
        None => Ok(None),
        Some(b) => {
            let name = b
                .as_str()
                .ok_or_else(|| "`backend` must be a string".to_owned())?;
            name.parse().map(Some)
        }
    }
}

/// Parses the optional `limits` object of a request.
fn limits_field(v: &Value) -> Result<Option<LimitsSpec>, String> {
    let Some(l) = v.get("limits") else {
        return Ok(None);
    };
    if !matches!(l, Value::Obj(_)) {
        return Err("`limits` must be an object".to_owned());
    }
    let field = |key: &str| -> Result<Option<u64>, String> {
        match l.get(key) {
            None => Ok(None),
            Some(n) => {
                let x = n
                    .as_f64()
                    .filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x <= u64::MAX as f64)
                    .ok_or_else(|| format!("`limits.{key}` must be a non-negative integer"))?;
                Ok(Some(x as u64))
            }
        }
    };
    if let Value::Obj(fields) = l {
        const KNOWN: [&str; 4] = ["timeout_ms", "max_bdd_nodes", "max_iterations", "max_lean"];
        if let Some((k, _)) = fields.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
            return Err(format!(
                "unknown `limits` field `{k}` (expected timeout_ms, max_bdd_nodes, \
                 max_iterations or max_lean)"
            ));
        }
    }
    Ok(Some(LimitsSpec {
        timeout_ms: field("timeout_ms")?,
        max_bdd_nodes: field("max_bdd_nodes")?.map(|x| x as usize),
        max_iterations: field("max_iterations")?.map(|x| x as usize),
        max_lean: field("max_lean")?.map(|x| x as usize),
    }))
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn opt_str_field(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_owned)
}

/// Builds the response for a successful registration.
pub fn registration_response(id: Option<&Value>, kind: &str, name: &str) -> Value {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    fields.extend([
        ("ok", Value::Bool(true)),
        ("registered", Value::from(name)),
        ("kind", Value::from(kind)),
    ]);
    obj(fields)
}

/// Builds the response for a solved (or cache-served) decision problem.
/// `trace` is the serialized event array for requests that set
/// `"trace": true` (see [`trace_value`]); `None` omits the field.
pub fn verdict_response(
    id: Option<&Value>,
    op: Op,
    verdict: &Verdict,
    cached: bool,
    wall_ms: f64,
    trace: Option<Value>,
) -> Value {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    fields.extend([
        ("ok", Value::Bool(true)),
        ("op", Value::from(op.canonical())),
        ("backend", Value::from(verdict.backend.as_str())),
        ("status", Value::from(Status::of(verdict.holds).as_str())),
        ("holds", Value::Bool(verdict.holds)),
    ]);
    match &verdict.counter_example {
        Some(xml) => fields.push(("counter_example", Value::from(xml.as_str()))),
        None => fields.push(("counter_example", Value::Null)),
    }
    if let Some(ce) = &verdict.counterexample {
        fields.push(("counterexample", counterexample_value(ce)));
    }
    fields.push(("cached", Value::Bool(cached)));
    fields.push(("wall_ms", Value::Num(round3(wall_ms))));
    let s = &verdict.stats;
    let stats = vec![
        ("lean_size", Value::from(s.lean_size)),
        ("closure_size", Value::from(s.closure_size)),
        ("iterations", Value::from(s.iterations)),
        ("solve_ms", Value::Num(round3(s.solve_ms))),
        ("telemetry", telemetry_value(&s.telemetry)),
    ];
    fields.push(("stats", obj(stats)));
    if let Some(trace) = trace {
        fields.push(("trace", trace));
    }
    obj(fields)
}

/// Builds the `"status":"unknown"` response for a budget-exhausted solve:
/// `ok` stays true (the protocol worked; the solve was inconclusive),
/// `holds` is `null`, and the exhausted resource is named with what was
/// spent against what budget. Unknown verdicts are never cached.
pub fn unknown_response(
    id: Option<&Value>,
    op: Op,
    unknown: &UnknownVerdict,
    trace: Option<Value>,
) -> Value {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    fields.extend([
        ("ok", Value::Bool(true)),
        ("op", Value::from(op.canonical())),
        ("backend", Value::from(unknown.backend.as_str())),
        ("status", Value::from(Status::Unknown.as_str())),
        ("holds", Value::Null),
        ("resource", Value::from(unknown.resource)),
        ("spent", Value::Num(unknown.spent as f64)),
        ("limit", Value::Num(unknown.limit as f64)),
        ("reason", Value::from(unknown.reason.as_str())),
        ("cached", Value::Bool(false)),
        ("wall_ms", Value::Num(round3(unknown.wall_ms))),
    ]);
    if let Some(trace) = trace {
        fields.push(("trace", trace));
    }
    obj(fields)
}

/// Builds the response for a `lint` request: the per-severity tallies and
/// the diagnostics in their deterministic order (rule id, then subject,
/// step, span). `status` is `"clean"` exactly when there are no findings.
pub fn lint_response(
    id: Option<&Value>,
    diagnostics: &[lint::Diagnostic],
    probes: usize,
    wall_ms: f64,
) -> Value {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    let count = |sev: lint::Severity| diagnostics.iter().filter(|d| d.severity == sev).count();
    let status = if diagnostics.is_empty() {
        "clean"
    } else {
        "findings"
    };
    fields.extend([
        ("ok", Value::Bool(true)),
        ("op", Value::from("lint")),
        ("status", Value::from(status)),
        ("findings", Value::from(diagnostics.len())),
        ("errors", Value::from(count(lint::Severity::Error))),
        ("warnings", Value::from(count(lint::Severity::Warning))),
        ("infos", Value::from(count(lint::Severity::Info))),
        ("probes", Value::from(probes)),
        (
            "diagnostics",
            Value::Arr(diagnostics.iter().map(diagnostic_value).collect()),
        ),
        ("wall_ms", Value::Num(round3(wall_ms))),
    ]);
    obj(fields)
}

/// Serializes one lint finding. `evidence` is `null` for pure graph passes
/// (`unreachable-element`) and unverified degradations; a witness-backed
/// finding carries the decided problem's op name, the oracle-verified
/// witness document, and `"verified": true`; a verdict-backed finding
/// carries the op name and the decisive status instead.
fn diagnostic_value(d: &lint::Diagnostic) -> Value {
    let step = match d.step {
        Some(n) => Value::from(n),
        None => Value::Null,
    };
    let span = match &d.span {
        Some(s) => Value::from(s.as_str()),
        None => Value::Null,
    };
    let evidence = match &d.evidence {
        None => Value::Null,
        Some(ev @ lint::Evidence::Witness { xml, .. }) => obj(vec![
            ("op", Value::from(ev.op_name())),
            ("witness", Value::from(xml.as_str())),
            ("verified", Value::Bool(true)),
        ]),
        Some(ev @ lint::Evidence::Verdict { status, .. }) => obj(vec![
            ("op", Value::from(ev.op_name())),
            ("status", Value::from(*status)),
        ]),
    };
    obj(vec![
        ("rule", Value::from(d.rule.as_str())),
        ("severity", Value::from(d.severity.as_str())),
        ("subject", Value::from(d.subject.as_str())),
        ("step", step),
        ("span", span),
        ("message", Value::from(d.message.as_str())),
        ("unverified", Value::Bool(d.unverified())),
        ("evidence", evidence),
    ])
}

/// Serializes a verified counter-example as the protocol's
/// `"counterexample"` object: compact `xml`, indented `pretty`, node
/// `size`, and the `verified` oracle stamp. Present exactly on `fails`
/// verdicts that carry a witness (see `docs/PROTOCOL.md`).
pub fn counterexample_value(ce: &CounterExample) -> Value {
    obj(vec![
        ("xml", Value::from(ce.xml.as_str())),
        ("pretty", Value::from(ce.pretty.as_str())),
        ("size", Value::from(ce.size)),
        ("verified", Value::Bool(ce.verified)),
    ])
}

/// Serializes per-backend telemetry as a tagged JSON object.
///
/// The symbolic payload carries the BDD kernel counters (live/peak/created
/// nodes, unique-table capacity, operation-cache traffic) plus the two
/// derived ratios — `load_factor` and `cache_hit_rate` — rounded to three
/// decimals. See `docs/PROTOCOL.md` for the normative schema.
pub fn telemetry_value(t: &Telemetry) -> Value {
    let mut fields = vec![("backend", Value::from(t.backend_name()))];
    match t {
        Telemetry::Symbolic {
            bdd_nodes,
            counters,
        } => {
            fields.push(("bdd_nodes", Value::from(*bdd_nodes)));
            fields.push(("peak_nodes", Value::from(counters.peak_nodes)));
            fields.push(("created_nodes", Value::from(counters.created_nodes)));
            fields.push(("table_capacity", Value::from(counters.table_capacity)));
            fields.push(("load_factor", Value::Num(round3(counters.load_factor()))));
            fields.push(("cache_hits", Value::from(counters.cache_hits as usize)));
            fields.push((
                "cache_lookups",
                Value::from(counters.cache_lookups as usize),
            ));
            fields.push((
                "cache_hit_rate",
                Value::Num(round3(counters.cache_hit_rate())),
            ));
        }
        Telemetry::Explicit { types } => {
            fields.push(("types", Value::from(*types)));
        }
        Telemetry::Witnessed { types, proved } => {
            fields.push(("types", Value::from(*types)));
            fields.push(("proved", Value::from(*proved)));
        }
    }
    obj(fields)
}

/// Serializes one trace event as a flat JSON object — the same shape as a
/// [`obs::Event::to_jsonl`] line: the `solve`/`seq`/`t_us`/`kind`
/// envelope followed by the kind-specific fields.
pub fn event_value(e: &obs::Event) -> Value {
    let mut fields = vec![
        ("solve", Value::Num(e.solve as f64)),
        ("seq", Value::Num(e.seq as f64)),
        ("t_us", Value::Num(e.t_us as f64)),
        ("kind", Value::from(e.kind)),
    ];
    for (name, value) in &e.fields {
        fields.push((
            *name,
            match value {
                obs::FieldValue::U64(v) => Value::Num(*v as f64),
                obs::FieldValue::I64(v) => Value::Num(*v as f64),
                obs::FieldValue::F64(v) => Value::Num(if v.is_finite() { *v } else { 0.0 }),
                obs::FieldValue::Bool(v) => Value::Bool(*v),
                obs::FieldValue::Str(v) => Value::from(*v),
            },
        ));
    }
    obj(fields)
}

/// Serializes a solve's event trace as a JSON array (the `"trace"` field
/// of traced verdict responses).
pub fn trace_value(events: &[obs::Event]) -> Value {
    Value::Arr(events.iter().map(event_value).collect())
}

/// Builds the `metrics` response: a deterministic snapshot of the
/// process-wide registry. Counters and gauges carry a `value`; histograms
/// carry `count`, `sum_ms` and cumulative `buckets` keyed by upper bound
/// in milliseconds (the final `+Inf` bucket serialized as the string
/// `"+Inf"`).
pub fn metrics_response(id: Option<&Value>, snapshot: &[obs::Snapshot]) -> Value {
    let rows = snapshot
        .iter()
        .map(|s| {
            let labels = obj(s.labels.iter().map(|&(k, v)| (k, Value::from(v))).collect());
            let mut fields = vec![("name", Value::from(s.name)), ("labels", labels)];
            match &s.value {
                obs::MetricValue::Counter(v) => {
                    fields.push(("kind", Value::from("counter")));
                    fields.push(("value", Value::Num(*v as f64)));
                }
                obs::MetricValue::Gauge(v) => {
                    fields.push(("kind", Value::from("gauge")));
                    fields.push(("value", Value::Num(*v as f64)));
                }
                obs::MetricValue::Histogram {
                    count,
                    sum_ms,
                    buckets,
                } => {
                    fields.push(("kind", Value::from("histogram")));
                    fields.push(("count", Value::Num(*count as f64)));
                    fields.push(("sum_ms", Value::Num(round3(*sum_ms))));
                    fields.push((
                        "buckets",
                        Value::Arr(
                            buckets
                                .iter()
                                .map(|&(bound, cumulative)| {
                                    let le = if bound.is_finite() {
                                        Value::Num(bound)
                                    } else {
                                        Value::from("+Inf")
                                    };
                                    obj(vec![("le", le), ("count", Value::Num(cumulative as f64))])
                                })
                                .collect(),
                        ),
                    ));
                }
            }
            obj(fields)
        })
        .collect();
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    fields.extend([
        ("ok", Value::Bool(true)),
        ("op", Value::from("metrics")),
        ("protocol", Value::from(PROTOCOL_VERSION as usize)),
        ("metrics", Value::Arr(rows)),
    ]);
    obj(fields)
}

/// Builds the `slowlog` response: the configured threshold (`null` when
/// slow-solve capture is off) and the captured entries, oldest first,
/// each with its full event trace.
pub fn slowlog_response(
    id: Option<&Value>,
    threshold_ms: Option<u64>,
    entries: &[obs::SlowEntry],
) -> Value {
    let rows = entries
        .iter()
        .map(|e| {
            obj(vec![
                ("op", Value::from(e.op)),
                ("backend", Value::from(e.backend)),
                ("status", Value::from(e.status)),
                ("wall_ms", Value::Num(round3(e.wall_ms))),
                ("threshold_ms", Value::Num(e.threshold_ms as f64)),
                ("cached", Value::Bool(e.cached)),
                ("trace", trace_value(&e.events)),
            ])
        })
        .collect();
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    fields.extend([
        ("ok", Value::Bool(true)),
        ("op", Value::from("slowlog")),
        ("protocol", Value::from(PROTOCOL_VERSION as usize)),
        (
            "threshold_ms",
            match threshold_ms {
                Some(t) => Value::Num(t as f64),
                None => Value::Null,
            },
        ),
        ("count", Value::from(entries.len())),
        ("entries", Value::Arr(rows)),
    ]);
    obj(fields)
}

/// Builds an error response (`"status":"error"`).
pub fn error_response(id: Option<&Value>, message: &str) -> Value {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    fields.extend([
        ("ok", Value::Bool(false)),
        ("status", Value::from(Status::Error.as_str())),
        ("error", Value::from(message)),
    ]);
    obj(fields)
}

fn round3(ms: f64) -> f64 {
    (ms * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_of(r: Request) -> (ProblemSpec, Option<BackendChoice>, Option<LimitsSpec>) {
        match r.kind {
            RequestKind::Problem {
                spec,
                backend,
                limits,
                ..
            } => (spec, backend, limits),
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn trace_flag_parses_and_rejects() {
        let r = Request::parse(r#"{"op":"sat","query":"a","trace":true}"#).unwrap();
        assert!(matches!(r.kind, RequestKind::Problem { trace: true, .. }));
        let r = Request::parse(r#"{"op":"sat","query":"a"}"#).unwrap();
        assert!(matches!(r.kind, RequestKind::Problem { trace: false, .. }));
        let e = Request::parse(r#"{"op":"sat","query":"a","trace":1}"#).unwrap_err();
        assert!(e.contains("`trace` must be a boolean"), "{e}");
        // The introspection service ops parse too.
        let r = Request::parse(r#"{"op":"metrics"}"#).unwrap();
        assert_eq!(r.kind, RequestKind::Metrics);
        let r = Request::parse(r#"{"op":"slowlog"}"#).unwrap();
        assert_eq!(r.kind, RequestKind::SlowLog);
    }

    #[test]
    fn parses_the_issue_example() {
        let r = Request::parse(r#"{"op":"contains","lhs":"q1","rhs":"q2","type":"dtd1"}"#).unwrap();
        let (spec, _, _) = spec_of(r);
        assert_eq!(spec.op(), Op::Contains);
        match spec {
            ProblemSpec::Contains {
                lhs,
                ltype,
                rhs,
                rtype,
            } => {
                assert_eq!((lhs.as_str(), rhs.as_str()), ("q1", "q2"));
                assert_eq!(ltype.as_deref(), Some("dtd1"));
                assert_eq!(rtype.as_deref(), Some("dtd1"));
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn per_side_types_override_shared() {
        let r =
            Request::parse(r#"{"op":"equiv","lhs":"a","rhs":"b","type":"t","rtype":"u"}"#).unwrap();
        let (spec, _, _) = spec_of(r);
        match spec {
            ProblemSpec::Equiv { ltype, rtype, .. } => {
                assert_eq!(ltype.as_deref(), Some("t"));
                assert_eq!(rtype.as_deref(), Some("u"));
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn id_is_preserved() {
        let r = Request::parse(r#"{"id":7,"op":"stats"}"#).unwrap();
        assert_eq!(r.id, Some(Value::Num(7.0)));
        assert_eq!(r.kind, RequestKind::Stats);
    }

    #[test]
    fn every_alias_folds_to_its_canonical_op() {
        for &(op, names) in Op::TABLE {
            assert_eq!(names[0], op.canonical());
            for name in names {
                assert_eq!(Op::from_wire(name), Some(op), "{name}");
            }
        }
        assert_eq!(Op::from_wire("frobnicate"), None);
        // A request through an alias echoes the canonical name: the parse
        // itself resolves through the table.
        let r = Request::parse(r#"{"op":"containment","lhs":"a","rhs":"b"}"#).unwrap();
        let (spec, _, _) = spec_of(r);
        assert_eq!(spec.op().canonical(), "contains");
        let r = Request::parse(r#"{"op":"coverage","query":"a","by":["b"]}"#).unwrap();
        let (spec, _, _) = spec_of(r);
        assert_eq!(spec.op().canonical(), "covers");
    }

    #[test]
    fn backend_field_parses_and_rejects() {
        let r = Request::parse(r#"{"op":"sat","query":"a","backend":"explicit"}"#).unwrap();
        let (_, backend, _) = spec_of(r);
        assert_eq!(backend, Some(BackendChoice::Explicit));
        let r = Request::parse(r#"{"op":"sat","query":"a"}"#).unwrap();
        let (_, backend, limits) = spec_of(r);
        assert_eq!(backend, None);
        assert_eq!(limits, None);
        let e = Request::parse(r#"{"op":"sat","query":"a","backend":"frobnicate"}"#).unwrap_err();
        assert!(e.contains("unknown backend `frobnicate`"), "{e}");
        let e = Request::parse(r#"{"op":"sat","query":"a","backend":7}"#).unwrap_err();
        assert!(e.contains("`backend` must be a string"), "{e}");
    }

    #[test]
    fn limits_object_parses_and_rejects() {
        let r = Request::parse(
            r#"{"op":"sat","query":"a","limits":{"timeout_ms":250,"max_bdd_nodes":1000,"max_iterations":50,"max_lean":12}}"#,
        )
        .unwrap();
        let (_, _, limits) = spec_of(r);
        let spec = limits.expect("limits parsed");
        assert_eq!(spec.timeout_ms, Some(250));
        assert_eq!(spec.max_bdd_nodes, Some(1000));
        assert_eq!(spec.max_iterations, Some(50));
        assert_eq!(spec.max_lean, Some(12));
        // Overrides merge over a base: absent fields inherit.
        let base = Limits::default();
        let eff = spec.apply(&base);
        assert_eq!(eff.deadline, Some(std::time::Duration::from_millis(250)));
        assert_eq!(eff.max_bdd_nodes, Some(1000));
        assert_eq!(eff.max_iterations, Some(50));
        assert_eq!(eff.max_lean_diamonds, 12);
        let partial = LimitsSpec {
            timeout_ms: Some(9),
            ..LimitsSpec::default()
        };
        let eff = partial.apply(&base);
        assert_eq!(eff.deadline, Some(std::time::Duration::from_millis(9)));
        assert_eq!(eff.max_lean_diamonds, base.max_lean_diamonds);

        let e = Request::parse(r#"{"op":"sat","query":"a","limits":7}"#).unwrap_err();
        assert!(e.contains("`limits` must be an object"), "{e}");
        let e =
            Request::parse(r#"{"op":"sat","query":"a","limits":{"timeout_ms":-1}}"#).unwrap_err();
        assert!(
            e.contains("`limits.timeout_ms` must be a non-negative integer"),
            "{e}"
        );
        let e =
            Request::parse(r#"{"op":"sat","query":"a","limits":{"frobnicate":1}}"#).unwrap_err();
        assert!(e.contains("unknown `limits` field `frobnicate`"), "{e}");
    }

    #[test]
    fn telemetry_serializes_tagged() {
        let t = Telemetry::Symbolic {
            bdd_nodes: 3,
            counters: analyzer::BddCounters {
                peak_nodes: 5,
                created_nodes: 6,
                table_capacity: 1024,
                cache_hits: 3,
                cache_lookups: 4,
            },
        };
        let v = telemetry_value(&t);
        assert_eq!(v.get("backend").and_then(Value::as_str), Some("symbolic"));
        assert_eq!(v.get("bdd_nodes").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("peak_nodes").and_then(Value::as_f64), Some(5.0));
        assert_eq!(v.get("created_nodes").and_then(Value::as_f64), Some(6.0));
        assert_eq!(
            v.get("table_capacity").and_then(Value::as_f64),
            Some(1024.0)
        );
        assert_eq!(v.get("load_factor").and_then(Value::as_f64), Some(0.005));
        assert_eq!(v.get("cache_hit_rate").and_then(Value::as_f64), Some(0.75));

        let v = telemetry_value(&Telemetry::Witnessed {
            types: 9,
            proved: 4,
        });
        assert_eq!(v.get("backend").and_then(Value::as_str), Some("witnessed"));
        assert_eq!(v.get("types").and_then(Value::as_f64), Some(9.0));
        assert_eq!(v.get("proved").and_then(Value::as_f64), Some(4.0));
    }

    #[test]
    fn rejects_malformed() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"noop":1}"#).is_err());
        assert!(Request::parse(r#"{"op":"frobnicate"}"#).is_err());
        assert!(Request::parse(r#"{"op":"contains","lhs":"a"}"#).is_err());
        assert!(Request::parse(r#"{"op":"covers","query":"a","by":[]}"#).is_err());
    }

    #[test]
    fn resolve_covers_and_typecheck() {
        let mut ws = Workspace::new();
        ws.register_dtd("d", "<!ELEMENT r (x)> <!ELEMENT x EMPTY>")
            .unwrap();
        let r =
            Request::parse(r#"{"op":"covers","query":"child::*","by":["child::x"],"type":"d"}"#)
                .unwrap();
        let (spec, _, _) = spec_of(r);
        let p = spec.resolve(&ws).unwrap();
        assert_eq!(p.op_name(), "covers");

        let r = Request::parse(
            r#"{"op":"typecheck","query":"child::x","input":"d","output":"<!ELEMENT x EMPTY>"}"#,
        )
        .unwrap();
        let (spec, _, _) = spec_of(r);
        assert_eq!(spec.resolve(&ws).unwrap().op_name(), "typecheck");
    }
}
