//! Seeded input generators. The program under test only ever sees the
//! JSON lines produced here; the same seed gives byte-identical lines.
//!
//! * [`service_stream`]: the `service-mix` request stream — all seven
//!   decision ops, untyped and under three small DTDs, fresh element
//!   names, two tenants, and a fixed share of drawn repeats at short and
//!   long reuse distances. The op mix, the typed share and the repeat and
//!   reuse-distance shares are assumptions, not measured traffic: the
//!   repository has no record of real requests.
//! * [`edit_session`]: the `edit-lint` session on the repository's seeded
//!   lint workspace (`fixtures/lint/seeded.jsonl`), edited one query per
//!   cycle (and the DTD every few cycles), each edit followed by a `lint`.
//!
//! The schemas are fixed; `--seed` drives the traffic over them.
//!
//! Fresh names (`n<k>`) never occur in a DTD, so renaming them is a
//! bijection that preserves every verdict. Each request therefore has a
//! *shape*: the same line with its fresh names renamed to `n0`, `n1`, …
//! The reference verdicts are computed once per shape.

use crate::rng::Rng;

/// The tenants of `service-mix`; one connection carries both.
pub const TENANTS: [&str; 2] = ["alpha", "beta"];

/// Share of `service-mix` requests drawn as a repeat of an earlier request
/// (assumed). Most typed templates carry no fresh names, so a typed
/// problem usually repeats one posed before as well: the share of repeats
/// each run prints, which is what memo hits follow, is higher.
pub const REPEAT_SHARE: f64 = 0.3;

/// Share of repeats drawn from the long reuse-distance band, 256–4096
/// requests back; the rest are 1–16 back (assumed). A bounded memo with
/// fewer entries than the long distances loses those hits.
pub const LONG_REUSE_SHARE: f64 = 0.5;

/// Share of fresh `service-mix` problems posed under a DTD (assumed).
pub const TYPED_SHARE: f64 = 0.4;

/// A decision-problem template: the op, then its fields, with `{X}`,
/// `{Y}`, `{Z}` standing for fresh names and `{D}`, `{E}` for type names.
type Template = (&'static str, &'static [(&'static str, &'static str)]);

const UNTYPED: &[Template] = &[
    (
        "contains",
        &[("lhs", "child::{X}[child::{Y}]"), ("rhs", "child::{X}")],
    ),
    ("contains", &[("lhs", "{X}//{Y}"), ("rhs", "{X}/{Y}")]),
    ("contains", &[("lhs", "{X}/{Y}/{Z}"), ("rhs", "{X}//{Z}")]),
    (
        "contains",
        &[
            ("lhs", "{X}/{Y}[prec-sibling::{Z}]"),
            ("rhs", "{X}/{Z}/foll-sibling::{Y}"),
        ],
    ),
    ("overlap", &[("lhs", "{X}//{Y}"), ("rhs", "{X}/*")]),
    ("overlap", &[("lhs", "child::{X}"), ("rhs", "child::{Y}")]),
    ("empty", &[("query", "child::{X} ∩ child::{Y}")]),
    ("empty", &[("query", "{X}/{Y}[prec-sibling::{Z}]")]),
    ("sat", &[("query", "{X}/foll-sibling::{Y}/{Z}")]),
    ("sat", &[("query", "{X}[ancestor::{Y}]")]),
    (
        "covers",
        &[
            ("query", "child::*"),
            ("by", "child::{X}|child::*[not(self::{X})]"),
        ],
    ),
    ("covers", &[("query", "{X}/*"), ("by", "{X}/{Y}")]),
    ("equiv", &[("lhs", "{X}/{Y}"), ("rhs", "{X}/*[self::{Y}]")]),
    ("equiv", &[("lhs", "{X}//{Y}"), ("rhs", "{X}/{Y}")]),
];

const TYPED: &[Template] = &[
    ("sat", &[("query", "a/b"), ("type", "{D}")]),
    ("sat", &[("query", "a/{X}"), ("type", "{D}")]),
    ("empty", &[("query", "b/a"), ("type", "{D}")]),
    (
        "contains",
        &[("lhs", "*"), ("rhs", "a | b"), ("type", "{D}")],
    ),
    (
        "overlap",
        &[("lhs", "a/c"), ("rhs", "*/c"), ("type", "{D}")],
    ),
    ("covers", &[("query", "*"), ("by", "a|b"), ("type", "{D}")]),
    (
        "equiv",
        &[("lhs", "a"), ("rhs", "*[self::a]"), ("type", "{D}")],
    ),
    (
        "typecheck",
        &[("query", "child::a"), ("input", "{D}"), ("output", "{E}")],
    ),
];

/// The DTDs every `service-mix` tenant registers: the input types
/// `d0`–`d2` and, for `typecheck`, the output types `o0`–`o2`. They are
/// small made-up schemas over `r`, `a`, `b` and `c`.
pub const SERVICE_DTDS: [(&str, &str); 6] = [
    (
        "d0",
        "<!ELEMENT r (a, b*, c?)> <!ELEMENT a (b?)> <!ELEMENT b (a?)> <!ELEMENT c (b | c)*>",
    ),
    (
        "o0",
        "<!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>",
    ),
    (
        "d1",
        "<!ELEMENT r (a*, b?)> <!ELEMENT a (c, b?)> <!ELEMENT b (b?)> <!ELEMENT c (a?)>",
    ),
    (
        "o1",
        "<!ELEMENT a (a?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>",
    ),
    (
        "d2",
        "<!ELEMENT r (a | b)*> <!ELEMENT a (b?)> <!ELEMENT b (a?)> <!ELEMENT c EMPTY>",
    ),
    (
        "o2",
        "<!ELEMENT a (a?)> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>",
    ),
];

/// Number of input DTDs, `d0`, `d1`, …, each with its output DTD `o<k>`.
pub const DTDS: usize = 3;

/// A request line (fields in the order given) for an op and its fields.
/// `by` fields are `|`-separated lists of queries.
fn render(op: &str, fields: &[(&str, String)]) -> String {
    let mut s = format!("{{\"op\":\"{op}\"");
    for (k, v) in fields {
        if *k == "by" {
            let items: Vec<String> = v.split('|').map(|q| format!("\"{q}\"")).collect();
            s.push_str(&format!(",\"by\":[{}]", items.join(",")));
        } else {
            s.push_str(&format!(",\"{k}\":\"{v}\""));
        }
    }
    s.push('}');
    s
}

fn fill(t: &Template, names: &[String; 3], d: usize) -> Vec<(&'static str, String)> {
    t.1.iter()
        .map(|(k, v)| {
            let v = v
                .replace("{X}", &names[0])
                .replace("{Y}", &names[1])
                .replace("{Z}", &names[2])
                .replace("{D}", &format!("d{d}"))
                .replace("{E}", &format!("o{d}"));
            (*k, v)
        })
        .collect()
}

/// One request of the `service-mix` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRequest {
    /// Index into [`TENANTS`]; also the connection it is sent on.
    pub tenant: usize,
    /// The JSON line sent.
    pub line: String,
    /// Index into [`ServiceStream::shapes`].
    pub shape: usize,
}

/// Reuse statistics of a stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReuseSummary {
    /// Distinct problems (request lines up to `id` and `tenant`).
    pub distinct: usize,
    /// Share of requests that repeat an earlier problem.
    pub repeat_share: f64,
    /// Median reuse distance (requests since the problem's last
    /// occurrence) over the repeats.
    pub distance_p50: f64,
    /// 90th percentile reuse distance.
    pub distance_p90: f64,
    /// Largest reuse distance.
    pub distance_max: f64,
}

/// The generated `service-mix` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStream {
    /// The requests, in schedule order.
    pub requests: Vec<ServiceRequest>,
    /// Canonical lines, one per shape (fresh names renamed `n0`, `n1`, …).
    pub shapes: Vec<String>,
    /// Reuse statistics.
    pub reuse: ReuseSummary,
}

/// Generates `n` requests of the `service-mix` stream from `seed`.
pub fn service_stream(seed: u64, n: usize) -> ServiceStream {
    let mut rng = Rng::new(seed);
    let mut shape_ids: std::collections::HashMap<String, usize> = Default::default();
    let mut shapes = Vec::new();
    // Each request's problem: (line without id and tenant, shape).
    let mut problems: Vec<(String, usize)> = Vec::with_capacity(n);
    let mut fresh = 0usize;
    for _ in 0..n {
        let repeat = !problems.is_empty() && rng.chance(REPEAT_SHARE);
        let problem = if repeat {
            let d = if rng.chance(LONG_REUSE_SHARE) {
                rng.range(256, 4096)
            } else {
                rng.range(1, 16)
            };
            problems[problems.len() - d.min(problems.len())].clone()
        } else {
            let typed = rng.chance(TYPED_SHARE);
            let t = if typed {
                rng.pick(TYPED)
            } else {
                rng.pick(UNTYPED)
            };
            let d = rng.below(DTDS);
            let names = [0, 1, 2].map(|i| format!("n{}", fresh + i));
            fresh += 3;
            let canon_names = [0, 1, 2].map(|i| format!("n{i}"));
            let canon = render(t.0, &fill(t, &canon_names, d));
            let next = shape_ids.len();
            let shape = *shape_ids.entry(canon.clone()).or_insert(next);
            if shape == shapes.len() {
                shapes.push(canon);
            }
            (render(t.0, &fill(t, &names, d)), shape)
        };
        problems.push(problem);
    }
    let requests: Vec<ServiceRequest> = problems
        .iter()
        .enumerate()
        .map(|(i, (line, shape))| {
            let tenant = rng.below(TENANTS.len());
            let prefix = format!("{{\"id\":{i},\"tenant\":\"{}\",", TENANTS[tenant]);
            ServiceRequest {
                tenant,
                line: prefix + &line[1..],
                shape: *shape,
            }
        })
        .collect();
    // Every request whose problem occurred before is a repeat, drawn as one
    // or not: a typed problem without fresh names repeats the last one of
    // its shape.
    let mut last: std::collections::HashMap<&str, usize> = Default::default();
    let mut distances = Vec::new();
    for (i, (line, _)) in problems.iter().enumerate() {
        if let Some(j) = last.insert(line.as_str(), i) {
            distances.push((i - j) as f64);
        }
    }
    let reuse = ReuseSummary {
        distinct: last.len(),
        repeat_share: distances.len() as f64 / n.max(1) as f64,
        distance_p50: crate::stats::median(&distances),
        distance_p90: crate::stats::percentile(&distances, 90.0),
        distance_max: distances.iter().copied().fold(0.0, f64::max),
    };
    ServiceStream {
        requests,
        shapes,
        reuse,
    }
}

/// The registration line of a DTD.
pub fn dtd_line(name: &str, source: &str) -> String {
    format!("{{\"op\":\"dtd\",\"name\":\"{name}\",\"source\":\"{source}\"}}")
}

/// The registration line of a named query.
pub fn query_line(name: &str, xpath: &str) -> String {
    format!("{{\"op\":\"query\",\"name\":\"{name}\",\"xpath\":\"{xpath}\"}}")
}

/// The repository's seeded lint workspace: the `lib` DTD and six
/// queries, one planted finding per lint rule.
const SEEDED: &str = include_str!("../../fixtures/lint/seeded.jsonl");

/// Its clean twin: the same DTD without `orphan`, and two queries with no
/// finding.
const CLEAN: &str = include_str!("../../fixtures/lint/clean.jsonl");

/// Query slots of the `edit-lint` workspace: the seeded fixture's queries.
pub const SLOTS: usize = 6;

/// Variants each slot alternates between: its seeded query and a clean
/// one.
pub const VARIANTS: usize = 2;

/// A DTD edit every this many cycles (assumed).
pub const DTD_EVERY: usize = 8;

/// The element a DTD edit renames. It is unreachable in the seeded DTD,
/// so renaming it changes no query's answer, but it changes the DTD and
/// so every probe's memo key.
pub const REVISED: &str = "orphan";

/// The registration lines of a lint fixture: its DTD `(name, source)` and
/// its queries `(name, xpath)`.
fn fixture(text: &str) -> ((String, String), Vec<(String, String)>) {
    let mut dtd = None;
    let mut queries = Vec::new();
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let v = engine::json::parse(line).expect("fixture line is JSON");
        let field = |k: &str| {
            v.get(k)
                .and_then(engine::Value::as_str)
                .unwrap_or("")
                .to_owned()
        };
        match field("op").as_str() {
            "dtd" => dtd = Some((field("name"), field("source"))),
            "query" => queries.push((field("name"), field("xpath"))),
            _ => {}
        }
    }
    (dtd.expect("fixture has a DTD"), queries)
}

/// The revision element's name after `rev` DTD edits.
pub fn revised_name(rev: usize) -> String {
    if rev == 0 {
        REVISED.to_owned()
    } else {
        format!("{REVISED}{rev}")
    }
}

/// One cycle of the `edit-lint` session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// Its edit lines: a query, then maybe the DTD.
    pub edits: Vec<String>,
    /// The slot variants in force after it.
    pub state: [usize; SLOTS],
    /// DTD edits so far.
    pub rev: usize,
}

/// The generated `edit-lint` session.
#[derive(Debug, Clone, PartialEq)]
pub struct EditSession {
    /// Workspace set-up lines: the seeded fixture.
    pub setup: Vec<String>,
    /// The lint request sent after every edit.
    pub lint: String,
    /// The cycles.
    pub cycles: Vec<Cycle>,
    /// The DTD's name.
    pub dtd_name: String,
    /// Per slot, its query name and variants.
    pub slots: Vec<(String, [String; VARIANTS])>,
    /// The seeded DTD source.
    pub canonical_dtd: String,
}

impl EditSession {
    /// The DTD source after `rev` DTD edits.
    pub fn dtd(&self, rev: usize) -> String {
        self.canonical_dtd.replace(REVISED, &revised_name(rev))
    }

    /// The registration line of slot `s` in variant `v`.
    pub fn query_line(&self, s: usize, v: usize) -> String {
        query_line(&self.slots[s].0, &self.slots[s].1[v])
    }
}

/// Generates `n` cycles of the `edit-lint` session from `seed`. Slot `s`
/// alternates between the seeded fixture's query `s` and the clean
/// fixture's query `s mod 2`; the DTD edit renames [`REVISED`].
pub fn edit_session(seed: u64, n: usize) -> EditSession {
    let ((dtd_name, source), seeded) = fixture(SEEDED);
    let (_, clean) = fixture(CLEAN);
    assert_eq!(
        seeded.len(),
        SLOTS,
        "the seeded lint fixture has {SLOTS} queries"
    );
    assert_eq!(
        source.matches(REVISED).count(),
        1,
        "the seeded DTD names `{REVISED}` once"
    );
    let slots: Vec<(String, [String; VARIANTS])> = seeded
        .into_iter()
        .enumerate()
        .map(|(s, (name, xpath))| {
            let other = clean[s % clean.len()].1.clone();
            (name, [xpath, other])
        })
        .collect();
    let mut session = EditSession {
        setup: Vec::new(),
        lint: format!("{{\"op\":\"lint\",\"type\":\"{dtd_name}\"}}"),
        cycles: Vec::with_capacity(n),
        dtd_name,
        slots,
        canonical_dtd: source,
    };
    session
        .setup
        .push(dtd_line(&session.dtd_name, &session.canonical_dtd));
    for s in 0..SLOTS {
        session.setup.push(session.query_line(s, 0));
    }
    let mut rng = Rng::new(seed ^ 0xED17);
    let mut state = [0usize; SLOTS];
    let mut rev = 0;
    for i in 0..n {
        let s = rng.below(SLOTS);
        state[s] = (state[s] + 1) % VARIANTS;
        let mut edits = vec![session.query_line(s, state[s])];
        if i % DTD_EVERY == DTD_EVERY - 1 {
            rev += 1;
            edits.push(dtd_line(&session.dtd_name, &session.dtd(rev)));
        }
        session.cycles.push(Cycle { edits, state, rev });
    }
    session
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_line_parses() {
        let s = service_stream(7, 2000);
        for r in &s.requests {
            engine::Request::parse(&r.line).unwrap_or_else(|e| panic!("{e}: {}", r.line));
        }
        for (name, src) in SERVICE_DTDS {
            engine::Request::parse(&dtd_line(name, src)).unwrap();
        }
        let e = edit_session(7, 100);
        for l in e
            .setup
            .iter()
            .chain(e.cycles.iter().flat_map(|c| c.edits.iter()))
        {
            engine::Request::parse(l).unwrap_or_else(|err| panic!("{err}: {l}"));
        }
    }

    #[test]
    fn repeats_and_reuse_distances_are_as_configured() {
        let s = service_stream(3, 20_000);
        // Drawn repeats, plus typed problems without fresh names.
        assert!(s.reuse.repeat_share > REPEAT_SHARE);
        assert!(s.reuse.repeat_share < REPEAT_SHARE + (1.0 - REPEAT_SHARE) * TYPED_SHARE);
        assert!(s.reuse.distance_max >= 256.0);
        assert!(s.reuse.distinct < s.requests.len());
        assert!(s.shapes.len() <= UNTYPED.len() + TYPED.len() * DTDS);
    }
}
