//! Workload `edit-lint`: one seeded session on the stdin front end
//! (`Engine::execute_line`), closed loop. Each cycle redefines one query
//! (and, every few cycles, the DTD) and then lints the workspace. After a
//! query edit most lint probes are memo hits; after a DTD edit most miss.
//!
//! The workspace is the repository's seeded lint fixture (see
//! [`crate::gen::edit_session`]). Each cycle's diagnostics are compared
//! with the `explicit` backend's for the same workspace, computed after
//! the timed phase once per distinct workspace state, with the DTD's
//! revised element named back to [`gen::REVISED`]: the element is
//! unreachable, so its name changes no verdict.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use analyzer::{Analyzer, BackendChoice, Limits};
use engine::{Engine, EngineConfig, Request, RequestKind, Value, Workspace};
use lint::{LintConfig, ProbeOutcome};

use crate::decompose::decompose;
use crate::gen::{self, Cycle, EditSession, SLOTS};
use crate::report::{LayerAgg, Report};
use crate::spans::Spans;
use crate::{stats, Args};

/// Engine batch workers (the lint fan-out).
pub const WORKERS: usize = 2;

/// Cycles generated per second of run time (more than the loop can use).
const CYCLES_PER_S: u64 = 400;

/// `peak_rss_mb` is read after this many cycles: the memo and the
/// analyzers' formula arenas grow with every cycle, so a fixed amount of
/// work, not the time the loop got, must decide the reading. A run goes
/// on past its time budget until it has done this many cycles.
pub const RSS_AT_CYCLES: usize = 2000;

/// In the traced run, every this many cycles the lint is also split into
/// `lint::plan`, per-probe solves and `lint::judge`, outside the timing.
const TRACE_EVERY: usize = 16;

/// A diagnostic's identity: rule, severity, subject, step.
pub type Finding = String;

fn finding(rule: &str, severity: &str, subject: &str, step: Option<usize>) -> Finding {
    format!(
        "{rule}/{severity}/{subject}/{}",
        step.map_or("-".to_owned(), |s| s.to_string())
    )
}

/// A finding's subject with the revised element named back to
/// [`gen::REVISED`].
fn canonical_subject(subject: &str, rev: usize) -> &str {
    if subject == gen::revised_name(rev) {
        gen::REVISED
    } else {
        subject
    }
}

/// The findings of a `lint` response after `rev` DTD edits, sorted.
fn findings(resp: &Value, rev: usize) -> Option<Vec<Finding>> {
    let mut out: Vec<Finding> = resp
        .get("diagnostics")?
        .as_arr()?
        .iter()
        .map(|d| {
            let s = |k: &str| d.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
            let step = d.get("step").and_then(Value::as_f64).map(|x| x as usize);
            let subject = s("subject");
            finding(
                &s("rule"),
                &s("severity"),
                canonical_subject(&subject, rev),
                step,
            )
        })
        .collect();
    out.sort();
    Some(out)
}

fn ok(resp: &Value) -> bool {
    resp.get("ok").and_then(Value::as_bool) == Some(true)
}

struct Rig {
    engine: Engine,
    session: EditSession,
}

fn setup(args: &Args) -> Rig {
    let n = ((CYCLES_PER_S * args.seconds) as usize).max(RSS_AT_CYCLES + 1);
    let session = gen::edit_session(args.seed, n);
    let mut engine = Engine::with_config(EngineConfig {
        threads: WORKERS,
        ..EngineConfig::default()
    });
    for l in &session.setup {
        let r = engine.execute_line(l);
        assert!(ok(&r), "set-up line failed: {}", r.to_json());
    }
    let warm = engine.execute_line(&session.lint);
    assert!(ok(&warm), "warm-up lint failed: {}", warm.to_json());
    Rig { engine, session }
}

/// The median set-up time in seconds (see [`crate::repeat_setup`]).
pub fn setup_s(args: &Args) -> f64 {
    crate::repeat_setup(|| setup(args)).1
}

/// The `explicit` backend's findings for each workspace state.
pub fn reference(
    session: &EditSession,
    states: &BTreeSet<[usize; SLOTS]>,
) -> Result<BTreeMap<[usize; SLOTS], Vec<Finding>>, String> {
    let mut e = Engine::with_config(EngineConfig {
        threads: WORKERS,
        backend: BackendChoice::Explicit,
        ..EngineConfig::default()
    });
    e.execute_line(&gen::dtd_line(&session.dtd_name, &session.canonical_dtd));
    let lint = crate::oracle::reference_line(&session.lint);
    let mut out = BTreeMap::new();
    for state in states {
        for (s, v) in state.iter().enumerate() {
            e.execute_line(&session.query_line(s, *v));
        }
        let r = e.execute_line(&lint);
        let f = findings(&r, 0).ok_or_else(|| format!("reference lint failed: {}", r.to_json()))?;
        if r.to_json().contains("\"unverified\":true") {
            return Err(format!("reference lint undecided: {}", r.to_json()));
        }
        out.insert(*state, f);
    }
    Ok(out)
}

/// Applies a registration line to the mirror workspace.
fn mirror(ws: &mut Workspace, line: &str) {
    match Request::parse(line).map(|r| r.kind) {
        Ok(RequestKind::RegisterDtd { name, source }) => {
            ws.register_dtd(&name, &source)
                .expect("generated DTD parses");
        }
        Ok(RequestKind::RegisterQuery { name, xpath }) => {
            ws.register_query(&name, &xpath)
                .expect("generated query parses");
        }
        _ => {}
    }
}

/// Analyzers and aggregates of the traced run's lint split.
struct Split {
    ws: Workspace,
    dtd_name: String,
    plan_az: Analyzer,
    plain: Analyzer,
    traced: Analyzer,
    agg: LayerAgg,
    plan_ms: Vec<f64>,
    judge_ms: Vec<f64>,
}

impl Split {
    /// Lints the mirror workspace step by step; returns its findings.
    fn lint(&mut self, sp: &mut Spans, cycle: u64, rev: usize) -> Result<Vec<Finding>, String> {
        let queries: Vec<(String, Arc<xpath::Expr>)> = self
            .ws
            .queries_sorted()
            .into_iter()
            .map(|(n, e)| (n.to_owned(), e))
            .collect();
        let dtds: Vec<(String, Arc<treetypes::Dtd>)> = self
            .ws
            .dtds_sorted()
            .into_iter()
            .map(|(n, d)| (n.to_owned(), d))
            .collect();
        let config = LintConfig {
            type_name: Some(self.dtd_name.clone()),
            ..LintConfig::default()
        };
        let (plan, d) = sp.time("lint.plan", cycle, |_| {
            lint::plan(&mut self.plan_az, &queries, &dtds, &config)
        });
        self.plan_ms.push(d.as_secs_f64() * 1000.0);
        let plan = plan?;
        let mut outcomes = Vec::new();
        for probe in &plan.probes {
            let t = Instant::now();
            let plain = self.plain.solve(&probe.problem, &Limits::default());
            let untraced_us = t.elapsed().as_secs_f64() * 1e6;
            let (dec, wall) = sp.time("analyzer.solve", cycle, |sp| {
                decompose(
                    &mut self.traced,
                    &probe.problem,
                    &Limits::default(),
                    sp,
                    cycle,
                )
            });
            let dec = dec?;
            if plain.map(|a| a.holds).ok() != Some(dec.holds) {
                return Err(format!("cycle {cycle}: untraced and split verdicts differ"));
            }
            self.agg.add(&dec, wall.as_secs_f64() * 1e6, untraced_us);
            let witness = dec.witness.as_ref().map(solver::Model::xml);
            outcomes.push(if dec.holds {
                ProbeOutcome::Holds { witness }
            } else {
                ProbeOutcome::Fails { witness }
            });
        }
        let (diags, d) = sp.time("lint.judge", cycle, |_| lint::judge(&plan, &outcomes));
        self.judge_ms.push(d.as_secs_f64() * 1000.0);
        let mut f: Vec<Finding> = diags
            .iter()
            .map(|d| {
                let subject = canonical_subject(&d.subject, rev);
                finding(d.rule.as_str(), d.severity.as_str(), subject, d.step)
            })
            .collect();
        f.sort();
        Ok(f)
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let (rig, setup_s) = crate::repeat_setup(|| setup(args));
    let Rig {
        mut engine,
        session,
    } = rig;
    let mut sp = Spans::new(args.trace);
    let mut split = args.trace.then(|| {
        let mut ws = Workspace::new();
        for l in &session.setup {
            mirror(&mut ws, l);
        }
        Split {
            ws,
            dtd_name: session.dtd_name.clone(),
            plan_az: Analyzer::new(),
            plain: Analyzer::new(),
            traced: Analyzer::new(),
            agg: LayerAgg::default(),
            plan_ms: Vec::new(),
            judge_ms: Vec::new(),
        }
    });
    let hits0 = (engine.counters().cache_hits, engine.counters().cache_misses);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut cycle_ms = Vec::new();
    let mut write_us = Vec::new();
    let mut probes = Vec::new();
    let mut got: Vec<([usize; SLOTS], Vec<Finding>)> = Vec::new();
    let mut dtd_edits = 0usize;
    let mut loop_time = Duration::ZERO;
    let mut peak_rss = 0.0;
    for (i, Cycle { edits, state, rev }) in session.cycles.iter().enumerate() {
        if i == RSS_AT_CYCLES {
            peak_rss = stats::peak_rss_mb();
        }
        if i >= RSS_AT_CYCLES && start.elapsed() >= budget {
            break;
        }
        let before = engine.counters().clone();
        let t = Instant::now();
        let mut all_ok = true;
        for l in edits {
            let w = Instant::now();
            all_ok &= ok(&engine.execute_line(l));
            write_us.push(w.elapsed().as_secs_f64() * 1e6);
        }
        let resp = engine.execute_line(&session.lint);
        let d = t.elapsed();
        loop_time += d;
        cycle_ms.push(d.as_secs_f64() * 1000.0);
        sp.record("engine.cycle", i as u64, t, t + d);
        dtd_edits += usize::from(edits.len() > 1);
        rep.attempted += 1;
        let after = engine.counters();
        let f = findings(&resp, *rev);
        if !all_ok
            || !ok(&resp)
            || f.is_none()
            || after.unknown > before.unknown
            || after.errors > before.errors
        {
            rep.failed += 1;
            continue;
        }
        let f = f.unwrap_or_default();
        probes.push(resp.get("probes").and_then(Value::as_f64).unwrap_or(0.0));
        if let Some(split) = split.as_mut() {
            for l in edits {
                mirror(&mut split.ws, l);
            }
            if i % TRACE_EVERY == 0 {
                match split.lint(&mut sp, i as u64, *rev) {
                    Ok(mine) if mine == f => {}
                    Ok(mine) => {
                        rep.error(format!("cycle {i}: split lint {mine:?} vs engine {f:?}"))
                    }
                    Err(e) => rep.error(format!("cycle {i}: {e}")),
                }
            }
        }
        got.push((*state, f));
    }
    let c = engine.counters();
    let (hits, misses) = (c.cache_hits - hits0.0, c.cache_misses - hits0.1);
    let memo_entries = engine.cache_entries();
    drop(engine);

    let states: BTreeSet<[usize; SLOTS]> = got.iter().map(|(s, _)| *s).collect();
    match reference(&session, &states) {
        Ok(refs) => {
            for (k, (state, f)) in got.iter().enumerate() {
                if refs.get(state) != Some(f) {
                    rep.error(format!(
                        "cycle {k}: findings {f:?}, explicit reference {:?}",
                        refs.get(state)
                    ));
                }
            }
        }
        Err(e) => rep.error(e),
    }
    let n = cycle_ms.len();
    let tail = stats::tail(&cycle_ms);
    rep.lines.push(format!(
        "# edit-lint: closed loop on the stdin front end, {WORKERS} workers; {n} cycles, \
         {dtd_edits} DTD edits, {} distinct workspace states; peak RSS read after \
         {RSS_AT_CYCLES} cycles; latency tail is p{} over {} samples",
        states.len(),
        tail.pct,
        tail.samples
    ));
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    rep.note("failed_ratio", rep.failed as f64 / n.max(1) as f64, "ratio");
    rep.note("engine.memo_hit_ratio", hit_ratio, "ratio");
    rep.note("engine.memo_entries", memo_entries as f64, "count");
    rep.note("engine.workspace_write_us", stats::median(&write_us), "us");
    rep.note("lint.probes", stats::median(&probes), "count");
    rep.note("lint.probe_hit_ratio", hit_ratio, "ratio");
    if let Some(split) = split {
        rep.note("lint.plan_ms", stats::median(&split.plan_ms), "ms");
        rep.note("lint.judge_ms", stats::median(&split.judge_ms), "ms");
        let dtds: Vec<Arc<treetypes::Dtd>> =
            split.ws.dtds_sorted().into_iter().map(|(_, d)| d).collect();
        let mut lines = session.setup.clone();
        lines.extend(
            session
                .cycles
                .iter()
                .take(500)
                .flat_map(|c| c.edits.clone()),
        );
        lines.push(session.lint.clone());
        rep.per_layer(
            &split.agg,
            crate::type_formula_ms(&dtds),
            crate::request_parse_us(&lines),
        );
        crate::finish_trace(args, &sp, &mut rep);
        return rep;
    }
    rep.metric("setup_s", setup_s, "s");
    rep.metric("latency_ms_p50", stats::median(&cycle_ms), "ms");
    rep.metric("latency_ms_tail", tail.value, "ms");
    rep.metric("latency_ms_geomean", stats::geomean(&cycle_ms), "ms");
    rep.metric(
        "throughput_per_s",
        n as f64 / loop_time.as_secs_f64().max(1e-9),
        "1/s",
    );
    rep.metric("peak_rss_mb", peak_rss, "MB");
    rep
}
