//! `xsat` — the command-line front end of the batch-analysis engine.
//!
//! ```text
//! xsat check <XPATH> [--dtd FILE] [--backend B] [--empty] [--json] [OBS] [LIMITS]
//! xsat compare <XPATH1> <XPATH2> [--dtd FILE] [--backend B] [--op contains|overlap|equiv] [--json] [OBS] [LIMITS]
//! xsat batch <FILE.jsonl> [--threads N] [--backend B] [--summary-only] [OBS] [LIMITS]
//! xsat lint <FILE.jsonl> [--deny RULE]... [--allow RULE]... [--type NAME] [--max-diamonds N] [--json] [OBS] [LIMITS]
//! xsat serve [--tcp ADDR] [--threads N] [--backend B] [SERVE] [OBS] [LIMITS]
//! xsat metrics [FILE.jsonl] [--threads N] [--backend B] [OBS] [LIMITS]
//! OBS:    [--trace-file FILE] [--slow-ms N]
//! LIMITS: [--timeout-ms N] [--max-bdd-nodes N] [--max-lean N]
//! SERVE:  [--max-connections N] [--queue-depth N] [--tenant-inflight N]
//!         [--drain-ms N] [--read-timeout-ms N] [--max-line-bytes N]
//! ```
//!
//! `check` decides satisfiability (default) or emptiness of one query,
//! optionally under a DTD. `compare` decides containment (default),
//! overlap or equivalence of two queries. Both exit 0 when the property
//! holds, 1 when it does not, and 3 when a resource budget ran out before
//! the solve could decide (the `unknown` verdict), so they compose with
//! shell logic.
//!
//! `--backend {symbolic,explicit,witnessed}` selects the solver backend
//! (default `symbolic`, the paper's §7 algorithm; the other two are its
//! reference oracles). For `batch`/`serve` the
//! flag sets the default backend of the engine, which individual requests
//! override with a `"backend"` field; every verdict echoes the backend
//! that produced it.
//!
//! `--timeout-ms`, `--max-bdd-nodes` and `--max-lean` set the engine's
//! default resource limits — wall-clock deadline, BDD node budget, and
//! the lean-diamond cap of the enumerating backends — on every
//! subcommand; individual `batch`/`serve` requests override them with a
//! `"limits"` object. A budget hit reaches clients as
//! `"status":"unknown"` with the exhausted resource named, and such
//! verdicts are never memo-cached.
//!
//! `batch` runs a JSON-lines request file through the parallel executor
//! (one response line per request on stdout, summary on stderr; see the
//! `engine` crate docs for the protocol) and `serve` runs the same
//! protocol as a co-process daemon: JSONL requests on stdin, verdicts
//! streamed to stdout. `serve --tcp ADDR` instead boots the network
//! serving tier (the `serve` crate, docs/SERVING.md): a bounded
//! connection pool, shed-don't-queue admission control, per-tenant
//! workspace namespaces selected by the request's `"tenant"` field, and
//! a graceful drain triggered by the `shutdown` request.
//!
//! Observability (see docs/OBSERVABILITY.md): `--trace-file FILE` streams
//! one JSON event per line — solve begin/end, compile and fixpoint
//! phases, per-iteration steps, limit hits, memo lookups — for every
//! solve of the run; `--slow-ms N` arms the engine's slow-solve ring
//! buffer, capturing the full trace of any solve exceeding N ms
//! (dumpable via the `slowlog` protocol request). The TCP tier keeps
//! neither, so `serve --tcp` refuses both flags (exit 2). `metrics` runs an
//! optional request file and renders the process-wide metrics registry in
//! Prometheus text exposition format on stdout.

use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;

use xsat::engine::{BackendChoice, Engine, EngineConfig, JsonlSink, Limits, Request, Value};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "check" => check(rest),
        "compare" => compare(rest),
        "batch" => batch(rest),
        "lint" => lint(rest),
        "serve" => serve(rest),
        "metrics" => metrics(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("xsat: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
xsat — efficient static analysis of XML paths and types

USAGE:
  xsat check <XPATH> [--dtd FILE] [--backend B] [--empty] [--explain] [--json] [LIMITS]
      Decide satisfiability (default) or emptiness (--empty) of a query,
      optionally under the DTD in FILE. Exits 0 when the property holds,
      1 when it does not, 3 when a resource budget ran out (unknown).

  xsat compare <XPATH1> <XPATH2> [--dtd FILE] [--backend B] [--op contains|overlap|equiv] [--explain] [--json] [LIMITS]
      Decide containment (default), overlap or equivalence of two queries,
      optionally under the DTD in FILE. Exit codes as for check.

  --explain (check and compare): additionally print the witness document
      as indented XML — the verified counter-example on a failing
      property, the satisfying model on sat/overlap. Every printed
      document was re-checked against the source formula (and the DTD)
      by the model-checking oracle before being emitted.

  xsat batch <FILE.jsonl> [--threads N] [--backend B] [--summary-only] [LIMITS]
      Run a JSON-lines request file through the parallel batch executor.
      One response line per request on stdout; a summary object on stderr.

  xsat lint <FILE.jsonl> [--deny RULE]... [--allow RULE]... [--type NAME] [--max-diamonds N] [--threads N] [--backend B] [--json] [LIMITS]
      Load the workspace registrations in FILE (dtd/query requests), then
      run the solver-backed lint rules over every registered query:
      dead-step, contradictory-predicate, redundant-union-branch,
      query-shadowing, unreachable-element, wildcard-explosion (catalog:
      docs/LINT.md). --deny RULE raises a rule to error severity,
      --allow RULE disables it; --type names the governing DTD when
      several are registered; --max-diamonds overrides the
      wildcard-explosion threshold. Exits 0 when no error-severity
      findings remain, 1 otherwise, 2 on workspace/config errors.

  xsat serve [--tcp ADDR] [--threads N] [--backend B] [SERVE] [LIMITS]
      Speak the JSONL protocol as a co-process: requests on stdin, one
      verdict per line on stdout (flushed per line). With --tcp ADDR,
      listen on ADDR instead (e.g. 127.0.0.1:7600) and serve the same
      protocol over sockets — bounded connection pool, shed-don't-queue
      admission control, per-tenant workspaces (request field
      \"tenant\"), and graceful drain on the `shutdown` request. See
      docs/SERVING.md.

Serving tier (SERVE, with serve --tcp only):
  --max-connections N  concurrent-connection bound (default 64); excess
                       connections get one error line and are closed
  --queue-depth N      admission queue bound (default 256); requests
                       beyond it are shed with status \"unknown\",
                       resource \"shed\" — never silently queued
  --tenant-inflight N  per-tenant in-flight cap (default 64)
  --drain-ms N         shutdown drain deadline in ms (default 5000);
                       work still running after it is cancelled
  --read-timeout-ms N  per-connection idle timeout in ms (default
                       30000); 0 waits forever
  --max-line-bytes N   request-line size cap (default 1 MiB)

  xsat metrics [FILE.jsonl] [--threads N] [--backend B] [LIMITS]
      Run the (optional) JSON-lines request file, then render the
      process-wide metrics registry — solve counts and latency histograms
      by op x backend x status, memo-cache traffic, unknowns by exhausted
      resource, BDD peak nodes — in Prometheus text format on stdout.

Observability (OBS, on every subcommand except serve --tcp, which
refuses both flags with exit 2; see docs/OBSERVABILITY.md):
  --trace-file FILE  stream per-solve trace events (solve begin/end,
                     phases, fixpoint steps, limit hits, memo lookups) to
                     FILE as JSON lines, flushed per event
  --slow-ms N        capture the full trace of any solve slower than N ms
                     in the engine's slow-solve ring buffer; dump it with
                     the `slowlog` protocol request

Backends (--backend, default symbolic):
  symbolic    the BDD-based production algorithm (paper §7)
  explicit    the enumerated reference algorithm (paper §6.2)
  witnessed   the literal Fig 16 algorithm with explicit witness sets

Resource limits (LIMITS, on every subcommand — the engine defaults, which
individual batch/serve requests override with a \"limits\" object):
  --timeout-ms N     wall-clock deadline per solve, in milliseconds
  --max-bdd-nodes N  budget on live BDD nodes of the symbolic backend
  --max-lean N       lean-diamond cap of the enumerating backends
                     (default 16); oversized leans come back unknown
A budget hit is reported as \"status\":\"unknown\" with the exhausted
resource named; unknown verdicts are never memo-cached.

The JSONL protocol (see the `engine` crate docs and docs/PROTOCOL.md):
  {\"op\":\"dtd\",\"name\":\"d1\",\"source\":\"<!ELEMENT a (b*)> <!ELEMENT b EMPTY>\"}
  {\"op\":\"query\",\"name\":\"q1\",\"xpath\":\"a/b\"}
  {\"op\":\"contains\",\"lhs\":\"q1\",\"rhs\":\"a/*\",\"type\":\"d1\"}
  {\"op\":\"sat\",\"query\":\"q1\",\"limits\":{\"timeout_ms\":250,\"max_bdd_nodes\":200000}}
  {\"op\":\"covers\",\"query\":\"child::*\",\"by\":[\"child::a\",\"child::*[not(self::a)]\"]}
  {\"op\":\"typecheck\",\"query\":\"child::x\",\"input\":\"din\",\"output\":\"dout\"}
";

/// Option parsing shared by the subcommands: positional args plus
/// `--flag [value]` options.
struct Opts {
    positional: Vec<String>,
    dtd: Option<String>,
    op: Option<String>,
    backend: Option<BackendChoice>,
    limits: Limits,
    threads: usize,
    json: bool,
    empty: bool,
    explain: bool,
    summary_only: bool,
    trace_file: Option<String>,
    slow_ms: Option<u64>,
    deny: Vec<String>,
    allow: Vec<String>,
    type_name: Option<String>,
    max_diamonds: Option<usize>,
    tcp: Option<String>,
    max_connections: Option<usize>,
    queue_depth: Option<usize>,
    tenant_inflight: Option<usize>,
    drain_ms: Option<u64>,
    read_timeout_ms: Option<u64>,
    max_line_bytes: Option<usize>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        positional: Vec::new(),
        dtd: None,
        op: None,
        backend: None,
        limits: Limits::default(),
        threads: 0,
        json: false,
        empty: false,
        explain: false,
        summary_only: false,
        trace_file: None,
        slow_ms: None,
        deny: Vec::new(),
        allow: Vec::new(),
        type_name: None,
        max_diamonds: None,
        tcp: None,
        max_connections: None,
        queue_depth: None,
        tenant_inflight: None,
        drain_ms: None,
        read_timeout_ms: None,
        max_line_bytes: None,
    };
    // Numeric serve flags share one parse-and-store shape.
    fn num<T: std::str::FromStr>(flag: &str, arg: Option<&String>) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        arg.ok_or(format!("{flag} needs a number"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dtd" => {
                let path = it.next().ok_or("--dtd needs a file argument")?;
                let source = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                opts.dtd = Some(source);
            }
            "--op" => opts.op = Some(it.next().ok_or("--op needs an argument")?.clone()),
            "--backend" => {
                let name = it.next().ok_or("--backend needs an argument")?;
                opts.backend = Some(name.parse()?);
            }
            "--threads" => {
                opts.threads = it
                    .next()
                    .ok_or("--threads needs a number")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--timeout-ms needs a number of milliseconds")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?;
                opts.limits.deadline = Some(std::time::Duration::from_millis(ms));
            }
            "--max-bdd-nodes" => {
                let n: usize = it
                    .next()
                    .ok_or("--max-bdd-nodes needs a number")?
                    .parse()
                    .map_err(|e| format!("--max-bdd-nodes: {e}"))?;
                opts.limits.max_bdd_nodes = Some(n);
            }
            "--max-lean" => {
                let n: usize = it
                    .next()
                    .ok_or("--max-lean needs a number")?
                    .parse()
                    .map_err(|e| format!("--max-lean: {e}"))?;
                opts.limits.max_lean_diamonds = n;
            }
            "--trace-file" => {
                opts.trace_file = Some(
                    it.next()
                        .ok_or("--trace-file needs a file argument")?
                        .clone(),
                );
            }
            "--slow-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--slow-ms needs a number of milliseconds")?
                    .parse()
                    .map_err(|e| format!("--slow-ms: {e}"))?;
                opts.slow_ms = Some(ms);
            }
            "--deny" => opts
                .deny
                .push(it.next().ok_or("--deny needs a rule id")?.clone()),
            "--allow" => opts
                .allow
                .push(it.next().ok_or("--allow needs a rule id")?.clone()),
            "--type" => opts.type_name = Some(it.next().ok_or("--type needs a name")?.clone()),
            "--max-diamonds" => {
                let n: usize = it
                    .next()
                    .ok_or("--max-diamonds needs a number")?
                    .parse()
                    .map_err(|e| format!("--max-diamonds: {e}"))?;
                opts.max_diamonds = Some(n);
            }
            "--tcp" => {
                opts.tcp = Some(it.next().ok_or("--tcp needs a listen address")?.clone());
            }
            "--max-connections" => {
                opts.max_connections = Some(num("--max-connections", it.next())?);
            }
            "--queue-depth" => opts.queue_depth = Some(num("--queue-depth", it.next())?),
            "--tenant-inflight" => {
                opts.tenant_inflight = Some(num("--tenant-inflight", it.next())?);
            }
            "--drain-ms" => opts.drain_ms = Some(num("--drain-ms", it.next())?),
            "--read-timeout-ms" => {
                opts.read_timeout_ms = Some(num("--read-timeout-ms", it.next())?);
            }
            "--max-line-bytes" => {
                opts.max_line_bytes = Some(num("--max-line-bytes", it.next())?);
            }
            "--json" => opts.json = true,
            "--empty" => opts.empty = true,
            "--explain" => opts.explain = true,
            "--summary-only" => opts.summary_only = true,
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            _ => opts.positional.push(arg.clone()),
        }
    }
    Ok(opts)
}

fn engine_with(threads: usize, opts: &Opts) -> Result<Engine, String> {
    let trace_sink = match &opts.trace_file {
        Some(path) => Some(Arc::new(
            JsonlSink::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        ) as Arc<dyn xsat::engine::Sink>),
        None => None,
    };
    Ok(Engine::with_config(EngineConfig {
        threads,
        backend: opts.backend.unwrap_or_default(),
        limits: opts.limits.clone(),
        trace_sink,
        slow_solve_ms: opts.slow_ms,
        ..EngineConfig::default()
    }))
}

fn check(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    let [query] = opts.positional.as_slice() else {
        return Err("check needs exactly one XPath argument".into());
    };
    let op = if opts.empty { "empty" } else { "sat" };
    let line = request_value(op, &[("query", query)], opts.dtd.as_deref(), opts.backend);
    run_one(line, &opts)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    let [lhs, rhs] = opts.positional.as_slice() else {
        return Err("compare needs exactly two XPath arguments".into());
    };
    let op = match opts.op.as_deref() {
        None | Some("contains") => "contains",
        Some("overlap") => "overlap",
        Some("equiv") => "equiv",
        Some(other) => return Err(format!("unknown --op `{other}`")),
    };
    let line = request_value(
        op,
        &[("lhs", lhs), ("rhs", rhs)],
        opts.dtd.as_deref(),
        opts.backend,
    );
    run_one(line, &opts)
}

/// Builds a protocol request object; a DTD source (if any) rides along as
/// the inline `type` reference and a backend choice as the `backend`
/// field.
fn request_value(
    op: &str,
    fields: &[(&str, &str)],
    dtd: Option<&str>,
    backend: Option<BackendChoice>,
) -> Value {
    let mut obj = vec![("op".to_owned(), Value::from(op))];
    for (k, v) in fields {
        obj.push(((*k).to_owned(), Value::from(*v)));
    }
    if let Some(src) = dtd {
        obj.push(("type".to_owned(), Value::from(src)));
    }
    if let Some(b) = backend {
        obj.push(("backend".to_owned(), Value::from(b.as_str())));
    }
    Value::Obj(obj)
}

fn run_one(request: Value, opts: &Opts) -> Result<ExitCode, String> {
    let req = Request::from_value(&request)?;
    let mut engine = engine_with(if opts.threads == 0 { 1 } else { opts.threads }, opts)?;
    let response = engine.execute(&req);
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(response
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("request failed")
            .to_owned());
    }
    if opts.json {
        println!("{}", response.to_json());
    } else {
        print_human(&response, opts.explain);
    }
    match response.get("status").and_then(Value::as_str) {
        Some("holds") => Ok(ExitCode::SUCCESS),
        // A budget ran out: neither proved nor refuted.
        Some("unknown") => Ok(ExitCode::from(3)),
        _ => Ok(ExitCode::FAILURE),
    }
}

fn print_human(response: &Value, explain: bool) {
    let op = response.get("op").and_then(Value::as_str).unwrap_or("?");
    let backend = response
        .get("backend")
        .and_then(Value::as_str)
        .unwrap_or("?");
    let status = response.get("status").and_then(Value::as_str);
    match status {
        Some("holds") => println!("{op} [{backend}]: holds"),
        Some("fails") => println!("{op} [{backend}]: does NOT hold"),
        Some("unknown") => {
            let reason = response
                .get("reason")
                .and_then(Value::as_str)
                .unwrap_or("resource exhausted");
            println!("{op} [{backend}]: UNKNOWN — {reason}");
            println!("hint: retry with a larger --timeout-ms / --max-bdd-nodes / --max-lean");
            return;
        }
        _ => println!("{}", response.to_json()),
    }
    if let Some(xml) = response.get("counter_example").and_then(Value::as_str) {
        let role = match op {
            // For these ops the witness *establishes* the property.
            "sat" | "overlap" => "witness",
            _ => "counter-example",
        };
        println!("{role}: {xml}");
        if explain {
            // Prefer the verdict's own pretty rendering (the verified
            // `counterexample` object of `fails` responses); a holds-side
            // witness is re-rendered from its compact XML.
            let pretty = response
                .get("counterexample")
                .and_then(|ce| ce.get("pretty"))
                .and_then(Value::as_str)
                .map(str::to_owned)
                .or_else(|| {
                    xsat::ftree::Tree::parse_xml(xml)
                        .ok()
                        .map(|t| t.to_xml_pretty())
                });
            if let Some(pretty) = pretty {
                println!("{role} document (s=\"1\" marks the context node):");
                println!("{pretty}");
            }
        }
    }
    if let Some(stats) = response.get("stats") {
        let pick = |k: &str| stats.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        println!(
            "lean: {} atoms, {} iterations, solve {:.3} ms, total {:.3} ms",
            pick("lean_size"),
            pick("iterations"),
            pick("solve_ms"),
            response
                .get("wall_ms")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        );
        // BDD kernel telemetry, for a symbolic verdict.
        let symbolic = stats
            .get("telemetry")
            .filter(|t| t.get("bdd_nodes").is_some());
        if let Some(sym) = symbolic {
            let p = |k: &str| sym.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            println!(
                "bdd: {} live nodes (peak {}, created {}), table load {:.3}, cache hit rate {:.3}",
                p("bdd_nodes"),
                p("peak_nodes"),
                p("created_nodes"),
                p("load_factor"),
                p("cache_hit_rate"),
            );
        }
    }
}

fn batch(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    let [path] = opts.positional.as_slice() else {
        return Err("batch needs exactly one JSONL file argument".into());
    };
    let input = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut engine = engine_with(opts.threads, &opts)?;
    let outcome = engine.run_batch_lines(&input);
    if !opts.summary_only {
        let stdout = std::io::stdout();
        let mut out = BufWriter::new(stdout.lock());
        for response in &outcome.responses {
            writeln!(out, "{}", response.to_json()).map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())?;
    }
    eprintln!("{}", outcome.stats.to_value().to_json());
    if outcome.stats.errors > 0 {
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

fn lint(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    let [path] = opts.positional.as_slice() else {
        return Err("lint needs exactly one workspace JSONL file argument".into());
    };
    let input = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut engine = engine_with(opts.threads, &opts)?;
    // Load the workspace: the file may also carry decision requests (their
    // verdicts are discarded here but warm the shared memo cache), yet any
    // failing line is a broken workspace and stops the lint.
    let outcome = engine.run_batch_lines(&input);
    if outcome.stats.errors > 0 {
        for response in &outcome.responses {
            if response.get("ok").and_then(Value::as_bool) != Some(true) {
                eprintln!(
                    "xsat lint: workspace error: {}",
                    response
                        .get("error")
                        .and_then(Value::as_str)
                        .unwrap_or("request failed"),
                );
            }
        }
        return Ok(ExitCode::from(2));
    }
    let mut fields = vec![("op".to_owned(), Value::from("lint"))];
    let mut rules: Vec<(String, Value)> = Vec::new();
    for rule in &opts.deny {
        rules.push((rule.clone(), Value::from("error")));
    }
    for rule in &opts.allow {
        rules.push((rule.clone(), Value::from("off")));
    }
    if !rules.is_empty() {
        fields.push(("rules".to_owned(), Value::Obj(rules)));
    }
    if let Some(name) = &opts.type_name {
        fields.push(("type".to_owned(), Value::from(name.as_str())));
    }
    if let Some(n) = opts.max_diamonds {
        fields.push(("max_diamonds".to_owned(), Value::from(n)));
    }
    if let Some(b) = opts.backend {
        fields.push(("backend".to_owned(), Value::from(b.as_str())));
    }
    let req = Request::from_value(&Value::Obj(fields))?;
    let response = engine.execute(&req);
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(response
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("lint failed")
            .to_owned());
    }
    if opts.json {
        println!("{}", response.to_json());
    } else {
        print_lint_human(&response);
    }
    let errors = response
        .get("errors")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    Ok(if errors > 0.0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Renders lint findings rustc-style: one `severity[rule]` headline per
/// finding with its span and solver evidence indented below, then a
/// one-line summary.
fn print_lint_human(response: &Value) {
    let empty = Vec::new();
    let diagnostics = match response.get("diagnostics") {
        Some(Value::Arr(items)) => items,
        _ => &empty,
    };
    for d in diagnostics {
        let s = |k: &str| d.get(k).and_then(Value::as_str).unwrap_or("?");
        println!(
            "{}[{}] {}: {}",
            s("severity"),
            s("rule"),
            s("subject"),
            s("message")
        );
        if let Some(span) = d.get("span").and_then(Value::as_str) {
            match d.get("step").and_then(Value::as_f64) {
                Some(step) => println!("  --> {} step {step}: `{span}`", s("subject")),
                None => println!("  --> {}: `{span}`", s("subject")),
            }
        }
        if let Some(ev) = d.get("evidence") {
            let op = ev.get("op").and_then(Value::as_str).unwrap_or("?");
            if let Some(xml) = ev.get("witness").and_then(Value::as_str) {
                println!("  evidence: oracle-verified {op} witness {xml}");
            } else if let Some(status) = ev.get("status").and_then(Value::as_str) {
                println!("  evidence: {op} verdict `{status}`");
            }
        }
    }
    let n = |k: &str| response.get(k).and_then(Value::as_f64).unwrap_or(0.0) as usize;
    let wall = response
        .get("wall_ms")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    if response.get("status").and_then(Value::as_str) == Some("clean") {
        println!("lint: clean — {} probes in {wall:.3} ms", n("probes"));
    } else {
        println!(
            "lint: {} findings ({} errors, {} warnings, {} infos) — {} probes in {wall:.3} ms",
            n("findings"),
            n("errors"),
            n("warnings"),
            n("infos"),
            n("probes"),
        );
    }
}

fn serve(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    if !opts.positional.is_empty() {
        return Err("serve takes no positional arguments".into());
    }
    if let Some(addr) = &opts.tcp {
        return serve_tcp(addr, &opts);
    }
    let mut engine = engine_with(opts.threads, &opts)?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    engine
        .serve(stdin.lock(), stdout.lock())
        .map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}

/// Boots the TCP serving tier on `addr` and blocks until a client's
/// `shutdown` request drains it.
fn serve_tcp(addr: &str, opts: &Opts) -> Result<ExitCode, String> {
    use std::time::Duration;
    // The TCP tier keeps no trace file and no slow-solve log: refuse the
    // flags rather than accept and ignore them.
    for (flag, given) in [
        ("--trace-file", opts.trace_file.is_some()),
        ("--slow-ms", opts.slow_ms.is_some()),
    ] {
        if given {
            return Err(format!(
                "{flag} does not apply to serve --tcp: the TCP tier keeps no \
                 trace file or slow-solve log"
            ));
        }
    }
    let defaults = xsat::serve::ServerConfig::default();
    let config = xsat::serve::ServerConfig {
        threads: opts.threads,
        backend: opts.backend.unwrap_or_default(),
        limits: opts.limits.clone(),
        max_connections: opts.max_connections.unwrap_or(defaults.max_connections),
        queue_depth: opts.queue_depth.unwrap_or(defaults.queue_depth),
        tenant_inflight: opts.tenant_inflight.unwrap_or(defaults.tenant_inflight),
        read_timeout: match opts.read_timeout_ms {
            // `--read-timeout-ms 0` disables the idle timeout entirely.
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
            None => defaults.read_timeout,
        },
        drain_deadline: opts
            .drain_ms
            .map_or(defaults.drain_deadline, Duration::from_millis),
        max_line_bytes: opts.max_line_bytes.unwrap_or(defaults.max_line_bytes),
        ..defaults
    };
    let server = xsat::serve::Server::bind(config, addr).map_err(|e| e.to_string())?;
    eprintln!("xsat: serving JSONL protocol on {}", server.local_addr());
    let report = server.wait();
    eprintln!(
        "xsat: drained ({} cancelled, {} pending) — bye",
        if report.forced { "stragglers" } else { "none" },
        report.pending
    );
    Ok(ExitCode::SUCCESS)
}

fn metrics(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    match opts.positional.as_slice() {
        [] => {}
        [path] => {
            let input =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut engine = engine_with(opts.threads, &opts)?;
            let outcome = engine.run_batch_lines(&input);
            eprintln!("{}", outcome.stats.to_value().to_json());
        }
        _ => return Err("metrics takes at most one JSONL file argument".into()),
    }
    print!("{}", xsat::obs::metrics().render_prometheus());
    Ok(ExitCode::SUCCESS)
}
