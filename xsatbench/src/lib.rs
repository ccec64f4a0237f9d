//! The xsat benchmark: seeded workloads that drive every layer of the
//! stack from outside, check every verdict against an independent oracle,
//! and print end-to-end metrics (untraced) or per-layer metrics (traced).
//! See `README.md` in this directory.

pub mod cpu;
pub mod decompose;
pub mod editlint;
pub mod gen;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod service;
pub mod spans;
pub mod stats;
pub mod table2;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use treetypes::Dtd;

use crate::report::Report;
use crate::spans::Spans;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["table2", "service-mix", "edit-lint"];

/// How many times a run sets its workload up; `setup_s` is the median.
/// A `service-mix` set-up takes under a millisecond and varied by ±25%
/// from one to the next, so it takes this many for a steady median.
pub const SETUP_REPS: usize = 25;

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Set in the child processes that only measure set-up time.
    pub setup_only: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`, and the
    /// internal `--setup-only 0|1`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 1,
            seconds: 30,
            trace: false,
            setup_only: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
            match flag.as_str() {
                "--workload" => out.workload = val.clone(),
                "--seed" => out.seed = num()?,
                "--seconds" => out.seconds = num()?.max(1),
                "--trace" => out.trace = num()? != 0,
                "--setup-only" => out.setup_only = num()? != 0,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&out.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(out)
    }
}

/// Processes `setup_s` is measured in: the run's own and set-up-only
/// children of it, one after another. The set-up time of a process
/// settled at one of two levels for all its set-ups (about 0.32 or
/// 0.48 ms for `service-mix` on a 2-vCPU VM), so one process is one
/// sample; `setup_s` is the median over the processes.
pub const SETUP_PROCESSES: usize = 5;

/// Runs one workload.
pub fn run(args: &Args) -> Report {
    let cpu0 = cpu_ticks();
    let mut rep = match args.workload.as_str() {
        "table2" => table2::run(args),
        "service-mix" => service::run(args),
        _ => editlint::run(args),
    };
    if let Some(m) = rep.metrics.iter_mut().find(|m| m.name == "setup_s") {
        match setup_in_children(args) {
            Ok(mut times) => {
                times.push(m.value);
                m.value = stats::median(&times);
            }
            Err(e) => rep.errors.push(e),
        }
    }
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu0, cpu_ticks()) {
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        rep.note("bench.steal_pct", 100.0 * share, "%");
    }
    rep.lines.insert(
        0,
        format!(
            "# xsatbench workload={} seed={} seconds={} trace={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    );
    rep
}

/// The median set-up time of the workload, in seconds, measured in this
/// process; what a set-up-only child prints.
pub fn setup_s(args: &Args) -> f64 {
    match args.workload.as_str() {
        "table2" => table2::setup_s(),
        "service-mix" => service::setup_s(),
        _ => editlint::setup_s(args),
    }
}

/// `setup_s` measured in `SETUP_PROCESSES - 1` set-up-only children of
/// this executable.
fn setup_in_children(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable: {e}"))?;
    (1..SETUP_PROCESSES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", "0", "--setup-only", "1"])
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.trim()
                .parse()
                .map_err(|_| format!("set-up child printed {text:?}, exit {}", out.status))
        })
        .collect()
}

/// The machine's (steal, total) CPU ticks from `/proc/stat`. Steal is time
/// a virtual machine's CPUs were runnable but not running; a run that saw
/// much of it measured its neighbours as well as this program.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Runs `setup` [`SETUP_REPS`] times and keeps the last result; returns
/// it with the median set-up time in seconds. Each earlier result is torn
/// down before the next set-up starts, outside its timing.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let kept = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(kept);
    }
    (last.expect("SETUP_REPS > 0"), stats::median(&times))
}

/// Mean time of `Dtd::formula` on a fresh `Logic`, per DTD, in ms.
pub fn type_formula_ms(dtds: &[Arc<Dtd>]) -> f64 {
    let mut total = 0.0;
    for d in dtds {
        let mut lg = mulogic::Logic::new();
        let t = Instant::now();
        std::hint::black_box(d.formula(&mut lg));
        total += t.elapsed().as_secs_f64() * 1000.0;
    }
    total / dtds.len().max(1) as f64
}

/// Mean time of `engine::Request::parse` per line, in µs, over enough
/// passes to total at least 20 ms.
pub fn request_parse_us(lines: &[String]) -> f64 {
    if lines.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    let mut parsed = 0usize;
    while parsed < 3 * lines.len() || t.elapsed().as_millis() < 20 {
        for l in lines {
            std::hint::black_box(engine::Request::parse(l).ok());
        }
        parsed += lines.len();
    }
    t.elapsed().as_secs_f64() * 1e6 / parsed as f64
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed))
}

/// Ends a traced run: prints self time per span name and writes the
/// spans out.
pub fn finish_trace(args: &Args, sp: &Spans, rep: &mut Report) {
    rep.lines
        .push("# span                       count   total ms    self ms".to_owned());
    for (name, t) in sp.totals() {
        rep.lines.push(format!(
            "# {name:<26} {:>6} {:>10.2} {:>10.2}",
            t.count,
            t.total_us / 1000.0,
            t.self_us / 1000.0
        ));
    }
    let path = trace_path(args);
    match sp.write_jsonl(&path) {
        Ok(()) => rep.lines.push(format!(
            "# {} spans written to {}",
            sp.records().len(),
            path.display()
        )),
        Err(e) => rep.lines.push(format!("# spans not written: {e}")),
    }
}
