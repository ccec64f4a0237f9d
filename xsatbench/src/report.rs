//! What a run prints: every metric by name with its unit, then, as the
//! last line, one JSON object with the verdict check and the metrics that
//! `BENCHMARK.json` declares (end-to-end ones untraced, per-layer ones
//! traced).

use std::fmt::Write as _;

use crate::decompose::{Decomposed, Layers};
use crate::stats;

/// The end-to-end metrics every workload reports with tracing off.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "latency_ms_p50",
    "latency_ms_tail",
    "latency_ms_geomean",
    "throughput_per_s",
    "peak_rss_mb",
];

/// The per-layer metrics every workload reports in its traced run.
pub const PER_LAYER: [&str; 21] = [
    "xpath.compile_ms",
    "treetypes.type_formula_ms",
    "treetypes.validate_ms",
    "mulogic.lean_ms",
    "mulogic.lean_size",
    "mulogic.model_check_ms",
    "bdd.build_ms",
    "bdd.peak_nodes",
    "bdd.created_nodes",
    "bdd.cache_hit_rate",
    "solver.fixpoint_ms",
    "solver.iterations",
    "solver.post_fixpoint_ms",
    "analyzer.verify_ms",
    "analyzer.solve_ms_p50",
    "analyzer.solve_ms_p99",
    "ftree.witness_nodes",
    "ftree.render_us",
    "engine.request_parse_us",
    "obs.trace_overhead_pct",
    "bench.unattributed_ms",
];

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (problems, requests or cycles).
    pub attempted: u64,
    /// Operations that ended in `error`, `unknown` or `shed`.
    pub failed: u64,
    /// Wrong verdicts and rejected witnesses; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Metrics declared in `BENCHMARK.json` for this mode.
    pub metrics: Vec<Metric>,
    /// Further metrics, printed but not part of the JSON result.
    pub notes: Vec<Metric>,
    /// Free-form lines printed before the metrics.
    pub lines: Vec<String>,
    /// Why the run's measurements cannot be trusted, if they cannot.
    pub invalid: Option<String>,
}

impl Report {
    /// Adds a declared metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Adds a printed-only metric.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a wrong verdict or rejected witness (the first ten are
    /// printed).
    pub fn error(&mut self, e: String) {
        self.errors.push(e);
    }

    /// Whether every verdict checked out.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Adds the per-layer metrics (all of [`PER_LAYER`]) from an
    /// aggregate of decomposed problems.
    pub fn per_layer(&mut self, agg: &LayerAgg, type_formula_ms: f64, request_parse_us: f64) {
        let n = agg.problems.max(1) as f64;
        let l = &agg.layers;
        let ms = |us: f64| us / 1000.0 / n;
        self.metric("xpath.compile_ms", ms(l.compile), "ms");
        self.metric("treetypes.type_formula_ms", type_formula_ms, "ms");
        self.metric("treetypes.validate_ms", ms(agg.validate_us), "ms");
        self.metric("mulogic.lean_ms", ms(l.lean), "ms");
        self.metric("mulogic.lean_size", agg.lean_size as f64 / n, "count");
        self.metric("mulogic.model_check_ms", ms(agg.model_check_us), "ms");
        self.metric("bdd.build_ms", ms(l.build), "ms");
        self.metric("bdd.peak_nodes", agg.peak_nodes as f64, "count");
        self.metric("bdd.created_nodes", agg.created_nodes as f64 / n, "count");
        let rate = agg.cache_hits as f64 / agg.cache_lookups.max(1) as f64;
        self.metric("bdd.cache_hit_rate", rate, "ratio");
        self.metric("solver.fixpoint_ms", ms(l.fixpoint), "ms");
        self.metric("solver.iterations", agg.iterations as f64 / n, "count");
        self.metric("solver.post_fixpoint_ms", ms(l.post_fixpoint), "ms");
        self.metric("analyzer.verify_ms", ms(l.verify), "ms");
        let walls: Vec<f64> = agg.untraced_us.iter().map(|u| u / 1000.0).collect();
        self.metric("analyzer.solve_ms_p50", stats::median(&walls), "ms");
        self.metric(
            "analyzer.solve_ms_p99",
            stats::percentile(&walls, 99.0),
            "ms",
        );
        self.metric("ftree.witness_nodes", agg.witness_nodes as f64 / n, "count");
        self.metric("ftree.render_us", l.render / n, "us");
        self.metric("engine.request_parse_us", request_parse_us, "us");
        self.metric("obs.trace_overhead_pct", agg.overhead_pct(), "%");
        self.metric("bench.unattributed_ms", agg.unattributed_ms(), "ms");
        self.note("bench.decomposed_problems", agg.problems as f64, "count");
    }

    /// Prints the report: free lines, every metric, then the JSON line.
    pub fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        for e in self.errors.iter().take(10) {
            println!("error: {e}");
        }
        for m in self.notes.iter().chain(&self.metrics) {
            println!("metric {} = {} {}", m.name, fmt_num(m.value), m.unit);
        }
        println!("{}", self.json());
    }

    /// The JSON result line.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite number in JSON syntax with all its digits.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Per-layer totals over a set of decomposed problems.
#[derive(Debug, Default)]
pub struct LayerAgg {
    /// Problems decomposed.
    pub problems: usize,
    /// Summed layer times, µs.
    pub layers: Layers,
    /// Summed `model_check` time, µs.
    pub model_check_us: f64,
    /// Summed `validates` time, µs.
    pub validate_us: f64,
    /// Summed lean sizes.
    pub lean_size: usize,
    /// Summed iterations.
    pub iterations: usize,
    /// Largest BDD peak.
    pub peak_nodes: usize,
    /// Summed created nodes.
    pub created_nodes: usize,
    /// Summed BDD operation-cache hits.
    pub cache_hits: u64,
    /// Summed BDD operation-cache lookups.
    pub cache_lookups: u64,
    /// Summed witness sizes.
    pub witness_nodes: usize,
    /// Untraced wall time of each problem (`Analyzer::solve` plus
    /// rendering), µs.
    pub untraced_us: Vec<f64>,
    /// Wall time of each decomposition, without the extra split of
    /// verification, µs.
    pub traced_us: Vec<f64>,
}

impl LayerAgg {
    /// Adds one problem: its decomposition, the decomposition's wall time
    /// and the untraced solve's wall time (both µs).
    pub fn add(&mut self, d: &Decomposed, traced_us: f64, untraced_us: f64) {
        self.problems += 1;
        self.layers.add(&d.layers);
        self.model_check_us += d.model_check_us;
        self.validate_us += d.validate_us;
        self.lean_size += d.lean_size;
        self.iterations += d.iterations;
        self.peak_nodes = self.peak_nodes.max(d.bdd.peak_nodes);
        self.created_nodes += d.bdd.created_nodes;
        self.cache_hits += d.bdd.cache_hits;
        self.cache_lookups += d.bdd.cache_lookups;
        self.witness_nodes += d.witness_nodes;
        self.traced_us
            .push(traced_us - d.model_check_us - d.validate_us);
        self.untraced_us.push(untraced_us);
    }

    /// Traced against untraced wall time, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let t: f64 = self.traced_us.iter().sum();
        let u: f64 = self.untraced_us.iter().sum();
        if u > 0.0 {
            100.0 * (t / u - 1.0)
        } else {
            0.0
        }
    }

    /// Mean per problem of untraced wall time minus the layer sum, ms.
    pub fn unattributed_ms(&self) -> f64 {
        let u: f64 = self.untraced_us.iter().sum();
        (u - self.layers.sum()) / 1000.0 / self.problems.max(1) as f64
    }
}
