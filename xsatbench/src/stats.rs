//! Order statistics over timing samples, and the process's peak memory.

/// Median of the samples (the mean of the middle two for an even count);
/// `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of the samples; `0.0` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Geometric mean of positive samples; `0.0` when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The tail of a latency sample: the highest percentile on the ladder,
/// up to p98, that still has at least [`TAIL_BEYOND`] samples beyond it.
/// Capping the ladder keeps the metric off the few requests a descheduled
/// virtual CPU happens to stall: on a 2-vCPU VM a handful of 5–10 ms
/// stalls per run put tens of `service-mix` requests in its top 1%, so
/// p99 moved with the host's load, while p98 stayed among the slowest
/// solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile was taken (100 means the maximum).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// How many samples the run had.
    pub samples: usize,
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

const LADDER: [f64; 5] = [98.0, 95.0, 90.0, 80.0, 50.0];

/// See [`Tail`]. With fewer than `2 × TAIL_BEYOND` samples no percentile
/// qualifies and the maximum is reported (`pct = 100`).
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    for pct in LADDER {
        if n as f64 * (1.0 - pct / 100.0) >= TAIL_BEYOND as f64 {
            return Tail {
                pct,
                value: percentile(xs, pct),
                samples: n,
            };
        }
    }
    Tail {
        pct: 100.0,
        value: xs.iter().copied().fold(0.0, f64::max),
        samples: n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set size of this process in MB (`VmHWM`), or `0.0`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 98.0);
        let xs: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 285.0);
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&few).pct, 100.0);
        assert_eq!(tail(&few).value, 12.0);
    }
}
