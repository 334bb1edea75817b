//! Span recorder and sample statistics.
//!
//! A [`Trace`] wraps each call the benchmark makes into a layer's public
//! functions. With tracing off it only runs the call; with tracing on it
//! also keeps `(name, start, duration)` in memory, and [`Trace::write`]
//! dumps the spans as JSON when the run ends. Nothing is written while a
//! measurement is running.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
struct Span {
    name: &'static str,
    start_s: f64,
    secs: f64,
}

/// In-memory span log; empty and free when disabled.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f`, recording its duration under `name` when enabled.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: start.duration_since(self.origin).as_secs_f64(),
            secs,
        });
        out
    }

    /// Record an already-measured duration (for calls timed anyway).
    pub fn record(&mut self, name: &'static str, start: Instant, secs: f64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_s: start.duration_since(self.origin).as_secs_f64(),
                secs,
            });
        }
    }

    /// Durations recorded under `name`, in call order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs)
            .collect()
    }

    /// Median duration under `name` in seconds (0 when never called).
    pub fn median(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    /// Write every span plus a per-name summary to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            by_name.entry(s.name).or_default().push(s.secs);
        }
        let mut out = String::from("{\"summary\": {");
        for (i, (name, secs)) in by_name.iter().enumerate() {
            let total: f64 = secs.iter().sum();
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"calls\": {}, \"total_s\": {total}, \"median_s\": {}}}",
                secs.len(),
                median(secs)
            );
        }
        out.push_str("},\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_s\": {}, \"secs\": {}}}{sep}",
                s.name, s.start_s, s.secs
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Nearest-rank percentile of sorted samples (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-round percentiles. A round's samples are sorted when the round
/// ends and only its p50 and p99 are kept, so memory stays flat however
/// many rounds a run fits; a run reports the median over its rounds.
pub struct Rounds {
    buf: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    /// Samples per second of each round, from its wall time.
    rate: Vec<f64>,
    started: Instant,
    /// Samples over all rounds.
    pub samples: u64,
}

impl Default for Rounds {
    fn default() -> Rounds {
        Rounds {
            buf: Vec::new(),
            p50: Vec::new(),
            p99: Vec::new(),
            rate: Vec::new(),
            started: Instant::now(),
            samples: 0,
        }
    }
}

impl Rounds {
    pub fn push(&mut self, v: f64) {
        self.buf.push(v);
        self.samples += 1;
    }

    pub fn end_round(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.rate
            .push(self.buf.len() as f64 / self.started.elapsed().as_secs_f64());
        self.started = Instant::now();
        self.buf.sort_unstable_by(f64::total_cmp);
        self.p50.push(percentile(&self.buf, 0.5));
        self.p99.push(percentile(&self.buf, 0.99));
        self.buf.clear();
    }

    /// Median over rounds of samples per second (a round's clock starts
    /// when the previous round ends, or at construction).
    pub fn rate(&self) -> f64 {
        median(&self.rate)
    }

    pub fn p50(&self) -> f64 {
        median(&self.p50)
    }

    pub fn p99(&self) -> f64 {
        median(&self.p99)
    }
}

/// Latencies of a stream that every round replays in the same order.
/// Each operation's latency is its median over the rounds that ran it,
/// which filters out a host slowdown that hit one round and not the
/// others; percentiles are then taken over the operations.
#[derive(Default)]
pub struct Replays {
    rounds: Vec<Vec<f64>>,
    current: Vec<f64>,
    /// Samples over all rounds.
    pub samples: u64,
}

impl Replays {
    pub fn push(&mut self, v: f64) {
        self.current.push(v);
        self.samples += 1;
    }

    pub fn end_round(&mut self) {
        self.rounds.push(std::mem::take(&mut self.current));
    }

    /// Per-operation medians, sorted.
    fn per_operation(&self) -> Vec<f64> {
        let ops = self.rounds.iter().map(Vec::len).min().unwrap_or(0);
        let mut out: Vec<f64> = (0..ops)
            .map(|i| median(&self.rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
            .collect();
        out.sort_unstable_by(f64::total_cmp);
        out
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.per_operation(), 0.5)
    }

    pub fn p99(&self) -> f64 {
        percentile(&self.per_operation(), 0.99)
    }

    /// Operations per second at the per-operation median latencies
    /// (given in ms): the stream's length over their sum.
    pub fn rate_per_ms(&self) -> f64 {
        let ops = self.per_operation();
        ops.len() as f64 / ops.iter().sum::<f64>() * 1e3
    }
}
