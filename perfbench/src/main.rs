//! The repository benchmark: the production analysis path measured end
//! to end (`--trace 0`) and layer by layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload sweep_full|serve_cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input is generated from `--seed`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics. See `README.md` beside this package for the workloads, the
//! metric definitions and the run record.

mod layers;
mod serve;
mod stats;
mod sweep;

use std::fmt::Write as _;

/// How many times a run repeats its set-up; `setup_s` is the median.
/// A daemon start takes well under a millisecond, so it repeats most.
pub const SWEEP_SETUP_REPS: usize = 9;
pub const SERVE_SETUP_REPS: usize = 101;

/// A seed never used while the benchmark or a change was tuned: later
/// claims are re-checked on it.
pub const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

/// The workloads and why each is in the benchmark.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "sweep_full",
        "gpa analyze --all plus the Table 3 variants in process; the simulator is >99% of the time \
         and the daemon is never touched",
    ),
    (
        "serve_cold",
        "fresh daemons with empty stores, every key computed under both memory models through \
         nproc connections, some keys asked twice at once; protocol, workers, hierarchy twin",
    ),
];

/// One run's outcome: operations attempted and failed, run-level
/// invalidity, and the metrics to print.
#[derive(Default)]
pub struct Run {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    invalid: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<(String, f64, String)>,
}

impl Run {
    /// Counts one attempted operation, failed when `problem` is set.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(p);
            }
        }
    }

    /// Fails an operation already counted by [`Run::op`] (a check made
    /// after the timed window).
    pub fn fail_counted(&mut self, problem: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(problem);
        }
    }

    /// Marks the whole run invalid (a broken invariant, a growing
    /// backlog): it reports `correct: false`.
    pub fn invalidate(&mut self, reason: String) {
        self.invalid.push(reason);
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// Folds a sub-run's operations, failures, invalidity and notes into
    /// this one.
    pub fn absorb(&mut self, label: &str, sub: &Run) {
        self.attempted += sub.attempted;
        self.failed += sub.failed;
        for f in &sub.failures {
            if self.failures.len() < 8 {
                self.failures.push(format!("{label}: {f}"));
            }
        }
        self.invalid.extend(sub.invalid.iter().map(|r| format!("{label}: {r}")));
        self.notes.extend(sub.notes.iter().map(|n| format!("{label}: {n}")));
    }

    /// `ok_ratio`, and `peak_rss_mb` from the measured window's
    /// [`stats::RssPeak`].
    pub fn finish_common(&mut self, peak_rss_mib: f64) {
        let ok = (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64;
        self.metric("ok_ratio", ok, "share");
        self.metric("peak_rss_mb", peak_rss_mib, "MiB");
    }

    /// `latency_mean_ms`, and `latency_tail_ms`: the mean of the samples
    /// beyond the workload's tail percentile. The workloads' latencies
    /// are lumpy — analysis cost varies 100-fold between apps, and a few
    /// uploads sit among many store hits — so a single order statistic
    /// jumps between runs when a few samples change rank; means over the
    /// same sets hold steady. The median and the tail percentile itself
    /// are printed in the run record.
    pub fn latency(&mut self, samples_ms: &[f64], tail: f64) {
        let cut = stats::quantile(samples_ms, tail);
        let beyond: Vec<f64> = samples_ms.iter().copied().filter(|&v| v >= cut).collect();
        self.note(format!(
            "latency: {} samples, p50 {:.3} ms, p{} {cut:.3} ms with {} samples beyond it",
            samples_ms.len(),
            stats::median(samples_ms),
            tail * 100.0,
            beyond.len()
        ));
        if beyond.len() < 10 {
            self.invalidate(format!("too few latency samples beyond p{}", tail * 100.0));
        }
        self.metric("latency_mean_ms", stats::mean(samples_ms), "ms");
        self.metric("latency_tail_ms", stats::mean(&beyond), "ms");
    }

    /// Prints the run record, the metrics and the final JSON line.
    fn print(&self, workload: &str, seed: u64, trace: bool) {
        println!("# perfbench workload={workload} seed={seed} trace={}", u8::from(trace));
        println!("# host: {}", stats::host_record());
        println!("# held-out seed for re-checking claims: {HELD_OUT_SEED}");
        for (name, why) in WORKLOADS {
            println!("# workload {name}: {why}");
        }
        for line in &self.notes {
            println!("# {line}");
        }
        for f in &self.failures {
            println!("# FAILED: {f}");
        }
        for r in &self.invalid {
            println!("# INVALID: {r}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        let correct = self.failed == 0
            && self.invalid.is_empty()
            && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload sweep_full|serve_cold --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let seconds = seconds.unwrap_or(10.0);
    let trace = trace.unwrap_or(false);
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        usage(&format!("unknown workload {workload}"));
    }
    let run = if trace {
        layers::run(&workload, seed, seconds)
    } else {
        match workload.as_str() {
            "sweep_full" => sweep::run(seed, seconds),
            _ => serve::cold(seed, seconds, false).run,
        }
    };
    run.print(&workload, seed, trace);
}
