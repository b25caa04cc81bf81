//! `sweep_full`: `gpa analyze --all` plus the Table 3 variants, run in
//! process on the production configuration (`Session::full()`).

use crate::stats::{self, Digest, Rng};
use crate::{Run, SWEEP_SETUP_REPS};
use gpa_core::AdviceReport;
use gpa_pipeline::{AnalysisJob, Session};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Every app-variant in Table 3 order: the 21 baselines and the 26
/// Table 3 variants.
pub fn all_jobs() -> Vec<AnalysisJob> {
    gpa_kernels::all_apps()
        .iter()
        .flat_map(|app| (0..app.variants()).map(move |v| AnalysisJob::new(app.name, v)))
        .collect()
}

/// One reproduced Table 3 row.
pub struct Row {
    pub app: &'static str,
    pub variant: usize,
    pub error: f64,
    pub rank: Option<usize>,
}

/// The 26 Table 3 rows from one set of analyses. Stage `k` of an app is
/// estimated from variant `k`'s advice; its achieved speedup is
/// `cycles(k) / cycles(k + 1)`, both taken from the same analyses.
/// `find` returns a variant's ground-truth cycles and advice report.
pub fn table3<'a>(find: impl Fn(&str, usize) -> Option<(u64, &'a AdviceReport)>) -> Vec<Row> {
    let mut rows = Vec::new();
    for app in gpa_kernels::all_apps() {
        for (k, stage) in app.stages.iter().enumerate() {
            let (Some((base, report)), Some((opt, _))) = (find(app.name, k), find(app.name, k + 1))
            else {
                continue;
            };
            let achieved = base as f64 / opt as f64;
            let estimated = report.item_named(stage.optimizer).map_or(1.0, |i| i.estimated_speedup);
            rows.push(Row {
                app: app.name,
                variant: k,
                error: (estimated - achieved).abs() / achieved,
                rank: report.rank_of_named(stage.optimizer),
            });
        }
    }
    rows
}

/// Advice fidelity over the Table 3 rows: the geomean estimate error and
/// how many rows rank their expected optimizer in the top 5.
pub fn fidelity(rows: &[Row]) -> (f64, usize) {
    let errors: Vec<f64> = rows.iter().map(|r| r.error).collect();
    (stats::geomean(&errors), rows.iter().filter(|r| r.rank.is_some_and(|k| k <= 5)).count())
}

/// A digest of every job's ground-truth cycles, independent of job
/// order: equal digests mean the simulator's counts repeated exactly.
pub fn cycles_digest<'a>(found: impl Iterator<Item = (&'a AnalysisJob, u64)>) -> String {
    let mut sorted: Vec<_> = found.map(|(j, c)| (j.app.as_str(), j.variant, c)).collect();
    sorted.sort_unstable();
    let mut d = Digest::new();
    for (app, variant, cycles) in sorted {
        d.add(app.as_bytes());
        d.add_u64(variant as u64);
        d.add_u64(cycles);
    }
    d.hex()
}

/// Set-up for a sweep: a fresh `Session::full()` builds the module
/// artifacts of every job (kernel build, program structure, simulator
/// lowering) — the static half of a cold `gpa analyze --all`.
fn setup_once(jobs: &[AnalysisJob]) -> Duration {
    let t = Instant::now();
    let session = Session::full();
    for job in jobs {
        black_box(session.artifacts(job).expect("registry jobs build"));
    }
    t.elapsed()
}

pub fn run(seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let jobs = all_jobs();
    let setups: Vec<f64> = (0..SWEEP_SETUP_REPS).map(|_| setup_once(&jobs).as_secs_f64()).collect();

    let mut rng = Rng::new(seed);
    // Per-sweep rates; their medians are the throughput metrics, so a
    // burst of host contention during one sweep does not set them.
    let (mut rates, mut mcycles) = (Vec::new(), Vec::new());
    let mut done = 0u64;
    let mut latencies = Vec::new();
    let mut fingerprint: Option<(String, f64, usize)> = None;
    let mut sweeps = 0;
    let memory = stats::RssPeak::start();
    let started = Instant::now();
    while sweeps < 2 || started.elapsed().as_secs_f64() < seconds {
        sweeps += 1;
        let mut order = jobs.clone();
        rng.shuffle(&mut order);
        let t = Instant::now();
        let session = Session::full();
        let outcomes = session.run_batch(&order);
        let rendered: Vec<Option<String>> =
            outcomes.iter().map(|o| o.as_ref().ok().map(|o| o.to_json_v2().compact())).collect();
        let wall = t.elapsed().as_secs_f64();
        black_box(&rendered);

        // Checks, outside the timed region.
        let mut found = Vec::new();
        for (job, outcome) in order.iter().zip(&outcomes) {
            let problem = match outcome {
                Err(e) => Some(format!("{job}: {e}")),
                Ok(o) => o
                    .report
                    .items
                    .iter()
                    .find(|i| i.estimated_speedup.is_nan() || i.estimated_speedup < 1.0)
                    .map(|i| {
                        format!("{job}: {} estimated {} < 1", i.optimizer(), i.estimated_speedup)
                    }),
            };
            run.op(problem);
            if let Ok(o) = outcome {
                latencies.push(stats::ms(o.wall));
                found.push((job.clone(), o.cycles, &o.report));
            }
        }
        let cycles: u64 = found.iter().map(|(_, c, _)| c).sum();
        done += found.len() as u64;
        rates.push(found.len() as f64 / wall);
        mcycles.push(cycles as f64 / wall / 1e6);
        let rows = table3(|app, v| {
            found.iter().find(|(j, _, _)| j.app == app && j.variant == v).map(|(_, c, r)| (*c, *r))
        });
        let (err, top5) = fidelity(&rows);
        let now = (cycles_digest(found.iter().map(|(j, c, _)| (j, *c))), err, top5);
        match &fingerprint {
            None => fingerprint = Some(now),
            Some(first) if *first != now => run.invalidate(format!(
                "sweep {sweeps} differs from sweep 1: cycles digest/error/top5 {now:?} vs {first:?}"
            )),
            Some(_) => {}
        }
    }

    let peak_rss = memory.stop();
    let (digest, err, top5) = fingerprint.expect("at least one sweep ran");
    run.note(format!("sweeps={sweeps} jobs={done} cycles_digest={digest}"));
    run.metric("setup_s", stats::median(&setups), "s");
    run.finish_common(peak_rss);
    run.metric("jobs_per_s", stats::median(&rates), "1/s");
    run.metric("sim_mcycles_per_s", stats::median(&mcycles), "Mcycles/s");
    run.latency(&latencies, 0.90);
    run.metric("est_error_geomean", err, "share");
    run.metric("expected_in_top5", top5 as f64, "count");
    run
}
