//! The traced run (`--trace 1`): per-layer metrics. Each is timed around
//! a public call made from this file — the layer boundaries of the
//! analysis path (artifact build, simulate, sample, blame, advise,
//! render) and of the daemon path seen from the client. The run also
//! makes a `run_batch` sweep, traced passes of `serve_cold` and of the
//! daemon's warm and open-loop traffic, and for `serve_cold` one more
//! untraced pass for `trace.overhead_ratio`.

use crate::serve::{self, Counters, ServeRun};
use crate::stats::{self, Rng};
use crate::{sweep, Run};
use gpa_arch::LatencyTable;
use gpa_core::{AdviceReport, AdviceRequest, Advisor, ModuleBlame};
use gpa_kernels::apps::app_by_name;
use gpa_kernels::runner::armed_gpu_with;
use gpa_pipeline::{AnalysisJob, Session};
use gpa_sampling::{KernelProfile, Profiler};
use gpa_serve::{protocol, Request};
use gpa_sim::CompiledProgram;
use gpa_structure::ProgramStructure;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Adds the duration of `f` to `total`.
fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    *total += t.elapsed();
    r
}

/// Layer time summed over the serial probe of every app-variant, and
/// the simulator's exact counts.
#[derive(Default)]
struct Probe {
    kernels_build: Duration,
    kernels_setup: Duration,
    structure_build: Duration,
    sim_compile: Duration,
    sim_launch: Duration,
    sim_launch_hier: Duration,
    sampled_launch: Duration,
    core_blame: Duration,
    advise_request: Duration,
    json_render: Duration,
    json_bytes: u64,
    /// Per-job `Session::run_one_request_repeat` time, serial.
    pipeline_jobs: Duration,
    cycles: u64,
    issued: u64,
    mem_transactions: u64,
    l2_hits: u64,
    l2_misses: u64,
    /// Baselines: app, host ns per simulated cycle, cycles, issued.
    per_app: Vec<(String, f64, u64, u64)>,
    /// Every job's ground-truth cycles and advice, for Table 3.
    found: Vec<(AnalysisJob, u64, AdviceReport)>,
}

/// A metric-name form of an app name: `rodinia/b+tree` → `rodinia-bptree`.
fn slug(app: &str) -> String {
    app.chars()
        .map(|c| match c {
            '+' => 'p',
            c if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-' => c,
            _ => '-',
        })
        .collect()
}

/// Runs every layer of the analysis path once per job, serially, timing
/// each public call; checks that the layer-by-layer path and the
/// pipeline agree.
fn probe(jobs: &[AnalysisJob], run: &mut Run) -> Probe {
    let session = Session::full();
    let (params, arch, cfg) =
        (*session.params(), session.arch().clone(), session.sim_config().clone());
    let arch_hier = arch.clone().with_hierarchy();
    let latency = LatencyTable::for_arch(&arch);
    let advisor = Advisor::new();
    let request = AdviceRequest::default();
    let mut p = Probe::default();
    for job in jobs {
        let app = app_by_name(&job.app).expect("registry app");
        let spec = timed(&mut p.kernels_build, || (app.build)(job.variant, &params));
        let structure = timed(&mut p.structure_build, || ProgramStructure::build(&spec.module));
        let program = match timed(&mut p.sim_compile, || {
            CompiledProgram::build(&spec.module, &spec.entry, &arch)
        }) {
            Ok(program) => program,
            Err(e) => {
                run.op(Some(format!("{job}: compile: {e}")));
                continue;
            }
        };
        let (gpu, host) = timed(&mut p.kernels_setup, || armed_gpu_with(&spec, &arch, cfg.clone()));
        // An untimed first launch, so every timed launch below starts
        // from the same warm process state.
        black_box(Profiler::new(gpu).time_only_compiled(&program, &spec.launch, &host).ok());
        let (gpu, host) = armed_gpu_with(&spec, &arch, cfg.clone());
        let t = Instant::now();
        let flat = Profiler::new(gpu).time_only_compiled(&program, &spec.launch, &host);
        let launch = t.elapsed();
        p.sim_launch += launch;
        let (gpu, host) = armed_gpu_with(&spec, &arch_hier, cfg.clone());
        let hier = timed(&mut p.sim_launch_hier, || {
            Profiler::new(gpu).time_only_compiled(&program, &spec.launch, &host)
        });
        let (gpu, host) = armed_gpu_with(&spec, &arch, cfg.clone());
        let sampled = timed(&mut p.sampled_launch, || {
            Profiler::new(gpu).profile_repeat_compiled(&program, &spec.launch, &host, 1)
        });
        let (Ok(flat), Ok(_), Ok((profile, result))) = (flat, hier, sampled) else {
            run.op(Some(format!("{job}: simulator fault")));
            continue;
        };
        black_box(ModuleBlame::build(&spec.module, &structure, &profile, &latency));
        black_box(timed(&mut p.core_blame, || {
            ModuleBlame::build(&spec.module, &structure, &profile, &latency)
        }));
        let report = timed(&mut p.advise_request, || {
            advisor.advise_request(&spec.module, &structure, &latency, &profile, &arch, &request)
        });
        let outcome = match timed(&mut p.pipeline_jobs, || {
            session.run_one_request_repeat(job, &request, 1)
        }) {
            Ok(outcome) => outcome,
            Err(e) => {
                run.op(Some(format!("{job}: {e}")));
                continue;
            }
        };
        let body = timed(&mut p.json_render, || protocol::analyze_body(&outcome, 2).compact());
        p.json_bytes += body.len() as u64;

        let time_one = session.time_one(job).map_err(|e| e.to_string());
        let problem = if time_one != Ok(outcome.cycles) {
            Some(format!(
                "{job}: profiled cycles {} but Session::time_one gives {time_one:?}",
                outcome.cycles
            ))
        } else if flat != outcome.cycles || result.cycles != outcome.cycles {
            Some(format!("{job}: layer-by-layer cycles differ from the pipeline's"))
        } else if profile != outcome.profile {
            Some(format!("{job}: layer-by-layer profile differs from the pipeline's"))
        } else if gpa_core::schema::report_to_json(&report).compact()
            != gpa_core::schema::report_to_json(&outcome.report).compact()
        {
            Some(format!("{job}: layer-by-layer advice differs from the pipeline's"))
        } else {
            None
        };
        run.op(problem);
        p.cycles += result.cycles;
        p.issued += result.issued;
        p.mem_transactions += result.mem_transactions;
        p.l2_hits += result.l2_hits;
        p.l2_misses += result.l2_misses;
        if job.variant == 0 {
            let ns = launch.as_secs_f64() * 1e9 / flat as f64;
            p.per_app.push((job.app.clone(), ns, result.cycles, result.issued));
        }
        p.found.push((job.clone(), outcome.cycles, outcome.report));
    }
    p.per_app.sort_by(|a, b| a.0.cmp(&b.0));
    p
}

/// Table 3 rows from `(job, cycles, report)` triples.
fn rows_of(found: &[(AnalysisJob, u64, AdviceReport)]) -> Vec<sweep::Row> {
    sweep::table3(|app, v| {
        found.iter().find(|(j, _, _)| j.app == app && j.variant == v).map(|(_, c, r)| (*c, r))
    })
}

/// The exact-repeat fingerprint of a set of analyses.
fn cycles_digest(found: &[(AnalysisJob, u64, AdviceReport)]) -> String {
    sweep::cycles_digest(found.iter().map(|(j, c, _)| (j, *c)))
}

/// One `run_batch` sweep of `jobs` on a fresh `Session::full()`, each
/// outcome rendered. Returns the wall time, the summed per-job spans
/// (`AnalysisOutcome::wall`, which the pipeline records on every run)
/// and the outcomes.
fn sweep_once(jobs: &[AnalysisJob]) -> (Duration, Duration, Vec<(AnalysisJob, u64, AdviceReport)>) {
    let session = Session::full();
    let t = Instant::now();
    let outcomes = session.run_batch(jobs);
    let rendered: Vec<Option<String>> =
        outcomes.iter().map(|o| o.as_ref().ok().map(|o| o.to_json_v2().compact())).collect();
    let wall = t.elapsed();
    black_box(&rendered);
    let mut spans = Duration::ZERO;
    let found = jobs
        .iter()
        .zip(outcomes)
        .filter_map(|(job, out)| out.ok().map(|o| (job.clone(), o)))
        .map(|(job, o)| {
            spans += o.wall;
            (job, o.cycles, o.report)
        })
        .collect();
    (wall, spans, found)
}

pub fn run(workload: &str, seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let mut jobs = sweep::all_jobs();
    Rng::new(seed).shuffle(&mut jobs);

    let p = probe(&jobs, &mut run);
    let (sweep_wall, spans, swept) = sweep_once(&jobs);
    run.note(format!(
        "sweep: {} job spans, {:.1} ms busy over {:.1} ms wall on {} workers",
        swept.len(),
        stats::ms(spans),
        stats::ms(sweep_wall),
        stats::nproc()
    ));

    // The counts and fidelity repeat exactly across the probe and the
    // sweep; the digest lets separate runs be compared.
    let probe_digest = cycles_digest(&p.found);
    let probe_fidelity = sweep::fidelity(&rows_of(&p.found));
    if swept.len() != p.found.len()
        || cycles_digest(&swept) != probe_digest
        || sweep::fidelity(&rows_of(&swept)) != probe_fidelity
    {
        run.invalidate("sweep: cycles or fidelity differ from the probe's".to_string());
    }
    run.note(format!(
        "counts: cycles={} issued={} mem_transactions={} l2_hits={} l2_misses={} cycles_digest={probe_digest} \
         est_error_geomean={:?} expected_in_top5={}",
        p.cycles, p.issued, p.mem_transactions, p.l2_hits, p.l2_misses, probe_fidelity.0, probe_fidelity.1
    ));
    run.note(format!(
        "{:<24} {:>12} {:>10} {:>10}",
        "app (baseline)", "ns/cycle", "cycles", "issued"
    ));
    for (app, ns, cycles, issued) in &p.per_app {
        run.note(format!("{app:<24} {ns:>12.1} {cycles:>10} {issued:>10}"));
    }

    let half = (seconds / 2.0).max(1.0);
    let warm = serve::warm(seed, half);
    let open = serve::arrivals(seed);
    let cold = serve::cold(seed, half, true);
    run.absorb("warm pass", &warm.run);
    run.absorb("open-loop pass", &open.run);
    run.absorb("serve_cold pass", &cold.run);

    // The sweep's per-job spans are the outcomes' own `wall`, recorded
    // whether or not anyone reads them, so its traced and untraced runs
    // are the same `run_batch` call: no overhead by construction.
    let overhead = if workload == "sweep_full" {
        1.0
    } else {
        let plain = serve::cold(seed, half, false);
        run.absorb("untraced serve_cold pass", &plain.run);
        cold.trace.per_request_s / plain.trace.per_request_s
    };

    let ms = stats::ms;
    run.metric("kernels.build_ms", ms(p.kernels_build), "ms");
    run.metric("kernels.setup_ms", ms(p.kernels_setup), "ms");
    run.metric("structure.build_ms", ms(p.structure_build), "ms");
    run.metric("sim.compile_ms", ms(p.sim_compile), "ms");
    run.metric("sim.launch_ms", ms(p.sim_launch), "ms");
    run.metric("sim.launch_hier_ms", ms(p.sim_launch_hier), "ms");
    for (app, ns, _, _) in &p.per_app {
        run.metric(format!("sim.ns_per_cycle.{}", slug(app)), *ns, "ns/cycle");
    }
    run.metric("sim.cycles", p.cycles as f64, "cycles");
    run.metric("sim.issued", p.issued as f64, "count");
    run.metric("sim.mem_transactions", p.mem_transactions as f64, "count");
    run.metric(
        "sim.l2_hit_ratio",
        p.l2_hits as f64 / (p.l2_hits + p.l2_misses).max(1) as f64,
        "share",
    );
    run.metric("sampling.overhead_ms", ms(p.sampled_launch) - ms(p.sim_launch), "ms");
    run.metric("sampling.profile_parse_ms", profile_parse_ms(&warm), "ms");
    run.metric("core.blame_ms", ms(p.core_blame), "ms");
    run.metric("core.advise_ms", ms(p.advise_request) - ms(p.core_blame), "ms");
    for row in rows_of(&p.found) {
        run.metric(
            format!("core.est_error.{}.v{}", slug(row.app), row.variant),
            row.error,
            "share",
        );
    }
    run.metric("json.render_ms", ms(p.json_render), "ms");
    run.metric("json.render_bytes", p.json_bytes as f64, "B");
    run.metric(
        "pipeline.parallel_efficiency",
        p.pipeline_jobs.as_secs_f64() / (sweep_wall.as_secs_f64() * stats::nproc() as f64),
        "share",
    );
    serve_metrics(&mut run, &warm, &open, &cold);
    run.metric("trace.overhead_ratio", overhead, "ratio");
    run
}

/// `KernelProfile::from_doc` over every upload chunk document.
fn profile_parse_ms(warm: &ServeRun) -> f64 {
    let t = Instant::now();
    for doc in &warm.trace.chunk_docs {
        black_box(KernelProfile::from_doc(doc).expect("pool chunks parse"));
    }
    stats::ms(t.elapsed())
}

/// The daemon layer seen from the client: the warm pass (hits and
/// uploads), the open-loop pass (misses timed from their scheduled send)
/// and the closed-loop `serve_cold` pass (misses per key).
fn serve_metrics(run: &mut Run, warm: &ServeRun, open: &ServeRun, cold: &ServeRun) {
    let frames: Vec<&String> =
        warm.trace.frames.iter().chain(&open.trace.frames).chain(&cold.trace.frames).collect();
    let t = Instant::now();
    for frame in &frames {
        black_box(Request::parse(frame).is_ok());
    }
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / frames.len().max(1) as f64;
    let (w, c): (&Counters, &Counters) = (&warm.trace.counters, &cold.trace.counters);
    let all = w.add(open.trace.counters).add(*c);
    run.metric("serve.protocol_parse_us", parse_us, "us");
    run.metric("serve.hit_rtt_p50_ms", stats::median(&warm.trace.hit_rtt_ms), "ms");
    run.metric("serve.upload_rtt_p50_ms", stats::median(&warm.trace.upload_rtt_ms), "ms");
    run.metric("serve.miss_rtt_p50_ms", stats::median(&open.trace.miss_rtt_ms), "ms");
    run.metric("serve.queue_wait_ms", stats::median(&open.trace.queue_wait_ms), "ms");
    run.metric("serve.store_hit_ratio", w.hits as f64 / (w.hits + w.misses).max(1) as f64, "share");
    run.metric(
        "serve.misses_per_unique_key",
        c.misses as f64 / cold.trace.unique_keys.max(1) as f64,
        "ratio",
    );
    run.metric(
        "serve.queue_peak",
        c.queue_peak.max(open.trace.counters.queue_peak) as f64,
        "count",
    );
    run.metric("serve.queue_rejected", all.rejected as f64, "count");
    run.metric("serve.byte_sheds", all.byte_sheds as f64, "count");
    run.metric("serve.errors", all.errors as f64, "count");
    let shares: Vec<f64> =
        [warm, open, cold].iter().flat_map(|r| r.trace.reactor_shares.iter().copied()).collect();
    run.metric("serve.busiest_reactor_share", stats::mean(&shares), "share");
    let lateness = &open.trace.lateness_ms;
    run.metric("serve.gen_lateness_p50_ms", stats::median(lateness), "ms");
    run.metric("serve.gen_lateness_max_ms", lateness.iter().copied().fold(0.0, f64::max), "ms");
}
