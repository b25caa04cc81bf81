//! `serve_cold`: closed-loop cold traffic on fresh daemons.

use super::*;
use crate::stats::Rng;
use crate::SERVE_SETUP_REPS;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The order a cold pass asks for keys in: every key once, seed-shuffled,
/// and a seed-chosen [`DUP_SHARE`] of keys asked twice in a row. The
/// second request goes out on another connection as soon as one is
/// free, usually while the first computes: the single-flight case.
fn cold_work(rng: &mut Rng, keys: usize) -> Vec<(usize, bool)> {
    let mut order: Vec<usize> = (0..keys).collect();
    rng.shuffle(&mut order);
    let mut work = Vec::new();
    for key in order {
        work.push((key, false));
        if rng.unit() < DUP_SHARE {
            work.push((key, true));
        }
    }
    work
}

/// One answered request of a cold pass.
struct Done {
    key: usize,
    dup: bool,
    latency_ms: f64,
    problem: Option<String>,
}

/// A fresh daemon with `nproc` client connections, connected as any
/// client connects: the kernel's `SO_REUSEPORT` hash picks each one's
/// reactor.
fn cold_clients() -> (Daemon, Vec<ServeClient>) {
    let daemon = Daemon::start();
    let clients = (0..stats::nproc()).map(|_| daemon.connect()).collect();
    (daemon, clients)
}

/// `serve_cold`: passes until `--seconds` elapse, each on a fresh daemon
/// with an empty store, whose `nproc` connections take keys from one
/// shared work list closed-loop, so every leader computes.
pub fn cold(seed: u64, seconds: f64, traced: bool) -> ServeRun {
    let mut run = Run::default();
    let keys = all_keys(&[false, true]);
    // The in-process reference answers are the benchmark's own work, so
    // they are computed once and left out of `setup_s`.
    let expected = reference(&keys);
    // Set-up: a daemon start (it answers its first `status`) and its
    // client connections. One takes well under a millisecond, so the median
    // of many is reported.
    let setups: Vec<f64> = (0..SERVE_SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let (daemon, clients) = cold_clients();
            let setup = t.elapsed().as_secs_f64();
            drop(clients);
            daemon.stop();
            setup
        })
        .collect();
    let mut rng = Rng::new(seed);
    let mut trace = ServeTrace::default();
    // Per-pass rates; their medians are the throughput metrics.
    let (mut rates, mut mcycles, mut leaders) = (Vec::new(), Vec::new(), Vec::new());
    let (mut passes, mut requests, mut busy) = (0u64, 0usize, 0.0);
    // Each pass's daemon holds its own sessions and store, so the peak
    // is taken per pass and the median reported.
    let mut peaks = Vec::new();
    let started = Instant::now();
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        let memory = stats::RssPeak::start();
        let (mut daemon, clients) = cold_clients();
        let work = cold_work(&mut rng.fork(passes), keys.len());
        let taken = AtomicUsize::new(0);
        let t0 = Instant::now();
        let done: Vec<Done> = std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .into_iter()
                .map(|mut client| {
                    let (work, taken, expected) = (&work, &taken, &expected);
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        while let Some(&(key, dup)) =
                            work.get(taken.fetch_add(1, Ordering::Relaxed))
                        {
                            let e = &expected[key];
                            let start = Instant::now();
                            let line = client.request_line(&e.frame);
                            let latency_ms = stats::ms(start.elapsed());
                            let problem = match line {
                                Err(err) => Some(format!("{}: {err}", e.key.job)),
                                Ok(line)
                                    if line.trim_end()
                                        == protocol::ok_frame(frame_cached(line), &e.body) =>
                                {
                                    None
                                }
                                Ok(_) => Some(format!(
                                    "{} (hierarchy={}): answer differs from the in-process run",
                                    e.key.job, e.key.hierarchy
                                )),
                            };
                            done.push(Done { key, dup, latency_ms, problem });
                        }
                        done
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().expect("client thread")).collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        let counters = daemon.status(&mut run).since(daemon.fresh);
        trace.counters = trace.counters.add(counters);
        trace.reactor_shares.extend(counters.busiest_reactor_share());
        daemon.stop();
        peaks.push(memory.stop());

        let ok: Vec<&Done> = done.iter().filter(|d| d.problem.is_none()).collect();
        rates.push(ok.len() as f64 / wall);
        let cycles: u64 = ok.iter().map(|d| expected[d.key].cycles).sum();
        mcycles.push(cycles as f64 / wall / 1e6);
        leaders.extend(ok.iter().filter(|d| !d.dup).map(|d| d.latency_ms));
        if traced {
            trace.frames.extend(done.iter().map(|d| expected[d.key].frame.clone()));
        }
        requests += done.len();
        busy += wall;
        done.into_iter().for_each(|d| run.op(d.problem));
        passes += 1;
    }
    trace.unique_keys = passes * keys.len() as u64;
    trace.per_request_s = busy / requests.max(1) as f64;
    run.note(format!(
        "passes={passes} requests={requests} store misses per key={:.3} counters={:?}",
        trace.counters.misses as f64 / trace.unique_keys as f64,
        trace.counters
    ));
    run.note(format!(
        "per pass: jobs/s {:.2?}, busiest reactor's share of the clients {:.2?}",
        rates, trace.reactor_shares
    ));
    let (err, top5) = fidelity(&expected);
    run.metric("setup_s", stats::median(&setups), "s");
    run.finish_common(stats::median(&peaks));
    run.metric("jobs_per_s", stats::median(&rates), "1/s");
    run.metric("sim_mcycles_per_s", stats::median(&mcycles), "Mcycles/s");
    run.latency(&leaders, 0.90);
    run.metric("est_error_geomean", err, "share");
    run.metric("expected_in_top5", top5 as f64, "count");
    ServeRun { run, trace }
}
