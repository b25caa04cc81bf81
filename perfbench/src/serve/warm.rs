//! The warm pass of the traced run: store hits and chunked uploads.

use super::*;
use crate::stats::{Digest, Rng};
use gpa_sampling::{KernelProfile, Profiler};
use gpa_sim::SimConfig;
use std::collections::HashSet;
use std::sync::Mutex;

/// Share of logical requests that are chunked uploads.
const UPLOAD_SHARE: f64 = 0.1;
/// Sampling phases profiled per app for the upload pool.
const PHASES: usize = 4;
/// PC ranges each phase's profile is split into.
const RANGES: usize = 6;
/// Pieces an upload sends per PC range: a seed-chosen multiset of
/// phases, so up to `C(PHASES + 1, 2)^RANGES` distinct uploads per app
/// (10^4 for the smallest profile), and every upload covers every PC.
const PER_RANGE: usize = 2;

/// One app's upload material: `pieces[range][phase]` is a chunk (a
/// real profile of one PC range at one sampling phase) and its
/// rendered document.
struct PoolApp {
    job: AnalysisJob,
    pieces: Vec<Vec<(KernelProfile, String)>>,
}

/// Real profiles of each baseline app at seed-chosen sampling phases,
/// split and rendered once as chunk documents.
struct Pool {
    apps: Vec<PoolApp>,
}

fn build_pool(seed: u64) -> Pool {
    let mut rng = Rng::new(seed).fork(0x9001);
    let session = Session::full();
    let period = session.sim_config().sampling_period as usize;
    let baselines: Vec<AnalysisJob> =
        sweep::all_jobs().into_iter().filter(|j| j.variant == 0).collect();
    let mut items = Vec::new();
    for a in 0..baselines.len() {
        let mut phases: Vec<usize> = (0..period).collect();
        rng.shuffle(&mut phases);
        items.extend(phases[..PHASES].iter().map(|&p| (a, p as u32)));
    }
    let profiles = stats::parallel_map(&items, stats::nproc(), |&(a, phase)| {
        let artifacts = session.artifacts(&baselines[a]).expect("registry jobs build");
        let cfg = SimConfig { sampling_phase: phase, ..session.sim_config().clone() };
        let (gpu, params) =
            gpa_kernels::runner::armed_gpu_with(&artifacts.spec, session.arch(), cfg);
        let (profile, _) = Profiler::new(gpu)
            .profile_compiled(&artifacts.program, &artifacts.spec.launch, &params)
            .expect("baseline apps simulate");
        profile
    });
    let mut profiles = profiles.into_iter();
    let apps = baselines
        .into_iter()
        .map(|job| {
            let phases: Vec<KernelProfile> = profiles.by_ref().take(PHASES).collect();
            let split: Vec<Vec<KernelProfile>> =
                phases.iter().map(|p| p.split_chunks(RANGES)).collect();
            let ranges = split.iter().map(Vec::len).min().unwrap_or(0);
            let pieces = (0..ranges)
                .map(|r| split.iter().map(|s| (s[r].clone(), s[r].to_doc().compact())).collect())
                .collect();
            PoolApp { job, pieces }
        })
        .collect();
    Pool { apps }
}

/// One upload: an app of the pool and, per PC range, the phases whose
/// pieces it sends.
type Upload = (usize, [[u8; PER_RANGE]; RANGES]);

/// The chunks of an upload, in send order.
fn upload_chunks(
    pool: &Pool,
    (app, picks): Upload,
) -> impl Iterator<Item = &(KernelProfile, String)> {
    pool.apps[app]
        .pieces
        .iter()
        .zip(picks)
        .flat_map(|(range, phases)| phases.into_iter().map(move |p| &range[usize::from(p)]))
}

/// The profile an upload's chunks merge into.
fn merged(pool: &Pool, pick: Upload) -> Result<KernelProfile, String> {
    let mut chunks = upload_chunks(pool, pick);
    let mut merged = chunks.next().ok_or("an upload without chunks")?.0.clone();
    for (chunk, _) in chunks {
        merged.merge_in(chunk).map_err(|e| format!("chunks do not merge: {e}"))?;
    }
    Ok(merged)
}

/// A seed-chosen upload whose merged profile no earlier upload sent,
/// so it is a new content address.
fn pick_upload(rng: &mut Rng, pool: &Pool, used: &Mutex<HashSet<u64>>) -> Result<Upload, String> {
    for _ in 0..256 {
        let app = rng.below(pool.apps.len());
        let mut picks = [[0u8; PER_RANGE]; RANGES];
        for phases in picks.iter_mut().take(pool.apps[app].pieces.len()) {
            for p in phases.iter_mut() {
                *p = rng.below(PHASES) as u8;
            }
            phases.sort_unstable();
        }
        let mut digest = Digest::new();
        digest.add(merged(pool, (app, picks))?.to_doc().compact().as_bytes());
        if used.lock().expect("upload set lock").insert(digest.value()) {
            return Ok((app, picks));
        }
    }
    Err("no unsent upload left in the pool".to_string())
}

/// Sends one chunked upload; returns the `profile_end` frame.
fn upload(
    client: &mut ServeClient,
    pool: &Pool,
    pick: Upload,
    frames: &mut Vec<String>,
) -> Result<String, String> {
    let begin = Request::ProfileBegin {
        job: pool.apps[pick.0].job.clone(),
        options: WireOptions { schema: SCHEMA, ..WireOptions::default() },
    }
    .to_wire();
    let line = client.request_line(&begin).map_err(|e| format!("profile_begin: {e}"))?;
    let id = Json::parse(line)
        .ok()
        .and_then(|d| d.get("result")?.get("upload_id")?.as_u64().ok())
        .ok_or_else(|| format!("profile_begin answered {}", line.trim_end()))?;
    let mut sent = vec![begin];
    for (_, canon) in upload_chunks(pool, pick) {
        let frame = protocol::profile_chunk_frame(id, canon);
        let line = client.request_line(&frame).map_err(|e| format!("profile_chunk: {e}"))?;
        if !line.starts_with("{\"ok\":true,") {
            return Err(format!("profile_chunk answered {}", line.trim_end()));
        }
        sent.push(frame);
    }
    let end = Request::ProfileEnd { upload_id: id }.to_wire();
    let line =
        client.request_line(&end).map_err(|e| format!("profile_end: {e}"))?.trim_end().to_string();
    sent.push(end);
    if frames.len() < FRAMES_KEPT {
        frames.extend(sent);
    }
    Ok(line)
}

/// What one warm connection saw.
#[derive(Default)]
struct WarmLog {
    problems: Vec<Option<String>>,
    uploads: Vec<(Upload, u64)>,
    hit_rtt_ms: Vec<f64>,
    upload_rtt_ms: Vec<f64>,
    frames: Vec<String>,
}

/// What every warm connection shares.
#[derive(Clone, Copy)]
struct WarmCtx<'a> {
    expected: &'a [Expected],
    /// The exact hit frame each key must be answered with.
    hit_frames: &'a [String],
    pool: &'a Pool,
    /// Digests of every merged profile uploaded so far.
    used: &'a Mutex<HashSet<u64>>,
    t0: Instant,
    until: Duration,
}

/// One closed-loop connection of the warm pass.
fn warm_conn(ctx: &WarmCtx, mut client: ServeClient, mut rng: Rng) -> WarmLog {
    let WarmCtx { expected, hit_frames, pool, used, t0, until } = *ctx;
    let mut log = WarmLog::default();
    let mut order: Vec<usize> = (0..expected.len()).collect();
    rng.shuffle(&mut order);
    let mut pos = 0;
    while t0.elapsed() < until {
        if rng.unit() < UPLOAD_SHARE {
            let pick = match pick_upload(&mut rng, pool, used) {
                Ok(pick) => pick,
                Err(e) => {
                    log.problems.push(Some(e));
                    break;
                }
            };
            let start = t0.elapsed();
            let result = upload(&mut client, pool, pick, &mut log.frames);
            let end = t0.elapsed();
            let rtt = stats::ms(end - start);
            match result {
                Ok(line) if line.starts_with("{\"ok\":true,\"cached\":false,") => {
                    let mut d = Digest::new();
                    d.add(line.as_bytes());
                    log.uploads.push((pick, d.value()));
                    log.upload_rtt_ms.push(rtt);
                    log.problems.push(None);
                }
                Ok(line) => log
                    .problems
                    .push(Some(format!("upload answered {}", &line[..line.len().min(200)]))),
                Err(e) => log.problems.push(Some(e)),
            }
        } else {
            let i = order[pos];
            pos += 1;
            if pos == order.len() {
                rng.shuffle(&mut order);
                pos = 0;
            }
            let e = &expected[i];
            let start = t0.elapsed();
            let line = client.request_line(&e.frame);
            let end = t0.elapsed();
            let rtt = stats::ms(end - start);
            let problem = match line {
                Err(err) => Some(format!("{}: {err}", e.key.job)),
                Ok(line) if line.trim_end() == hit_frames[i] => None,
                Ok(line) if !frame_cached(line) => Some(format!("{}: not a store hit", e.key.job)),
                Ok(_) => Some(format!("{}: body differs from the in-process run", e.key.job)),
            };
            if problem.is_none() {
                log.hit_rtt_ms.push(rtt);
            }
            log.problems.push(problem);
            if log.frames.len() < FRAMES_KEPT {
                log.frames.push(e.frame.clone());
            }
        }
    }
    log
}

/// Set-up for the warm pass: daemon start, store warm-up over every
/// analyze key (each checked against its reference), upload pool.
fn warm_setup(seed: u64, expected: &[Expected], run: &mut Run) -> (Daemon, Pool) {
    let daemon = Daemon::start();
    let problems: Vec<Vec<Option<String>>> = std::thread::scope(|scope| {
        let n = stats::nproc();
        let workers: Vec<_> = (0..n)
            .map(|c| {
                let mut client = daemon.connect();
                scope.spawn(move || {
                    expected
                        .iter()
                        .skip(c)
                        .step_by(n)
                        .map(|e| match client.request_line(&e.frame) {
                            Ok(line) if line.trim_end() == protocol::ok_frame(false, &e.body) => {
                                None
                            }
                            Ok(_) => Some(format!(
                                "warm-up {}: body differs from the in-process run",
                                e.key.job
                            )),
                            Err(err) => Some(format!("warm-up {}: {err}", e.key.job)),
                        })
                        .collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("warm-up thread")).collect()
    });
    problems.into_iter().flatten().for_each(|p| run.op(p));
    (daemon, build_pool(seed))
}

/// Re-derives every upload's body in process and compares digests.
fn verify_uploads(pool: &Pool, uploads: &[(Upload, u64)]) -> Vec<Option<String>> {
    let session = Session::full();
    let request = AdviceRequest::default();
    stats::parallel_map(uploads, stats::nproc(), |&(pick, digest)| {
        let job = &pool.apps[pick.0].job;
        let merged = match merged(pool, pick) {
            Ok(m) => m,
            Err(e) => return Some(format!("{job}: {e}")),
        };
        let report = match session.advise_profile_request(job, &merged, &request) {
            Ok(r) => r,
            Err(e) => return Some(format!("{job}: {e}")),
        };
        let body = protocol::profile_body(job, &merged, &report, SCHEMA).compact();
        let mut d = Digest::new();
        d.add(protocol::ok_frame(false, &body).as_bytes());
        (d.value() != digest)
            .then(|| format!("{job} upload {:?}: body differs from the in-process run", pick.1))
    })
}

/// The warm pass of the traced run: a daemon whose store holds every
/// analyze key, driven closed-loop by `nproc` connections for
/// `seconds`: seed-shuffled passes over the keys, every one a store hit,
/// with [`UPLOAD_SHARE`] of requests a chunked upload of a new profile.
/// Feeds the hit, upload, parse and store layer metrics.
pub fn warm(seed: u64, seconds: f64) -> ServeRun {
    let mut run = Run::default();
    let expected = reference(&all_keys(&[false]));
    let hit_frames: Vec<String> =
        expected.iter().map(|e| protocol::ok_frame(true, &e.body)).collect();
    let (mut daemon, pool) = warm_setup(seed, &expected, &mut run);
    let before = daemon.status(&mut run);
    let used = Mutex::new(HashSet::new());
    let mut rng = Rng::new(seed);
    let clients: Vec<(ServeClient, Rng)> =
        (0..stats::nproc()).map(|c| (daemon.connect(), rng.fork(c as u64))).collect();
    let ctx = WarmCtx {
        expected: &expected,
        hit_frames: &hit_frames,
        pool: &pool,
        used: &used,
        t0: Instant::now(),
        until: Duration::from_secs_f64(seconds),
    };
    let logs: Vec<WarmLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|(client, rng)| {
                let ctx = &ctx;
                scope.spawn(move || warm_conn(ctx, client, rng))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });
    let counters = daemon.status(&mut run).since(before);
    daemon.stop();

    let uploads: Vec<(Upload, u64)> = logs.iter().flat_map(|l| l.uploads.iter().copied()).collect();
    let reactor_shares = counters.busiest_reactor_share().into_iter().collect();
    let mut trace = ServeTrace { counters, reactor_shares, ..ServeTrace::default() };
    for log in logs {
        log.problems.into_iter().for_each(|p| run.op(p));
        trace.hit_rtt_ms.extend(log.hit_rtt_ms);
        trace.upload_rtt_ms.extend(log.upload_rtt_ms);
        trace.frames.extend(log.frames);
    }
    verify_uploads(&pool, &uploads).into_iter().flatten().for_each(|p| run.fail_counted(p));
    trace.chunk_docs = pool
        .apps
        .iter()
        .flat_map(|app| app.pieces.iter().flatten())
        .map(|(_, canon)| Json::parse(canon).expect("rendered profiles parse"))
        .collect();
    run.note(format!(
        "{} store hits, {} uploads in {seconds:.1}s; hit rtt p50 {:.3} ms, upload rtt p50 {:.3} ms; \
         counters {counters:?}",
        trace.hit_rtt_ms.len(),
        uploads.len(),
        stats::median(&trace.hit_rtt_ms),
        stats::median(&trace.upload_rtt_ms),
    ));
    ServeRun { run, trace }
}
