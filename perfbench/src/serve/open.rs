//! The open-loop pass of the traced run: scheduled arrivals, timed from
//! each request's scheduled send.

use super::*;
use crate::stats::{Digest, Rng};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// Leader arrivals per second: low enough that the current daemon keeps
/// a bounded backlog on two workers.
const COLD_RATE: f64 = 6.0;
/// Duplicates are due this soon after their leader, while it computes.
const DUP_WINDOW_S: f64 = 0.010;
/// How often a generator with waiting requests rechecks for a free
/// connection when no answer wakes it first.
const POLL: Duration = Duration::from_millis(1);
/// A pass whose last answer comes later than this after its last
/// scheduled send had a growing backlog, and is invalid.
const DRAIN_LIMIT: Duration = Duration::from_secs(3);

/// One scheduled request: a key's leader (every key leads once per
/// pass), or a duplicate due within [`DUP_WINDOW_S`] of its leader. A
/// duplicate takes the free connection — the leader's is busy — so it
/// lands while the leader computes: the single-flight case.
struct Send {
    at: Duration,
    key: usize,
    dup: bool,
}

/// Seeded arrivals for one pass: the leaders are a Poisson process of
/// rate [`COLD_RATE`] conditioned on sending every key once (uniform
/// order statistics over the pass); a seed-chosen share of leaders is
/// followed by a duplicate.
fn cold_schedule(rng: &mut Rng, keys: usize) -> Vec<Send> {
    let span = keys as f64 / COLD_RATE;
    let mut order: Vec<usize> = (0..keys).collect();
    rng.shuffle(&mut order);
    let mut times: Vec<f64> = (0..keys).map(|_| rng.unit() * span).collect();
    times.sort_by(f64::total_cmp);
    let mut sends = Vec::new();
    for (key, t) in order.into_iter().zip(times) {
        sends.push(Send { at: Duration::from_secs_f64(t), key, dup: false });
        if rng.unit() < DUP_SHARE {
            let at = Duration::from_secs_f64(t + rng.unit() * DUP_WINDOW_S);
            sends.push(Send { at, key, dup: true });
        }
    }
    sends.sort_by_key(|s| (s.at, s.dup));
    sends
}

/// What happened to one scheduled request.
#[derive(Default)]
struct Outcome {
    /// When the generator took the request up, on schedule or late.
    released: Option<Duration>,
    /// When it was written to a connection.
    sent: Option<Duration>,
    answered: Option<Duration>,
    cached: bool,
    body: u64,
    problem: Option<String>,
}

/// Runs one pass open-loop. One generator thread takes each request
/// up when it is due and sends the oldest waiting one as soon as a
/// connection has no answer outstanding — the first-come-first-served
/// queue a many-connection client would meet in the daemon's own job
/// queue — and one reader per connection collects the answers until
/// `deadline`.
fn cold_pass(
    streams: Vec<TcpStream>,
    sends: &[Send],
    expected: &[Expected],
    t0: Instant,
    deadline: Duration,
) -> Vec<Outcome> {
    let conns = streams.len();
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..conns).map(|_| Mutex::default()).collect();
    let freed = (Mutex::new(()), Condvar::new());
    let writing = AtomicBool::new(true);
    let mut writers: Vec<TcpStream> =
        streams.iter().map(|s| s.try_clone().expect("socket clones")).collect();
    let (queues, freed, writing) = (&queues, &freed, &writing);
    let (sent, released, answers) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut sent = vec![None; sends.len()];
            let mut released = vec![None; sends.len()];
            let mut pending = VecDeque::new();
            let mut next = 0;
            'run: while t0.elapsed() < deadline {
                let now = t0.elapsed();
                while sends.get(next).is_some_and(|s| s.at <= now) {
                    released[next] = Some(now);
                    pending.push_back(next);
                    next += 1;
                }
                while let Some(&i) = pending.front() {
                    let idle = |c: &usize| queues[*c].lock().expect("queue lock").is_empty();
                    let Some(conn) = (0..conns).find(idle) else { break };
                    queues[conn].lock().expect("queue lock").push_back(i);
                    sent[i] = Some(t0.elapsed());
                    let mut frame = expected[sends[i].key].frame.clone();
                    frame.push('\n');
                    if writers[conn].write_all(frame.as_bytes()).is_err() {
                        break 'run;
                    }
                    pending.pop_front();
                }
                if next == sends.len() && pending.is_empty() {
                    break;
                }
                // Sleep until the next request is due, or (with requests
                // waiting) until a connection frees up.
                let due = sends.get(next).map_or(deadline, |s| s.at);
                let nap = if pending.is_empty() { due } else { due.min(now + POLL) };
                let guard = freed.0.lock().expect("freed lock");
                let wait = nap.saturating_sub(t0.elapsed());
                drop(freed.1.wait_timeout(guard, wait).expect("freed lock"));
            }
            writing.store(false, Ordering::SeqCst);
            (sent, released)
        });
        let readers: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || {
                    let mut reader = BufReader::new(stream);
                    let mut answers = Vec::new();
                    let mut buf = Vec::new();
                    while t0.elapsed() < deadline {
                        match reader.read_until(b'\n', &mut buf) {
                            Ok(_) if buf.ends_with(b"\n") => {
                                let at = t0.elapsed();
                                let id = queues[c].lock().expect("queue lock").pop_front();
                                freed.1.notify_one();
                                answers.push((
                                    id,
                                    at,
                                    String::from_utf8_lossy(&buf).trim_end().to_string(),
                                ));
                                buf.clear();
                            }
                            Ok(0) => break,
                            Ok(_) => {}
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    ErrorKind::WouldBlock | ErrorKind::TimedOut
                                ) =>
                            {
                                let idle = queues[c].lock().expect("queue lock").is_empty();
                                if idle && !writing.load(Ordering::SeqCst) {
                                    break;
                                }
                            }
                            Err(_) => break,
                        }
                    }
                    answers
                })
            })
            .collect();
        let (sent, released) = generator.join().expect("generator thread");
        let answers: Vec<_> =
            readers.into_iter().flat_map(|r| r.join().expect("reader thread")).collect();
        (sent, released, answers)
    });
    let mut outcomes: Vec<Outcome> = sent
        .into_iter()
        .zip(released)
        .map(|(sent, released)| Outcome { sent, released, ..Outcome::default() })
        .collect();
    for (id, at, line) in answers {
        let Some(id) = id else { continue };
        let e = &expected[sends[id].key];
        let cached = frame_cached(&line);
        let o = &mut outcomes[id];
        o.answered = Some(at);
        o.cached = cached;
        let mut body = Digest::new();
        body.add(
            line.strip_prefix(&format!("{{\"ok\":true,\"cached\":{cached},\"result\":"))
                .unwrap_or(&line)
                .as_bytes(),
        );
        o.body = body.value();
        if line != protocol::ok_frame(cached, &e.body) {
            o.problem = Some(format!(
                "{} (hierarchy={}): answer differs from the in-process run: {}",
                e.key.job,
                e.key.hierarchy,
                &line[..line.len().min(200)]
            ));
        }
    }
    for (o, s) in outcomes.iter_mut().zip(sends) {
        if o.answered.is_none() {
            o.problem =
                Some(format!("{}: no answer before the drain deadline", expected[s.key].key.job));
        }
    }
    outcomes
}

/// A fresh daemon with an empty store and `nproc` raw connections.
fn cold_daemon() -> (Daemon, Vec<TcpStream>) {
    let daemon = Daemon::start();
    let streams = (0..stats::nproc())
        .map(|_| {
            let s = TcpStream::connect(daemon.handle.local_addr()).expect("daemon accepts");
            s.set_nodelay(true).expect("nodelay");
            s.set_read_timeout(Some(Duration::from_millis(100))).expect("read timeout");
            s.set_write_timeout(Some(Duration::from_secs(5))).expect("write timeout");
            s
        })
        .collect();
    (daemon, streams)
}

/// The open-loop pass of the traced run: seeded arrivals against a
/// fresh daemon, each request timed from its scheduled send. Feeds the
/// miss, queue-wait, single-flight and generator-lateness layer metrics.
pub fn arrivals(seed: u64) -> ServeRun {
    let mut run = Run::default();
    let expected = reference(&all_keys(&[false, true]));
    let (mut daemon, streams) = cold_daemon();
    let sends = cold_schedule(&mut Rng::new(seed), expected.len());
    let last_at = sends.last().map_or(Duration::ZERO, |s| s.at);
    let outcomes = cold_pass(streams, &sends, &expected, Instant::now(), last_at + DRAIN_LIMIT);
    let counters = daemon.status(&mut run).since(daemon.fresh);
    daemon.stop();
    let reactor_shares = counters.busiest_reactor_share().into_iter().collect();
    let mut trace = ServeTrace { counters, reactor_shares, ..ServeTrace::default() };

    let mut leader_body = vec![None; expected.len()];
    for (s, o) in sends.iter().zip(&outcomes) {
        if !s.dup && o.problem.is_none() {
            leader_body[s.key] = Some(o.body);
        }
    }
    let (mut latencies, mut last_answer, mut events) = (Vec::new(), Duration::ZERO, Vec::new());
    let unanswered = outcomes.iter().filter(|o| o.answered.is_none()).count();
    for (s, o) in sends.iter().zip(outcomes) {
        let e = &expected[s.key];
        let mut problem = o.problem;
        if problem.is_none() && s.dup && leader_body[s.key].is_some_and(|b| b != o.body) {
            problem = Some(format!("{}: duplicate body differs from its leader's", e.key.job));
        }
        let ok = problem.is_none();
        run.op(problem);
        if let Some(released) = o.released {
            trace.lateness_ms.push(stats::ms(released.saturating_sub(s.at)));
        }
        let (Some(sent), Some(done)) = (o.sent, o.answered) else { continue };
        events.push((s.at, 1i64));
        events.push((done, -1));
        last_answer = last_answer.max(done);
        if ok {
            latencies.push(stats::ms(done.saturating_sub(s.at)));
            if !o.cached {
                let rtt = stats::ms(done.saturating_sub(sent));
                trace.miss_rtt_ms.push(rtt);
                trace.queue_wait_ms.push(rtt - stats::ms(e.compute));
            }
        }
        trace.frames.push(e.frame.clone());
    }
    events.sort();
    let (mut outstanding, mut backlog_peak) = (0i64, 0i64);
    for (_, d) in events {
        outstanding += d;
        backlog_peak = backlog_peak.max(outstanding);
    }
    let drain = last_answer.saturating_sub(last_at);
    if drain > DRAIN_LIMIT || unanswered > 0 {
        run.invalidate(format!(
            "backlog grew: last answer {:.2}s after the last scheduled send",
            drain.as_secs_f64()
        ));
    }
    trace.unique_keys = expected.len() as u64;
    run.note(format!(
        "open loop: {} requests, latency from scheduled send p50 {:.1} ms p90 {:.1} ms, \
         backlog peak {backlog_peak}, generator lateness p50 {:.3} ms max {:.3} ms, counters {:?}",
        latencies.len(),
        stats::median(&latencies),
        stats::quantile(&latencies, 0.9),
        stats::median(&trace.lateness_ms),
        trace.lateness_ms.iter().copied().fold(0.0, f64::max),
        trace.counters
    ));
    ServeRun { run, trace }
}
