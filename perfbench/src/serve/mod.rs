//! The daemon `gpa serve` builds —
//! `serve(Arc::new(Session::full()), ServerConfig { addr: "127.0.0.1:0", ..default })` —
//! driven in process over loopback by at most `nproc` connections: the
//! `serve_cold` workload, and the warm and open-loop passes of the traced
//! run. This module holds what they share: reference answers, the
//! daemon handle and its counters.

mod cold;
mod open;
mod warm;

pub use cold::cold;
pub use open::arrivals;
pub use warm::warm;

use crate::{stats, sweep, Run};
use gpa_core::{AdviceReport, AdviceRequest};
use gpa_json::Json;
use gpa_pipeline::{AnalysisJob, Session};
use gpa_serve::{
    protocol, serve, Request, ServeClient, ServerConfig, ServerHandle, WireOptions, MAX_REACTORS,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The advice schema every request negotiates: the structured v2 report.
const SCHEMA: u32 = 2;

/// A content address the daemon answers: one app-variant under one
/// memory model.
#[derive(Clone)]
pub struct Key {
    pub job: AnalysisJob,
    pub hierarchy: bool,
}

impl Key {
    fn frame(&self) -> String {
        let options =
            WireOptions { schema: SCHEMA, hierarchy: self.hierarchy, ..WireOptions::default() };
        Request::Analyze { job: self.job.clone(), options }.to_wire()
    }
}

/// What serving a key must produce, from an in-process run of the same
/// key, plus what that run cost.
pub struct Expected {
    pub key: Key,
    pub frame: String,
    pub body: String,
    pub cycles: u64,
    pub report: AdviceReport,
    pub compute: Duration,
}

/// The session a memory model is served with: `Session::full()`, or the
/// hierarchy twin built the way the daemon builds it.
pub fn session(hierarchy: bool) -> Session {
    let base = Session::full();
    if !hierarchy {
        return base;
    }
    Session::new(base.arch().clone().with_hierarchy(), base.sim_config().clone(), *base.params())
        .with_repeat(base.repeat())
}

/// In-process reference bodies for `keys`, on `nproc` threads.
pub fn reference(keys: &[Key]) -> Vec<Expected> {
    let (flat, hier) = (session(false), session(true));
    let request = AdviceRequest::default();
    stats::parallel_map(keys, stats::nproc(), |key| {
        let s = if key.hierarchy { &hier } else { &flat };
        let t = Instant::now();
        let out = s
            .run_one_request_repeat(&key.job, &request, 1)
            .unwrap_or_else(|e| panic!("in-process reference run failed: {e}"));
        let compute = t.elapsed();
        Expected {
            key: key.clone(),
            frame: key.frame(),
            body: protocol::analyze_body(&out, SCHEMA).compact(),
            cycles: out.cycles,
            report: out.report,
            compute,
        }
    })
}

/// Advice fidelity of the served flat-model bodies (every served body
/// is checked byte-equal to its reference, so the reference stands for
/// it).
fn fidelity(expected: &[Expected]) -> (f64, usize) {
    let rows = sweep::table3(|app, v| {
        expected
            .iter()
            .find(|e| !e.key.hierarchy && e.key.job.app == app && e.key.job.variant == v)
            .map(|e| (e.cycles, &e.report))
    });
    sweep::fidelity(&rows)
}

fn all_keys(hierarchy: &[bool]) -> Vec<Key> {
    hierarchy
        .iter()
        .flat_map(|&h| sweep::all_jobs().into_iter().map(move |job| Key { job, hierarchy: h }))
        .collect()
}

/// Daemon-side counters from `status`.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub queue_peak: u64,
    pub rejected: u64,
    pub byte_sheds: u64,
    pub errors: u64,
    /// Connections each reactor accepted (`status.reactors[].accepted`).
    pub accepted: [u64; MAX_REACTORS],
}

impl Counters {
    fn parse(frame: &str) -> Option<Counters> {
        let doc = Json::parse(frame).ok()?;
        let body = doc.get("result")?;
        let n = |a: &str, b: &str| body.get(a).and_then(|o| o.get(b)).and_then(|v| v.as_u64().ok());
        let mut accepted = [0; MAX_REACTORS];
        for (slot, r) in accepted.iter_mut().zip(body.get("reactors")?.as_array().ok()?) {
            *slot = r.get("accepted")?.as_u64().ok()?;
        }
        Some(Counters {
            hits: n("store", "hits")?,
            misses: n("store", "misses")?,
            evictions: n("store", "evictions")?,
            queue_peak: n("queue", "peak")?,
            rejected: n("queue", "rejected")?,
            byte_sheds: n("reactor", "byte_sheds")?,
            errors: n("errors", "protocol")? + n("errors", "analysis")?,
            accepted,
        })
    }

    /// The change over a run; `queue_peak` is the high-water mark.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            queue_peak: self.queue_peak,
            rejected: self.rejected - before.rejected,
            byte_sheds: self.byte_sheds - before.byte_sheds,
            errors: self.errors - before.errors,
            accepted: std::array::from_fn(|r| self.accepted[r] - before.accepted[r]),
        }
    }

    /// Two runs' changes together; `queue_peak` is the larger mark.
    pub fn add(self, other: Counters) -> Counters {
        Counters {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            queue_peak: self.queue_peak.max(other.queue_peak),
            rejected: self.rejected + other.rejected,
            byte_sheds: self.byte_sheds + other.byte_sheds,
            errors: self.errors + other.errors,
            accepted: std::array::from_fn(|r| self.accepted[r] + other.accepted[r]),
        }
    }

    /// The largest share of the connections accepted over a change that
    /// one reactor took: `1 / reactors` when the kernel's `SO_REUSEPORT`
    /// hash spread them evenly, 1 when they all landed on one reactor.
    pub fn busiest_reactor_share(&self) -> Option<f64> {
        let total: u64 = self.accepted.iter().sum();
        let busiest = self.accepted.iter().copied().max()?;
        (total > 0).then(|| busiest as f64 / total as f64)
    }
}

/// A daemon exactly as `gpa serve` builds it, on an ephemeral loopback
/// port, with one connection of the benchmark's own kept for `status`,
/// so the accept tallies between two snapshots count only the clients
/// connected in between.
struct Daemon {
    handle: ServerHandle,
    probe: ServeClient,
    /// Counters once the daemon has answered its first `status`.
    fresh: Counters,
}

impl Daemon {
    fn start() -> Daemon {
        let config = ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() };
        let handle = serve(Arc::new(Session::full()), config).expect("daemon binds loopback");
        let mut probe = ServeClient::connect(handle.local_addr()).expect("daemon accepts");
        let fresh = probe
            .request_line("{\"op\":\"status\"}")
            .ok()
            .and_then(Counters::parse)
            .expect("a fresh daemon answers status with every counter");
        Daemon { handle, probe, fresh }
    }

    fn connect(&self) -> ServeClient {
        ServeClient::connect(self.handle.local_addr()).expect("daemon accepts")
    }

    fn status(&mut self, run: &mut Run) -> Counters {
        let parsed = self.probe.request_line("{\"op\":\"status\"}").ok().and_then(Counters::parse);
        parsed.unwrap_or_else(|| {
            run.invalidate("status frame lacks a counter".to_string());
            Counters::default()
        })
    }

    fn stop(self) {
        drop(self.probe);
        self.handle.shutdown();
        self.handle.join();
    }
}

/// Client-side layer data a serve run hands to the traced run.
#[derive(Default)]
pub struct ServeTrace {
    pub hit_rtt_ms: Vec<f64>,
    pub upload_rtt_ms: Vec<f64>,
    pub miss_rtt_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub frames: Vec<String>,
    pub counters: Counters,
    /// Distinct content addresses sent.
    pub unique_keys: u64,
    /// Wall time per completed request, for the tracing overhead.
    pub per_request_s: f64,
    /// Per pass: [`Counters::busiest_reactor_share`] of its clients.
    pub reactor_shares: Vec<f64>,
    pub chunk_docs: Vec<Json>,
}

pub struct ServeRun {
    pub run: Run,
    pub trace: ServeTrace,
}

/// Frames a traced connection keeps for the parse-time measurement.
const FRAMES_KEPT: usize = 4096;

fn frame_cached(line: &str) -> bool {
    line.starts_with("{\"ok\":true,\"cached\":true,")
}

/// Share of keys, chosen by the seed, asked twice at once (the open-loop
/// pass and `serve_cold`). Every duplicate pins a second connection for the
/// leader's whole compute, so a duplicate for every key would leave the
/// two connections one long queue.
const DUP_SHARE: f64 = 0.25;
