//! The daemon: nonblocking reactor threads over one bounded worker
//! pool and one shared [`Session`] — optionally sharded across peers by
//! consistent hashing.
//!
//! ## Reactors
//!
//! Each reactor thread drives its share of the connections through an
//! epoll readiness loop (`reactor.rs`): every socket is a small state
//! machine (read-accumulate → parse frame → enqueue job → write-drain),
//! so thousands of idle connections cost zero threads and no stack.
//! Reactor 0 owns the one listener and deals accepted sockets to the
//! reactors in turn, itself included.
//! Workers hand completed frames back through the owning reactor's
//! completion list plus an eventfd waker. Every connection shares the
//! protocol logic (`handle_line`), the worker pool, the
//! content-addressed [`ReportStore`], and the admission rules.
//!
//! Both memory models run on the one [`Session`]: a request's
//! negotiated model is a per-call argument, so flat and hierarchy
//! requests share the compiled artifacts and memory snapshots (nothing
//! cached depends on the model) while their content addresses — and so
//! their store entries — stay distinct.
//!
//! ## Admission control
//!
//! Work is *rejected*, never silently buffered: a bounded job queue
//! (the existing backpressure frame), a daemon-wide pending-response
//! byte budget (reactor; shed with an error frame before parsing more),
//! and a per-connection write-buffer gate that stops reading from a
//! client that does not drain its responses. Idle connections past the
//! deadline are reaped by the reactor tick and counted in metrics.
//!
//! ## Cluster mode
//!
//! With `--peers` (or `--join`), every daemon keeps an epoch-versioned
//! [`Roster`] of members and derives the consistent-hash [`Ring`] from
//! it. `analyze`/`analyze_profile` requests whose content address
//! hashes to another member are forwarded there (marked `fwd`, stamped
//! with the sender's epoch) and the owner's response frame is relayed
//! **verbatim** — computed, cached, forwarded and replicated responses
//! are byte-identical. Owners replicate computed bodies to their ring
//! successor (`store_put`), and a restarted shard warms owned keys
//! from that successor (`store_get`) before recomputing.
//!
//! Membership is live: `join` adds a shard (the seed answers with the
//! bumped roster and every member catches up lazily — a forward whose
//! epoch is stale earns a [`stale_epoch_frame`] instead of a
//! wrong-owner answer, and a sender that is *ahead* triggers a
//! `ring_status` refresh), `leave` drains one (its entries are shipped
//! to their new owners before the roster shrinks). After any epoch
//! bump a background handoff pass re-ships entries the new ring maps
//! elsewhere. Every peer call rides the hardened path in `peer.rs`:
//! pooled connections, a circuit breaker per peer, a shared retry
//! budget, and deterministic fault injection (`GPA_FAULTS`).
//!
//! [`stale_epoch_frame`]: protocol::stale_epoch_frame
//!
//! Shutdown (the `shutdown` op, or [`ServerHandle::shutdown`]) is
//! cooperative: the flag flips, workers drain the queue, the reactor
//! flushes pending responses (bounded drain), and every thread joins.

use crate::client::{ClientError, Response};
use crate::faults::FaultPlan;
use crate::metrics::{Metrics, ReactorStats};
use crate::peer::PeerTable;
use crate::protocol::{self, PeerMeta, Request, WireOptions, DEFAULT_ADDR, MAX_REQUEST_BYTES};
use crate::reactor::{Event, Interest, Poller, Waker};
use crate::ring::{Ring, Roster};
use crate::store::ReportStore;
use gpa_json::Json;
use gpa_pipeline::{AnalysisJob, HierarchyConfig, MemModel, Session};
use gpa_sampling::KernelProfile;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on reactor threads: accept-path fan-out saturates long
/// before the worker pool does, and each reactor costs a thread, an
/// epoll instance and an eventfd.
pub const MAX_REACTORS: usize = 8;

/// Daemon configuration (CLI flags map onto this 1:1).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker-pool width.
    pub workers: usize,
    /// Reactor-thread count. `0` (the default) picks
    /// `available_parallelism`; either way the effective count is
    /// clamped to `1..=`[`MAX_REACTORS`]. `1` reproduces the
    /// single-reactor engine exactly — byte- and behavior-identical.
    pub reactors: usize,
    /// Bounded request-queue capacity (backpressure threshold).
    pub queue: usize,
    /// In-memory report-store capacity (entries, LRU-evicted).
    pub store_capacity: usize,
    /// Optional on-disk report persistence directory.
    pub persist_dir: Option<PathBuf>,
    /// Peer shard addresses (cluster mode when nonempty). The ring is
    /// built over `peers ∪ {advertise}`, sorted and deduplicated, so
    /// every shard handed the same roster agrees on ownership.
    pub peers: Vec<String>,
    /// The address *peers* reach this daemon at (defaults to the bound
    /// address, which is right whenever the bind address is routable).
    pub advertise: Option<String>,
    /// A running member to `join` at startup: the daemon announces
    /// itself there, adopts the answered roster, and enters the ring
    /// without any shard restarting. Implies cluster mode.
    pub join: Option<String>,
    /// Deterministic peer-path fault plan (chaos tests). `None` falls
    /// back to the `GPA_FAULTS` environment variable.
    pub faults: Option<FaultPlan>,
    /// Retry-budget capacity: the token bucket shared by every
    /// budgeted peer retry (forwards).
    pub peer_retry_budget: u32,
    /// How long a tripped peer breaker stays open before one call
    /// probes it half-open.
    pub peer_trip_cooldown: Duration,
    /// Idle deadline: connections with no traffic for this long are
    /// reaped (slow-client guard).
    pub idle_timeout: Duration,
    /// Daemon-wide budget on buffered-but-unwritten response bytes;
    /// past it, new jobs are shed with a backpressure frame.
    pub max_pending_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: DEFAULT_ADDR.to_string(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            reactors: 0,
            queue: 64,
            store_capacity: 128,
            persist_dir: None,
            peers: Vec::new(),
            advertise: None,
            join: None,
            faults: None,
            peer_retry_budget: 16,
            peer_trip_cooldown: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(60),
            max_pending_bytes: 64 * 1024 * 1024,
        }
    }
}

impl ServerConfig {
    /// A loopback config on an ephemeral port (tests, benches).
    pub fn ephemeral() -> Self {
        ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() }
    }

    /// The reactor-thread count this config actually runs: `0` resolves
    /// to `available_parallelism`, and everything is clamped to
    /// `1..=`[`MAX_REACTORS`].
    pub fn effective_reactors(&self) -> usize {
        let requested = if self.reactors == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.reactors
        };
        requested.clamp(1, MAX_REACTORS)
    }
}

/// One queued analysis request and where its frame goes back: the
/// owning reactor's completion list, keyed by the connection's token.
struct Work {
    request: Request,
    /// The reactor that owns the connection.
    reactor: usize,
    /// The connection's token within that reactor.
    token: u64,
}

/// Open chunked uploads are scoped to one connection: abandoned uploads
/// die with the socket instead of leaking daemon-global state, and ids
/// never collide across clients.
const MAX_UPLOADS_PER_CONNECTION: usize = 8;

/// Hard cap on chunks per upload. Each accepted chunk can add up to one
/// frame's worth of PC entries to the retained merge, so without a cap
/// a client could grow daemon memory one 8 MiB frame at a time.
const MAX_CHUNKS_PER_UPLOAD: u64 = 64;

/// Hard cap on distinct PCs in an upload's running merge — the actual
/// retained-memory bound (chunks with disjoint PC keys accumulate).
/// Far above any real program's instruction count.
const MAX_UPLOAD_PCS: usize = 1 << 18;

/// Daemon-global cap on PC entries retained across *all* open uploads
/// on *all* connections — the per-upload/per-connection caps bound one
/// client, this bounds the fleet (a swarm of connections each parking
/// maximal uploads would otherwise grow daemon memory without limit).
const MAX_TOTAL_UPLOAD_PCS: usize = 1 << 21;

/// Per-connection unwritten-response gate: past this, the reactor stops
/// *reading* from the connection until the client drains what it owes
/// (level-triggered interest modulation, not a disconnect).
const WRITE_GATE_BYTES: usize = 4 * 1024 * 1024;

/// Reactor poll tick: the idle sweep and shutdown checks run at least
/// this often even with no socket events.
const TICK_MS: i32 = 50;

/// How long the reactor keeps flushing in-flight responses after
/// shutdown triggers before force-closing (covers a worker finishing
/// the job whose client asked for the frame).
const DRAIN_DEADLINE: Duration = Duration::from_secs(6);

/// Bounded queue between the store's insert hook and the replicator
/// thread; when full, replications drop (and are counted) rather than
/// stall an analysis worker.
const REPLICATION_QUEUE: usize = 256;

/// Connect/read/write timeout for shard-to-shard traffic — shorter than
/// the client default so a dead peer costs one bounded stall, after
/// which the request falls back to local computation.
const PEER_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Bounded queue of background cluster chores (roster refreshes,
/// handoff passes); when full, a chore is dropped — the periodic
/// anti-entropy tick will get there eventually.
const CLUSTER_TASKS: usize = 32;

/// How often the cluster chore thread wakes with no work queued, to
/// probe tripped peers (half-open breaker checks double as roster
/// anti-entropy).
const CLUSTER_TICK: Duration = Duration::from_millis(250);

/// How often the chore thread heartbeats *healthy* roster members (a
/// `ring_status` exchange, so liveness checks double as anti-entropy).
/// A dead peer fails [`TRIP_THRESHOLD`](crate::peer) consecutive
/// heartbeats and trips its breaker in a few seconds — before the
/// first user call has to eat the failure.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(1000);

/// A forward that comes back `stale_epoch` re-routes on the adopted
/// roster; this bounds how many times one request will chase the ring
/// before computing locally (each hop means *we* were behind, which a
/// healthy cluster resolves in one adoption).
const MAX_FORWARD_HOPS: u32 = 3;

/// One open chunked upload: the target job, the advice options fixed at
/// `profile_begin`, and the running merge (never the individual
/// chunks).
struct Upload {
    job: AnalysisJob,
    options: WireOptions,
    merged: Option<KernelProfile>,
    chunks: u64,
}

/// Per-connection request state (chunked uploads in flight).
#[derive(Default)]
struct ConnState {
    uploads: HashMap<u64, Upload>,
    next_upload_id: u64,
}

/// Whether the connection keeps reading after a response.
enum Control {
    Continue,
    Shutdown,
}

/// The bookkeeping a dispatched `profile_end` carries: enough to
/// restore the upload on a backpressure rejection, or to release its
/// budget share once the worker answers.
struct UploadTicket {
    upload_id: u64,
    chunks: u64,
    retained_pcs: u64,
}

/// A request that needs a worker, plus its upload ticket if it was
/// synthesized by `profile_end`.
struct Pending {
    request: Request,
    ticket: Option<UploadTicket>,
}

/// What [`handle_line`] decided: answer now, or hand to the worker
/// pool (the reactor parks the connection until the frame comes back).
/// The variants differ in size by the whole `Request`, but the value
/// lives on the stack for one call only — boxing it would buy nothing
/// but an allocation per dispatched job.
#[allow(clippy::large_enum_variant)]
enum Handled {
    Reply(String, Control),
    Dispatch(Pending),
}

/// The roster and everything derived from it, swapped atomically under
/// one lock so no reader ever sees an epoch paired with another
/// epoch's ring.
struct ClusterState {
    roster: Roster,
    ring: Ring,
    /// This shard's replication target (`None` off the ring or in a
    /// 1-member ring).
    successor: Option<String>,
}

impl ClusterState {
    fn new(roster: Roster, self_addr: &str) -> ClusterState {
        let ring = roster.ring();
        let successor = ring.successor(self_addr).map(str::to_string);
        ClusterState { roster, ring, successor }
    }
}

/// Background cluster chores, run off the request path.
enum ClusterTask {
    /// Pull `ring_status` from this member and adopt anything newer.
    Refresh(String),
    /// Re-ship store entries the current ring maps to another owner.
    Handoff,
}

/// Shard-cluster state: the live roster/ring, this daemon's identity
/// on it, and the hardened peer path.
struct Cluster {
    self_addr: String,
    state: RwLock<ClusterState>,
    /// Pooled + breaker-guarded + budgeted peer connections.
    peers: PeerTable,
    /// Sender side of the replication queue; `None` once shutdown has
    /// begun (dropping it lets the replicator thread exit).
    repl_tx: Mutex<Option<mpsc::SyncSender<(String, String)>>>,
    /// Sender side of the chore queue; `None` once shutdown has begun.
    task_tx: Mutex<Option<mpsc::SyncSender<ClusterTask>>>,
    /// Set for good by a self-`leave`: the daemon keeps serving (and
    /// forwarding) but is no longer a ring member and re-joins nothing.
    draining: AtomicBool,
}

impl Cluster {
    fn epoch(&self) -> u64 {
        self.state.read().expect("cluster state").roster.epoch()
    }

    /// One consistent `(epoch, members)` snapshot of the roster.
    fn roster(&self) -> (u64, Vec<String>) {
        let state = self.state.read().expect("cluster state");
        (state.roster.epoch(), state.roster.members().to_vec())
    }

    fn successor(&self) -> Option<String> {
        self.state.read().expect("cluster state").successor.clone()
    }

    /// Whether the current ring maps `key` to this shard.
    fn owns(&self, key: &str) -> bool {
        let state = self.state.read().expect("cluster state");
        !state.ring.is_empty() && state.ring.owner(key) == self.self_addr
    }

    /// The anti-entropy stamp this shard puts on peer frames.
    fn meta(&self) -> PeerMeta {
        PeerMeta { epoch: Some(self.epoch()), from: Some(self.self_addr.clone()) }
    }

    /// Applies a roster mutation; on change, rebuilds the derived ring
    /// and successor under the same lock. Returns whether anything
    /// changed.
    fn mutate(&self, f: impl FnOnce(&mut Roster) -> bool) -> bool {
        let mut state = self.state.write().expect("cluster state");
        let changed = f(&mut state.roster);
        if changed {
            state.ring = state.roster.ring();
            state.successor = state.ring.successor(&self.self_addr).map(str::to_string);
        }
        changed
    }

    /// Adopts a peer's roster snapshot (newer epochs win), then puts
    /// this shard back on the roster if the snapshot dropped it — a
    /// member that is not draining never gossips itself out of the
    /// ring.
    fn adopt(&self, epoch: u64, members: &[String]) -> bool {
        let draining = self.draining.load(Ordering::Acquire);
        self.mutate(|roster| {
            let mut changed = roster.adopt(epoch, members);
            if !draining && !roster.contains(&self.self_addr) {
                changed |= roster.join(&self.self_addr);
            }
            changed
        })
    }

    /// Queues a background chore (best-effort: a full queue drops it,
    /// and the periodic tick catches up).
    fn schedule(&self, task: ClusterTask) {
        if let Some(tx) = self.task_tx.lock().expect("task tx").as_ref() {
            let _ = tx.try_send(task);
        }
    }

    /// One peer round trip over the hardened path: sends `request` to
    /// `addr` and returns the reply line, unparsed. Only transport
    /// failures count against the peer's breaker — callers read the
    /// line after the call has returned, so a malformed reply never
    /// does.
    fn ask(
        &self,
        metrics: &Metrics,
        addr: &str,
        retry: bool,
        request: &Request,
    ) -> Result<String, ClientError> {
        let wire = request.to_wire();
        self.peers.call(addr, metrics, retry, |client| {
            Ok(client.request_line(&wire)?.trim_end().to_string())
        })
    }

    /// [`Cluster::ask`], with the reply read as a daemon [`Response`]:
    /// the outer error is the transport's, the inner one says why the
    /// reply carries no result (a malformed or an error frame).
    fn ask_result(
        &self,
        metrics: &Metrics,
        addr: &str,
        retry: bool,
        request: &Request,
    ) -> Result<io::Result<Json>, ClientError> {
        let line = self.ask(metrics, addr, retry, request)?;
        Ok(Response::from_frame(&line).and_then(Response::into_result))
    }
}

/// One reactor thread's cross-thread surface: the handles workers (and
/// the acceptor on reactor 0) use to reach it. Everything thread-local
/// to the reactor — poller and connection table — lives on its stack
/// in [`reactor_loop`].
struct ReactorShared {
    /// Wakes the reactor out of `epoll_wait` (completions, handed-off
    /// sockets, shutdown).
    waker: Waker,
    /// Worker → reactor finished frames, drained every loop turn.
    completions: Mutex<Vec<(u64, String)>>,
    /// Sockets reactor 0 accepted for this reactor, waiting to be
    /// registered.
    incoming: Mutex<Vec<TcpStream>>,
    /// This reactor's counters: its `status.reactors` entry, and its
    /// share of the `status.reactor` roll-up.
    stats: ReactorStats,
    /// This reactor's share of the daemon's pending-byte budget: the
    /// admission gate checks the reactor's *own* backlog against its
    /// own share, so one reactor's slow-client pile-up cannot shed
    /// jobs arriving on the others.
    byte_budget: u64,
}

struct Shared {
    /// Serves both memory models: the hierarchy is a per-call argument.
    session: Arc<Session>,
    store: ReportStore,
    metrics: Metrics,
    queue: Mutex<VecDeque<Work>>,
    available: Condvar,
    queue_capacity: usize,
    workers: usize,
    persisted: bool,
    idle_timeout: Duration,
    cluster: Option<Cluster>,
    shutting_down: AtomicBool,
    local_addr: SocketAddr,
    /// The reactor threads' shared surfaces, indexed by reactor id.
    reactors: Vec<ReactorShared>,
    /// PC entries currently retained by open uploads, daemon-wide
    /// (see [`MAX_TOTAL_UPLOAD_PCS`]). Approximate accounting —
    /// relaxed atomics — is fine for a resource budget.
    upload_pcs: AtomicU64,
}

/// A running daemon: its address and the threads behind it.
///
/// Dropping the handle shuts the daemon down and joins every thread;
/// [`ServerHandle::join`] blocks until something else (normally a
/// client's `shutdown` op) stops it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    /// One thread per reactor.
    reactors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    replicator: Option<JoinHandle<()>>,
    cluster_worker: Option<JoinHandle<()>>,
}

/// Binds and starts the daemon.
///
/// # Errors
///
/// When the address cannot be bound or the persist directory cannot be
/// created.
pub fn serve(session: Arc<Session>, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    serve_on(session, listener, config)
}

/// Starts the daemon on an already-bound listener. This is how cluster
/// tests bootstrap: bind every shard first (learning the ephemeral
/// ports), then start each daemon with the full peer roster.
///
/// Reactor 0 owns the listener: it accepts every connection and
/// round-robins the sockets over all reactors, itself included.
///
/// # Errors
///
/// When the listener is unusable or the persist directory cannot be
/// created.
pub fn serve_on(
    session: Arc<Session>,
    listener: TcpListener,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let store = ReportStore::new(config.store_capacity, config.persist_dir.clone())?;
    let local_addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let n_reactors = config.effective_reactors();
    let mut reactor_shared = Vec::with_capacity(n_reactors);
    for _ in 0..n_reactors {
        reactor_shared.push(ReactorShared {
            waker: Waker::new()?,
            completions: Mutex::new(Vec::new()),
            incoming: Mutex::new(Vec::new()),
            stats: ReactorStats::new(),
            byte_budget: config.max_pending_bytes / n_reactors as u64,
        });
    }
    let cluster_mode =
        !config.peers.is_empty() || config.advertise.is_some() || config.join.is_some();
    let (cluster, repl_rx, task_rx) = if cluster_mode {
        let self_addr = config.advertise.clone().unwrap_or_else(|| local_addr.to_string());
        if config.peers.contains(&self_addr) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "--advertise {self_addr} duplicates a peer address; \
                     a shard cannot be its own peer"
                ),
            ));
        }
        if config.join.as_deref() == Some(self_addr.as_str()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("--join {self_addr} points at this daemon; join an existing member"),
            ));
        }
        let faults = match &config.faults {
            Some(plan) => Some(plan.clone()),
            None => {
                FaultPlan::from_env().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?
            }
        };
        let roster = Roster::new(config.peers.iter().cloned().chain([self_addr.clone()]));
        let state = ClusterState::new(roster, &self_addr);
        let (repl_tx, repl_rx) = mpsc::sync_channel(REPLICATION_QUEUE);
        let (task_tx, task_rx) = mpsc::sync_channel(CLUSTER_TASKS);
        let cluster = Cluster {
            self_addr,
            state: RwLock::new(state),
            peers: PeerTable::new(
                PEER_IO_TIMEOUT,
                config.peer_trip_cooldown,
                config.peer_retry_budget,
                faults,
            ),
            repl_tx: Mutex::new(Some(repl_tx)),
            task_tx: Mutex::new(Some(task_tx)),
            draining: AtomicBool::new(false),
        };
        (Some(cluster), Some(repl_rx), Some(task_rx))
    } else {
        (None, None, None)
    };
    let shared = Arc::new(Shared {
        session,
        store,
        metrics: Metrics::new(),
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        queue_capacity: config.queue.max(1),
        workers,
        persisted: config.persist_dir.is_some(),
        idle_timeout: config.idle_timeout,
        cluster,
        shutting_down: AtomicBool::new(false),
        local_addr,
        reactors: reactor_shared,
        upload_pcs: AtomicU64::new(0),
    });
    if shared.cluster.is_some() {
        // The store's insert hook queues owned computed bodies for the
        // replicator. Weak: the hook lives inside Shared's own store, so
        // a strong Arc here would be a reference cycle.
        let weak = Arc::downgrade(&shared);
        shared.store.set_insert_hook(move |key, body| {
            let Some(shared) = weak.upgrade() else { return };
            let Some(cluster) = &shared.cluster else { return };
            // Replicate only keys this shard owns: a body computed here
            // as a forwarding *fallback* belongs to another shard's
            // replica chain, not ours.
            if !cluster.owns(key) {
                return;
            }
            let tx = cluster.repl_tx.lock().expect("repl tx").clone();
            let Some(tx) = tx else { return };
            if tx.try_send((key.to_string(), body.to_string())).is_ok() {
                shared.metrics.replication_queued.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.metrics.note_replication_drop("replication queue full");
            }
        });
    }
    let replicator = match repl_rx {
        Some(rx) => {
            let sh = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("gpa-serve-replicator".to_string())
                    .spawn(move || replicator_loop(&sh, &rx))?,
            )
        }
        None => None,
    };
    let cluster_worker = match task_rx {
        Some(rx) => {
            let sh = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("gpa-serve-cluster".to_string())
                    .spawn(move || cluster_loop(&sh, &rx))?,
            )
        }
        None => None,
    };
    let worker_handles = (0..workers)
        .map(|i| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("gpa-serve-worker-{i}"))
                .spawn(move || worker_loop(&sh))
        })
        .collect::<io::Result<Vec<_>>>()?;
    // Reactor 0 owns the listener; the rest poll only their waker and
    // adopt handed-off sockets.
    let mut listener = Some(listener);
    let mut reactors = Vec::with_capacity(n_reactors);
    for idx in 0..n_reactors {
        let sh = Arc::clone(&shared);
        let listener = listener.take();
        reactors.push(
            std::thread::Builder::new()
                .name(format!("gpa-serve-reactor-{idx}"))
                .spawn(move || reactor_loop(&sh, idx, listener))?,
        );
    }
    let handle =
        ServerHandle { shared, reactors, workers: worker_handles, replicator, cluster_worker };
    if let Some(seed) = &config.join {
        // Announce to the seed and adopt its answer before reporting
        // the daemon up; a failed join tears everything down (the
        // operator pointed us at a dead or misaddressed member).
        join_cluster(&handle.shared, seed)?;
    }
    Ok(handle)
}

/// Announces this daemon to `seed` with a `join` op and adopts the
/// roster the seed answers with.
fn join_cluster(shared: &Shared, seed: &str) -> io::Result<()> {
    let cluster = shared.cluster.as_ref().expect("join implies cluster mode");
    let join = Request::Join { addr: cluster.self_addr.clone(), meta: cluster.meta() };
    let bad = |what: String| {
        io::Error::new(io::ErrorKind::InvalidData, format!("join via {seed}: {what}"))
    };
    let result = cluster
        .ask_result(&shared.metrics, seed, true, &join)
        .map_err(|e| {
            io::Error::new(io::ErrorKind::ConnectionRefused, format!("join via {seed}: {e}"))
        })?
        .map_err(|e| bad(e.to_string()))?;
    let (epoch, members) = protocol::parse_roster(&result)
        .ok_or_else(|| bad(format!("no roster result in {}", result.compact())))?;
    if cluster.adopt(epoch, &members) {
        shared.metrics.ring_refreshes.fetch_add(1, Ordering::Relaxed);
    } else {
        // The adoption tie-break refused an equal-epoch snapshot; merge
        // member-by-member instead so the rings still converge.
        cluster.mutate(|roster| {
            // Every member must be joined — `any` would short-circuit.
            let mut changed = false;
            for member in &members {
                changed |= roster.join(member);
            }
            changed
        });
    }
    cluster.schedule(ClusterTask::Handoff);
    Ok(())
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Initiates shutdown programmatically (idempotent; equivalent to a
    /// client's `shutdown` op).
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// How many reactor threads this daemon runs (always at least one).
    pub fn reactors(&self) -> usize {
        self.shared.reactors.len()
    }

    /// Blocks until the daemon has fully stopped: the reactors have
    /// exited, the queue is drained, and every thread is joined.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        for h in self.reactors.drain(..) {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.replicator.take() {
            let _ = h.join();
        }
        if let Some(h) = self.cluster_worker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        trigger_shutdown(&self.shared);
        self.join_inner();
    }
}

fn trigger_shutdown(shared: &Shared) {
    if shared.shutting_down.swap(true, Ordering::AcqRel) {
        return;
    }
    // Wake idle workers so they observe the flag (under the lock, so a
    // worker between its empty-check and its wait cannot miss it).
    {
        let _guard = shared.queue.lock().expect("queue lock");
        shared.available.notify_all();
    }
    // Let the replicator and the chore thread drain and exit: dropping
    // the only long-lived senders disconnects their channels.
    if let Some(cluster) = &shared.cluster {
        cluster.repl_tx.lock().expect("repl tx").take();
        cluster.task_tx.lock().expect("task tx").take();
    }
    // Pop every reactor out of epoll_wait.
    for reactor in &shared.reactors {
        reactor.waker.wake();
    }
}

// ---------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------

fn handle_line(shared: &Shared, state: &mut ConnState, line: &str) -> Handled {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(msg) => {
            shared.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return Handled::Reply(protocol::error_frame(&msg), Control::Continue);
        }
    };
    shared.metrics.count_op(&request);
    let request = match request {
        Request::Status => {
            return Handled::Reply(
                protocol::ok_frame(false, &status_body(shared).compact()),
                Control::Continue,
            )
        }
        Request::Shutdown => {
            return Handled::Reply(
                protocol::ok_frame(false, "{\"shutting_down\":true}"),
                Control::Shutdown,
            )
        }
        // Upload bookkeeping is answered inline; only the finalized
        // merge consumes a worker slot, as a synthesized
        // `analyze_profile` request.
        Request::ProfileBegin { job, options } => {
            return Handled::Reply(upload_begin(shared, state, job, options), Control::Continue)
        }
        Request::ProfileChunk { upload_id, profile } => {
            return Handled::Reply(
                upload_chunk(shared, state, upload_id, profile),
                Control::Continue,
            )
        }
        Request::ProfileAbort { upload_id } => {
            return Handled::Reply(upload_abort(shared, state, upload_id), Control::Continue)
        }
        Request::ProfileEnd { upload_id } => return upload_end(shared, state, upload_id),
        // Peer store ops touch only the *local* store tiers — no
        // forwarding, no computation — so they are answered inline.
        Request::StoreGet { key } => {
            let body = match shared.store.get(&key) {
                // Bodies are compact JSON; splice verbatim so the
                // replica a peer admits equals the owner's bytes.
                Some(body) => format!("{{\"found\":true,\"body\":{body}}}"),
                None => "{\"found\":false}".to_string(),
            };
            return Handled::Reply(protocol::ok_frame(false, &body), Control::Continue);
        }
        Request::StorePut { key, body, meta } => {
            shared.store.insert_replica(&key, &body);
            shared.metrics.replicated_in.fetch_add(1, Ordering::Relaxed);
            apply_peer_meta(shared, &meta);
            return Handled::Reply(
                protocol::ok_frame(false, "{\"stored\":true}"),
                Control::Continue,
            );
        }
        // Membership ops mutate only the roster (cheap, lock-bounded);
        // the handoff they may imply runs on the chore thread.
        Request::RingStatus => {
            return Handled::Reply(ring_status(shared), Control::Continue);
        }
        Request::Join { addr, meta } => {
            return Handled::Reply(peer_join(shared, &addr, &meta), Control::Continue);
        }
        Request::Leave { addr, meta } => {
            // Removing *another* member is a roster edit; draining
            // *this* shard ships the whole store and takes a worker.
            match leave_inline(shared, addr.as_deref(), &meta) {
                Some(frame) => return Handled::Reply(frame, Control::Continue),
                None => {
                    return Handled::Dispatch(Pending {
                        request: Request::Leave { addr, meta },
                        ticket: None,
                    })
                }
            }
        }
        other => other,
    };
    if let Request::Analyze { options, .. } | Request::AnalyzeProfile { options, .. } = &request {
        if options.forwarded {
            shared.metrics.forwards_in.fetch_add(1, Ordering::Relaxed);
            // A forwarded frame from a shard whose roster is behind
            // ours would be answered by the *wrong* owner; bounce it
            // with the current roster instead so the sender catches up
            // and re-routes.
            if let Some(stale) = check_peer_epoch(shared, &options.meta) {
                return Handled::Reply(stale, Control::Continue);
            }
        }
    }
    if let Some(key) = request.cache_key() {
        if let Some(body) = shared.store.get(&key) {
            return Handled::Reply(protocol::ok_frame(true, &body), Control::Continue);
        }
    }
    Handled::Dispatch(Pending { request, ticket: None })
}

// ---------------------------------------------------------------------
// Membership ops and epoch anti-entropy
// ---------------------------------------------------------------------

/// Reacts to the anti-entropy stamp on a peer frame: a sender that is
/// *ahead* of this roster knows members we do not, so schedule a
/// refresh from it. (Behind-sender handling is op-specific; see
/// [`check_peer_epoch`].)
fn apply_peer_meta(shared: &Shared, meta: &PeerMeta) {
    let Some(cluster) = &shared.cluster else { return };
    let Some(sender_epoch) = meta.epoch else { return };
    if sender_epoch > cluster.epoch() {
        if let Some(from) = &meta.from {
            if from != &cluster.self_addr {
                cluster.schedule(ClusterTask::Refresh(from.clone()));
            }
        }
    }
}

/// The stale-epoch gate for forwarded analyze frames: `Some(frame)`
/// when the sender's roster is behind ours and the request must bounce
/// instead of being answered by a non-owner.
fn check_peer_epoch(shared: &Shared, meta: &PeerMeta) -> Option<String> {
    let cluster = shared.cluster.as_ref()?;
    let sender_epoch = meta.epoch?;
    let (local_epoch, members) = cluster.roster();
    if sender_epoch < local_epoch {
        shared.metrics.stale_epoch_rejected.fetch_add(1, Ordering::Relaxed);
        return Some(protocol::stale_epoch_frame(local_epoch, &members));
    }
    apply_peer_meta(shared, meta);
    None
}

/// The `ring_status` reply: this shard's roster view.
fn ring_status(shared: &Shared) -> String {
    let Some(cluster) = &shared.cluster else {
        return protocol::error_frame("this daemon is not in cluster mode");
    };
    let state = cluster.state.read().expect("cluster state");
    let body = Json::object()
        .with("epoch", state.roster.epoch())
        .with("self", cluster.self_addr.clone())
        .with("members", state.roster.members().to_vec())
        .with("successor", state.successor.clone().map_or(Json::Null, Json::Str))
        .with("draining", cluster.draining.load(Ordering::Relaxed));
    protocol::ok_frame(false, &body.compact())
}

/// The `join` op: adds `addr` to the roster (bumping the epoch) and
/// answers with the post-join roster so the joiner can adopt it.
fn peer_join(shared: &Shared, addr: &str, meta: &PeerMeta) -> String {
    let Some(cluster) = &shared.cluster else {
        return protocol::error_frame("this daemon is not in cluster mode");
    };
    if !addr.contains(':') {
        return protocol::error_frame("`addr` must be a host:port address");
    }
    edit_roster(shared, cluster, meta, "added", |roster| roster.join(addr))
}

/// The roster-edit half of `leave`: removing a member that is not this
/// shard is answered inline; `None` means the target is this shard
/// itself (an explicit address or none at all), which drains on a
/// worker thread instead.
fn leave_inline(shared: &Shared, addr: Option<&str>, meta: &PeerMeta) -> Option<String> {
    let Some(cluster) = &shared.cluster else {
        return Some(protocol::error_frame("this daemon is not in cluster mode"));
    };
    let target = addr?;
    if target == cluster.self_addr {
        return None;
    }
    Some(edit_roster(shared, cluster, meta, "removed", |roster| roster.leave(target)))
}

/// A peer's roster edit (`join`, or `leave` of another member): applies
/// the sender's meta, edits the roster, and answers
/// `{<changed_field>, epoch, members}` with the post-edit roster. A
/// change schedules a background handoff, re-shipping the entries the
/// new ring maps elsewhere.
fn edit_roster(
    shared: &Shared,
    cluster: &Cluster,
    meta: &PeerMeta,
    changed_field: &str,
    edit: impl FnOnce(&mut Roster) -> bool,
) -> String {
    apply_peer_meta(shared, meta);
    let changed = cluster.mutate(edit);
    if changed {
        cluster.schedule(ClusterTask::Handoff);
    }
    let (epoch, members) = cluster.roster();
    let body =
        Json::object().with(changed_field, changed).with("epoch", epoch).with("members", members);
    protocol::ok_frame(false, &body.compact())
}

/// Drains this shard out of the ring: leave the roster, ship every
/// stored entry to its new owner, and announce the departure to the
/// remaining members. The daemon keeps serving afterwards — local
/// store, forwarding to the survivors — it just owns nothing.
fn drain_self(shared: &Shared) -> String {
    let Some(cluster) = &shared.cluster else {
        return protocol::error_frame("this daemon is not in cluster mode");
    };
    if cluster.draining.swap(true, Ordering::AcqRel) {
        return protocol::error_frame("this shard is already draining");
    }
    cluster.mutate(|roster| roster.leave(&cluster.self_addr));
    let (epoch, members) = cluster.roster();
    let mut handed_off = 0u64;
    let mut failed = 0u64;
    if !members.is_empty() {
        let ring = Ring::new(members.iter().cloned());
        for (key, body) in shared.store.entries() {
            if ship_entry(shared, cluster, ring.owner(&key), &key, &body) {
                handed_off += 1;
            } else {
                failed += 1;
            }
        }
    }
    // Best-effort departure announce; a member that misses it learns
    // from the next stale-epoch bounce or refresh.
    let announce = Request::Leave { addr: Some(cluster.self_addr.clone()), meta: cluster.meta() };
    for member in &members {
        let _ = cluster.ask(&shared.metrics, member, false, &announce);
    }
    let body = Json::object()
        .with("left", true)
        .with("epoch", epoch)
        .with("handed_off", handed_off)
        .with("handoff_failed", failed);
    protocol::ok_frame(false, &body.compact())
}

/// Ships one store entry to `owner` over the hardened peer path
/// (best-effort: no retry budget is spent on a handoff).
fn ship_entry(shared: &Shared, cluster: &Cluster, owner: &str, key: &str, body: &str) -> bool {
    let put =
        Request::StorePut { key: key.to_string(), body: body.to_string(), meta: cluster.meta() };
    let sent = cluster.ask(&shared.metrics, owner, false, &put).is_ok();
    let counter =
        if sent { &shared.metrics.handoff_shipped } else { &shared.metrics.handoff_failed };
    counter.fetch_add(1, Ordering::Relaxed);
    sent
}

/// `profile_begin`: opens an upload slot after validating (and warming)
/// the job's module artifacts, so a typo'd app or out-of-range variant
/// fails before the client streams megabytes of chunks.
fn upload_begin(
    shared: &Shared,
    state: &mut ConnState,
    job: AnalysisJob,
    options: WireOptions,
) -> String {
    if state.uploads.len() >= MAX_UPLOADS_PER_CONNECTION {
        return protocol::error_frame(&format!(
            "too many open uploads on this connection (limit {MAX_UPLOADS_PER_CONNECTION}); \
             finish one with profile_end first"
        ));
    }
    if let Err(e) = shared.session.artifacts(&job) {
        return protocol::job_error_frame(&e);
    }
    let id = state.next_upload_id;
    state.next_upload_id += 1;
    state.uploads.insert(id, Upload { job, options, merged: None, chunks: 0 });
    protocol::ok_frame(false, &format!("{{\"upload_id\":{id}}}"))
}

/// `profile_chunk`: folds one chunk into the upload's running merge.
/// Every rejection (chunk-count cap, per-upload or daemon-wide PC
/// budget, merge mismatch) leaves the upload in its previous, usable
/// state.
fn upload_chunk(
    shared: &Shared,
    state: &mut ConnState,
    upload_id: u64,
    profile: Box<KernelProfile>,
) -> String {
    let Some(upload) = state.uploads.get_mut(&upload_id) else {
        return protocol::error_frame(&format!("unknown upload id {upload_id}"));
    };
    if upload.chunks >= MAX_CHUNKS_PER_UPLOAD {
        return protocol::error_frame(&format!(
            "upload {upload_id} already holds {MAX_CHUNKS_PER_UPLOAD} chunks \
             (the limit); send profile_end"
        ));
    }
    // The documented bound is on *distinct* PCs in the running merge,
    // so count only this chunk's genuinely new keys (replay-style
    // chunks overlap heavily).
    let (merged_pcs, new_pcs) = match &upload.merged {
        None => (0, profile.pcs.len()),
        Some(acc) => {
            (acc.pcs.len(), profile.pcs.keys().filter(|pc| !acc.pcs.contains_key(pc)).count())
        }
    };
    if merged_pcs + new_pcs > MAX_UPLOAD_PCS {
        return protocol::error_frame(&format!(
            "upload {upload_id} would exceed {MAX_UPLOAD_PCS} merged PCs"
        ));
    }
    if shared.upload_pcs.load(Ordering::Relaxed) + new_pcs as u64 > MAX_TOTAL_UPLOAD_PCS as u64 {
        return protocol::error_frame(&format!(
            "daemon-wide upload budget of {MAX_TOTAL_UPLOAD_PCS} retained PCs exhausted; \
             retry later"
        ));
    }
    match &mut upload.merged {
        None => upload.merged = Some(*profile),
        Some(acc) => {
            if let Err(e) = acc.merge_in(&profile) {
                return protocol::error_frame(&format!("chunk does not merge: {e}"));
            }
        }
    }
    upload.chunks += 1;
    shared.upload_pcs.fetch_add(new_pcs as u64, Ordering::Relaxed);
    protocol::ok_frame(false, &format!("{{\"received\":{}}}", upload.chunks))
}

/// `profile_abort`: discards an open upload and releases its share of
/// the daemon-wide PC budget.
fn upload_abort(shared: &Shared, state: &mut ConnState, upload_id: u64) -> String {
    match state.uploads.remove(&upload_id) {
        Some(upload) => {
            release_upload_pcs(shared, &upload);
            protocol::ok_frame(false, "{\"aborted\":true}")
        }
        None => protocol::error_frame(&format!("unknown upload id {upload_id}")),
    }
}

/// `profile_end`: finalizes an upload as a synthesized
/// `analyze_profile` of the merged document — same body, same content
/// address, so chunked and whole submissions share one report-store
/// entry. A backpressure rejection restores the upload (the "retry
/// later" advice must be followable); success and cache hits release
/// its budget share.
fn upload_end(shared: &Shared, state: &mut ConnState, upload_id: u64) -> Handled {
    let Some(upload) = state.uploads.remove(&upload_id) else {
        return Handled::Reply(
            protocol::error_frame(&format!("unknown upload id {upload_id}")),
            Control::Continue,
        );
    };
    let Upload { job, options, merged, chunks } = upload;
    let Some(profile) = merged else {
        return Handled::Reply(
            protocol::error_frame(&format!(
                "upload {upload_id} has no chunks; send profile_chunk before profile_end"
            )),
            Control::Continue,
        );
    };
    let retained_pcs = profile.pcs.len() as u64;
    let canon = profile.to_doc().compact();
    let request = Request::AnalyzeProfile { job, profile: Box::new(profile), canon, options };
    if let Some(key) = request.cache_key() {
        if let Some(body) = shared.store.get(&key) {
            shared.upload_pcs.fetch_sub(retained_pcs, Ordering::Relaxed);
            return Handled::Reply(protocol::ok_frame(true, &body), Control::Continue);
        }
    }
    Handled::Dispatch(Pending {
        request,
        ticket: Some(UploadTicket { upload_id, chunks, retained_pcs }),
    })
}

/// Settles a dispatched `profile_end` once a worker answered (any
/// frame, success or analysis error: the upload is consumed).
fn settle_ticket(shared: &Shared, ticket: UploadTicket) {
    shared.upload_pcs.fetch_sub(ticket.retained_pcs, Ordering::Relaxed);
}

/// Re-opens a `profile_end` upload whose dispatch was rejected, so the
/// "retry later" backpressure advice stays followable.
fn restore_upload(state: &mut ConnState, ticket: UploadTicket, request: Request) {
    if let Request::AnalyzeProfile { job, profile, options, .. } = request {
        state.uploads.insert(
            ticket.upload_id,
            Upload { job, options, merged: Some(*profile), chunks: ticket.chunks },
        );
    }
}

/// Returns an upload's retained PCs to the daemon-wide budget.
fn release_upload_pcs(shared: &Shared, upload: &Upload) {
    if let Some(merged) = &upload.merged {
        shared.upload_pcs.fetch_sub(merged.pcs.len() as u64, Ordering::Relaxed);
    }
}

/// Admits a request to the worker queue on behalf of connection `token`
/// of reactor `reactor`, or rejects it (shutdown, byte budget, queue
/// capacity) handing the request back with the error frame to send. The
/// rejection is boxed: `Request` is large and the happy path should not
/// pay for its stack space.
fn try_enqueue(
    shared: &Shared,
    request: Request,
    reactor: usize,
    token: u64,
) -> Result<(), Box<(Request, String)>> {
    // The byte gate is per reactor: each reactor's own backlog is
    // checked against its own share of the daemon budget, so one
    // reactor's slow-client pile-up cannot shed jobs arriving on the
    // others. With one reactor the share *is* the whole budget.
    let rs = &shared.reactors[reactor];
    let pending_bytes = rs.stats.pending_bytes.load(Ordering::Relaxed);
    let budget = rs.byte_budget;
    if pending_bytes > budget {
        rs.stats.byte_sheds.fetch_add(1, Ordering::Relaxed);
        return Err(Box::new((
            request,
            protocol::error_frame(&format!(
                "response backlog over budget ({pending_bytes} pending bytes, budget {budget}); \
                 retry later"
            )),
        )));
    }
    let mut queue = shared.queue.lock().expect("queue lock");
    if shared.shutting_down.load(Ordering::Acquire) {
        return Err(Box::new((request, protocol::error_frame("server is shutting down"))));
    }
    if queue.len() >= shared.queue_capacity {
        drop(queue);
        shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        return Err(Box::new((
            request,
            protocol::error_frame(&format!(
                "request queue full ({} pending, capacity {}); retry later",
                shared.queue_capacity, shared.queue_capacity
            )),
        )));
    }
    queue.push_back(Work { request, reactor, token });
    shared.metrics.note_enqueued();
    shared.available.notify_one();
    Ok(())
}

fn worker_loop(shared: &Shared) {
    loop {
        let work = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(work) = queue.pop_front() {
                    shared.metrics.note_dequeued();
                    break Some(work);
                }
                if shared.shutting_down.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.available.wait(queue).expect("queue lock");
            }
        };
        let Some(work) = work else { break };
        let frame = execute(shared, work.request);
        let rs = &shared.reactors[work.reactor];
        rs.completions.lock().expect("completions").push((work.token, frame));
        rs.waker.wake();
    }
}

// ---------------------------------------------------------------------
// Execution and cluster routing (worker threads)
// ---------------------------------------------------------------------

/// What one forwarding attempt came back with.
enum Forwarded {
    /// The owner's frame, to be relayed verbatim.
    Frame(String),
    /// The owner said our roster was behind; we adopted its snapshot
    /// and the request should re-route on the new ring.
    StaleEpoch,
}

/// Runs one dequeued request: forwarded to its owning shard in cluster
/// mode, computed locally otherwise (or as the fallback when the owner
/// is unreachable).
fn execute(shared: &Shared, request: Request) -> String {
    for _hop in 0..MAX_FORWARD_HOPS {
        let Some(owner) = route_away(shared, &request) else { break };
        match forward(shared, &owner, &request) {
            Ok(Forwarded::Frame(frame)) => return frame,
            // Our roster was behind; it has been refreshed from the
            // bounce, so re-route (the key may even be ours now).
            Ok(Forwarded::StaleEpoch) => continue,
            Err(_) => {
                shared.metrics.forward_failures.fetch_add(1, Ordering::Relaxed);
                // The owner is unreachable: answer locally. Check the
                // store once more first — the frame may have landed as a
                // replica while we waited on the dead peer.
                if let Some(key) = request.cache_key() {
                    if let Some(body) = shared.store.get(&key) {
                        return protocol::ok_frame(true, &body);
                    }
                }
                break;
            }
        }
    }
    execute_local(shared, request)
}

/// The shard `request` must be relayed to: `Some(owner)` only in
/// cluster mode, for cacheable requests not already forwarded, whose
/// content address hashes to another member.
fn route_away(shared: &Shared, request: &Request) -> Option<String> {
    let cluster = shared.cluster.as_ref()?;
    if request.is_forwarded() {
        return None;
    }
    let key = request.cache_key()?;
    let state = cluster.state.read().expect("cluster state");
    if state.ring.is_empty() {
        return None;
    }
    let owner = state.ring.owner(&key);
    (owner != cluster.self_addr).then(|| owner.to_string())
}

/// Relays `request` to its owner and returns the owner's response frame
/// **verbatim** — the `cached` flag and the body bytes are the owner's,
/// so forwarded responses stay byte-identical to direct ones. The
/// forwarded frame carries this shard's epoch; a `stale_epoch` bounce
/// adopts the owner's roster instead of returning a frame.
fn forward(shared: &Shared, owner: &str, request: &Request) -> Result<Forwarded, ClientError> {
    let cluster = shared.cluster.as_ref().expect("routed with a cluster");
    shared.metrics.forwards_out.fetch_add(1, Ordering::Relaxed);
    let mut forwarded = request.to_forwarded();
    if let Request::Analyze { options, .. } | Request::AnalyzeProfile { options, .. } =
        &mut forwarded
    {
        options.meta = cluster.meta();
    }
    let line = cluster.ask(&shared.metrics, owner, true, &forwarded)?;
    if let Some((epoch, members)) = protocol::parse_stale_epoch(&line) {
        if cluster.adopt(epoch, &members) {
            shared.metrics.ring_refreshes.fetch_add(1, Ordering::Relaxed);
            cluster.schedule(ClusterTask::Handoff);
        }
        return Ok(Forwarded::StaleEpoch);
    }
    Ok(Forwarded::Frame(line))
}

/// Fetches an owned-but-missing key from the ring successor (which
/// holds this shard's replicas): how a restarted shard warms from its
/// neighbor instead of recomputing.
fn warm_from_successor(shared: &Shared, key: &str) -> Option<String> {
    let cluster = shared.cluster.as_ref()?;
    let successor = cluster.successor()?;
    if !cluster.owns(key) {
        return None;
    }
    let get = Request::StoreGet { key: key.to_string() };
    let result = cluster.ask_result(&shared.metrics, &successor, false, &get).ok()?.ok()?;
    if !result.get("found")?.as_bool().ok()? {
        return None;
    }
    // Compact re-rendering round-trips byte-identically (gpa-json's
    // proptests), so the warmed body equals the replica's bytes.
    let body = result.get("body")?.compact();
    shared.metrics.peer_warm_hits.fetch_add(1, Ordering::Relaxed);
    shared.store.insert_replica(key, &body);
    Some(body)
}

/// Computes one request on the shared session. Successful bodies go
/// into the report store under the request's content address (which
/// fires replication in cluster mode).
fn execute_local(shared: &Shared, request: Request) -> String {
    let key = request.cache_key();
    if let Some(key) = &key {
        if let Some(body) = warm_from_successor(shared, key) {
            return protocol::ok_frame(true, &body);
        }
    }
    let computed = match request {
        Request::Analyze { job, options } => {
            // The wire picks the model, never the session default: the
            // content address says flat unless the request said
            // hierarchy.
            let mem = if options.hierarchy {
                MemModel::Hierarchy(HierarchyConfig::default())
            } else {
                MemModel::Flat
            };
            shared
                .session
                .run_one_with_mem(&job, &options.request, options.repeat, &mem)
                .map(|outcome| protocol::analyze_body(&outcome, options.schema))
        }
        Request::AnalyzeProfile { job, profile, options, .. } => shared
            .session
            .advise_profile_request(&job, &profile, &options.request)
            .map(|report| protocol::profile_body(&job, &profile, &report, options.schema)),
        Request::Sleep { ms } => {
            std::thread::sleep(Duration::from_millis(ms));
            return protocol::ok_frame(false, &format!("{{\"slept_ms\":{ms}}}"));
        }
        // A self-`leave` ships the whole store; it is the one
        // membership op that takes a worker slot.
        Request::Leave { .. } => return drain_self(shared),
        // Handled inline by the connection layer; never queued.
        Request::Status
        | Request::Shutdown
        | Request::ProfileBegin { .. }
        | Request::ProfileChunk { .. }
        | Request::ProfileEnd { .. }
        | Request::ProfileAbort { .. }
        | Request::StoreGet { .. }
        | Request::StorePut { .. }
        | Request::Join { .. }
        | Request::RingStatus => {
            return protocol::error_frame("internal error: control op reached the worker pool")
        }
    };
    match computed {
        Ok(body) => {
            let key = key.expect("analyze requests are cacheable");
            protocol::ok_frame(false, &shared.store.insert(&key, &body.compact()))
        }
        Err(e) => {
            shared.metrics.analysis_errors.fetch_add(1, Ordering::Relaxed);
            protocol::job_error_frame(&e)
        }
    }
}

/// Ships queued `(key, body)` replications to the ring successor
/// (re-read per item: membership may have changed since the enqueue).
/// Runs on its own thread so a slow or dead successor never stalls an
/// analysis worker; exits when the sender side is dropped (shutdown).
fn replicator_loop(shared: &Shared, rx: &mpsc::Receiver<(String, String)>) {
    while let Ok((key, body)) = rx.recv() {
        shared.metrics.replication_queued.fetch_sub(1, Ordering::Relaxed);
        let Some(cluster) = &shared.cluster else { break };
        // No successor (solo ring, or drained off it): nothing to
        // replicate to — not a drop.
        let Some(successor) = cluster.successor() else { continue };
        let put = Request::StorePut { key, body, meta: cluster.meta() };
        match cluster.ask(&shared.metrics, &successor, false, &put) {
            Ok(_) => {
                shared.metrics.replicated_out.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                shared.metrics.note_replication_drop(&format!("to {successor}: {e}"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Cluster chores (background thread)
// ---------------------------------------------------------------------

/// The cluster chore thread: runs roster refreshes and handoff passes
/// off the request path; on idle ticks probes tripped peers (the probe
/// doubles as roster anti-entropy) and, every [`HEARTBEAT_INTERVAL`],
/// heartbeats the healthy members so a dead peer is discovered — and
/// its breaker tripped — before the first user call. Exits when the
/// task sender is dropped (shutdown).
fn cluster_loop(shared: &Shared, rx: &mpsc::Receiver<ClusterTask>) {
    let mut last_heartbeat = Instant::now();
    loop {
        if shared.shutting_down.load(Ordering::Acquire) {
            break;
        }
        match rx.recv_timeout(CLUSTER_TICK) {
            Ok(ClusterTask::Refresh(addr)) => refresh_from(shared, &addr),
            Ok(ClusterTask::Handoff) => run_handoff(shared),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                probe_tripped_peers(shared);
                if last_heartbeat.elapsed() >= HEARTBEAT_INTERVAL {
                    last_heartbeat = Instant::now();
                    heartbeat_members(shared);
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// One liveness pass over the roster: a cheap `ring_status` exchange
/// with every healthy member. Failures are recorded by the peer table
/// exactly like user-call failures, so three missed heartbeats trip the
/// member's breaker and user requests fail fast to local computation
/// instead of eating a connect timeout. Tripped members are skipped —
/// [`probe_tripped_peers`] owns them until the cooldown probe succeeds.
fn heartbeat_members(shared: &Shared) {
    let Some(cluster) = &shared.cluster else { return };
    let (_, members) = cluster.roster();
    for addr in members {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        if addr == cluster.self_addr || cluster.peers.is_tripped(&addr) {
            continue;
        }
        shared.metrics.heartbeats.fetch_add(1, Ordering::Relaxed);
        refresh_from(shared, &addr);
    }
}

/// Pulls `ring_status` from `addr` and adopts anything newer than the
/// local roster.
fn refresh_from(shared: &Shared, addr: &str) {
    let Some(cluster) = &shared.cluster else { return };
    if addr == cluster.self_addr {
        return;
    }
    let Ok(Ok(result)) = cluster.ask_result(&shared.metrics, addr, false, &Request::RingStatus)
    else {
        return;
    };
    let Some((epoch, members)) = protocol::parse_roster(&result) else { return };
    if cluster.adopt(epoch, &members) {
        shared.metrics.ring_refreshes.fetch_add(1, Ordering::Relaxed);
        cluster.schedule(ClusterTask::Handoff);
    }
}

/// One bounded handoff pass: scan the memory tier and re-ship every
/// entry the *current* ring maps to another owner. Runs after epoch
/// bumps; the scan is bounded by the store's capacity.
fn run_handoff(shared: &Shared) {
    let Some(cluster) = &shared.cluster else { return };
    if cluster.draining.load(Ordering::Acquire) {
        return;
    }
    let (_, members) = cluster.roster();
    if members.len() < 2 {
        return;
    }
    let ring = Ring::new(members);
    for (key, body) in shared.store.entries() {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        let owner = ring.owner(&key);
        if owner != cluster.self_addr {
            ship_entry(shared, cluster, owner, &key, &body);
        }
    }
}

/// Sends one `ring_status` probe to every peer whose breaker cooldown
/// has elapsed: the success closes the breaker, and the answered
/// roster catches this shard up on anything it missed while the peer
/// was unreachable.
fn probe_tripped_peers(shared: &Shared) {
    let Some(cluster) = &shared.cluster else { return };
    for addr in cluster.peers.ready_to_probe() {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        refresh_from(shared, &addr);
    }
}

// ---------------------------------------------------------------------
// Reactor engine
// ---------------------------------------------------------------------

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// One reactor-managed connection: its socket, both buffers, and the
/// state-machine flags.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// The reactor that owns this connection (indexes
    /// `Shared::reactors` for the per-reactor gauges and completion
    /// routing).
    reactor: usize,
    /// Accumulated request bytes not yet framed.
    read_buf: Vec<u8>,
    /// Queued response bytes; `written` of them are already on the
    /// socket.
    write_buf: Vec<u8>,
    written: usize,
    state: ConnState,
    /// One dispatched job in flight (per-connection serial execution:
    /// pipelined frames wait in `read_buf`, responses stay in order).
    busy: bool,
    /// `profile_end` bookkeeping for the in-flight job.
    ticket: Option<UploadTicket>,
    /// Stop reading; close once `write_buf` drains.
    close_after_drain: bool,
    /// This connection's `shutdown` op stops the daemon once its
    /// response frame is on the wire.
    shutdown_when_drained: bool,
    /// Last moment bytes arrived (the idle-sweep clock).
    last_activity: Instant,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn unwritten(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// Queues a response frame (newline-terminated) and grows the owning
    /// reactor's pending-byte gauge.
    fn push_frame(&mut self, shared: &Shared, frame: &str) {
        self.write_buf.extend_from_slice(frame.as_bytes());
        self.write_buf.push(b'\n');
        let queued = frame.len() as u64 + 1;
        shared.reactors[self.reactor].stats.pending_bytes.fetch_add(queued, Ordering::Relaxed);
    }

    /// The interest this connection's state wants registered: reads
    /// unless gated (over the write budget, closing, or an oversized
    /// pipeline backlog), writes while anything is queued.
    fn desired_interest(&self) -> Interest {
        let gated = self.unwritten() > WRITE_GATE_BYTES
            || self.close_after_drain
            || self.read_buf.len() as u64 >= MAX_REQUEST_BYTES;
        Interest { readable: !gated, writable: self.unwritten() > 0 }
    }
}

/// Why a connection is being torn down (metrics bookkeeping).
enum CloseReason {
    /// Peer closed, I/O error, or normal end-of-session.
    Gone,
    /// The idle sweep reaped it.
    Idle,
}

/// One reactor thread: owns its poller, its connection table, and
/// (reactor 0 only) the listener; loops on readiness
/// events, a completion list fed by workers, sockets handed off by the
/// acceptor, and a periodic tick for the idle sweep.
fn reactor_loop(shared: &Arc<Shared>, idx: usize, listener: Option<TcpListener>) {
    let rs = &shared.reactors[idx];
    let Ok(poller) = Poller::new() else { return };
    if let Some(listener) = &listener {
        if listener.set_nonblocking(true).is_err() {
            return;
        }
        if poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ).is_err() {
            return;
        }
    }
    if poller.add(rs.waker.fd(), WAKER_TOKEN, Interest::READ).is_err() {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    // Round-robin cursor (the acceptor rotates over every reactor,
    // itself included).
    let mut next_rr = idx;

    loop {
        events.clear();
        let _ = poller.wait(&mut events, TICK_MS);
        if shared.shutting_down.load(Ordering::Acquire) {
            break;
        }
        for &event in &events {
            match event.token {
                LISTENER_TOKEN if listener.is_some() => accept_ready(
                    shared,
                    idx,
                    &poller,
                    listener.as_ref().expect("listener event implies listener"),
                    &mut conns,
                    &mut next_token,
                    &mut next_rr,
                ),
                WAKER_TOKEN => rs.waker.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else { continue };
                    let mut dead = event.closed;
                    if !dead && event.readable {
                        dead = !read_ready(shared, conn, &mut scratch);
                    }
                    if !dead && event.writable {
                        dead = !flush_writes(shared, conn);
                    }
                    if dead {
                        close_conn(shared, &poller, &mut conns, token, CloseReason::Gone);
                    } else {
                        finish_turn(shared, &poller, &mut conns, token);
                    }
                }
            }
        }
        // Sockets the acceptor handed over, then worker completions —
        // both can land without their waker event being in this batch;
        // drain unconditionally (uncontended locks).
        adopt_incoming(shared, idx, &poller, &mut conns, &mut next_token);
        deliver_completions(shared, idx, &poller, &mut conns);
        sweep_idle(shared, &poller, &mut conns);
        if shared.shutting_down.load(Ordering::Acquire) {
            break;
        }
    }
    // Close the listener before draining: left registered it would
    // report every late connect as ready on each wait (the drain never
    // accepts), spinning the loop while the client hangs in the backlog.
    drop(listener);
    drain_and_close(shared, idx, &poller, &mut conns);
}

/// Accepts everything pending on the listener; each socket is either
/// registered here (when the rotation lands on the acceptor itself) or
/// handed to the rotation's next reactor through its `incoming` list
/// and waker.
fn accept_ready(
    shared: &Shared,
    idx: usize,
    poller: &Poller,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    next_rr: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                let target = *next_rr;
                *next_rr = (target + 1) % shared.reactors.len();
                if target != idx {
                    let peer = &shared.reactors[target];
                    peer.incoming.lock().expect("incoming").push(stream);
                    peer.waker.wake();
                    continue;
                }
                register_conn(shared, idx, poller, stream, conns, next_token);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Registers sockets handed off by the acceptor into this reactor's
/// connection table.
fn adopt_incoming(
    shared: &Shared,
    idx: usize,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    let streams = std::mem::take(&mut *shared.reactors[idx].incoming.lock().expect("incoming"));
    for stream in streams {
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        register_conn(shared, idx, poller, stream, conns, next_token);
    }
}

/// Puts one accepted socket under this reactor's wing: nonblocking, no
/// Nagle, registered read-ready, empty buffers.
fn register_conn(
    shared: &Shared,
    idx: usize,
    poller: &Poller,
    stream: TcpStream,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    // See ServeClient::connect: small frames, no Nagle.
    let _ = stream.set_nodelay(true);
    let token = *next_token;
    *next_token += 1;
    if poller.add(stream.as_raw_fd(), token, Interest::READ).is_err() {
        return;
    }
    let stats = &shared.reactors[idx].stats;
    stats.accepted.fetch_add(1, Ordering::Relaxed);
    stats.open_connections.fetch_add(1, Ordering::Relaxed);
    conns.insert(
        token,
        Conn {
            stream,
            token,
            reactor: idx,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            state: ConnState::default(),
            busy: false,
            ticket: None,
            close_after_drain: false,
            shutdown_when_drained: false,
            last_activity: Instant::now(),
            interest: Interest::READ,
        },
    );
}

/// Pulls everything readable into the connection's buffer. Returns
/// `false` when the connection is finished (EOF or a hard error).
fn read_ready(shared: &Shared, conn: &mut Conn, scratch: &mut [u8]) -> bool {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => return false,
            Ok(n) => {
                conn.read_buf.extend_from_slice(&scratch[..n]);
                conn.last_activity = Instant::now();
                if conn.read_buf.len() as u64 > MAX_REQUEST_BYTES && !conn.read_buf.contains(&b'\n')
                {
                    // One frame over the cap and no newline in sight:
                    // the stream cannot be resynced: answer, then hang
                    // up.
                    shared.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let frame = protocol::error_frame(&format!(
                        "request exceeds {MAX_REQUEST_BYTES} bytes; closing connection"
                    ));
                    conn.read_buf.clear();
                    conn.push_frame(shared, &frame);
                    conn.close_after_drain = true;
                    return true;
                }
                // A full-buffer read may have more behind it; a short
                // read means the socket is drained (level-triggered, so
                // a wrong guess only costs one more wakeup).
                if n < scratch.len() {
                    return true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Writes as much queued response as the socket accepts. Returns
/// `false` on a dead socket.
fn flush_writes(shared: &Shared, conn: &mut Conn) -> bool {
    while conn.written < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.written..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.written += n;
                shared.reactors[conn.reactor]
                    .stats
                    .pending_bytes
                    .fetch_sub(n as u64, Ordering::Relaxed);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if conn.written == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.written = 0;
    }
    true
}

/// Extracts and handles complete frames from the read buffer until the
/// connection goes busy (one in-flight job per connection keeps
/// responses in order) or runs out of full lines. Returns `false` when
/// the connection must close immediately (undecodable bytes).
fn process_frames(shared: &Shared, conn: &mut Conn) -> bool {
    while !conn.busy && !conn.close_after_drain {
        let Some(pos) = conn.read_buf.iter().position(|&b| b == b'\n') else { break };
        let line_bytes: Vec<u8> = conn.read_buf.drain(..=pos).collect();
        let Ok(line) = std::str::from_utf8(&line_bytes) else {
            // A non-UTF-8 frame ends the session.
            shared.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
            conn.push_frame(shared, &protocol::error_frame("malformed request: not UTF-8"));
            conn.close_after_drain = true;
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        match handle_line(shared, &mut conn.state, line) {
            Handled::Reply(frame, control) => {
                conn.push_frame(shared, &frame);
                if matches!(control, Control::Shutdown) {
                    conn.close_after_drain = true;
                    conn.shutdown_when_drained = true;
                    break;
                }
            }
            Handled::Dispatch(pending) => {
                match try_enqueue(shared, pending.request, conn.reactor, conn.token) {
                    Ok(()) => {
                        conn.busy = true;
                        conn.ticket = pending.ticket;
                    }
                    Err(rejection) => {
                        let (request, frame) = *rejection;
                        if let Some(ticket) = pending.ticket {
                            restore_upload(&mut conn.state, ticket, request);
                        }
                        conn.push_frame(shared, &frame);
                    }
                }
            }
        }
    }
    true
}

/// One connection's end-of-event bookkeeping: process buffered frames,
/// flush opportunistically (most responses fit the socket buffer, so
/// waiting for EPOLLOUT would add a poll round trip), then settle the
/// close-or-rearm decision.
fn finish_turn(shared: &Shared, poller: &Poller, conns: &mut HashMap<u64, Conn>, token: u64) {
    let Some(conn) = conns.get_mut(&token) else { return };
    if !process_frames(shared, conn) || !flush_writes(shared, conn) {
        close_conn(shared, poller, conns, token, CloseReason::Gone);
        return;
    }
    if conn.close_after_drain && conn.unwritten() == 0 {
        if conn.shutdown_when_drained {
            trigger_shutdown(shared);
        }
        close_conn(shared, poller, conns, token, CloseReason::Gone);
        return;
    }
    let desired = conn.desired_interest();
    if desired != conn.interest {
        if poller.modify(conn.stream.as_raw_fd(), token, desired).is_err() {
            close_conn(shared, poller, conns, token, CloseReason::Gone);
            return;
        }
        conn.interest = desired;
    }
}

/// Hands worker completions to their connections and re-runs their
/// frame pumps (pipelined requests may be waiting).
fn deliver_completions(
    shared: &Shared,
    idx: usize,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
) {
    let completed =
        std::mem::take(&mut *shared.reactors[idx].completions.lock().expect("completions"));
    for (token, frame) in completed {
        let Some(conn) = conns.get_mut(&token) else {
            // The client left while its job ran; the body (if cacheable)
            // is in the store regardless.
            continue;
        };
        conn.busy = false;
        if let Some(ticket) = conn.ticket.take() {
            settle_ticket(shared, ticket);
        }
        conn.push_frame(shared, &frame);
        finish_turn(shared, poller, conns, token);
    }
}

/// Reaps connections idle past the deadline (not waiting on a worker,
/// nothing left to write): the slow-client guard that keeps half-open
/// sockets from accumulating forever.
fn sweep_idle(shared: &Shared, poller: &Poller, conns: &mut HashMap<u64, Conn>) {
    let now = Instant::now();
    let stale: Vec<u64> = conns
        .values()
        .filter(|c| {
            !c.busy
                && c.unwritten() == 0
                && now.duration_since(c.last_activity) > shared.idle_timeout
        })
        .map(|c| c.token)
        .collect();
    for token in stale {
        close_conn(shared, poller, conns, token, CloseReason::Idle);
    }
}

fn close_conn(
    shared: &Shared,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    reason: CloseReason,
) {
    let Some(mut conn) = conns.remove(&token) else { return };
    let _ = poller.delete(conn.stream.as_raw_fd());
    for upload in conn.state.uploads.values() {
        release_upload_pcs(shared, upload);
    }
    if let Some(ticket) = conn.ticket.take() {
        // The in-flight job will still finish and (if cacheable) land in
        // the store; its upload budget share is released here since no
        // completion handler will.
        settle_ticket(shared, ticket);
    }
    let stats = &shared.reactors[conn.reactor].stats;
    stats.pending_bytes.fetch_sub(conn.unwritten() as u64, Ordering::Relaxed);
    stats.open_connections.fetch_sub(1, Ordering::Relaxed);
    if matches!(reason, CloseReason::Idle) {
        stats.idle_reaped.fetch_add(1, Ordering::Relaxed);
    }
    // Dropping the connection closes the fd and frees its buffers.
}

/// The shutdown drain: stop accepting, keep delivering completions and
/// flushing responses until every connection is settled (or the
/// deadline passes), then close everything. This is what gets the
/// `shutdown` op's own response onto the wire, and lets in-flight jobs
/// answer their clients.
fn drain_and_close(shared: &Shared, idx: usize, poller: &Poller, conns: &mut HashMap<u64, Conn>) {
    let deadline = Instant::now() + DRAIN_DEADLINE;
    let mut events: Vec<Event> = Vec::new();
    loop {
        deliver_completions(shared, idx, poller, conns);
        // Connections with nothing owed can go now; reads are over.
        let settled: Vec<u64> =
            conns.values().filter(|c| !c.busy && c.unwritten() == 0).map(|c| c.token).collect();
        for token in settled {
            if let Some(c) = conns.get(&token) {
                if c.shutdown_when_drained {
                    trigger_shutdown(shared);
                }
            }
            close_conn(shared, poller, conns, token, CloseReason::Gone);
        }
        if conns.is_empty() || Instant::now() >= deadline {
            break;
        }
        events.clear();
        let _ = poller.wait(&mut events, TICK_MS);
        shared.reactors[idx].waker.drain();
        for event in &events {
            if event.token < FIRST_CONN_TOKEN {
                continue;
            }
            if event.closed {
                close_conn(shared, poller, conns, event.token, CloseReason::Gone);
            } else if event.writable {
                if let Some(conn) = conns.get_mut(&event.token) {
                    if !flush_writes(shared, conn) {
                        close_conn(shared, poller, conns, event.token, CloseReason::Gone);
                    }
                }
            }
        }
        // Freshly queued frames may flush without an EPOLLOUT edge.
        let tokens: Vec<u64> = conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = conns.get_mut(&token) {
                if conn.unwritten() > 0 {
                    let desired = Interest { readable: false, writable: true };
                    if desired != conn.interest
                        && poller.modify(conn.stream.as_raw_fd(), token, desired).is_ok()
                    {
                        conn.interest = desired;
                    }
                    if !flush_writes(shared, conn) {
                        close_conn(shared, poller, conns, token, CloseReason::Gone);
                    }
                }
            }
        }
    }
    // Force-close whatever is left (deadline expired).
    let tokens: Vec<u64> = conns.keys().copied().collect();
    for token in tokens {
        close_conn(shared, poller, conns, token, CloseReason::Gone);
    }
}

// ---------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------

fn status_body(shared: &Shared) -> Json {
    let m = &shared.metrics;
    let st = shared.store.stats();
    // The daemon-wide connection gauges are the sums of the reactors'.
    let total = |gauge: fn(&ReactorStats) -> &AtomicU64| -> u64 {
        shared.reactors.iter().map(|r| gauge(&r.stats).load(Ordering::Relaxed)).sum()
    };
    let mut body = Json::object()
        .with("uptime_ms", m.uptime_ms())
        .with("engine", "reactor")
        .with("workers", shared.workers)
        .with(
            "schemas",
            Json::Arr(
                protocol::SCHEMA_VERSIONS.iter().map(|&v| Json::from(u64::from(v))).collect(),
            ),
        )
        .with("connections", total(|s| &s.accepted))
        .with("ops", m.ops_json())
        .with(
            "reactor",
            Json::object()
                .with("open_connections", total(|s| &s.open_connections))
                .with("pending_jobs", m.queue_depth.load(Ordering::Relaxed))
                .with("pending_bytes", total(|s| &s.pending_bytes))
                .with("byte_sheds", total(|s| &s.byte_sheds))
                .with("idle_reaped", total(|s| &s.idle_reaped))
                .with("count", shared.reactors.len()),
        )
        .with(
            "reactors",
            Json::Arr(shared.reactors.iter().map(|r| r.stats.json(r.byte_budget)).collect()),
        )
        .with(
            "queue",
            Json::object()
                .with("depth", m.queue_depth.load(Ordering::Relaxed))
                .with("peak", m.queue_peak.load(Ordering::Relaxed))
                .with("capacity", shared.queue_capacity)
                .with("rejected", m.rejected.load(Ordering::Relaxed)),
        )
        .with(
            "store",
            Json::object()
                .with("entries", st.entries)
                .with("capacity", st.capacity)
                .with("hits", st.hits)
                .with("disk_hits", st.disk_hits)
                .with("misses", st.misses)
                .with("evictions", st.evictions)
                .with("persist_errors", st.persist_errors)
                .with("persisted", shared.persisted),
        )
        .with(
            "errors",
            Json::object()
                .with("protocol", m.protocol_errors.load(Ordering::Relaxed))
                .with("analysis", m.analysis_errors.load(Ordering::Relaxed)),
        );
    if let Some(cluster) = &shared.cluster {
        let (epoch, members, successor) = {
            let state = cluster.state.read().expect("cluster state");
            (state.roster.epoch(), state.roster.members().to_vec(), state.successor.clone())
        };
        let last_error =
            shared.metrics.last_replication_error.lock().expect("replication error lock").clone();
        body = body.with(
            "cluster",
            m.cluster_json()
                .with("self", cluster.self_addr.clone())
                .with("epoch", epoch)
                .with("draining", cluster.draining.load(Ordering::Relaxed))
                .with("members", members)
                .with("successor", successor.map_or(Json::Null, Json::Str))
                .with(
                    "membership",
                    Json::object()
                        .with("stale_rejected", m.stale_epoch_rejected.load(Ordering::Relaxed))
                        .with("refreshes", m.ring_refreshes.load(Ordering::Relaxed))
                        .with("heartbeats", m.heartbeats.load(Ordering::Relaxed)),
                )
                .with(
                    "replication",
                    Json::object()
                        .with("queued", m.replication_queued.load(Ordering::Relaxed))
                        .with("shipped", m.replicated_out.load(Ordering::Relaxed))
                        .with("dropped", m.replication_dropped.load(Ordering::Relaxed))
                        .with("last_error", last_error.map_or(Json::Null, Json::Str)),
                )
                .with(
                    "handoff",
                    Json::object()
                        .with("shipped", m.handoff_shipped.load(Ordering::Relaxed))
                        .with("failed", m.handoff_failed.load(Ordering::Relaxed)),
                )
                .with("retry", cluster.peers.retry_json(m))
                .with(
                    "breaker",
                    Json::object()
                        .with("trips", m.breaker_trips.load(Ordering::Relaxed))
                        .with("fast_fails", m.breaker_fast_fails.load(Ordering::Relaxed))
                        .with("probes", m.peer_probes.load(Ordering::Relaxed))
                        .with("stale_retries", m.stale_retries.load(Ordering::Relaxed)),
                )
                .with("peers", cluster.peers.status_json())
                .with(
                    "faults",
                    match cluster.peers.faults() {
                        Some(plan) => {
                            Json::object().with("active", true).with("fired", plan.fired())
                        }
                        None => Json::object().with("active", false).with("fired", 0u64),
                    },
                ),
        );
    }
    body
}
