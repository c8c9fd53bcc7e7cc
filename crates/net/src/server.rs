//! The TCP listener: acceptor thread + supervised shard loops.
//!
//! [`Server`] binds a listener, spins up `shards` event-loop threads
//! (one reactor each), and runs an acceptor thread that deals new
//! connections to shards round-robin. [`NetConfig::wire`] picks the
//! codec every shard speaks: line JSON or `icommwire v1` frames. The
//! acceptor enforces the global connection cap *before* a connection
//! reaches a shard: an over-cap client gets a single error reply and an
//! immediate close, so a saturated server degrades with explicit
//! refusals instead of accept-queue timeouts.
//!
//! Every shard thread is a **supervisor**: the event loop runs under
//! `catch_unwind`, and a panic tears down only that shard's
//! connections (their sockets close with a clean EOF) while the
//! supervisor reconciles the global connection count, waits out an
//! exponential backoff, builds a fresh [`Reactor`], and restarts the
//! loop — up to the [`icomm_resilience::RestartPolicy`] budget. The
//! acceptor reads the shared [`HealthBoard`] and routes new
//! connections around dead shards; clients observe the supervision
//! tree through the `Health` opcode.
//!
//! Several listeners, one per codec, can serve the same
//! [`TuningService`] at once, which is how the parity and throughput
//! harnesses compare the two wires.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Sender};
use icomm_resilience::{RestartPolicy, Supervisor};
use icomm_serve::TuningService;

use crate::codec::{Codec, LineCodec, Reply, WireMode};
use crate::reactor::{Reactor, Waker};
use crate::shard::{Shard, ShardContext};
use crate::supervise::{HealthBoard, HealthReport, PanicInjector, PanicPlan};
use crate::wire::FrameDecoder;

/// A shard's current waker, swapped by the supervisor on every restart
/// (each restart builds a fresh reactor with a fresh eventfd). Writers
/// recover a poisoned lock: the slot only ever holds a cloneable
/// handle, never partially-updated state.
type WakerSlot = Arc<Mutex<Waker>>;

fn set_waker(slot: &WakerSlot, waker: Waker) {
    match slot.lock() {
        Ok(mut guard) => *guard = waker,
        Err(poisoned) => *poisoned.into_inner() = waker,
    }
}

fn wake_slot(slot: &WakerSlot) {
    let waker = match slot.lock() {
        Ok(guard) => guard.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    };
    let _ = waker.wake();
}

/// Configuration for the serving plane.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// The codec every connection speaks. Defaults to `icommwire v1`.
    pub wire: WireMode,
    /// Number of shard event loops. Defaults to available parallelism.
    pub shards: usize,
    /// Global cap on concurrently open connections across all shards.
    pub max_connections: usize,
    /// How long a connection may wait on its peer — stalled
    /// mid-request, or leaving its replies unread — before it is
    /// dropped. `None` disables the deadline; idle connections with
    /// nothing buffered and nothing to write are never reaped either way.
    pub read_deadline: Option<Duration>,
    /// Restart budget and backoff for crashed shard event loops.
    pub restart: RestartPolicy,
    /// Chaos hook: inject deterministic shard panics (see
    /// [`PanicPlan`]). `None` in production.
    pub panic_plan: Option<PanicPlan>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            wire: WireMode::Binary,
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            max_connections: 16_384,
            read_deadline: Some(Duration::from_secs(30)),
            restart: RestartPolicy::default(),
            panic_plan: None,
        }
    }
}

impl NetConfig {
    /// Sets the codec.
    pub fn with_wire(mut self, wire: WireMode) -> Self {
        self.wire = wire;
        self
    }

    /// Sets the shard count (clamped to at least 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the global connection cap.
    pub fn with_max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap;
        self
    }

    /// Sets the stall deadline (`None` disables it).
    pub fn with_read_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.read_deadline = deadline;
        self
    }

    /// Sets the shard restart budget and backoff.
    pub fn with_restart(mut self, restart: RestartPolicy) -> Self {
        self.restart = restart;
        self
    }

    /// Arms deterministic shard-panic injection (chaos testing only).
    pub fn with_panic_plan(mut self, plan: PanicPlan) -> Self {
        self.panic_plan = Some(plan);
        self
    }
}

/// Running server: acceptor + shard threads over a shared
/// [`TuningService`].
pub struct Server {
    service: Arc<TuningService>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wakers: Vec<WakerSlot>,
    acceptor: Option<JoinHandle<()>>,
    shard_handles: Vec<JoinHandle<()>>,
    open_conns: Arc<AtomicUsize>,
    health: Arc<HealthBoard>,
    injector: Option<Arc<PanicInjector>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("shards", &self.shard_handles.len())
            .field("open_conns", &self.open_conns.load(Ordering::Relaxed))
            .finish()
    }
}

impl Server {
    /// Starts with default [`NetConfig`] on `addr` (port 0 picks a free
    /// port; see [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Returns a message when the listener cannot bind or a reactor
    /// cannot be created.
    pub fn start(service: Arc<TuningService>, addr: &str) -> Result<Server, String> {
        Self::start_with(service, addr, NetConfig::default())
    }

    /// Starts the acceptor and shard threads with an explicit config.
    ///
    /// # Errors
    ///
    /// Returns a message when the listener cannot bind or a reactor
    /// cannot be created.
    pub fn start_with(
        service: Arc<TuningService>,
        addr: &str,
        config: NetConfig,
    ) -> Result<Server, String> {
        match config.wire {
            WireMode::Json => Self::launch::<LineCodec>(service, addr, config),
            WireMode::Binary => Self::launch::<FrameDecoder>(service, addr, config),
        }
    }

    fn launch<C: Codec>(
        service: Arc<TuningService>,
        addr: &str,
        config: NetConfig,
    ) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let open_conns = Arc::new(AtomicUsize::new(0));
        let shards = config.shards.max(1);
        let health = Arc::new(HealthBoard::new(shards));
        let injector = config
            .panic_plan
            .map(|plan| Arc::new(PanicInjector::new(plan)));

        let mut wakers: Vec<WakerSlot> = Vec::new();
        let mut senders: Vec<Sender<TcpStream>> = Vec::new();
        let mut shard_handles = Vec::new();
        for shard_id in 0..shards {
            // The first reactor is built on the caller's thread so a
            // resource failure surfaces as a start error; restarts
            // build their own inside the supervisor.
            let reactor = Reactor::new().map_err(|e| format!("reactor: {e}"))?;
            let waker_slot: WakerSlot = Arc::new(Mutex::new(reactor.waker()));
            wakers.push(Arc::clone(&waker_slot));
            // Marked alive before the acceptor exists, so an early
            // connection is never refused by a not-yet-started shard.
            health.cell(shard_id).set_alive(true);
            let (tx, rx) = unbounded();
            senders.push(tx);
            let supervised = SupervisedShard {
                ctx: ShardContext {
                    service: Arc::clone(&service),
                    incoming: rx,
                    shutdown: Arc::clone(&shutdown),
                    open_conns: Arc::clone(&open_conns),
                    read_deadline: config.read_deadline,
                    health: Arc::clone(&health),
                    shard_id,
                    injector: injector.clone(),
                },
                waker_slot,
                restart: config.restart.clone(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("icomm-net-shard-{shard_id}"))
                .spawn(move || supervised.run::<C>(reactor))
                .map_err(|e| format!("spawn shard: {e}"))?;
            shard_handles.push(handle);
        }

        let acceptor = {
            let state = AcceptLoop {
                listener,
                senders,
                wakers: wakers.clone(),
                shutdown: Arc::clone(&shutdown),
                open_conns: Arc::clone(&open_conns),
                metrics: Arc::clone(service.metrics_handle()),
                health: Arc::clone(&health),
                max_connections: config.max_connections,
                at_capacity: C::encode(&Reply::Error("server at connection capacity")),
                no_shards: C::encode(&Reply::Error("no shard event loops available")),
            };
            std::thread::Builder::new()
                .name("icomm-net-accept".to_string())
                .spawn(move || state.run())
                .map_err(|e| format!("spawn acceptor: {e}"))?
        };

        Ok(Server {
            service,
            local_addr,
            shutdown,
            wakers,
            acceptor: Some(acceptor),
            shard_handles,
            open_conns,
            health,
            injector,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service this listener fronts.
    pub fn service(&self) -> &Arc<TuningService> {
        &self.service
    }

    /// Connections currently open across all shards.
    pub fn open_connections(&self) -> usize {
        self.open_conns.load(Ordering::Relaxed)
    }

    /// Point-in-time supervision-tree health (what the `Health` opcode
    /// reports on the wire).
    pub fn health(&self) -> HealthReport {
        self.health.report()
    }

    /// Injected panics fired so far (0 without a [`PanicPlan`]).
    pub fn injected_panics(&self) -> u64 {
        self.injector.as_ref().map_or(0, |i| i.fired())
    }

    /// Stops the acceptor and every shard, dropping open connections,
    /// and hands the service back (e.g. to drain and persist it via
    /// [`TuningService::shutdown`]).
    pub fn stop(mut self) -> Arc<TuningService> {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection; the flag is
        // checked before the connection would be served.
        let _ = TcpStream::connect(self.local_addr);
        for slot in &self.wakers {
            wake_slot(slot);
        }
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for handle in self.shard_handles.drain(..) {
            let _ = handle.join();
        }
        self.service
    }
}

/// Everything one supervised shard thread owns.
struct SupervisedShard {
    ctx: ShardContext,
    waker_slot: WakerSlot,
    restart: RestartPolicy,
}

impl SupervisedShard {
    /// The supervisor loop: run the event loop under `catch_unwind`;
    /// on panic, reconcile orphaned connections, back off, build a
    /// fresh reactor, and go again — until the restart budget runs out
    /// or shutdown is requested. Connections queued on the incoming
    /// channel survive restarts (the receiver is cloned per attempt).
    fn run<C: Codec>(self, first_reactor: Reactor) {
        let ctx = &self.ctx;
        let metrics = Arc::clone(ctx.service.metrics_handle());
        let mut supervisor = Supervisor::new(self.restart.clone());
        let mut reactor = Some(first_reactor);
        loop {
            let r = match reactor.take() {
                Some(r) => r,
                None => match Reactor::new() {
                    Ok(r) => r,
                    // Out of fds or similar: the shard stays dark, the
                    // acceptor routes around it via the health board.
                    Err(_) => {
                        metrics.conn_errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                },
            };
            set_waker(&self.waker_slot, r.waker());
            let cell = ctx.health.cell(ctx.shard_id);
            cell.set_alive(true);
            let shard = Shard::<C>::new(ctx.clone(), r);
            let outcome = catch_unwind(AssertUnwindSafe(move || shard.run()));
            cell.set_alive(false);
            match outcome {
                // Clean exit: shutdown was requested.
                Ok(()) => break,
                Err(_) => {
                    metrics.shard_panics.fetch_add(1, Ordering::Relaxed);
                    // The panicked loop never ran `close` for its
                    // connections; their sockets dropped with the loop
                    // (clean EOF client-side). Give their capacity
                    // slots back and count the orphans.
                    let orphaned = cell.take_orphans();
                    if orphaned > 0 {
                        ctx.open_conns.fetch_sub(orphaned, Ordering::AcqRel);
                        metrics
                            .conns_orphaned
                            .fetch_add(orphaned as u64, Ordering::Relaxed);
                    }
                    if ctx.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    match supervisor.on_crash() {
                        Some(backoff) => {
                            std::thread::sleep(backoff);
                            if ctx.shutdown.load(Ordering::Acquire) {
                                break;
                            }
                            metrics.shard_restarts.fetch_add(1, Ordering::Relaxed);
                            cell.record_restart();
                        }
                        // Budget exhausted: the shard stays down.
                        None => break,
                    }
                }
            }
        }
    }
}

/// State the acceptor thread owns.
struct AcceptLoop {
    listener: TcpListener,
    senders: Vec<Sender<TcpStream>>,
    wakers: Vec<WakerSlot>,
    shutdown: Arc<AtomicBool>,
    open_conns: Arc<AtomicUsize>,
    metrics: Arc<icomm_serve::Metrics>,
    health: Arc<HealthBoard>,
    max_connections: usize,
    /// The encoded refusals, in the listener's codec.
    at_capacity: Vec<u8>,
    no_shards: Vec<u8>,
}

impl AcceptLoop {
    /// Accepts connections, enforcing the global cap, and deals them to
    /// *live* shards round-robin. A shard mid-restart (or past its
    /// restart budget) is skipped; with every shard down, clients get an
    /// explicit refusal instead of a connection that never answers.
    fn run(self) {
        let mut next_shard = 0usize;
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(_) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    continue;
                }
            };
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            self.metrics.conn_accepted.fetch_add(1, Ordering::Relaxed);
            if self.open_conns.load(Ordering::Acquire) >= self.max_connections {
                self.metrics.conn_rejected.fetch_add(1, Ordering::Relaxed);
                refuse(stream, &self.at_capacity);
                continue;
            }
            // Prefer the round-robin target but route around dead shards.
            let start = next_shard;
            next_shard = next_shard.wrapping_add(1);
            let shards = self.senders.len();
            let Some(shard) = (0..shards)
                .map(|probe| (start + probe) % shards)
                .find(|s| self.health.cell(*s).is_alive())
            else {
                // Every shard is down (all mid-restart or out of budget).
                self.metrics.conn_rejected.fetch_add(1, Ordering::Relaxed);
                refuse(stream, &self.no_shards);
                continue;
            };
            self.open_conns.fetch_add(1, Ordering::AcqRel);
            if self.senders[shard].send(stream).is_err() {
                // Shard is gone (shutdown race); release the slot.
                self.open_conns.fetch_sub(1, Ordering::AcqRel);
                return;
            }
            wake_slot(&self.wakers[shard]);
        }
    }
}

/// Tells a refused client why it is being dropped. Best-effort and
/// blocking is fine: the reply is one small write on a fresh socket.
fn refuse(mut stream: TcpStream, reply: &[u8]) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.write_all(reply);
}
