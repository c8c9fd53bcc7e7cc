//! Shared-nothing shard event loops.
//!
//! Each shard owns one [`Reactor`], a private connection table, and a
//! private decision cache for the codecs that use one — no locks are
//! shared between shards on the request path. An acceptor thread hands
//! new connections to shards round-robin over a channel; from then on
//! every byte of that connection is handled by exactly one thread. The loop is written once
//! against [`Codec`], so line JSON and `icommwire` frames share it.
//!
//! The request path is batched: one reactor sweep drains every ready
//! socket, decodes all complete requests, serves what it can from the
//! shard-local decision cache (binary frames only), and submits the
//! remainder to the [`TuningService`] worker pool as a **single** batch
//! — one channel/condvar round-trip per sweep instead of one per
//! request.
//!
//! Replies leave a connection in request order. Each request takes the
//! next reply slot on its connection; cache hits and errors fill theirs
//! at once, engine-bound and stats requests once the sweep's batch
//! returns, and only the filled prefix is written, with vectored writes.
//!
//! A connection whose peer does not read its replies is read no further
//! once [`MAX_QUEUED_REPLIES`] replies or [`MAX_QUEUED_BYTES`] of them
//! wait to be written: it waits on write readiness only, so the kernel
//! buffers fill and TCP flow control stops the peer. Once its queue
//! drains below both bounds it is read again, starting with the
//! requests already buffered in its codec.
//!
//! Client-visible ids are free-form and may collide across
//! connections, so the shard remaps every engine-bound request to a
//! synthetic id (its index in the sweep batch) and restores the
//! original id before encoding the reply.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use icomm_serve::{Metrics, StatsReport, TuneRequest, TuneResponse, TuningService};

use crate::codec::{Codec, Reply, Request};
use crate::reactor::{Event, Interest, Reactor};
use crate::supervise::{HealthBoard, PanicInjector};

/// What a shard shares with the acceptor and its supervisor; every
/// restart of the loop gets a clone.
#[derive(Clone, Debug)]
pub(crate) struct ShardContext {
    pub service: Arc<TuningService>,
    /// Connections the acceptor deals to this shard.
    pub incoming: Receiver<TcpStream>,
    pub shutdown: Arc<AtomicBool>,
    /// Open connections across all shards, checked by the acceptor.
    pub open_conns: Arc<AtomicUsize>,
    /// How long a connection may wait on its peer before it is
    /// dropped (see [`Shard::sweep_deadlines`]). `None` disables it.
    pub read_deadline: Option<Duration>,
    /// Shared per-shard liveness/restart/connection board.
    pub health: Arc<HealthBoard>,
    /// This shard's index on the board.
    pub shard_id: usize,
    /// Deterministic panic injector (chaos testing only).
    pub injector: Option<Arc<PanicInjector>>,
}

/// Upper bound on cached decisions per shard before the cache resets.
const DECISION_CACHE_CAP: usize = 4096;

/// How long one reactor sweep blocks when no work arrives, in ms. Also
/// bounds how late a deadline expiry can be observed.
const SWEEP_TIMEOUT_MS: i32 = 100;

/// Replies, ready or not yet answered, that one connection may have
/// queued before its requests are read no further. A batch counts once
/// per request until it is answered.
pub const MAX_QUEUED_REPLIES: usize = 64;

/// Encoded reply bytes that one connection may have queued before its
/// requests are read no further.
const MAX_QUEUED_BYTES: usize = 256 * 1024;

/// Decision-cache key: the request coordinates that determine a
/// decision. Keyed on the *request*'s `current` — the engine fills a
/// default into the response, so keying on the response would never
/// match a follow-up request.
type CacheKey = (String, String, Option<String>);

/// One reply still being assembled this sweep: a `Tune` (one slot) or a
/// `Batch` (a slot per request), filled by cache hits and engine
/// responses alike.
struct Group {
    token: u64,
    /// The connection's reply slot this group fills.
    seq: u64,
    batch: bool,
    slots: Vec<Option<TuneResponse>>,
}

/// Where an engine-bound request's response goes, and the cache key to
/// store it under.
struct Origin {
    group: usize,
    slot: usize,
    orig_id: u64,
    key: CacheKey,
}

/// Sweep-wide accumulators: engine-bound requests with synthetic ids,
/// their origins, the replies they complete, and the `(token, seq)`
/// slots of stats requests.
#[derive(Default)]
struct Sweep {
    pending: Vec<TuneRequest>,
    origins: Vec<Origin>,
    groups: Vec<Group>,
    stats: Vec<(u64, u64)>,
}

impl Sweep {
    /// Queues `request` for the sweep's engine batch, its response bound
    /// for `slot` of `group`.
    fn engine_bound(&mut self, group: usize, slot: usize, request: TuneRequest, key: CacheKey) {
        let orig_id = request.id;
        let mut remapped = request;
        remapped.id = self.pending.len() as u64;
        self.pending.push(remapped);
        self.origins.push(Origin {
            group,
            slot,
            orig_id,
            key,
        });
    }
}

/// Per-connection state owned by exactly one shard.
struct Conn<C> {
    stream: TcpStream,
    codec: C,
    /// Encoded replies in request order; `None` holds the place of one
    /// the engine has not answered yet.
    replies: VecDeque<Option<Vec<u8>>>,
    /// Sequence number of `replies.front()`.
    first_seq: u64,
    /// Bytes of `replies.front()` already written.
    front_written: usize,
    /// Replies in `replies`, an unanswered batch counting once per
    /// request in it.
    queued: usize,
    /// Encoded bytes in `replies`, the written part of the front included.
    queued_bytes: usize,
    /// The reactor registration's current interest.
    interest: Interest,
    /// Last moment bytes arrived or left; a connection waiting on its
    /// peer (a partial request, or replies it does not read) is dropped
    /// once this is older than the read deadline.
    last_progress: Instant,
    /// Reading stopped because the reply queue is full; it resumes once
    /// the queue drains.
    paused: bool,
    /// No further requests are read (the peer finished sending, or the
    /// stream lost sync); the connection closes once its replies flush.
    closing: bool,
}

impl<C> Conn<C> {
    /// Queues a reply that is ready now.
    fn queue(&mut self, bytes: Vec<u8>) {
        self.queued += 1;
        self.queued_bytes += bytes.len();
        self.replies.push_back(Some(bytes));
    }

    /// Takes the next reply slot, to be filled later with the answer to
    /// `requests` requests.
    fn reserve(&mut self, requests: usize) -> u64 {
        self.queued += requests.max(1);
        self.replies.push_back(None);
        self.first_seq + self.replies.len() as u64 - 1
    }

    /// Fills the slot that [`Conn::reserve`] took for `requests` requests.
    fn fill(&mut self, seq: u64, requests: usize, bytes: Vec<u8>) {
        let index = seq.wrapping_sub(self.first_seq) as usize;
        if let Some(slot) = self.replies.get_mut(index) {
            self.queued -= requests.max(1) - 1;
            self.queued_bytes += bytes.len();
            *slot = Some(bytes);
        }
    }

    /// Whether encoded bytes are ready to write.
    fn has_output(&self) -> bool {
        matches!(self.replies.front(), Some(Some(_)))
    }

    /// Whether the reply queue is full enough to stop reading requests.
    fn backlogged(&self) -> bool {
        self.queued >= MAX_QUEUED_REPLIES || self.queued_bytes >= MAX_QUEUED_BYTES
    }
}

/// What to do with a connection after handling one of its events.
enum ConnFate {
    Keep,
    Close,
}

/// A shard: one event loop thread's worth of state.
pub(crate) struct Shard<C> {
    ctx: ShardContext,
    reactor: Reactor,
    conns: HashMap<u64, Conn<C>>,
    /// Connections whose backlog drained: their codecs may hold requests
    /// that no read event will announce.
    resumed: Vec<u64>,
    next_token: u64,
    /// Filled only when `C::DECISION_CACHE` holds; a line-JSON shard's
    /// stays empty, so its lookups always miss.
    decision_cache: HashMap<CacheKey, TuneResponse>,
}

impl<C: Codec> Shard<C> {
    /// Builds a shard around an existing reactor (whose waker the
    /// acceptor already holds).
    pub(crate) fn new(ctx: ShardContext, reactor: Reactor) -> Self {
        Shard {
            ctx,
            reactor,
            conns: HashMap::new(),
            resumed: Vec::new(),
            next_token: 1,
            decision_cache: HashMap::new(),
        }
    }

    /// Runs the event loop until the shutdown flag is set. Consumes the
    /// shard; all connections are dropped on exit.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.ctx.shutdown.load(Ordering::Acquire) {
            let timeout = if self.resumed.is_empty() {
                SWEEP_TIMEOUT_MS
            } else {
                0
            };
            if self.reactor.wait(&mut events, timeout).is_err() {
                break;
            }
            self.adopt_incoming();
            let mut sweep = Sweep::default();
            // Writable readiness is consumed by the flush pass.
            let readable = events.drain(..).filter(|e| e.readable || e.hangup);
            let resumed = std::mem::take(&mut self.resumed);
            for token in resumed.into_iter().chain(readable.map(|e| e.token)) {
                if let ConnFate::Close = self.read_ready(token, &mut sweep) {
                    self.close(token);
                }
            }
            self.dispatch(sweep);
            self.flush_all();
            self.sweep_deadlines();
        }
        // Drop every connection eagerly so the open-connection count
        // the acceptor checks is accurate during shutdown.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close(token);
        }
    }

    /// Registers connections the acceptor queued on our channel.
    fn adopt_incoming(&mut self) {
        while let Ok(stream) = self.ctx.incoming.try_recv() {
            if stream.set_nonblocking(true).is_err() {
                self.conn_error();
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .reactor
                .register(&stream, token, Interest::READ)
                .is_err()
            {
                self.conn_error();
                continue;
            }
            self.conns.insert(
                token,
                Conn {
                    stream,
                    codec: C::default(),
                    replies: VecDeque::new(),
                    first_seq: 0,
                    front_written: 0,
                    queued: 0,
                    queued_bytes: 0,
                    interest: Interest::READ,
                    last_progress: Instant::now(),
                    paused: false,
                    closing: false,
                },
            );
            // Mirror the adoption on the health board: if this loop
            // panics, the supervisor reads the per-shard count to
            // reconcile the global one.
            self.ctx.health.cell(self.ctx.shard_id).conn_adopted();
        }
    }

    /// An accepted connection failed before serving anything.
    fn conn_error(&self) {
        count(&self.ctx.service, |m| &m.conn_errors);
        self.ctx.open_conns.fetch_sub(1, Ordering::AcqRel);
    }

    /// Serves every complete request buffered on a connection, then
    /// reads and serves more until the socket is empty or the reply
    /// queue is full. Bytes arriving after the connection started
    /// closing are read and dropped, so its close does not reset the
    /// peer before the last reply is read.
    fn read_ready(&mut self, token: u64, sweep: &mut Sweep) -> ConnFate {
        let mut buf = [0u8; 16 * 1024];
        loop {
            self.drain(token, sweep);
            let Some(conn) = self.conns.get_mut(&token) else {
                return ConnFate::Keep;
            };
            if conn.paused {
                return ConnFate::Keep;
            }
            match conn.stream.read(&mut buf) {
                // The drain above left no complete request buffered, so
                // what end of stream completes is one request at most.
                Ok(0) => {
                    if !conn.closing {
                        conn.codec.finish();
                        self.drain(token, sweep);
                        self.finish_reading(token);
                    }
                    return ConnFate::Keep;
                }
                Ok(n) => {
                    if !conn.closing {
                        conn.last_progress = Instant::now();
                        conn.codec.extend(&buf[..n]);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ConnFate::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    count(&self.ctx.service, |m| &m.conn_errors);
                    return ConnFate::Close;
                }
            }
        }
    }

    /// The peer finished sending: answer what it sent, then close.
    fn finish_reading(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            if !conn.closing && conn.codec.has_partial() {
                // The peer walked away mid-request.
                count(&self.ctx.service, |m| &m.frame_truncated);
            }
            conn.closing = true;
        }
    }

    /// Decodes and serves every complete request buffered on `token`,
    /// pausing the connection if its reply queue fills first.
    fn drain(&mut self, token: u64, sweep: &mut Sweep) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing {
                return;
            }
            if conn.backlogged() {
                conn.paused = true;
                return;
            }
            let Some(decoded) = conn.codec.next_request() else {
                return;
            };
            // Chaos hook: a deterministic countdown may panic this shard
            // here, before the request's reply is queued — the
            // supervisor catches it, the client sees a clean EOF and
            // retries.
            if let Some(injector) = &self.ctx.injector {
                injector.check();
            }
            match decoded {
                Ok(request) => self.serve(token, request, sweep),
                Err(fault) => {
                    count(&self.ctx.service, fault.counter);
                    conn.queue(C::encode(&Reply::Error(&fault.message)));
                    conn.closing = fault.fatal;
                }
            }
        }
    }

    /// Serves one decoded request.
    fn serve(&mut self, token: u64, request: Request, sweep: &mut Sweep) {
        let reply = match request {
            // A cache hit is answered now; a miss waits in its slot for
            // the sweep's engine batch.
            Request::Tune(request) => match self.lookup(&request) {
                Ok(response) => C::encode(&Reply::Tune(&response)),
                Err(key) => {
                    if let Some(group) = self.open_group(token, false, 1, sweep) {
                        sweep.engine_bound(group, 0, request, key);
                    }
                    return;
                }
            },
            Request::Batch(requests) => {
                if let Some(group) = self.open_group(token, true, requests.len(), sweep) {
                    for (slot, request) in requests.into_iter().enumerate() {
                        match self.lookup(&request) {
                            Ok(response) => sweep.groups[group].slots[slot] = Some(response),
                            Err(key) => sweep.engine_bound(group, slot, request, key),
                        }
                    }
                }
                return;
            }
            // Counted after the sweep's engine batch, so the report
            // covers the requests pipelined ahead of it.
            Request::Stats => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    sweep.stats.push((token, conn.reserve(1)));
                }
                return;
            }
            Request::Health => {
                encode_report::<C, _>(&self.ctx.health.report(), |json| Reply::Health(json))
            }
            Request::Characterize(board) => match self.ctx.service.characterize_board(&board) {
                Ok(characterization) => encode_report::<C, _>(characterization.as_ref(), |json| {
                    Reply::Characterize(json)
                }),
                Err(message) => C::encode(&Reply::Error(&message)),
            },
        };
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.queue(reply);
        }
    }

    /// Reserves `token`'s next reply slot for a reply of `len` responses
    /// that the sweep completes; returns the group's index.
    fn open_group(
        &mut self,
        token: u64,
        batch: bool,
        len: usize,
        sweep: &mut Sweep,
    ) -> Option<usize> {
        let conn = self.conns.get_mut(&token)?;
        sweep.groups.push(Group {
            token,
            seq: conn.reserve(len),
            batch,
            slots: vec![None; len],
        });
        Some(sweep.groups.len() - 1)
    }

    /// Answers `request` from the decision cache, or hands back the key
    /// its engine response is to be cached under. A hit reports its own
    /// provenance and latency, not those of the computation it replays.
    fn lookup(&self, request: &TuneRequest) -> Result<TuneResponse, CacheKey> {
        let key = (
            request.board.clone(),
            request.app.clone(),
            request.current.clone(),
        );
        let Some(cached) = self.decision_cache.get(&key) else {
            return Err(key);
        };
        let started = Instant::now();
        let mut response = cached.clone();
        let metrics = self.ctx.service.metrics_handle();
        metrics.requests.fetch_add(1, Ordering::Relaxed);
        metrics.completed.fetch_add(1, Ordering::Relaxed);
        metrics.decision_cache_hits.fetch_add(1, Ordering::Relaxed);
        let latency_us = started.elapsed().as_micros() as u64;
        metrics.total_latency.record(latency_us);
        response.id = request.id;
        response.cache_hit = Some(true);
        response.latency_us = Some(latency_us);
        Ok(response)
    }

    /// Submits the sweep's engine-bound requests as one batch, then
    /// encodes every reply the sweep opened into its connection's slot.
    fn dispatch(&mut self, sweep: Sweep) {
        let Sweep {
            pending,
            origins,
            mut groups,
            stats,
        } = sweep;
        if !pending.is_empty() {
            let metrics = self.ctx.service.metrics_handle();
            metrics.batches_submitted.fetch_add(1, Ordering::Relaxed);
            metrics
                .batched_requests
                .fetch_add(pending.len() as u64, Ordering::Relaxed);
            let mut answers: Vec<Option<TuneResponse>> = vec![None; pending.len()];
            for response in self.ctx.service.submit_batch(pending).wait() {
                // An id we never issued would be an engine bug; drop it
                // rather than misroute it.
                if let Some(answer) = answers.get_mut(response.id as usize) {
                    *answer = Some(response);
                }
            }
            for (origin, answer) in origins.into_iter().zip(answers) {
                let mut response = match answer {
                    Some(response) => response,
                    // A lost engine response surfaces as an explicit
                    // failure rather than a hang.
                    None => TuneResponse::failure(
                        origin.orig_id,
                        "engine returned no response".to_string(),
                    ),
                };
                if C::DECISION_CACHE && response.ok && response.overloaded.is_none() {
                    if self.decision_cache.len() >= DECISION_CACHE_CAP {
                        self.decision_cache.clear();
                    }
                    self.decision_cache.insert(origin.key, response.clone());
                }
                response.id = origin.orig_id;
                groups[origin.group].slots[origin.slot] = Some(response);
            }
        }
        // Every slot is filled now: by a cache hit or by its origin.
        for group in groups {
            let requests = group.slots.len();
            let responses: Vec<TuneResponse> = group.slots.into_iter().flatten().collect();
            let reply = match (group.batch, responses.first()) {
                (false, Some(response)) => Reply::Tune(response),
                _ => Reply::Batch(&responses),
            };
            let bytes = C::encode(&reply);
            if let Some(conn) = self.conns.get_mut(&group.token) {
                conn.fill(group.seq, requests, bytes);
            }
        }
        if !stats.is_empty() {
            let report = StatsReport::from_snapshot(&self.ctx.service.metrics());
            let bytes = encode_report::<C, _>(&report, |json| Reply::Stats(json));
            for (token, seq) in stats {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.fill(seq, 1, bytes.clone());
                }
            }
        }
    }

    /// Flushes every connection with replies queued; closes the ones
    /// that are closing and have nothing left to write.
    fn flush_all(&mut self) {
        let tokens: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.replies.is_empty() || c.closing)
            .map(|(t, _)| *t)
            .collect();
        for token in tokens {
            if let ConnFate::Close = self.flush_conn(token) {
                self.close(token);
            }
        }
    }

    /// Writes as much of the filled reply prefix as the socket accepts,
    /// vectored, then sets the interest the connection needs next.
    fn flush_conn(&mut self, token: u64) -> ConnFate {
        let Some(conn) = self.conns.get_mut(&token) else {
            return ConnFate::Keep;
        };
        while conn.has_output() {
            let slices: Vec<IoSlice<'_>> = conn
                .replies
                .iter()
                .take(64)
                .map_while(Option::as_deref)
                .enumerate()
                .map(|(i, reply)| {
                    IoSlice::new(if i == 0 {
                        &reply[conn.front_written..]
                    } else {
                        reply
                    })
                })
                .collect();
            match conn.stream.write_vectored(&slices) {
                Ok(0) => {
                    count(&self.ctx.service, |m| &m.conn_errors);
                    return ConnFate::Close;
                }
                Ok(mut n) => {
                    conn.last_progress = Instant::now();
                    while n > 0 {
                        let front_len = conn.replies[0].as_ref().map_or(0, Vec::len);
                        let front_left = front_len - conn.front_written;
                        if n >= front_left {
                            n -= front_left;
                            conn.queued -= 1;
                            conn.queued_bytes -= front_len;
                            conn.replies.pop_front();
                            conn.first_seq += 1;
                            conn.front_written = 0;
                        } else {
                            conn.front_written += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    count(&self.ctx.service, |m| &m.conn_errors);
                    return ConnFate::Close;
                }
            }
        }
        if conn.closing && conn.replies.is_empty() {
            return ConnFate::Close;
        }
        if conn.paused && !conn.backlogged() {
            conn.paused = false;
            self.resumed.push(token);
        }
        // A closing or paused connection waits for the socket to drain
        // without read interest: a hung-up peer would wake every sweep,
        // and a paused one is read no further.
        let interest = match (conn.has_output(), conn.closing || conn.paused) {
            (false, _) => Interest::READ,
            (true, false) => Interest::READ_WRITE,
            (true, true) => Interest::WRITE,
        };
        if interest != conn.interest {
            conn.interest = interest;
            let _ = self.reactor.reregister(&conn.stream, token, interest);
        }
        ConnFate::Keep
    }

    /// Drops connections that have waited on their peer past the read
    /// deadline: stalled mid-request, or not reading their replies. Idle
    /// connections with nothing buffered and nothing to write are left
    /// alone — cheap keep-alive is the point of an event-driven server.
    fn sweep_deadlines(&mut self) {
        let Some(deadline) = self.ctx.read_deadline else {
            return;
        };
        let now = Instant::now();
        let stalled: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                (c.codec.has_partial() || !c.replies.is_empty())
                    && now.duration_since(c.last_progress) > deadline
            })
            .map(|(t, _)| *t)
            .collect();
        for token in stalled {
            count(&self.ctx.service, |m| &m.read_timeouts);
            self.close(token);
        }
    }

    /// Deregisters and drops a connection, releasing its capacity slot.
    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.reactor.deregister(&conn.stream);
            self.ctx.open_conns.fetch_sub(1, Ordering::AcqRel);
            self.ctx.health.cell(self.ctx.shard_id).conn_closed();
        }
    }
}

/// Bumps one of `service`'s counters.
fn count(service: &TuningService, counter: fn(&Metrics) -> &AtomicU64) {
    counter(service.metrics_handle()).fetch_add(1, Ordering::Relaxed);
}

/// Encodes `report` as JSON in `reply`, or the error that kept it from
/// serializing.
fn encode_report<C: Codec, T: serde::Serialize>(
    report: &T,
    reply: fn(&str) -> Reply<'_>,
) -> Vec<u8> {
    match icomm_persist::to_string(report) {
        Ok(json) => C::encode(&reply(&json)),
        Err(err) => C::encode(&Reply::Error(&format!(
            "report serialization failed: {err}"
        ))),
    }
}
