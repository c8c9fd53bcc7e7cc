//! Closed-loop load generator for both codecs.
//!
//! Drives a line-JSON or an `icommwire` listener with the same
//! synthetic tune workload, so the two wires can be compared on equal
//! terms: same request mix, same connection count, same closed-loop
//! discipline. Per-request latencies feed p50/p99 in the report;
//! throughput is total completed requests over wall time.
//!
//! Line JSON has no batching primitive, so `batch > 1` only changes the
//! binary wire (one `Batch` frame per round trip); the JSON client
//! always issues one request per round trip. That asymmetry is the
//! experiment, not a bug — it is exactly the protocol difference the
//! binary wire exists to exploit.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use icomm_serve::{TuneRequest, TuneResponse};

use crate::client::{BinaryClient, ClientError, JsonClient};
use crate::codec::WireMode;

/// Boards the synthetic workload rotates through.
pub const LOAD_BOARDS: [&str; 3] = ["nano", "tx2", "xavier"];
/// Apps the synthetic workload rotates through.
pub const LOAD_APPS: [&str; 3] = ["shwfs", "lane", "orb"];

/// The i-th synthetic request of a connection's stream.
pub fn load_request(conn: usize, i: usize) -> TuneRequest {
    let board = LOAD_BOARDS[(conn + i) % LOAD_BOARDS.len()];
    let app = LOAD_APPS[i % LOAD_APPS.len()];
    TuneRequest::new(i as u64, board, app)
}

/// Outcome of one [`run_load`] invocation.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Wire that was driven.
    pub mode: WireMode,
    /// Concurrent connections (one thread each).
    pub conns: usize,
    /// Batch size used on the binary wire.
    pub batch: usize,
    /// Requests sent.
    pub sent: u64,
    /// Successful responses (`ok` or an explicit decision either way).
    pub ok: u64,
    /// Transport failures and server errors.
    pub failed: u64,
    /// Wall time for the whole run.
    pub elapsed: Duration,
    /// Completed requests per second of wall time.
    pub rps: f64,
    /// Median per-round-trip latency, microseconds (per request for
    /// JSON; per batch divided by batch size for binary).
    pub p50_us: u64,
    /// Tail per-round-trip latency, microseconds.
    pub p99_us: u64,
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One connection of either wire.
enum Conn {
    Json(JsonClient),
    Binary(BinaryClient),
}

impl Conn {
    fn connect(addr: SocketAddr, mode: WireMode) -> Result<Conn, ClientError> {
        Ok(match mode {
            WireMode::Json => Conn::Json(JsonClient::connect(addr)?),
            WireMode::Binary => Conn::Binary(BinaryClient::connect(addr)?),
        })
    }

    /// One round trip: a `Batch` frame for several requests on the
    /// binary wire, a single request otherwise.
    fn round_trip(&mut self, requests: &[TuneRequest]) -> Result<Vec<TuneResponse>, ClientError> {
        match self {
            Conn::Binary(client) if requests.len() > 1 => client.tune_batch(requests),
            Conn::Binary(client) => requests.iter().map(|r| client.tune(r)).collect(),
            Conn::Json(client) => requests.iter().map(|r| client.tune(r)).collect(),
        }
    }
}

/// Drives `conns` closed-loop connections, each issuing
/// `requests_per_conn` requests, and reports aggregate throughput and
/// latency. `batch` groups requests into `Batch` frames on the binary
/// wire (use 1 for strict request/response symmetry with JSON).
pub fn run_load(
    addr: SocketAddr,
    mode: WireMode,
    conns: usize,
    requests_per_conn: usize,
    batch: usize,
) -> LoadReport {
    let conns = conns.max(1);
    let batch = batch.max(1);
    let started = Instant::now();
    let mut handles = Vec::with_capacity(conns);
    for conn in 0..conns {
        handles.push(std::thread::spawn(move || {
            drive(addr, mode, conn, requests_per_conn, batch)
        }));
    }
    let mut sent = 0u64;
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for handle in handles {
        match handle.join() {
            Ok(outcome) => {
                sent += outcome.sent;
                ok += outcome.ok;
                failed += outcome.failed;
                latencies.extend(outcome.latencies_us);
            }
            Err(_) => failed += requests_per_conn as u64,
        }
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    let secs = elapsed.as_secs_f64().max(1e-9);
    LoadReport {
        mode,
        conns,
        batch,
        sent,
        ok,
        failed,
        elapsed,
        rps: ok as f64 / secs,
        p50_us: quantile(&latencies, 0.50),
        p99_us: quantile(&latencies, 0.99),
    }
}

/// Warms the service through `mode` so characterization cost is paid
/// before measurement: one request per (board, app) combination.
///
/// # Errors
///
/// Fails when the listener cannot be reached or a request fails in
/// transit.
pub fn warmup(addr: SocketAddr, mode: WireMode) -> Result<(), String> {
    let mut conn = Conn::connect(addr, mode).map_err(|e| format!("warmup connect: {e}"))?;
    for (i, board) in LOAD_BOARDS.iter().enumerate() {
        for (j, app) in LOAD_APPS.iter().enumerate() {
            let request = TuneRequest::new((i * LOAD_APPS.len() + j) as u64, board, app);
            conn.round_trip(&[request])
                .map_err(|e| format!("warmup tune: {e}"))?;
        }
    }
    Ok(())
}

struct ConnOutcome {
    sent: u64,
    ok: u64,
    failed: u64,
    latencies_us: Vec<u64>,
}

fn drive(
    addr: SocketAddr,
    mode: WireMode,
    conn: usize,
    requests: usize,
    batch: usize,
) -> ConnOutcome {
    let batch = if mode == WireMode::Json { 1 } else { batch };
    let mut outcome = ConnOutcome {
        sent: 0,
        ok: 0,
        failed: 0,
        latencies_us: Vec::with_capacity(requests / batch + 1),
    };
    let Ok(mut client) = Conn::connect(addr, mode) else {
        outcome.failed = requests as u64;
        return outcome;
    };
    let mut issued = 0usize;
    while issued < requests {
        let n = batch.min(requests - issued);
        let group: Vec<TuneRequest> = (0..n).map(|k| load_request(conn, issued + k)).collect();
        outcome.sent += n as u64;
        let started = Instant::now();
        match client.round_trip(&group) {
            Ok(responses) => {
                outcome.ok += responses.len() as u64;
                outcome.failed += n.saturating_sub(responses.len()) as u64;
                let per_request = started.elapsed().as_micros() as u64 / n as u64;
                outcome.latencies_us.push(per_request);
            }
            Err(_) => {
                outcome.failed += n as u64;
                break;
            }
        }
        issued += n;
    }
    outcome
}
