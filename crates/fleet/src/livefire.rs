//! Live-fire stage: hammer a real in-process server over real TCP.
//!
//! The virtual-time simulation validates the *policies*; this stage
//! validates the *stack* — the accept loop, the wire codec, the
//! worker pool, and the transfer-enabled registry all under concurrent
//! client load. The wire protocol carries board *names*, so the stage
//! exercises the built-in catalog boards rather than the synthetic
//! population; that is exactly the split we want, since wall-clock
//! numbers from this stage are jittery by nature and are therefore kept
//! out of the deterministic [`FleetReport`](crate::report::FleetReport).
//! Only the counts (sent / ok / failed) — which a healthy stack makes
//! deterministic — feed the report.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use icomm_microbench::TransferPolicy;
use icomm_net::{
    JsonClient, NetConfig, PanicPlan, ResilienceConfig, ResilientClient, Server, WireMode,
};
use icomm_resilience::{RestartPolicy, RetryPolicy};
use icomm_serve::{AdmissionConfig, ServiceConfig, TuneRequest, TuneResponse, TuningService};

use crate::report::LivefireStats;

/// Boards the wire protocol can name (subset of the serving catalog the
/// stage rotates through).
const BOARDS: [&str; 3] = ["nano", "tx2", "xavier"];
const APPS: [&str; 3] = ["shwfs", "orb", "lane"];

/// Deterministic counts plus wall-clock measurements from one stage run.
#[derive(Debug)]
pub(crate) struct LivefireOutcome {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub shard_restarts: u64,
    pub stats: LivefireStats,
}

/// Runs `requests` requests against a fresh in-process server from
/// `threads` concurrent TCP clients and tears everything down. `wire`
/// selects the codec the listener and its clients speak: line JSON or
/// `icommwire v1` frames.
///
/// `shard_panics > 0` arms the plane's deterministic panic injector:
/// panics fire mid-frame at fixed intervals, the shard supervisor
/// restarts each crashed event loop, and the resilient binary clients
/// retry over fresh connections — so the stage still answers every
/// request. Requires the binary wire: the line-JSON client does not
/// retry, so a panic would lose its in-flight request.
///
/// Admission is unlimited here on purpose: the stage asserts the stack
/// serves every request, while shedding behavior is validated
/// deterministically in the simulation.
pub(crate) fn run_livefire(
    requests: usize,
    threads: usize,
    wire: WireMode,
    shard_panics: u32,
) -> Result<LivefireOutcome, String> {
    if shard_panics > 0 && wire != WireMode::Binary {
        return Err("shard panic injection requires the binary wire: \
             the line-JSON client does not retry the requests a panic drops"
            .to_string());
    }
    let service = Arc::new(TuningService::start(
        ServiceConfig::quick()
            .with_workers(4)
            .with_admission(AdmissionConfig::unlimited())
            .with_transfer(TransferPolicy::default()),
    ));
    let mut net_config = NetConfig::default().with_wire(wire);
    if shard_panics > 0 {
        // Panics spread across the run so each one lands while requests
        // are still in flight; the restart budget covers every injected
        // panic with slack.
        net_config = net_config
            .with_restart(RestartPolicy {
                max_restarts: shard_panics.max(4),
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(50),
            })
            .with_panic_plan(PanicPlan {
                after_frames: (requests as u64 / (u64::from(shard_panics) + 1)).max(4),
                panics: shard_panics,
            });
    }
    let server = Server::start_with(Arc::clone(&service), "127.0.0.1:0", net_config)
        .map_err(|e| format!("livefire stage could not bind a local socket: {e}"))?;
    let addr = server.local_addr();

    let threads = threads.max(1).min(requests.max(1));
    let start = Instant::now();
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        // Spread the request ids across clients: client t sends ids
        // t, t+threads, t+2*threads, ...
        let share: Vec<u64> = (0..requests as u64)
            .filter(|id| *id as usize % threads == t)
            .collect();
        handles.push(std::thread::spawn(move || {
            client_thread(addr, wire, &share)
        }));
    }

    let mut sent = 0u64;
    let mut ok = 0u64;
    let mut latencies: Vec<u64> = Vec::with_capacity(requests);
    for handle in handles {
        let outcome = handle
            .join()
            .map_err(|_| "livefire client thread panicked".to_string())??;
        sent += outcome.sent;
        ok += outcome.ok;
        latencies.extend(outcome.latencies_us);
    }
    let wall_duration_us = start.elapsed().as_micros() as u64;

    let shard_restarts = server.health().restarts_total;
    server.stop();
    Arc::try_unwrap(service)
        .map_err(|_| "livefire server still holds service references".to_string())?
        .shutdown()?;

    latencies.sort_unstable();
    let pick = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((q * latencies.len() as f64).ceil() as usize).max(1);
        latencies[rank.min(latencies.len()) - 1]
    };
    let wall_mean_us = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    Ok(LivefireOutcome {
        sent,
        ok,
        failed: sent - ok,
        shard_restarts,
        stats: LivefireStats {
            wall_p50_us: pick(0.50),
            wall_p95_us: pick(0.95),
            wall_p99_us: pick(0.99),
            wall_mean_us,
            wall_duration_us,
            wall_throughput_rps: if wall_duration_us == 0 {
                0.0
            } else {
                sent as f64 / (wall_duration_us as f64 / 1e6)
            },
        },
    })
}

/// Per-client results.
struct ClientOutcome {
    sent: u64,
    ok: u64,
    latencies_us: Vec<u64>,
}

/// One round trip on a live-fire connection.
type TuneFn = Box<dyn FnMut(&TuneRequest) -> Result<TuneResponse, String>>;

/// One client connection: send a request, time the round trip, repeat.
/// A binary client is the resilient one, so a shard panic mid-frame
/// costs a retry on a fresh connection rather than a lost response.
fn client_thread(addr: SocketAddr, wire: WireMode, ids: &[u64]) -> Result<ClientOutcome, String> {
    let mut tune: TuneFn = match wire {
        WireMode::Json => {
            let mut client = JsonClient::connect(addr)
                .map_err(|e| format!("livefire client could not connect: {e}"))?;
            Box::new(move |request| client.tune(request).map_err(|e| e.to_string()))
        }
        WireMode::Binary => {
            let config = ResilienceConfig {
                retry: RetryPolicy {
                    max_attempts: 8,
                    base_delay: Duration::from_millis(2),
                    max_delay: Duration::from_millis(50),
                    deadline: Duration::from_secs(20),
                    ..RetryPolicy::default()
                },
                ..ResilienceConfig::default()
            };
            let mut client = ResilientClient::with_config(addr, config);
            Box::new(move |request| client.tune(request).map_err(|e| e.to_string()))
        }
    };
    let mut outcome = ClientOutcome {
        sent: 0,
        ok: 0,
        latencies_us: Vec::with_capacity(ids.len()),
    };
    for &id in ids {
        let board = BOARDS[id as usize % BOARDS.len()];
        let app = APPS[(id as usize / BOARDS.len()) % APPS.len()];
        let request = TuneRequest::new(id, board, app);
        let begin = Instant::now();
        outcome.sent += 1;
        let response = tune(&request).map_err(|e| format!("livefire request {id} failed: {e}"))?;
        outcome
            .latencies_us
            .push(begin.elapsed().as_micros() as u64);
        if response.ok && response.id == id {
            outcome.ok += 1;
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn livefire_round_trips_every_request() {
        let outcome = run_livefire(24, 3, WireMode::Json, 0).unwrap();
        assert_eq!(outcome.sent, 24);
        assert_eq!(outcome.ok, 24);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.shard_restarts, 0);
        assert!(outcome.stats.wall_p50_us <= outcome.stats.wall_p99_us);
        assert!(outcome.stats.wall_throughput_rps > 0.0);
    }

    #[test]
    fn livefire_binary_round_trips_every_request() {
        let outcome = run_livefire(24, 3, WireMode::Binary, 0).unwrap();
        assert_eq!(outcome.sent, 24);
        assert_eq!(outcome.ok, 24);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.shard_restarts, 0);
        assert!(outcome.stats.wall_throughput_rps > 0.0);
    }

    #[test]
    fn single_thread_single_request_works() {
        let outcome = run_livefire(1, 1, WireMode::Json, 0).unwrap();
        assert_eq!((outcome.sent, outcome.ok, outcome.failed), (1, 1, 0));
    }

    #[test]
    fn injected_shard_panics_lose_no_responses() {
        let outcome = run_livefire(96, 4, WireMode::Binary, 2).unwrap();
        assert_eq!(outcome.sent, 96);
        assert_eq!(outcome.ok, 96, "resilient clients must retry past panics");
        assert_eq!(outcome.failed, 0);
        assert_eq!(
            outcome.shard_restarts, 2,
            "the supervisor restarts each injected panic"
        );
    }

    #[test]
    fn shard_panics_need_the_binary_wire() {
        let err = run_livefire(8, 2, WireMode::Json, 1).unwrap_err();
        assert!(err.contains("binary"), "error: {err}");
    }
}
