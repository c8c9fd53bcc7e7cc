//! Self-healing wrapper over [`BinaryClient`].
//!
//! [`ResilientClient`] owns (and transparently re-establishes) one
//! connection to a binary server and layers two recovery behaviors
//! over every idempotent call:
//!
//! * **Deadline-bounded retries** with deterministically jittered
//!   exponential backoff ([`icomm_resilience::RetryPolicy`]). Only
//!   transport-level failures retry — an explicit server error is
//!   deterministic and surfaces immediately.
//! * **A per-endpoint circuit breaker**
//!   ([`icomm_resilience::CircuitBreaker`]): consecutive transport
//!   errors and `overloaded` responses trip it open, halting traffic
//!   for a cooldown before half-open probes readmit the endpoint.
//!
//! The tune path is what the fleet live-fire harness runs against a
//! chaos-injected server: a shard panic mid-request surfaces as a
//! clean EOF here, the retry path reconnects (the acceptor deals the
//! new socket to a live shard), and the response is never lost.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use icomm_resilience::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use icomm_serve::{StatsReport, TuneRequest, TuneResponse};

use crate::client::{BinaryClient, ClientError};
use crate::supervise::HealthReport;

/// Tuning for a [`ResilientClient`].
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Retry schedule for transport failures.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Per-attempt read timeout.
    pub read_timeout: Duration,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Observable recovery activity of one [`ResilientClient`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Request attempts sent on the wire.
    pub attempts: u64,
    /// Attempts beyond the first for some request.
    pub retries: u64,
    /// Fresh connections established after a transport failure.
    pub reconnects: u64,
    /// Calls rejected (or delayed) by the open circuit breaker.
    pub breaker_rejections: u64,
}

/// A self-healing blocking client for one server endpoint.
#[derive(Debug)]
pub struct ResilientClient {
    addr: SocketAddr,
    config: ResilienceConfig,
    breaker: CircuitBreaker,
    conn: Option<BinaryClient>,
    started: Instant,
    counters: ResilienceCounters,
}

impl ResilientClient {
    /// Client for `addr` with default resilience tuning. Connects
    /// lazily on the first call.
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_config(addr, ResilienceConfig::default())
    }

    /// Client for `addr` with explicit tuning.
    pub fn with_config(addr: SocketAddr, config: ResilienceConfig) -> Self {
        let breaker = CircuitBreaker::new(config.breaker.clone());
        ResilientClient {
            addr,
            config,
            breaker,
            conn: None,
            started: Instant::now(),
            counters: ResilienceCounters::default(),
        }
    }

    /// Recovery activity so far.
    pub fn counters(&self) -> &ResilienceCounters {
        &self.counters
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Times the breaker has tripped open.
    pub fn breaker_trips(&self) -> u64 {
        self.breaker.trips()
    }

    /// Sends one tune request with retries and breaker gating. An
    /// `overloaded` response is
    /// returned to the caller but counts against the breaker — the
    /// server is shedding; hammering it helps nobody.
    ///
    /// # Errors
    ///
    /// Fails when the deadline or attempt budget is exhausted, the
    /// breaker stayed open through the deadline, or the server
    /// answered with a deterministic error.
    pub fn tune(&mut self, request: &TuneRequest) -> Result<TuneResponse, ClientError> {
        self.call_idempotent(
            |client| client.tune(request),
            |response| response.is_overloaded(),
        )
    }

    /// Asks the server to characterize a board, with the same recovery
    /// behavior as [`ResilientClient::tune`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResilientClient::tune`].
    pub fn characterize(
        &mut self,
        board: &str,
    ) -> Result<icomm_microbench::DeviceCharacterization, ClientError> {
        self.call_idempotent(|client| client.characterize(board), |_| false)
    }

    /// Fetches the stats report with retries (idempotent).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResilientClient::tune`].
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        self.call_idempotent(|client| client.stats(), |_| false)
    }

    /// Fetches the supervision health report with retries (idempotent).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ResilientClient::tune`].
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        self.call_idempotent(|client| client.health(), |_| false)
    }

    /// Microseconds since client creation — the breaker's clock.
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Connection to call on, establishing one if needed.
    fn ensure_conn(&mut self) -> Result<&mut BinaryClient, ClientError> {
        if self.conn.is_none() {
            let client = BinaryClient::connect_timeout(self.addr, self.config.read_timeout)?;
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("connection was just established"))
    }

    /// Whether a server-side refusal names a transient availability
    /// condition rather than a deterministic request failure. "No shard
    /// event loops" means every shard is mid-restart — the supervisor
    /// brings one back within its backoff budget; "connection capacity"
    /// clears as other clients drain. Both are worth a retry.
    fn is_transient_refusal(error: &ClientError) -> bool {
        matches!(
            error,
            ClientError::Server(msg) if msg.contains("no shard event loops")
                || msg.contains("connection capacity")
        )
    }

    /// The shared retry/breaker engine for idempotent calls.
    ///
    /// `soft_failure` classifies successful replies that should still
    /// count against the breaker (`overloaded` tune responses).
    fn call_idempotent<T>(
        &mut self,
        op: impl Fn(&mut BinaryClient) -> Result<T, ClientError>,
        soft_failure: impl Fn(&T) -> bool,
    ) -> Result<T, ClientError> {
        let deadline = Instant::now() + self.config.retry.deadline;
        let mut last_error: Option<ClientError> = None;
        let mut attempt = 0u32;
        while attempt < self.config.retry.max_attempts {
            if attempt > 0 {
                self.counters.retries += 1;
            }
            if !self.breaker.allow(self.now_us()) {
                // Open breaker: wait out part of the cooldown inside
                // the deadline rather than failing instantly, so a
                // recovering endpoint gets its half-open probe.
                self.counters.breaker_rejections += 1;
                let wait = self.config.retry.backoff_for(attempt);
                if Instant::now() + wait >= deadline {
                    return Err(last_error.unwrap_or_else(|| {
                        ClientError::Server("circuit breaker open".to_string())
                    }));
                }
                std::thread::sleep(wait);
                last_error
                    .get_or_insert_with(|| ClientError::Server("circuit breaker open".to_string()));
                attempt += 1;
                continue;
            }
            self.counters.attempts += 1;
            let outcome = match self.ensure_conn() {
                Ok(client) => op(client),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(value) => {
                    let now = self.now_us();
                    if soft_failure(&value) {
                        self.breaker.record_failure(now);
                    } else {
                        self.breaker.record_success(now);
                    }
                    return Ok(value);
                }
                Err(e)
                    if matches!(e, ClientError::Io(_) | ClientError::Wire(_))
                        || Self::is_transient_refusal(&e) =>
                {
                    // The connection can no longer be trusted (EOF,
                    // timeout, desynchronized framing) or the server
                    // refused for a transient availability reason: drop
                    // the connection and retry on a fresh one.
                    self.conn = None;
                    self.counters.reconnects += 1;
                    self.breaker.record_failure(self.now_us());
                    last_error = Some(e);
                    attempt += 1;
                    let wait = self.config.retry.backoff_for(attempt - 1);
                    if Instant::now() + wait >= deadline {
                        break;
                    }
                    std::thread::sleep(wait);
                }
                Err(e) => {
                    // Server / protocol errors are deterministic: the
                    // same request will fail the same way. Count it
                    // against the breaker and surface it.
                    self.breaker.record_failure(self.now_us());
                    return Err(e);
                }
            }
        }
        Err(last_error.unwrap_or_else(|| {
            ClientError::Server("retry budget exhausted with no attempt made".to_string())
        }))
    }
}
