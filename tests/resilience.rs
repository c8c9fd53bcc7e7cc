//! End-to-end tests of the self-healing serving plane.
//!
//! The contract under test, per ISSUE acceptance criteria:
//!
//! - an injected shard panic mid-traffic is caught by the supervisor,
//!   the shard restarts within its backoff budget, and a resilient
//!   client loses zero responses;
//! - connections parked on the dead shard see a clean EOF (not a
//!   hang) while the other shards keep serving untouched;
//! - the `Health` opcode reports per-shard liveness and restart
//!   counts over the wire;
//! - the circuit breaker trips on a dead endpoint and the retry
//!   deadline bounds the total time spent failing;
//! - exhausted restart budgets take a shard out of rotation and the
//!   acceptor routes new connections around it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use icomm::net::{BinaryClient, NetConfig, PanicPlan, ResilienceConfig, ResilientClient, Server};
use icomm::resilience::{BreakerConfig, BreakerState, RestartPolicy, RetryPolicy};
use icomm::serve::{ServiceConfig, TuneRequest, TuningService};

fn quick_service(workers: usize) -> Arc<TuningService> {
    Arc::new(TuningService::start(
        ServiceConfig::quick().with_workers(workers),
    ))
}

fn resilient_config() -> ResilienceConfig {
    ResilienceConfig {
        retry: RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(100),
            deadline: Duration::from_secs(30),
            jitter_seed: 7,
        },
        breaker: BreakerConfig {
            failure_threshold: 32,
            cooldown: Duration::from_millis(100),
            half_open_probes: 2,
        },
        read_timeout: Duration::from_secs(30),
    }
}

#[test]
fn injected_shard_panics_are_survived_with_zero_lost_responses() {
    let service = quick_service(2);
    // Panic every 40 frames, three times, on a two-shard plane with a
    // fast restart schedule.
    let server = Server::start_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default()
            .with_shards(2)
            .with_restart(RestartPolicy {
                max_restarts: 8,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(50),
            })
            .with_panic_plan(PanicPlan {
                after_frames: 40,
                panics: 3,
            }),
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut client = ResilientClient::with_config(addr, resilient_config());
    let total = 400u64;
    for i in 0..total {
        let board = ["nano", "tx2", "xavier"][i as usize % 3];
        let response = client
            .tune(&TuneRequest::new(i, board, "shwfs"))
            .unwrap_or_else(|e| panic!("request #{i} lost: {e}"));
        assert_eq!(response.id, i, "response routed to wrong request");
        assert!(response.ok, "#{i}: {response:?}");
    }

    // All three injected panics fired and every crash was recovered.
    assert_eq!(server.injected_panics(), 3);
    let health = server.health();
    assert_eq!(health.shards.len(), 2);
    assert_eq!(health.alive, 2, "{health:?}");
    assert_eq!(health.restarts_total, 3, "{health:?}");

    let metrics = service.metrics();
    assert_eq!(metrics.shard_panics, 3, "{metrics:?}");
    assert_eq!(metrics.shard_restarts, 3, "{metrics:?}");
    // The resilient client reconnected after each EOF; no request
    // needed more than the retry budget.
    assert!(client.counters().reconnects >= 3, "{:?}", client.counters());
    assert_eq!(client.breaker_state(), BreakerState::Closed);

    server.stop();
}

#[test]
fn dead_shard_connections_see_clean_eof_while_others_keep_serving() {
    let service = quick_service(2);
    let server = Server::start_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default()
            .with_shards(2)
            .with_restart(RestartPolicy {
                max_restarts: 4,
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(50),
            })
            // One panic, far enough out that we control when it fires.
            .with_panic_plan(PanicPlan {
                after_frames: 10,
                panics: 1,
            }),
    )
    .expect("bind");
    let addr = server.local_addr();

    // The acceptor deals round-robin: even connections land on shard
    // 0, odd on shard 1. Open four and warm them all up.
    let mut clients: Vec<BinaryClient> = (0..4)
        .map(|i| {
            BinaryClient::connect_timeout(addr, Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("connect #{i}: {e}"))
        })
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let response = client
            .tune(&TuneRequest::new(i as u64, "tx2", "orb"))
            .unwrap_or_else(|e| panic!("warmup #{i}: {e}"));
        assert!(response.ok);
    }

    // Drive frames until the injector fires (10 frames total across
    // the plane; the 4 warmups plus these hit it). Requests racing
    // the panic may error — that is the point.
    let mut eof_seen = false;
    for round in 0..20u64 {
        let idx = (round % 4) as usize;
        if clients[idx]
            .tune(&TuneRequest::new(100 + round, "nano", "shwfs"))
            .is_err()
        {
            eof_seen = true;
            break;
        }
        if server.injected_panics() > 0 {
            break;
        }
    }
    assert!(
        eof_seen || server.injected_panics() > 0,
        "panic never fired"
    );

    // Every connection parked on the crashed shard must resolve to a
    // clean EOF promptly — never a hang. Connections on the healthy
    // shard keep serving. We don't know which shard crashed, so
    // accept either outcome per connection but require both kinds of
    // evidence to be consistent: at least one connection still works
    // (the other shard was untouched).
    let mut survivors = 0usize;
    for (i, client) in clients.iter_mut().enumerate() {
        let started = Instant::now();
        match client.tune(&TuneRequest::new(200 + i as u64, "tx2", "orb")) {
            Ok(response) => {
                assert!(response.ok, "#{i}: {response:?}");
                survivors += 1;
            }
            Err(e) => {
                assert!(
                    started.elapsed() < Duration::from_secs(5),
                    "orphaned connection hung instead of clean EOF: {e}"
                );
            }
        }
    }
    assert!(survivors >= 1, "healthy shard stopped serving");

    // The supervisor restarted the crashed shard; new connections on
    // it serve again.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let health = server.health();
        if health.alive == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shard never restarted: {health:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut fresh = BinaryClient::connect_timeout(addr, Duration::from_secs(10)).expect("connect");
    let response = fresh
        .tune(&TuneRequest::new(999, "xavier", "lane"))
        .expect("post-restart tune");
    assert!(response.ok);

    // Orphaned connections were reconciled out of the global gauge.
    let metrics = service.metrics();
    assert!(metrics.conns_orphaned >= 1, "{metrics:?}");

    server.stop();
}

#[test]
fn health_opcode_reports_liveness_over_the_wire() {
    let service = quick_service(1);
    let server = Server::start_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default().with_shards(3),
    )
    .expect("bind");

    let mut client = BinaryClient::connect_timeout(server.local_addr(), Duration::from_secs(10))
        .expect("connect");
    let health = client.health().expect("health");
    assert_eq!(health.shards.len(), 3);
    assert_eq!(health.alive, 3);
    assert_eq!(health.restarts_total, 0);
    assert!(health.shards.iter().all(|s| s.alive));
    // This very connection is counted by the shard that adopted it.
    let open: u64 = health.shards.iter().map(|s| s.open_conns).sum();
    assert_eq!(open, 1, "{health:?}");

    server.stop();
}

#[test]
fn breaker_trips_on_dead_endpoint_and_deadline_bounds_the_failure() {
    // Grab a port that is then closed again: connects will be refused.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };

    let config = ResilienceConfig {
        retry: RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(5),
            deadline: Duration::from_secs(2),
            jitter_seed: 11,
        },
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(60),
            half_open_probes: 1,
        },
        read_timeout: Duration::from_millis(200),
    };
    let mut client = ResilientClient::with_config(addr, config);

    let started = Instant::now();
    let err = client
        .tune(&TuneRequest::new(1, "tx2", "orb"))
        .expect_err("dead endpoint must fail");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline ignored"
    );
    assert!(
        matches!(err, icomm::net::ClientError::Io(_)),
        "unexpected error shape: {err:?}"
    );
    // Three consecutive failures tripped the breaker; later attempts
    // were rejected without touching the network.
    assert_eq!(client.breaker_state(), BreakerState::Open);
    assert_eq!(client.breaker_trips(), 1);
    assert!(
        client.counters().breaker_rejections >= 1,
        "{:?}",
        client.counters()
    );

    // A second call fails fast on the open breaker.
    let started = Instant::now();
    let _ = client.tune(&TuneRequest::new(2, "tx2", "orb"));
    assert!(started.elapsed() < Duration::from_secs(5));

    // Once the endpoint comes back and the cooldown elapses, the
    // half-open probe re-closes the breaker. (Covered by unit tests
    // on CircuitBreaker; the wire-level path is exercised above.)
}

#[test]
fn exhausted_restart_budget_takes_the_shard_out_of_rotation() {
    let service = quick_service(1);
    // A single shard with zero allowed restarts and an endless supply
    // of injected panics: the first crash is final.
    let server = Server::start_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default()
            .with_shards(1)
            .with_restart(RestartPolicy {
                max_restarts: 0,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(1),
            })
            .with_panic_plan(PanicPlan {
                after_frames: 1,
                panics: 1000,
            }),
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut client = BinaryClient::connect_timeout(addr, Duration::from_secs(10)).expect("connect");
    let _ = client.tune(&TuneRequest::new(1, "tx2", "orb"));

    // Wait for the supervisor to give up.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.health().alive > 0 {
        assert!(Instant::now() < deadline, "shard never went dark");
        std::thread::sleep(Duration::from_millis(10));
    }

    // With every shard dark, new connections are refused with an
    // explicit error, not a hang.
    let mut late = BinaryClient::connect_timeout(addr, Duration::from_secs(10)).expect("connect");
    let err = late
        .tune(&TuneRequest::new(2, "tx2", "orb"))
        .expect_err("dark plane must refuse");
    match err {
        icomm::net::ClientError::Server(message) => {
            assert!(message.contains("no shard"), "{message}");
        }
        icomm::net::ClientError::Io(_) => {} // refusal raced our write
        other => panic!("unexpected refusal shape: {other:?}"),
    }

    server.stop();
}
