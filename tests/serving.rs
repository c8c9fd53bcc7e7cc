//! Integration tests for the serving layer: single-flight registry
//! semantics under contention, batch throughput through the worker pool,
//! graceful drain, warm starts from a persisted registry, and the TCP
//! front end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use icomm::apps::catalog::{board_by_name, workload_by_name, APP_NAMES, BOARD_NAMES};
use icomm::core::{recommend_for_device, Tuner};
use icomm::microbench::{quick_characterize_device, DeviceCharacterization};
use icomm::models::CommModelKind;
use icomm::net::{NetConfig, Server, WireMode};
use icomm::serve::{Registry, ServiceConfig, TuneRequest, TuneResponse, TuningService};
use icomm::soc::DeviceProfile;

fn all_profiles() -> Vec<DeviceProfile> {
    DeviceProfile::extended_boards()
}

fn quick_service(workers: usize) -> TuningService {
    TuningService::start(ServiceConfig::quick().with_workers(workers))
}

/// A file path in the system temp dir unique to this test process.
fn scratch_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("icomm-serving-{tag}-{}.json", std::process::id()))
}

/// Satellite (c): many threads hammering every profile characterize each
/// device exactly once, observe identical results, and produce
/// recommendations bit-for-bit equal to the sequential tuner's.
#[test]
fn contended_registry_characterizes_each_device_exactly_once() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 4;
    let registry = Registry::default();
    let profiles = all_profiles();
    let runs = AtomicUsize::new(0);

    let results: Vec<Vec<Arc<DeviceCharacterization>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut seen = Vec::new();
                    for _ in 0..ROUNDS {
                        for device in &profiles {
                            let (characterization, _) = registry.get_or_characterize(device, |d| {
                                runs.fetch_add(1, Ordering::SeqCst);
                                quick_characterize_device(d)
                            });
                            seen.push(characterization);
                        }
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one characterization run per device, no matter the
    // contention.
    assert_eq!(runs.load(Ordering::SeqCst), profiles.len());
    assert_eq!(registry.characterization_runs(), profiles.len() as u64);

    // Every thread observed the same characterization per device.
    for thread_results in &results {
        for (i, characterization) in thread_results.iter().enumerate() {
            let device = &profiles[i % profiles.len()];
            let canonical = registry.get(device).expect("cached after the hammering");
            assert_eq!(characterization.as_ref(), canonical.as_ref());
        }
    }

    // Recommendations built from the registry's entries are bit-for-bit
    // the sequential tuner's.
    for device in &profiles {
        let characterization = registry.get(device).unwrap();
        let tuner = Tuner::with_characterization(device.clone(), (*characterization).clone());
        for app in APP_NAMES {
            let workload = workload_by_name(app).expect("catalog app resolves");
            let concurrent = recommend_for_device(
                device,
                &characterization,
                &workload,
                CommModelKind::StandardCopy,
            );
            let sequential = tuner.recommend(&workload, CommModelKind::StandardCopy);
            assert_eq!(concurrent, sequential, "{} / {app}", device.name);
        }
    }
}

/// Acceptance criterion: a batch of 200+ requests over every profile
/// (the Jetsons plus the hardware-coherent presets) completes with
/// exactly one characterization run per board, a >= 96 % cache hit
/// rate, and recommendations identical to the sequential tuner.
#[test]
fn large_batch_over_all_boards_characterizes_each_once() {
    const REQUESTS: u64 = 204;
    let service = quick_service(4);
    let requests: Vec<TuneRequest> = (0..REQUESTS)
        .map(|i| {
            TuneRequest::new(
                i,
                BOARD_NAMES[((i / APP_NAMES.len() as u64) % BOARD_NAMES.len() as u64) as usize],
                APP_NAMES[(i % APP_NAMES.len() as u64) as usize],
            )
        })
        .collect();
    let responses = service.submit_batch(requests.clone()).wait();

    assert_eq!(responses.len(), REQUESTS as usize);
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(response.id, i as u64);
        assert!(response.ok, "request {i}: {:?}", response.error);
    }

    let snapshot = service.metrics();
    assert_eq!(
        snapshot.characterizations,
        BOARD_NAMES.len() as u64,
        "one characterization per device profile"
    );
    assert!(
        snapshot.hit_rate() >= 0.96,
        "hit rate {:.3} below 96%",
        snapshot.hit_rate()
    );
    assert_eq!(snapshot.completed, REQUESTS);
    assert_eq!(snapshot.failed, 0);
    assert_eq!(snapshot.queue_depth, 0);

    // Spot-check every (board, app) pair against the sequential tuner.
    for board in BOARD_NAMES {
        let device = board_by_name(board).expect("catalog board resolves");
        let tuner =
            Tuner::with_characterization(device.clone(), quick_characterize_device(&device));
        for app in APP_NAMES {
            let workload = workload_by_name(app).expect("catalog app resolves");
            let outcome = tuner.recommend(&workload, CommModelKind::StandardCopy);
            let rec = &outcome.recommendation;
            let response = responses
                .iter()
                .zip(&requests)
                .find(|(_, req)| req.board == board && req.app == app)
                .map(|(resp, _)| resp)
                .expect("every pair appears in the round-robin requests");
            assert_eq!(
                response.recommended.as_deref(),
                Some(rec.recommended.abbrev()),
                "{board}/{app}"
            );
            assert_eq!(response.switch_suggested, Some(rec.suggests_switch()));
            assert_eq!(
                response.estimated_speedup,
                rec.estimated_speedup.as_ref().map(|s| s.estimated),
                "{board}/{app} speedup must be bit-identical"
            );
            assert_eq!(
                response.rationale.as_deref(),
                Some(rec.rationale.as_str()),
                "{board}/{app}"
            );
        }
    }

    service.shutdown().unwrap();
}

/// Acceptance criterion: graceful shutdown drains the queue — every
/// submitted request still gets a response.
#[test]
fn shutdown_drains_queued_requests() {
    let service = quick_service(4);
    let requests: Vec<TuneRequest> = (0..60)
        .map(|i| TuneRequest::new(i, BOARD_NAMES[(i % 4) as usize], "lane"))
        .collect();
    let handle = service.submit_batch(requests);
    // Shut down immediately: the drain must finish the whole batch first.
    service.shutdown().unwrap();
    let responses = handle.wait();
    assert_eq!(responses.len(), 60);
    assert!(responses.iter().all(|r| r.ok));
}

/// Acceptance criterion: a warm start from the persisted registry skips
/// re-characterization entirely.
#[test]
fn warm_start_skips_recharacterization() {
    let path = scratch_path("warm-start");
    let _ = std::fs::remove_file(&path);

    // Cold run: characterizes, then persists on shutdown.
    let cold = TuningService::start(
        ServiceConfig::quick()
            .with_workers(2)
            .with_registry_path(path.clone()),
    );
    let cold_responses = cold
        .submit_batch(vec![
            TuneRequest::new(0, "tx2", "orb"),
            TuneRequest::new(1, "xavier", "shwfs"),
        ])
        .wait();
    assert!(cold_responses.iter().all(|r| r.ok));
    assert_eq!(cold.metrics().characterizations, 2);
    cold.shutdown().unwrap();
    assert!(path.exists(), "shutdown persists the registry");

    // Warm run: same boards come straight from the snapshot.
    let warm = TuningService::start(
        ServiceConfig::quick()
            .with_workers(2)
            .with_registry_path(path.clone()),
    );
    assert_eq!(
        warm.registry().len(),
        2,
        "snapshot warm-starts the registry"
    );
    let warm_responses = warm
        .submit_batch(vec![
            TuneRequest::new(0, "tx2", "orb"),
            TuneRequest::new(1, "xavier", "shwfs"),
        ])
        .wait();
    assert!(warm_responses.iter().all(|r| r.ok));
    let snapshot = warm.metrics();
    assert_eq!(snapshot.characterizations, 0, "no re-characterization");
    assert_eq!(snapshot.cache_hits, 2);
    // The warm answers match the cold ones.
    for (cold_r, warm_r) in cold_responses.iter().zip(&warm_responses) {
        assert_eq!(cold_r.recommended, warm_r.recommended);
        assert_eq!(cold_r.estimated_speedup, warm_r.estimated_speedup);
        assert_eq!(cold_r.rationale, warm_r.rationale);
    }
    warm.shutdown().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// The TCP front end round-trips line-JSON requests and shares the
/// service registry across connections.
#[test]
fn tcp_server_round_trips_and_shares_the_registry() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let service = Arc::new(quick_service(2));
    let server = Server::start_with(
        service,
        "127.0.0.1:0",
        NetConfig::default().with_wire(WireMode::Json),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let send = |requests: &[TuneRequest]| -> Vec<TuneResponse> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for request in requests {
            let line = icomm::persist::to_string(request).unwrap();
            writeln!(stream, "{line}").unwrap();
        }
        stream.flush().unwrap();
        BufReader::new(stream)
            .lines()
            .take(requests.len())
            .map(|line| icomm::persist::from_str(&line.unwrap()).unwrap())
            .collect()
    };

    // First connection characterizes; the second one only hits the cache.
    let first = send(&[
        TuneRequest::new(1, "xavier", "shwfs"),
        TuneRequest::new(2, "xavier", "orb").with_current("zc"),
    ]);
    assert!(first.iter().all(|r| r.ok));
    assert_eq!(first[0].recommended.as_deref(), Some("ZC"));

    let second = send(&[TuneRequest::new(3, "xavier", "lane")]);
    assert!(second[0].ok);
    assert_eq!(second[0].cache_hit, Some(true));

    let service = server.stop();
    assert_eq!(service.metrics().characterizations, 1);
    Arc::try_unwrap(service)
        .expect("server released its handle")
        .shutdown()
        .unwrap();
}
