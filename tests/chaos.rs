//! End-to-end chaos: the profile→adapt→serve→persist stack under
//! deterministic fault injection.
//!
//! The contract under test, per ISSUE acceptance criteria:
//!
//! - every preset × seed campaign completes without a panic or wedge;
//! - sustained counter loss drives the controller's confidence down
//!   until it retreats to standard copy (the safe fallback);
//! - same-seed campaigns produce byte-identical serialized reports;
//! - the TCP server survives garbage, oversized lines, and mid-request
//!   stalls with error responses or disconnects — never a hang;
//! - a corrupted registry snapshot is detected at load: the service
//!   counts it and rebuilds from scratch instead of trusting it.

use std::sync::Arc;
use std::time::Duration;

use icomm::adapt::{AdaptController, ControllerConfig};
use icomm::chaos::{chaos_matrix, run_chaos, torture_snapshot, ChaosReport, FaultPlan};
use icomm::microbench::quick_characterize_device;
use icomm::models::CommModelKind;
use icomm::net::{NetConfig, Server, WireMode};
use icomm::serve::{ServiceConfig, TuneRequest, TuningService};
use icomm::soc::DeviceProfile;

fn setup() -> (
    DeviceProfile,
    icomm::microbench::DeviceCharacterization,
    icomm::models::PhasedWorkload,
) {
    let device = DeviceProfile::jetson_tx2();
    let characterization = quick_characterize_device(&device);
    let phased = icomm::apps::ShwfsApp::default().phased_workload(6);
    (device, characterization, phased)
}

#[test]
fn every_preset_survives_the_seed_matrix() {
    let (device, characterization, phased) = setup();
    let seeds = [1u64, 42, 1337];
    for preset in FaultPlan::PRESETS {
        let plan = FaultPlan::preset(preset).unwrap();
        let reports = chaos_matrix(&device, &characterization, &phased, &plan, &seeds);
        for report in &reports {
            assert!(report.passed(), "{preset} seed {}: {report}", report.seed);
            assert_eq!(report.windows, phased.total_windows());
        }
    }
}

#[test]
fn same_seed_campaigns_serialize_byte_identically() {
    let (device, characterization, phased) = setup();
    for preset in ["loss", "hostile", "full"] {
        let plan = FaultPlan::preset(preset).unwrap();
        let a = run_chaos(&device, &characterization, &phased, &plan, 99);
        let b = run_chaos(&device, &characterization, &phased, &plan, 99);
        assert_eq!(
            icomm::persist::to_string(&a).unwrap(),
            icomm::persist::to_string(&b).unwrap(),
            "{preset}: same-seed reports differ"
        );
    }
}

#[test]
fn sustained_counter_loss_forces_the_sc_fallback() {
    // Feed a controller one clean ZC window, then nothing but corrupt
    // samples: confidence must collapse below the fallback threshold and
    // the controller must retreat to (and hold) standard copy.
    let device = DeviceProfile::jetson_tx2();
    let characterization = quick_characterize_device(&device);
    let mut controller = AdaptController::new(
        device,
        characterization,
        ControllerConfig {
            initial_model: CommModelKind::ZeroCopy,
            ..ControllerConfig::default()
        },
    );
    let phased = icomm::apps::ShwfsApp::default().phased_workload(4);
    let mut injector = icomm::chaos::FaultInjector::new(
        FaultPlan {
            nan_prob: 1.0,
            ..FaultPlan::none()
        },
        3,
    );
    let run = icomm::chaos::run_faulted(
        &icomm::soc::DeviceProfile::jetson_tx2(),
        &phased,
        &mut controller,
        &mut injector,
    );
    assert!(
        run.stats.sc_fallbacks >= 1,
        "no SC fallback under total counter corruption: {:?}",
        run.stats
    );
    assert_eq!(
        *run.models.last().unwrap(),
        CommModelKind::StandardCopy,
        "controller did not end on the safe model"
    );
    assert!(run.final_confidence < 0.25, "{}", run.final_confidence);
}

#[test]
fn hostile_campaign_exercises_every_defense() {
    let (device, characterization, phased) = setup();
    let report = run_chaos(
        &device,
        &characterization,
        &phased,
        &FaultPlan::hostile(),
        1337,
    );
    assert!(report.passed(), "{report}");
    assert!(report.quarantined > 0, "{report}");
    assert!(report.lost_windows > 0, "{report}");
    assert!(report.injections.total() > 0, "{report}");
    assert!(report.snapshot_torture.rejected > 0, "{report}");
}

#[test]
fn chaos_report_json_round_trips() {
    let (device, characterization, phased) = setup();
    let report = run_chaos(&device, &characterization, &phased, &FaultPlan::full(), 7);
    let json = icomm::persist::to_string(&report).unwrap();
    let back: ChaosReport = icomm::persist::from_str(&json).unwrap();
    assert_eq!(back, report);
}

#[test]
fn characterization_snapshot_resists_torture() {
    let device = DeviceProfile::jetson_nano();
    let characterization = quick_characterize_device(&device);
    let json = icomm::persist::to_string(&characterization).unwrap();
    let frame = icomm::persist::snapshot::encode(&json);
    let report = torture_snapshot(&frame, 2024, 1000);
    assert!(report.survived(), "silent corruption: {report:?}");
    assert!(report.rejected > 900, "{report:?}");
}

#[test]
fn tcp_server_survives_hostile_clients() {
    let service = Arc::new(TuningService::start(ServiceConfig::quick().with_workers(2)));
    let server = Server::start_with(
        service,
        "127.0.0.1:0",
        NetConfig::default()
            .with_wire(WireMode::Json)
            .with_read_deadline(Some(Duration::from_millis(200))),
    )
    .expect("bind");
    let addr = server.local_addr();

    // Garbage lines: every one gets a malformed-request error response.
    let responses = icomm::chaos::tcp::send_garbage(addr, 5, 8).expect("garbage client");
    assert_eq!(responses, 8, "server stopped answering garbage");

    // An oversized line: rejected with an error naming the bound.
    let response = icomm::chaos::tcp::send_oversized(addr, 64 * 1024).expect("oversized client");
    assert!(response.contains("exceeds"), "{response}");

    // A mid-request stall: disconnected by the read deadline.
    let defended =
        icomm::chaos::tcp::stall_mid_request(addr, Duration::from_secs(5)).expect("stall client");
    assert!(defended, "server never dropped the stalled connection");

    // And the server still serves honest clients afterwards.
    let honest = server.service().handle(TuneRequest::new(1, "tx2", "shwfs"));
    assert!(honest.ok, "{:?}", honest.error);

    let snapshot = server.service().metrics();
    assert!(snapshot.malformed_requests >= 8, "{snapshot:?}");
    assert!(snapshot.oversized_lines >= 1, "{snapshot:?}");
    assert!(snapshot.read_timeouts >= 1, "{snapshot:?}");
    server.stop();
}

#[test]
fn corrupt_registry_snapshot_is_detected_and_rebuilt() {
    let dir = std::env::temp_dir().join(format!("icomm-chaos-reg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("registry.snap");

    // A service persists its registry on shutdown...
    let service = TuningService::start(
        ServiceConfig::quick()
            .with_workers(2)
            .with_registry_path(path.clone()),
    );
    let warm = service.handle(TuneRequest::new(1, "tx2", "shwfs"));
    assert!(warm.ok);
    service.shutdown().unwrap();

    // ...the file tears on disk...
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    // ...and the next start detects it, counts it, and rebuilds.
    let service = TuningService::start(
        ServiceConfig::quick()
            .with_workers(2)
            .with_registry_path(path.clone()),
    );
    assert_eq!(service.metrics().snapshot_corruptions, 1);
    assert_eq!(service.registry().len(), 0, "corrupt snapshot was trusted");
    let rebuilt = service.handle(TuneRequest::new(2, "tx2", "shwfs"));
    assert!(rebuilt.ok);
    assert_eq!(
        rebuilt.cache_hit,
        Some(false),
        "rebuild did not re-characterize"
    );
    service.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
