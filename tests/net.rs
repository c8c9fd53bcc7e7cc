//! End-to-end tests of the binary serving plane.
//!
//! The contract under test, per ISSUE acceptance criteria:
//!
//! - every request opcode round-trips through a live server;
//! - a `Batch` frame returns one reply carrying every response, with
//!   client-chosen ids restored (including colliding ids);
//! - the same request yields a byte-identical decision payload on the
//!   JSON listener and the binary listener (protocol parity);
//! - 1 000 concurrently open connections each get their response —
//!   zero lost replies, zero refusals below the connection cap;
//! - hostile clients (garbage, hostile lengths, CRC flips, mid-frame
//!   stalls) are counted and refused without wedging a shard;
//! - the global connection cap turns extra clients away with an
//!   explicit error frame.

use std::sync::Arc;
use std::time::Duration;

use icomm::chaos::tcp::{
    binary_corrupt_crc, binary_garbage, binary_oversized, binary_truncated, BinaryDefense,
};
use icomm::net::{BinaryClient, NetConfig, Server, WireMode};
use icomm::serve::{ServiceConfig, TuneRequest, TuningService};

fn quick_service(workers: usize) -> Arc<TuningService> {
    Arc::new(TuningService::start(
        ServiceConfig::quick().with_workers(workers),
    ))
}

#[test]
fn every_request_opcode_round_trips() {
    let service = quick_service(2);
    let server = Server::start(service, "127.0.0.1:0").expect("bind");
    let mut client = BinaryClient::connect_timeout(server.local_addr(), Duration::from_secs(30))
        .expect("connect");

    // Tune.
    let response = client
        .tune(&TuneRequest::new(7, "tx2", "orb"))
        .expect("tune");
    assert_eq!(response.id, 7);
    assert!(response.ok, "{response:?}");
    assert!(response.recommended.is_some());

    // Batch, with colliding client ids: the server must still route
    // every response to its slot and restore the original ids.
    let requests = vec![
        TuneRequest::new(42, "nano", "shwfs"),
        TuneRequest::new(42, "xavier", "lane"),
        TuneRequest::new(7, "tx2", "orb"),
    ];
    let responses = client.tune_batch(&requests).expect("batch");
    assert_eq!(responses.len(), 3);
    assert_eq!(responses[0].id, 42);
    assert_eq!(responses[1].id, 42);
    assert_eq!(responses[2].id, 7);
    assert_eq!(responses[0].board.as_deref(), Some("nano"));
    assert_eq!(responses[1].board.as_deref(), Some("xavier"));
    assert!(responses.iter().all(|r| r.ok), "{responses:?}");

    // Characterize.
    let characterization = client.characterize("tx2").expect("characterize");
    assert_eq!(characterization.device, "Jetson TX2");

    // Stats — served and consistent with what the transport did.
    let stats = client.stats().expect("stats");
    assert!(stats.requests >= 4, "{stats:?}");
    assert_eq!(stats.conn_accepted, 1);

    // Unknown board: an explicit server error, not a wedge.
    let err = client.characterize("pdp11").expect_err("unknown board");
    assert!(matches!(err, icomm::net::ClientError::Server(_)), "{err:?}");

    server.stop();
}

#[test]
fn json_and_binary_planes_agree_on_decisions() {
    let service = quick_service(2);
    let json = Server::start_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default().with_wire(WireMode::Json),
    )
    .expect("json bind");
    let binary = Server::start(Arc::clone(&service), "127.0.0.1:0").expect("binary bind");

    let cases = [
        ("tx2", "orb", None),
        ("nano", "shwfs", Some("SC")),
        ("xavier", "lane", Some("ZC")),
        ("tx2", "shwfs", None),
        ("pdp11", "orb", None), // unknown board: same failure on both
    ];
    let mut client = BinaryClient::connect_timeout(binary.local_addr(), Duration::from_secs(30))
        .expect("connect");
    for (i, (board, app, current)) in cases.iter().enumerate() {
        let mut request = TuneRequest::new(1000 + i as u64, board, app);
        if let Some(current) = current {
            request = request.with_current(current);
        }

        let binary_response = client.tune(&request).expect("binary tune");

        let stream = std::net::TcpStream::connect(json.local_addr()).expect("json connect");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let line = icomm::persist::to_string(&request).expect("encode");
        std::io::Write::write_all(&mut writer, format!("{line}\n").as_bytes()).expect("write");
        let mut reply = String::new();
        std::io::BufRead::read_line(&mut reader, &mut reply).expect("read");
        let json_response: icomm::serve::TuneResponse =
            icomm::persist::from_str(reply.trim_end()).expect("decode");

        assert_eq!(
            json_response.decision_payload(),
            binary_response.decision_payload(),
            "plane divergence for {board}/{app}"
        );
    }

    json.stop();
    binary.stop();
}

#[test]
fn a_thousand_concurrent_connections_lose_nothing() {
    let service = quick_service(4);
    let server = Server::start_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default()
            .with_shards(2)
            .with_max_connections(4096),
    )
    .expect("bind");
    let addr = server.local_addr();

    // Open 1 000 connections and hold every one open.
    let mut clients: Vec<BinaryClient> = (0..1000)
        .map(|i| {
            BinaryClient::connect_timeout(addr, Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("connect #{i}: {e}"))
        })
        .collect();

    // Every connection serves a request while all 1 000 stay open.
    for (i, client) in clients.iter_mut().enumerate() {
        let board = ["nano", "tx2", "xavier"][i % 3];
        let response = client
            .tune(&TuneRequest::new(i as u64, board, "shwfs"))
            .unwrap_or_else(|e| panic!("tune #{i}: {e}"));
        assert_eq!(response.id, i as u64, "response routed to wrong client");
        assert!(response.ok, "#{i}: {response:?}");
    }

    let stats = service.metrics();
    assert_eq!(stats.conn_accepted, 1000);
    assert_eq!(stats.conn_rejected, 0);
    assert!(server.open_connections() >= 1000);

    drop(clients);
    server.stop();
}

#[test]
fn hostile_binary_clients_are_counted_and_refused() {
    let service = quick_service(2);
    let server = Server::start_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default().with_read_deadline(Some(Duration::from_millis(300))),
    )
    .expect("bind");
    let addr = server.local_addr();
    let before = service.metrics();

    // Garbage that never frames: length bound or CRC refuses it.
    for seed in [1u64, 2, 3] {
        let defense = binary_garbage(addr, seed, 256).expect("garbage probe");
        assert!(
            matches!(
                defense,
                BinaryDefense::ErrorFrame | BinaryDefense::Disconnected
            ),
            "garbage seed {seed}: {defense:?}"
        );
    }

    // A 1 GiB advertised length: refused before any body is buffered.
    let defense = binary_oversized(addr, 1 << 30).expect("oversized probe");
    assert!(
        matches!(
            defense,
            BinaryDefense::ErrorFrame | BinaryDefense::Disconnected
        ),
        "oversized: {defense:?}"
    );

    // A CRC bit-flip on an otherwise valid frame.
    let defense = binary_corrupt_crc(addr, 99).expect("crc probe");
    assert!(
        matches!(
            defense,
            BinaryDefense::ErrorFrame | BinaryDefense::Disconnected
        ),
        "crc flip: {defense:?}"
    );

    // A mid-frame stall: the read deadline must cut us off.
    let disconnected = binary_truncated(addr, 5, Duration::from_secs(10)).expect("truncated probe");
    assert!(disconnected, "server never dropped a mid-frame staller");

    let after = service.metrics();
    assert!(
        after.frame_faults() > before.frame_faults(),
        "hostile frames not counted: {after:?}"
    );
    assert!(after.frame_oversized >= 1, "{after:?}");
    assert!(after.frame_crc_errors >= 1, "{after:?}");
    assert!(after.read_timeouts >= 1, "{after:?}");

    // The plane still serves a healthy client afterwards.
    let mut client = BinaryClient::connect_timeout(addr, Duration::from_secs(30)).expect("connect");
    let response = client
        .tune(&TuneRequest::new(1, "tx2", "orb"))
        .expect("tune");
    assert!(response.ok, "{response:?}");

    server.stop();
}

#[test]
fn connection_cap_refuses_with_an_error_frame() {
    let service = quick_service(1);
    let server = Server::start_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default().with_shards(1).with_max_connections(2),
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut first = BinaryClient::connect_timeout(addr, Duration::from_secs(30)).expect("first");
    let mut second = BinaryClient::connect_timeout(addr, Duration::from_secs(30)).expect("second");
    // Prove both are actually registered before the cap check matters.
    assert!(
        first
            .tune(&TuneRequest::new(1, "tx2", "orb"))
            .expect("tune")
            .ok
    );
    assert!(
        second
            .tune(&TuneRequest::new(2, "nano", "shwfs"))
            .expect("tune")
            .ok
    );

    let mut third =
        BinaryClient::connect_timeout(addr, Duration::from_secs(10)).expect("third connects");
    let err = third
        .tune(&TuneRequest::new(3, "tx2", "orb"))
        .expect_err("third client must be refused");
    match err {
        icomm::net::ClientError::Server(message) => {
            assert!(message.contains("capacity"), "{message}");
        }
        // The refusal frame may race our write; a hangup is also a
        // refusal.
        icomm::net::ClientError::Io(_) => {}
        other => panic!("unexpected refusal shape: {other:?}"),
    }
    assert!(service.metrics().conn_rejected >= 1);

    server.stop();
}

#[test]
fn loadgen_drives_both_planes() {
    let service = quick_service(2);
    let json = Server::start_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default().with_wire(WireMode::Json),
    )
    .expect("json bind");
    let binary = Server::start(Arc::clone(&service), "127.0.0.1:0").expect("binary bind");

    icomm::net::warmup(binary.local_addr(), WireMode::Binary).expect("warmup");

    let json_report = icomm::net::run_load(json.local_addr(), WireMode::Json, 2, 20, 1);
    assert_eq!(json_report.sent, 40);
    assert_eq!(json_report.ok, 40, "{json_report:?}");
    assert_eq!(json_report.failed, 0);

    let binary_report = icomm::net::run_load(binary.local_addr(), WireMode::Binary, 2, 20, 8);
    assert_eq!(binary_report.sent, 40);
    assert_eq!(binary_report.ok, 40, "{binary_report:?}");
    assert_eq!(binary_report.failed, 0);
    assert!(binary_report.rps > 0.0);

    json.stop();
    binary.stop();
}
