//! End-to-end tests of both codecs on one serving plane.
//!
//! The line-JSON codec keeps every promise of a line-JSON server: one
//! reply line per request in request order, the stats verb, malformed
//! lines answered without a close, a bounded line length, a mid-line
//! stall deadline, and a connection cap (the plain round trip is
//! `tests/serving.rs`'s). The ordering check and the plane's bound on
//! the replies a peer leaves unread run against both codecs; the
//! decision cache answers binary repeats only, and line JSON runs the
//! engine for every tune.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use icomm_net::wire::{
    decode_batch_response, decode_tune_response, encode_batch_request, encode_tune_request,
    frame_bytes, Opcode,
};
use icomm_net::{BinaryClient, JsonClient, NetConfig, Server, WireMode, MAX_QUEUED_REPLIES};
use icomm_serve::{ServiceConfig, StatsReport, TuneRequest, TuneResponse, TuningService};

const TIMEOUT: Duration = Duration::from_secs(60);

fn start(wire: WireMode, config: NetConfig) -> Server {
    let service = Arc::new(TuningService::start(ServiceConfig::quick().with_workers(2)));
    Server::start_with(service, "127.0.0.1:0", config.with_wire(wire)).expect("bind")
}

fn json_server() -> Server {
    start(WireMode::Json, NetConfig::default())
}

/// Writes every line in one write, then reads one reply line per line.
fn round_trip(addr: SocketAddr, lines: &[String]) -> Vec<TuneResponse> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
    stream.write_all(text.as_bytes()).unwrap();
    BufReader::new(stream)
        .lines()
        .take(lines.len())
        .map(|line| icomm_persist::from_str(&line.unwrap()).unwrap())
        .collect()
}

fn request_line(request: &TuneRequest) -> String {
    icomm_persist::to_string(request).unwrap()
}

/// Polls until `done` holds, failing after a few seconds.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "{what} never happened");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn malformed_line_gets_an_error_reply_and_the_connection_reads_on() {
    let server = json_server();
    let honest = request_line(&TuneRequest::new(2, "nano", "lane"));
    let responses = round_trip(server.local_addr(), &["{not json".to_string(), honest]);
    assert!(!responses[0].ok);
    assert_eq!(responses[0].id, 0);
    let error = responses[0].error.as_deref().unwrap();
    assert!(error.starts_with("malformed request: "), "{error}");
    assert!(responses[1].ok, "{:?}", responses[1]);
    assert_eq!(server.service().metrics().malformed_requests, 1);
    server.stop();
}

#[test]
fn pipelined_json_requests_answer_in_order() {
    let server = json_server();
    let lines: Vec<String> = (0..4)
        .map(|i| request_line(&TuneRequest::new(i, "nano", "lane")))
        .collect();
    let responses = round_trip(server.local_addr(), &lines);
    let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3]);
    assert!(responses.iter().all(|r| r.ok), "{responses:?}");
    // One characterization served all four.
    assert_eq!(server.service().metrics().characterizations, 1);
    server.stop();
}

#[test]
fn stats_verb_reports_counters_on_the_wire() {
    let server = json_server();
    let mut client = JsonClient::connect_timeout(server.local_addr(), TIMEOUT).unwrap();
    assert!(client.tune(&TuneRequest::new(1, "tx2", "orb")).unwrap().ok);
    let report = client.stats().unwrap();
    assert_eq!(report.requests, 1);
    assert_eq!(report.completed, 1);
    assert_eq!(report.characterizations, 1);
    assert!(report.latency_p99_us > 0);
    // The stats line is not counted as malformed.
    assert_eq!(server.service().metrics().malformed_requests, 0);
    server.stop();
}

#[test]
fn oversized_line_is_refused_counted_and_closed() {
    let server = json_server();
    let mut client = JsonClient::connect_timeout(server.local_addr(), TIMEOUT).unwrap();
    let reply = client.exchange(&"x".repeat(64 * 1024)).unwrap();
    let response: TuneResponse = icomm_persist::from_str(reply.trim_end()).unwrap();
    assert!(!response.ok);
    assert_eq!(
        response.error.as_deref(),
        Some("request line exceeds 65536 bytes")
    );
    assert!(client.exchange("{\"stats\": true}").is_err(), "still open");
    assert_eq!(server.service().metrics().oversized_lines, 1);
    server.stop();
}

#[test]
fn stalled_json_client_hits_the_read_deadline() {
    let config = NetConfig::default().with_read_deadline(Some(Duration::from_millis(80)));
    let server = start(WireMode::Json, config);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Half a line, then stall past the deadline.
    stream.write_all(b"{\"id\": 1,").unwrap();
    wait_for("the read deadline", || {
        server.service().metrics().read_timeouts == 1
    });
    server.stop();
}

#[test]
fn json_connections_beyond_the_cap_are_turned_away() {
    let server = start(WireMode::Json, NetConfig::default().with_max_connections(1));
    // The first connection holds its slot open.
    let _held = TcpStream::connect(server.local_addr()).unwrap();
    wait_for("the first accept", || server.open_connections() == 1);
    let refused = TcpStream::connect(server.local_addr()).unwrap();
    refused.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut line = String::new();
    BufReader::new(refused).read_line(&mut line).unwrap();
    let response: TuneResponse = icomm_persist::from_str(line.trim_end()).unwrap();
    assert!(!response.ok);
    assert_eq!(
        response.error.as_deref(),
        Some("server at connection capacity")
    );
    assert_eq!(server.service().metrics().conn_rejected, 1);
    server.stop();
}

#[test]
fn a_last_line_without_its_newline_is_answered_before_the_close() {
    let server = json_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    let line = request_line(&TuneRequest::new(4, "tx2", "shwfs"));
    stream.write_all(line.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut replies = String::new();
    std::io::Read::read_to_string(&mut stream, &mut replies).unwrap();
    let response: TuneResponse = icomm_persist::from_str(replies.trim_end()).unwrap();
    assert_eq!(response.id, 4);
    assert!(response.ok, "{response:?}");
    server.stop();
}

/// The key warmed into the shard's decision cache, and one that is not
/// in it (same board, so no new characterization).
fn cached_key(id: u64) -> TuneRequest {
    TuneRequest::new(id, "tx2", "orb")
}

fn uncached_key(id: u64) -> TuneRequest {
    TuneRequest::new(id, "tx2", "lane")
}

#[test]
fn pipelined_binary_replies_leave_in_request_order() {
    let server = start(WireMode::Binary, NetConfig::default().with_shards(1));
    let mut client = BinaryClient::connect_timeout(server.local_addr(), TIMEOUT).unwrap();
    assert!(client.tune(&cached_key(0)).unwrap().ok);

    // An engine-bound request, then a cache hit, then stats: one write.
    let mut bytes = frame_bytes(Opcode::Tune, &encode_tune_request(&uncached_key(1)));
    bytes.extend(frame_bytes(
        Opcode::Tune,
        &encode_tune_request(&cached_key(2)),
    ));
    bytes.extend(frame_bytes(Opcode::Stats, &[]));
    client.send_raw(&bytes).unwrap();
    let replies: Vec<_> = (0..3).map(|_| client.read_frame().unwrap()).collect();
    let opcodes: Vec<Opcode> = replies.iter().map(|f| f.opcode).collect();
    assert_eq!(
        opcodes,
        [Opcode::TuneReply, Opcode::TuneReply, Opcode::StatsReply]
    );
    let ids: Vec<u64> = replies[..2]
        .iter()
        .map(|f| decode_tune_response(&f.body).unwrap().id)
        .collect();
    assert_eq!(ids, [1, 2]);
    let report: StatsReport =
        icomm_persist::from_str(std::str::from_utf8(&replies[2].body).unwrap()).unwrap();
    assert_eq!((report.requests, report.completed), (3, 3));
    server.stop();
}

/// A raw JSON connection: the socket to write to and a reader of its
/// reply lines.
fn json_conn(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// A [`json_conn`] to a server that has served [`cached_key`], so its
/// board is characterized.
fn warm_json_conn(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let (mut stream, mut reader) = json_conn(server);
    let warm = format!("{}\n", request_line(&cached_key(0)));
    stream.write_all(warm.as_bytes()).unwrap();
    let _: TuneResponse = read_reply(&mut reader);
    (stream, reader)
}

fn read_reply<T: serde::de::DeserializeOwned>(reader: &mut BufReader<TcpStream>) -> T {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    icomm_persist::from_str(line.trim_end()).unwrap()
}

#[test]
fn pipelined_json_replies_leave_in_request_order() {
    let server = start(WireMode::Json, NetConfig::default().with_shards(1));
    let (mut stream, mut reader) = warm_json_conn(&server);
    let pipelined = format!(
        "{}\n{}\n{{\"stats\": true}}\n",
        request_line(&uncached_key(1)),
        request_line(&cached_key(2))
    );
    stream.write_all(pipelined.as_bytes()).unwrap();
    let ids: Vec<u64> = (0..2)
        .map(|_| read_reply::<TuneResponse>(&mut reader).id)
        .collect();
    assert_eq!(ids, [1, 2]);
    let report: StatsReport = read_reply(&mut reader);
    // The report covers both requests pipelined ahead of it, each of
    // which the engine answered.
    assert_eq!((report.requests, report.completed), (3, 3));
    assert_eq!(report.decision_cache_hits, 0);
    server.stop();
}

/// A decision-cache hit reports a cached characterization and its own
/// latency, not those of the computation it replays.
fn assert_hit_provenance(miss: &TuneResponse, hit: &TuneResponse) {
    assert_eq!(miss.decision_payload(), hit.decision_payload());
    assert_eq!(hit.cache_hit, Some(true));
    let (miss_us, hit_us) = (miss.latency_us.unwrap(), hit.latency_us.unwrap());
    assert!(hit_us < miss_us, "hit {hit_us} us, miss {miss_us} us");
}

#[test]
fn decision_cache_hits_report_their_own_provenance() {
    let server = start(WireMode::Binary, NetConfig::default().with_shards(1));
    let mut binary = BinaryClient::connect_timeout(server.local_addr(), TIMEOUT).unwrap();
    let miss = binary.tune(&cached_key(1)).unwrap();
    assert_eq!(miss.cache_hit, Some(false), "first request characterizes");
    let hit = binary.tune(&cached_key(2)).unwrap();
    assert_hit_provenance(&miss, &hit);
    assert_eq!(server.service().metrics().decision_cache_hits, 1);
    server.stop();
}

#[test]
fn json_repeats_are_decided_again() {
    let server = start(WireMode::Json, NetConfig::default().with_shards(1));
    let mut json = JsonClient::connect_timeout(server.local_addr(), TIMEOUT).unwrap();
    let first = json.tune(&uncached_key(1)).unwrap();
    let again = json.tune(&uncached_key(2)).unwrap();
    assert_eq!(first.decision_payload(), again.decision_payload());
    assert_eq!(first.cache_hit, Some(false), "first request characterizes");
    // The repeat reuses the characterization, not the decision.
    assert_eq!(again.cache_hit, Some(true));
    let metrics = server.service().metrics();
    assert_eq!((metrics.decision_cache_hits, metrics.completed), (0, 2));
    server.stop();
}

#[test]
fn a_peer_that_does_not_read_is_read_no_further() {
    let server = json_server();
    let (mut writer, mut reader) = json_conn(&server);

    // Thousands of malformed lines and stats verbs, answered without
    // the engine, none of them read until the burst has had time to
    // pile up on the server.
    const PAIRS: u64 = 3_000;
    let burst = "not json\n{\"stats\": true}\n".repeat(PAIRS as usize);
    let sender = std::thread::spawn(move || writer.write_all(burst.as_bytes()));
    std::thread::sleep(Duration::from_millis(300));
    for line in 1..=PAIRS {
        let refused: TuneResponse = read_reply(&mut reader);
        assert!(!refused.ok);
        let report: StatsReport = read_reply(&mut reader);
        // The report counts every line decoded before its reply was
        // written; those past its own position waited in the queue
        // beside it.
        let read_ahead = report.malformed_requests - line;
        assert!(
            read_ahead < MAX_QUEUED_REPLIES as u64,
            "{read_ahead} lines decoded past an unwritten reply"
        );
    }
    sender.join().unwrap().unwrap();
    server.stop();
}

#[test]
fn pipelined_batches_past_the_bound_are_answered_from_the_buffer() {
    let server = start(WireMode::Binary, NetConfig::default().with_shards(1));
    let mut client = BinaryClient::connect_timeout(server.local_addr(), TIMEOUT).unwrap();
    assert!(client.tune(&cached_key(0)).unwrap().ok);

    // Each batch fills the reply queue on its own, so the second and
    // third wait in the connection's buffer with no read event to come.
    let batch: Vec<TuneRequest> = (1..=4 * MAX_QUEUED_REPLIES as u64)
        .map(cached_key)
        .collect();
    let frame = frame_bytes(Opcode::Batch, &encode_batch_request(&batch));
    client.send_raw(&frame.repeat(3)).unwrap();
    for _ in 0..3 {
        let reply = client.read_frame().unwrap();
        assert_eq!(reply.opcode, Opcode::BatchReply);
        let responses = decode_batch_response(&reply.body).unwrap();
        let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, batch.iter().map(|r| r.id).collect::<Vec<_>>());
        assert!(responses.iter().all(|r| r.cache_hit == Some(true)));
    }
    server.stop();
}

#[test]
fn a_slow_reader_gets_every_reply_after_it_half_closes() {
    let deadline = Duration::from_millis(500);
    let config = NetConfig::default()
        .with_shards(1)
        .with_read_deadline(Some(deadline));
    let server = start(WireMode::Json, config);
    let (mut writer, mut reader) = json_conn(&server);

    // Far more replies than the socket buffers hold, so the server
    // waits on this reader many times longer than the deadline while
    // the reader keeps making progress.
    const REQUESTS: u64 = 8_000;
    let burst = "{\"stats\": true}\n".repeat(REQUESTS as usize);
    let sender = std::thread::spawn(move || {
        writer.write_all(burst.as_bytes())?;
        writer.shutdown(std::net::Shutdown::Write)
    });
    let started = Instant::now();
    for id in 1..=REQUESTS {
        if id % 250 == 0 {
            std::thread::sleep(deadline / 5);
        }
        let _: StatsReport = read_reply(&mut reader);
    }
    assert!(started.elapsed() > deadline * 2);
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).unwrap(),
        0,
        "open after the last reply"
    );
    sender.join().unwrap().unwrap();
    assert_eq!(server.service().metrics().read_timeouts, 0);
    server.stop();
}
