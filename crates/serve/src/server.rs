//! Line-delimited JSON over TCP.
//!
//! One [`TuneRequest`] per line in, one [`TuneResponse`] per line out, in
//! request order per connection. The accept loop runs on its own thread
//! and each connection gets a handler thread; all of them ride the shared
//! [`TuningService`] worker pool, so concurrent connections coalesce onto
//! the same single-flight characterizations.
//!
//! The transport defends itself against misbehaving clients
//! ([`ServerConfig`]): a per-connection read deadline drops clients that
//! stall mid-line, a maximum line length bounds memory per connection,
//! and a connection cap bounds the thread count. Every defensive action
//! increments a fault counter in the service [`Metrics`](crate::Metrics).
//!
//! Try it with `nc` while `icomm serve` runs:
//!
//! ```text
//! $ echo '{"id": 1, "board": "xavier", "app": "shwfs"}' | nc 127.0.0.1 7311
//! {"id": 1, "ok": true, ..., "recommended": "ZC", ...}
//! ```

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::protocol::{StatsQuery, StatsReport, TuneRequest, TuneResponse};
use crate::service::TuningService;

/// Open connections: a writable clone of each stream (so `stop` can
/// unblock the reader) paired with its handler thread.
type ConnectionList = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// Transport hardening knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum simultaneous connections; further clients are turned away
    /// with an error line (and counted in `conn_rejected`).
    pub max_connections: usize,
    /// Per-read deadline. A client that stalls mid-line longer than this
    /// is disconnected (counted in `read_timeouts`). `None` waits
    /// forever, as a plain blocking read would.
    pub read_timeout: Option<Duration>,
    /// Maximum request-line length in bytes. Longer lines get a failure
    /// response and the connection is closed (counted in
    /// `oversized_lines`).
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            read_timeout: Some(Duration::from_secs(30)),
            max_line_bytes: 64 * 1024,
        }
    }
}

/// Running TCP front end over a [`TuningService`].
pub struct Server {
    local_addr: SocketAddr,
    service: Arc<TuningService>,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    connections: ConnectionList,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7311`, or port `0` for an ephemeral
    /// port) and starts accepting connections with default transport
    /// limits.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(service: Arc<TuningService>, addr: &str) -> std::io::Result<Server> {
        Server::start_with(service, addr, ServerConfig::default())
    }

    /// [`Server::start`] with explicit transport limits.
    ///
    /// # Errors
    ///
    /// Propagates bind or accept-thread-spawn failure.
    pub fn start_with(
        service: Arc<TuningService>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections: ConnectionList = Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let service = service.clone();
            let shutdown = shutdown.clone();
            let connections = connections.clone();
            std::thread::Builder::new()
                .name("icomm-serve-accept".to_string())
                .spawn(move || {
                    for incoming in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = incoming else { continue };
                        accept_one(stream, &service, &config, &connections);
                    }
                })?
        };

        Ok(Server {
            local_addr,
            service,
            shutdown,
            accept_handle: Some(accept_handle),
            connections,
        })
    }

    /// Address the server is listening on (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service behind the server.
    pub fn service(&self) -> &Arc<TuningService> {
        &self.service
    }

    /// Stops accepting, closes every open connection, joins the handler
    /// threads, and hands the service back (e.g. to drain and persist it
    /// via [`TuningService::shutdown`]).
    pub fn stop(mut self) -> Arc<TuningService> {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        let mut connections = self.connections.lock();
        for (stream, _) in connections.iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for (_, handle) in connections.drain(..) {
            let _ = handle.join();
        }
        drop(connections);
        self.service.clone()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_handle.is_some() {
            self.shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.local_addr);
            if let Some(handle) = self.accept_handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Admits or rejects one accepted connection: prunes finished handler
/// threads, enforces the connection cap, and spawns the handler.
fn accept_one(
    stream: TcpStream,
    service: &Arc<TuningService>,
    config: &ServerConfig,
    connections: &ConnectionList,
) {
    let metrics = service.metrics_handle().clone();
    let mut open = connections.lock();
    open.retain(|(_, handle)| !handle.is_finished());
    if open.len() >= config.max_connections {
        metrics.conn_rejected.fetch_add(1, Ordering::Relaxed);
        let mut stream = stream;
        let refusal = TuneResponse::failure(0, "server at connection capacity".to_string());
        if let Ok(json) = icomm_persist::to_string(&refusal) {
            let _ = write_line(&mut stream, json);
        }
        return;
    }
    // Replies are whole lines written at once; without this, Nagle holds
    // each one until the client ACKs the previous segment.
    let _ = stream.set_nodelay(true);
    let Ok(peer) = stream.try_clone() else {
        // Cannot keep a stop-handle for this connection: drop it rather
        // than leak an uncloseable handler thread.
        metrics.conn_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let service = service.clone();
    let config = config.clone();
    let spawned = std::thread::Builder::new()
        .name("icomm-serve-conn".to_string())
        .spawn(move || handle_connection(stream, &service, &config));
    match spawned {
        Ok(handle) => {
            metrics.conn_accepted.fetch_add(1, Ordering::Relaxed);
            open.push((peer, handle));
        }
        // Thread exhaustion: drop the connection, keep serving others.
        Err(_) => {
            metrics.conn_errors.fetch_add(1, Ordering::Relaxed);
            drop(peer);
        }
    }
}

/// Writes `json` and its newline with a single `write_all`, so a reply
/// never leaves as a body segment followed by a lone newline that waits
/// on the client's delayed ACK.
fn write_line(writer: &mut impl Write, mut json: String) -> std::io::Result<()> {
    json.push('\n');
    writer.write_all(json.as_bytes())
}

/// One request line, read under the transport limits.
enum LineRead {
    /// A complete line (without the newline), lossily decoded.
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The line exceeded `max_line_bytes` before a newline arrived.
    Oversized,
    /// The read deadline expired mid-line.
    TimedOut,
    /// Any other I/O failure.
    Err,
}

/// Reads one `\n`-terminated line without ever buffering more than
/// `max_bytes` of it.
fn read_bounded_line(reader: &mut BufReader<TcpStream>, max_bytes: usize) -> LineRead {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => {
                return if line.is_empty() {
                    LineRead::Eof
                } else {
                    // Final unterminated line: serve it anyway.
                    LineRead::Line(String::from_utf8_lossy(&line).into_owned())
                };
            }
            Ok(chunk) => chunk,
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return LineRead::TimedOut;
            }
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Err,
        };
        match chunk.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                if line.len() + newline > max_bytes {
                    reader.consume(newline + 1);
                    return LineRead::Oversized;
                }
                line.extend_from_slice(&chunk[..newline]);
                reader.consume(newline + 1);
                return LineRead::Line(String::from_utf8_lossy(&line).into_owned());
            }
            None => {
                let taken = chunk.len();
                if line.len() + taken > max_bytes {
                    reader.consume(taken);
                    return LineRead::Oversized;
                }
                line.extend_from_slice(chunk);
                reader.consume(taken);
            }
        }
    }
}

/// Reads requests line by line and answers each on the same connection,
/// enforcing the transport limits.
fn handle_connection(stream: TcpStream, service: &TuningService, config: &ServerConfig) {
    let metrics = service.metrics_handle().clone();
    if stream.set_read_timeout(config.read_timeout).is_err() {
        metrics.conn_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        metrics.conn_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let respond = |writer: &mut TcpStream, response: &TuneResponse| -> bool {
        let Ok(json) = icomm_persist::to_string(response) else {
            return false;
        };
        write_line(writer, json).is_ok()
    };
    loop {
        let line = match read_bounded_line(&mut reader, config.max_line_bytes) {
            LineRead::Line(line) => line,
            LineRead::Eof | LineRead::Err => break,
            LineRead::TimedOut => {
                metrics.read_timeouts.fetch_add(1, Ordering::Relaxed);
                break;
            }
            LineRead::Oversized => {
                metrics.oversized_lines.fetch_add(1, Ordering::Relaxed);
                let response = TuneResponse::failure(
                    0,
                    format!("request line exceeds {} bytes", config.max_line_bytes),
                );
                respond(&mut writer, &response);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match icomm_persist::from_str::<TuneRequest>(&line) {
            Ok(request) => service.handle(request),
            // Not a tune request: try the stats verb before calling the
            // line malformed.
            Err(_) if icomm_persist::from_str::<StatsQuery>(&line).is_ok() => {
                let report = StatsReport::from_snapshot(&service.metrics());
                let ok = icomm_persist::to_string(&report)
                    .map(|json| write_line(&mut writer, json).is_ok())
                    .unwrap_or(false);
                if !ok {
                    break;
                }
                continue;
            }
            Err(err) => {
                metrics.malformed_requests.fetch_add(1, Ordering::Relaxed);
                TuneResponse::failure(0, format!("malformed request: {err:?}"))
            }
        };
        if !respond(&mut writer, &response) {
            break;
        }
    }
    // Actively close: the accept loop holds a clone of this stream in the
    // connection list, so a plain drop would leave the socket open (and a
    // timed-out client would never see EOF) until `stop`.
    let _ = writer.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    fn start_quick_server() -> Server {
        let service = Arc::new(TuningService::start(ServiceConfig::quick().with_workers(2)));
        Server::start(service, "127.0.0.1:0").expect("bind ephemeral port")
    }

    fn round_trip(addr: SocketAddr, lines: &[String]) -> Vec<TuneResponse> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for line in lines {
            writeln!(stream, "{line}").unwrap();
        }
        stream.flush().unwrap();
        let reader = BufReader::new(stream);
        reader
            .lines()
            .take(lines.len())
            .map(|l| icomm_persist::from_str(&l.unwrap()).unwrap())
            .collect()
    }

    #[test]
    fn each_reply_is_one_write() {
        /// Counts `write` calls; accepts every byte offered.
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let mut sink = CountingWriter::default();
        let response = TuneResponse::failure(7, "no such board".to_string());
        let json = icomm_persist::to_string(&response).unwrap();
        write_line(&mut sink, json.clone()).unwrap();
        assert_eq!(sink.writes, 1);
        assert_eq!(sink.bytes, format!("{json}\n").into_bytes());
        write_line(&mut sink, "{\"stats\":1}".to_string()).unwrap();
        assert_eq!(sink.writes, 2);
    }

    #[test]
    fn tcp_request_round_trips() {
        let server = start_quick_server();
        let request = icomm_persist::to_string(&TuneRequest::new(5, "xavier", "shwfs")).unwrap();
        let responses = round_trip(server.local_addr(), &[request]);
        assert_eq!(responses.len(), 1);
        assert!(responses[0].ok);
        assert_eq!(responses[0].id, 5);
        assert_eq!(responses[0].recommended.as_deref(), Some("ZC"));
        assert_eq!(server.service().metrics().conn_accepted, 1);
        let service = server.stop();
        Arc::try_unwrap(service).unwrap().shutdown().unwrap();
    }

    #[test]
    fn malformed_line_gets_an_error_response() {
        let server = start_quick_server();
        let responses = round_trip(server.local_addr(), &["{not json".to_string()]);
        assert!(!responses[0].ok);
        assert!(responses[0]
            .error
            .as_deref()
            .unwrap()
            .contains("malformed request"));
        assert_eq!(server.service().metrics().malformed_requests, 1);
        server.stop();
    }

    #[test]
    fn multiple_requests_on_one_connection_answer_in_order() {
        let server = start_quick_server();
        let lines: Vec<String> = (0..4)
            .map(|i| icomm_persist::to_string(&TuneRequest::new(i, "nano", "lane")).unwrap())
            .collect();
        let responses = round_trip(server.local_addr(), &lines);
        let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert!(responses.iter().all(|r| r.ok));
        // One characterization served all four.
        assert_eq!(server.service().metrics().characterizations, 1);
        server.stop();
    }

    #[test]
    fn stats_verb_reports_counters_on_the_wire() {
        let server = start_quick_server();
        let addr = server.local_addr();
        let request = icomm_persist::to_string(&TuneRequest::new(1, "tx2", "orb")).unwrap();
        round_trip(addr, &[request]);

        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{{\"stats\": true}}").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let report: StatsReport = icomm_persist::from_str(&line).expect("stats report JSON");
        assert_eq!(report.requests, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.characterizations, 1);
        assert!(report.latency_p99_us > 0);
        // The stats line is not counted as malformed.
        assert_eq!(server.service().metrics().malformed_requests, 0);
        server.stop();
    }

    #[test]
    fn oversized_line_is_rejected_and_counted() {
        let service = Arc::new(TuningService::start(ServiceConfig::quick().with_workers(2)));
        let server = Server::start_with(
            service,
            "127.0.0.1:0",
            ServerConfig {
                max_line_bytes: 256,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let garbage = "x".repeat(4096);
        let responses = round_trip(server.local_addr(), &[garbage]);
        assert!(!responses[0].ok);
        assert!(responses[0].error.as_deref().unwrap().contains("exceeds"));
        assert_eq!(server.service().metrics().oversized_lines, 1);
        server.stop();
    }

    #[test]
    fn stalled_client_hits_the_read_deadline() {
        let service = Arc::new(TuningService::start(ServiceConfig::quick().with_workers(2)));
        let server = Server::start_with(
            service,
            "127.0.0.1:0",
            ServerConfig {
                read_timeout: Some(Duration::from_millis(80)),
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // Half a line, then stall past the deadline.
        stream.write_all(b"{\"id\": 1,").unwrap();
        stream.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.service().metrics().read_timeouts == 0 {
            assert!(std::time::Instant::now() < deadline, "deadline never fired");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.stop();
    }

    #[test]
    fn connections_beyond_the_cap_are_turned_away() {
        let service = Arc::new(TuningService::start(ServiceConfig::quick().with_workers(2)));
        let server = Server::start_with(
            service,
            "127.0.0.1:0",
            ServerConfig {
                max_connections: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        // First connection holds its slot open.
        let held = TcpStream::connect(server.local_addr()).expect("connect");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.service().metrics().conn_accepted == 0 {
            assert!(std::time::Instant::now() < deadline, "never accepted");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Second is refused with an error line.
        let refused = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = BufReader::new(refused);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response: TuneResponse = icomm_persist::from_str(&line).unwrap();
        assert!(!response.ok);
        assert!(response.error.as_deref().unwrap().contains("capacity"));
        assert_eq!(server.service().metrics().conn_rejected, 1);
        drop(held);
        server.stop();
    }
}
