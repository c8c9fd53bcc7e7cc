//! `serve-json` and `serve-binary`: the real `icomm serve` binary as a
//! subprocess, driven over TCP by closed-loop client connections from
//! this process. Nothing here links the server code, so the serving
//! planes can be rewritten without touching the benchmark.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use icomm_net::wire::decode_error;
use icomm_net::{decode_tune_response, encode_tune_request, frame_bytes, BinaryClient, Opcode};
use icomm_serve::{StatsReport, TuneRequest, TuneResponse};

use crate::check::{self, decision_digest, Expected};
use crate::common::{ops_for, setup_median, Digest, Outcome, Phase};
use crate::host::{Kernel, RoundTrip};
use crate::inputs::{repeats, serve_key_name, serve_sequence, tune_request, SERVE_KEYS};
use crate::ledger::Ledger;
use crate::Args;

/// Client connections, one thread each (the host has two cores).
pub const CONNS: usize = 2;
/// Requests per connection whose decisions enter the run digest.
const DIGEST_REQUESTS: usize = 32;
/// A reply slower than this is a hung server, not a slow decision.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    Json,
    Binary,
}

impl Wire {
    fn name(self) -> &'static str {
        match self {
            Wire::Json => "json",
            Wire::Binary => "binary",
        }
    }

    /// Requests answered per second, over all connections, on the host
    /// the benchmark was sized on (2 vCPUs of a shared 2.1 GHz Xeon):
    /// turns `--seconds` into a fixed request count.
    fn ops_per_s(self) -> f64 {
        match self {
            Wire::Json => 8.8,
            Wire::Binary => 100_000.0,
        }
    }

    fn workload(self) -> &'static str {
        match self {
            Wire::Json => "serve-json",
            Wire::Binary => "serve-binary",
        }
    }

    /// Pieces of the measured phase: after each, the host's loopback
    /// round trips are timed while the server idles. Few on the JSON
    /// plane, where a piece ends when both connections' last requests
    /// have, and one can take a second.
    fn pieces(self) -> usize {
        match self {
            Wire::Json => 8,
            Wire::Binary => 20,
        }
    }
}

/// A running `icomm serve` child process; killed and reaped on drop.
struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(icomm: &Path, wire: Wire) -> Result<Server, String> {
        let mut child = Command::new(icomm)
            .args(["serve", "--wire", wire.name(), "--workers", "2"])
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", icomm.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = reader.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("icomm serve exited before listening".to_string());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let token = rest.split_whitespace().next().unwrap_or("");
                match token.parse::<SocketAddr>() {
                    Ok(addr) => break addr,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unparsable listen address '{token}': {e}"));
                    }
                }
            }
        };
        // Keep reading the server's stdout, so its later prints never hit
        // a closed pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        });
        Ok(Server {
            child,
            drain: Some(drain),
            addr,
        })
    }

    fn peak_rss_mib(&self) -> Result<f64, String> {
        crate::common::peak_rss_mib(Some(self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One client connection of either plane.
trait Conn: Send {
    fn tune(&mut self, request: &TuneRequest, ledger: &mut Ledger) -> Result<TuneResponse, String>;
    fn stats(&mut self) -> Result<StatsReport, String>;
}

struct JsonConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl JsonConn {
    fn exchange(&mut self, text: &str) -> Result<(), String> {
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

impl Conn for JsonConn {
    fn tune(&mut self, request: &TuneRequest, ledger: &mut Ledger) -> Result<TuneResponse, String> {
        let text = ledger.time("persist.json_encode", || {
            icomm_persist::to_string(request).map(|mut t| {
                t.push('\n');
                t
            })
        });
        let text = text.map_err(|e| format!("encode: {e}"))?;
        ledger.enter("serve.exchange");
        let sent = self.exchange(&text);
        ledger.exit();
        sent?;
        let line = &self.line;
        ledger
            .time("persist.json_decode", || {
                icomm_persist::from_str::<TuneResponse>(line.trim())
            })
            .map_err(|e| format!("decode: {e:?}"))
    }

    fn stats(&mut self) -> Result<StatsReport, String> {
        self.exchange("{\"stats\": true}\n")?;
        icomm_persist::from_str(self.line.trim()).map_err(|e| format!("stats: {e:?}"))
    }
}

struct BinaryConn(BinaryClient);

impl Conn for BinaryConn {
    fn tune(&mut self, request: &TuneRequest, ledger: &mut Ledger) -> Result<TuneResponse, String> {
        let frame = ledger.time("net.wire_encode", || {
            frame_bytes(Opcode::Tune, &encode_tune_request(request))
        });
        ledger.enter("net.exchange");
        let reply = self.0.send_raw(&frame).and_then(|()| self.0.read_frame());
        ledger.exit();
        let reply = reply.map_err(|e| e.to_string())?;
        match reply.opcode {
            Opcode::TuneReply => ledger
                .time("net.wire_decode", || decode_tune_response(&reply.body))
                .map_err(|e| format!("decode: {e}")),
            Opcode::Error => Err(decode_error(&reply.body).unwrap_or_else(|e| e.to_string())),
            other => Err(format!("unexpected reply opcode {other:?}")),
        }
    }

    fn stats(&mut self) -> Result<StatsReport, String> {
        self.0.stats().map_err(|e| e.to_string())
    }
}

fn connect(addr: SocketAddr, wire: Wire) -> Result<Box<dyn Conn>, String> {
    match wire {
        Wire::Json => {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            let _ = stream.set_nodelay(true);
            stream
                .set_read_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| e.to_string())?;
            let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            Ok(Box::new(JsonConn {
                reader,
                writer: stream,
                line: String::new(),
            }))
        }
        Wire::Binary => BinaryClient::connect_timeout(addr, REPLY_TIMEOUT)
            .map(|c| Box::new(BinaryConn(c)) as Box<dyn Conn>)
            .map_err(|e| format!("connect {addr}: {e}")),
    }
}

/// A server with its client connections, warmed.
struct Session {
    conns: Vec<Box<dyn Conn>>,
    /// `(key, reply)` of each warm-up request, per connection; they are
    /// checked like measured replies.
    warm: Vec<Vec<(usize, TuneResponse)>>,
    // Dropped last: connections close before the server is killed.
    server: Server,
}

impl Session {
    /// Starts the server and warms it. The JSON plane warms its
    /// characterization registry with one request per board; the binary
    /// plane sends every key through every connection, because each
    /// connection's shard keeps its own decision cache.
    fn open(icomm: &Path, wire: Wire) -> Result<Session, String> {
        let server = Server::spawn(icomm, wire)?;
        let mut conns: Vec<Box<dyn Conn>> = (0..CONNS)
            .map(|_| connect(server.addr, wire))
            .collect::<Result<_, _>>()?;
        let plan: Vec<Vec<usize>> = (0..CONNS)
            .map(|c| match wire {
                // Key (board, shwfs, default current) is the cheapest
                // request for each board.
                Wire::Json => (0..icomm_serve::catalog::BOARD_NAMES.len())
                    .filter(|b| b % CONNS == c)
                    .map(|b| b * SERVE_KEYS / icomm_serve::catalog::BOARD_NAMES.len())
                    .collect(),
                Wire::Binary => (0..SERVE_KEYS).collect(),
            })
            .collect();
        let warmed: Vec<Result<Vec<_>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(&plan)
                .map(|(conn, keys)| {
                    s.spawn(move || {
                        let mut ledger = Ledger::new(false);
                        keys.iter()
                            .map(|&k| {
                                let response =
                                    conn.tune(&tune_request(k as u64, k), &mut ledger)?;
                                if !response.ok {
                                    return Err(format!(
                                        "warm-up {} failed: {:?}",
                                        serve_key_name(k),
                                        response.error
                                    ));
                                }
                                Ok((k, response))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warm-up thread panicked"))
                .collect()
        });
        let warm = warmed.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(Session {
            conns,
            warm,
            server,
        })
    }
}

/// One connection's share of a measured phase.
struct ConnPhase {
    phase: Phase,
    ledger: Ledger,
    problems: Vec<String>,
}

/// Per-connection state carried across phases.
struct Client<'a> {
    conn: &'a mut Box<dyn Conn>,
    sequence: Vec<u8>,
    next: usize,
    /// The decision digest of the first response seen per key, already
    /// checked against the recorded one; later responses must match it.
    verified: Vec<Option<u64>>,
    /// Decision digests of the first `DIGEST_REQUESTS` requests.
    first: Vec<String>,
}

fn drive(
    client: &mut Client,
    expected: &Expected,
    conn_id: usize,
    count: usize,
    traced: bool,
    engine_samples: bool,
) -> ConnPhase {
    let mut ledger = Ledger::new(traced);
    let mut phase = Phase::default();
    let mut problems = Vec::new();
    let began = Instant::now();
    let mut i = client.next;
    let end = client.next + count;
    while i < end {
        let k = client.sequence[i % client.sequence.len()] as usize;
        let request = tune_request(i as u64, k);
        ledger.set_op(((conn_id as u64) << 40) | i as u64);
        ledger.enter("serve.request");
        let started = Instant::now();
        let reply = client.conn.tune(&request, &mut ledger);
        let took = started.elapsed();
        ledger.exit();
        i += 1;
        let response = match reply {
            Ok(r) if r.ok && r.id == request.id => r,
            Ok(r) => {
                phase.failed += 1;
                if phase.failed <= 3 {
                    eprintln!("request {} failed: {:?}", request.id, r.error);
                }
                continue;
            }
            Err(e) => {
                phase.failed += 1;
                eprintln!("request {} failed: {e}", request.id);
                if phase.failed > 3 && phase.ops() == 0 {
                    break;
                }
                continue;
            }
        };
        phase.latencies_ms.push(took.as_secs_f64() * 1e3);
        if traced {
            ledger.sample("serve.client_us", took.as_secs_f64() * 1e6);
            if engine_samples {
                ledger.sample("serve.engine_us", response.latency_us.unwrap_or(0) as f64);
            }
        }
        if (i - 1) < DIGEST_REQUESTS {
            client
                .first
                .push(format!("{k}:{:016x}", decision_digest(&response)));
        }
        verify(&mut client.verified, k, &response, expected, &mut problems);
    }
    phase.wall_s = began.elapsed().as_secs_f64();
    client.next = i;
    ConnPhase {
        phase,
        ledger,
        problems,
    }
}

/// Checks a reply: the first one per key against the recorded decision
/// digest, every later one against the first.
fn verify(
    verified: &mut [Option<u64>],
    k: usize,
    response: &TuneResponse,
    expected: &Expected,
    problems: &mut Vec<String>,
) {
    let observed = decision_digest(response);
    match verified[k] {
        Some(first) if first != observed => problems.push(format!(
            "{}: decision differs from an earlier reply",
            serve_key_name(k)
        )),
        Some(_) => {}
        None => {
            let name = serve_key_name(k);
            let observed_hex = format!("{observed:016x}");
            match expected.decisions.get(&name) {
                Some(want) if *want == observed_hex => {}
                want => problems.push(format!(
                    "decision {name} {observed_hex}, expected {}",
                    want.map_or("(none recorded)", String::as_str)
                )),
            }
            verified[k] = Some(observed);
        }
    }
}

/// Runs every client concurrently for one phase and pools the results.
fn phase(
    clients: &mut [Client],
    expected: &Expected,
    count: usize,
    traced: bool,
    engine_samples: bool,
) -> (Phase, Ledger, Vec<String>) {
    let parts: Vec<ConnPhase> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || drive(client, expected, c, count, traced, engine_samples))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut pooled = Phase::default();
    let mut ledger = Ledger::new(traced);
    let mut problems = Vec::new();
    for part in parts {
        pooled.latencies_ms.extend(part.phase.latencies_ms);
        pooled.failed += part.phase.failed;
        pooled.wall_s = pooled.wall_s.max(part.phase.wall_s);
        ledger.merge(part.ledger);
        problems.extend(part.problems);
    }
    (pooled, ledger, problems)
}

/// The untraced measured phase, `count` requests per connection, in
/// [`Wire::pieces`] pieces; the round trips timed between them, outside
/// the measured time, give the host's speed. Returns the phase and the
/// problems found.
fn measured(
    clients: &mut [Client],
    expected: &Expected,
    count: usize,
    wire: Wire,
) -> Result<(Phase, Vec<String>), String> {
    let pieces = wire.pieces();
    let mut round_trip = RoundTrip::new()?;
    let mut pooled = Phase::default();
    let (mut problems, mut samples) = (Vec::new(), Vec::new());
    for piece in 0..pieces {
        let n = count * (piece + 1) / pieces - count * piece / pieces;
        let (part, _, p) = phase(clients, expected, n, false, false);
        pooled.latencies_ms.extend(part.latencies_ms);
        pooled.wall_s += part.wall_s;
        pooled.failed += part.failed;
        problems.extend(p);
        samples.push(round_trip.time_ms()?);
    }
    pooled.reference = Some((Kernel::RoundTrip, samples));
    Ok((pooled, problems))
}

/// Adds the stats-verb deltas between two snapshots to the ledger.
fn add_stats_delta(ledger: &mut Ledger, before: &StatsReport, after: &StatsReport, net: bool) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    ledger.add(
        "serve.registry_hits",
        d(after.cache_hits, before.cache_hits),
    );
    ledger.add(
        "serve.registry_misses",
        d(after.cache_misses, before.cache_misses),
    );
    if net {
        ledger.add(
            "net.decision_cache_hits",
            d(after.decision_cache_hits, before.decision_cache_hits),
        );
        ledger.add("net.requests", d(after.requests, before.requests));
        ledger.add(
            "net.batches",
            d(after.batches_submitted, before.batches_submitted),
        );
    }
}

pub struct ServeRun {
    pub outcome: Outcome,
    pub ledger: Ledger,
    /// `(untraced, traced)` phases of a traced run.
    pub phases: (Phase, Option<Phase>),
}

/// Setup repetitions: the JSON plane's warm-up is a few characterizations;
/// the binary plane's is every key on every connection (over 10 s), so it
/// runs once.
fn setup_reps(wire: Wire) -> usize {
    match wire {
        Wire::Json => 2,
        Wire::Binary => 1,
    }
}

pub fn run(args: &Args, process_start: Instant, wire: Wire) -> Result<ServeRun, String> {
    let expected = check::expected();
    let mut session = Session::open(&args.icomm, wire)?;
    let first_setup_s = process_start.elapsed().as_secs_f64();
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let count = ops_for(seconds, wire.ops_per_s() / CONNS as f64, 1).max(DIGEST_REQUESTS);
    let sequence_len = match wire {
        Wire::Json => 1 << 12,
        Wire::Binary => 1 << 20,
    };
    let mut out = Outcome::default();
    let warm = std::mem::take(&mut session.warm);
    let mut clients: Vec<Client> = session
        .conns
        .iter_mut()
        .enumerate()
        .map(|(c, conn)| Client {
            conn,
            sequence: serve_sequence(args.seed, c, sequence_len),
            next: 0,
            verified: vec![None; SERVE_KEYS],
            first: Vec::new(),
        })
        .collect();
    let engine_samples = wire == Wire::Json;
    for (client, warm) in clients.iter_mut().zip(warm) {
        for (k, response) in warm {
            verify(
                &mut client.verified,
                k,
                &response,
                &expected,
                &mut out.problems,
            );
        }
    }

    let (first_phase, problems) = measured(&mut clients, &expected, count, wire)?;
    out.problems.extend(problems);
    let mut ledger = Ledger::new(args.trace);
    let traced = if args.trace {
        let before = clients[0].conn.stats()?;
        let (p, l, problems) = phase(&mut clients, &expected, count, true, engine_samples);
        let after = clients[0].conn.stats()?;
        out.problems.extend(problems);
        ledger.merge(l);
        add_stats_delta(&mut ledger, &before, &after, wire == Wire::Binary);
        for client in &clients {
            let sent = client.next;
            let len = client.sequence.len();
            // Past its end the sequence starts over, so every later
            // request repeats a key.
            let repeated = repeats(&client.sequence[..sent.min(len)]) + sent.saturating_sub(len);
            ledger.add("serve.requests", sent as f64);
            ledger.add("serve.repeats", repeated as f64);
        }
        Some(p)
    } else {
        None
    };

    let mut digest = Digest::default();
    for entry in clients.iter().flat_map(|c| &c.first) {
        digest.str(entry);
    }
    check::digest(
        &mut out,
        &expected,
        "outputs",
        wire.workload(),
        args.seed,
        &digest.hex(),
    );
    let peak = session.server.peak_rss_mib()?;
    drop(clients);
    drop(session);
    let setup_s = setup_median(first_setup_s, setup_reps(wire) - 1, || {
        Session::open(&args.icomm, wire)
    })?;

    out.attempted = (first_phase.ops() as u64 + first_phase.failed)
        + traced.as_ref().map_or(0, |p| p.ops() as u64 + p.failed);
    out.failed = first_phase.failed + traced.as_ref().map_or(0, |p| p.failed);
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mib", peak, "MiB");
    Ok(ServeRun {
        outcome: out,
        ledger,
        phases: (first_phase, traced),
    })
}
