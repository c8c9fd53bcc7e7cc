//! Blocking clients, one per codec.
//!
//! [`BinaryClient`] speaks `icommwire v1` over one TCP connection:
//! write a request frame, read frames until the matching reply
//! arrives. [`JsonClient`] does the same with one JSON line each way.
//! Both are deliberately synchronous — the client side of this
//! workload (CLI, tests, load generators) wants simple call/return
//! semantics; concurrency comes from running many clients.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use icomm_microbench::DeviceCharacterization;
use icomm_serve::{StatsReport, TuneRequest, TuneResponse};

use crate::wire::{
    decode_batch_response, decode_error, decode_tune_response, encode_batch_request,
    encode_characterize_request, encode_tune_request, frame_bytes, Frame, FrameDecoder, Opcode,
    WireError,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, EOF mid-reply).
    Io(std::io::Error),
    /// The server's bytes did not decode as `icommwire v1`.
    Wire(WireError),
    /// The server replied with an explicit `Error` frame.
    Server(String),
    /// The server replied with a frame that makes no sense here (wrong
    /// opcode, undecodable JSON payload, ...).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server(message) => write!(f, "server error: {message}"),
            ClientError::Protocol(message) => write!(f, "protocol error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One blocking `icommwire v1` connection to a [`crate::Server`].
#[derive(Debug)]
pub struct BinaryClient {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl BinaryClient {
    /// Connects with TCP_NODELAY set (the protocol is request/response
    /// with small frames; Nagle only adds latency).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> Result<BinaryClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(BinaryClient {
            stream,
            decoder: FrameDecoder::default(),
        })
    }

    /// Connects with a read timeout, so tests never hang on a lost
    /// reply.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_timeout(
        addr: SocketAddr,
        read_timeout: Duration,
    ) -> Result<BinaryClient, ClientError> {
        let client = Self::connect(addr)?;
        client.stream.set_read_timeout(Some(read_timeout))?;
        Ok(client)
    }

    /// Sends one tune request and waits for its reply.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, wire-format violations, or an
    /// `Error` frame from the server.
    pub fn tune(&mut self, request: &TuneRequest) -> Result<TuneResponse, ClientError> {
        let body = self.call(
            Opcode::Tune,
            &encode_tune_request(request),
            Opcode::TuneReply,
        )?;
        Ok(decode_tune_response(&body)?)
    }

    /// Sends a batch of tune requests as one frame and waits for the
    /// single batched reply (responses in request order).
    ///
    /// # Errors
    ///
    /// Fails on transport errors, wire-format violations, or an
    /// `Error` frame from the server.
    pub fn tune_batch(
        &mut self,
        requests: &[TuneRequest],
    ) -> Result<Vec<TuneResponse>, ClientError> {
        let body = self.call(
            Opcode::Batch,
            &encode_batch_request(requests),
            Opcode::BatchReply,
        )?;
        Ok(decode_batch_response(&body)?)
    }

    /// Fetches the service's stats report.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, wire-format violations, or an
    /// undecodable stats payload.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        let body = self.call(Opcode::Stats, &[], Opcode::StatsReply)?;
        json_payload(&body, "stats")
    }

    /// Fetches the server's supervision-tree health report: per-shard
    /// liveness, restart counts, and open connections.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, wire-format violations, or an
    /// undecodable health payload.
    pub fn health(&mut self) -> Result<crate::HealthReport, ClientError> {
        let body = self.call(Opcode::Health, &[], Opcode::HealthReply)?;
        json_payload(&body, "health")
    }

    /// Asks the server to characterize a board by name.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, wire-format violations, an unknown
    /// board, or an undecodable characterization payload.
    pub fn characterize(&mut self, board: &str) -> Result<DeviceCharacterization, ClientError> {
        let request = encode_characterize_request(board);
        let body = self.call(Opcode::Characterize, &request, Opcode::CharacterizeReply)?;
        json_payload(&body, "characterization")
    }

    /// Writes raw bytes to the socket — the hostile-client hook used
    /// by the chaos harness to inject malformed frames.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Reads frames until one complete frame is available.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, EOF mid-frame, or wire violations.
    pub fn read_frame(&mut self) -> Result<Frame, ClientError> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let mut buf = [0u8; 16 * 1024];
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            self.decoder.extend(&buf[..n]);
        }
    }

    /// Sends one request frame and returns the body of its reply, which
    /// must carry `reply`.
    fn call(&mut self, opcode: Opcode, body: &[u8], reply: Opcode) -> Result<Vec<u8>, ClientError> {
        self.stream.write_all(&frame_bytes(opcode, body))?;
        let frame = self.read_frame()?;
        match frame.opcode {
            found if found == reply => Ok(frame.body),
            Opcode::Error => Err(match decode_error(&frame.body) {
                Ok(message) => ClientError::Server(message),
                Err(e) => ClientError::Wire(e),
            }),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply opcode {other:?}"
            ))),
        }
    }
}

/// Decodes a reply's JSON payload.
fn json_payload<T: serde::de::DeserializeOwned>(body: &[u8], what: &str) -> Result<T, ClientError> {
    let json = std::str::from_utf8(body)
        .map_err(|_| ClientError::Protocol(format!("{what} payload not UTF-8")))?;
    icomm_persist::from_str(json)
        .map_err(|e| ClientError::Protocol(format!("{what} payload: {e:?}")))
}

/// One blocking line-JSON connection to a [`crate::Server`]: one request
/// line out, one reply line back. Server-side failures arrive as
/// [`TuneResponse`]s with `ok: false`, not as errors.
#[derive(Debug)]
pub struct JsonClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl JsonClient {
    /// Connects with TCP_NODELAY set.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> Result<JsonClient, ClientError> {
        let writer = TcpStream::connect(addr)?;
        let _ = writer.set_nodelay(true);
        Ok(JsonClient {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Connects with a read timeout, so tests never hang on a lost
    /// reply.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_timeout(
        addr: SocketAddr,
        read_timeout: Duration,
    ) -> Result<JsonClient, ClientError> {
        let client = Self::connect(addr)?;
        client.writer.set_read_timeout(Some(read_timeout))?;
        Ok(client)
    }

    /// Sends one tune request and waits for its reply.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a reply line that is not a
    /// [`TuneResponse`].
    pub fn tune(&mut self, request: &TuneRequest) -> Result<TuneResponse, ClientError> {
        let line = icomm_persist::to_string(request)
            .map_err(|e| ClientError::Protocol(format!("request: {e}")))?;
        json_payload(self.exchange(&line)?.trim_end().as_bytes(), "tune")
    }

    /// Fetches the service's stats report with the stats verb.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an undecodable report.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        json_payload(
            self.exchange("{\"stats\": true}")?.trim_end().as_bytes(),
            "stats",
        )
    }

    /// Sends `line` (its newline appended, one write) and reads one
    /// reply line.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, or when the server closes first.
    pub fn exchange(&mut self, line: &str) -> Result<String, ClientError> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Ok(reply)
    }
}
