//! The codec seam: how a connection's bytes become requests and how
//! replies become bytes.
//!
//! The shard event loop is written once, against the `Codec` trait. Two
//! wire formats plug in behind it, picked per listener by [`WireMode`]:
//!
//! * [`FrameDecoder`] — `icommwire v1` frames;
//! * `LineCodec` — newline-delimited JSON: one [`TuneRequest`] or the
//!   `{"stats": true}` verb per line, one reply line per request.
//!
//! Everything else — the connection cap, the stall deadline, the bound
//! on unread replies, one engine hop per sweep and shard supervision —
//! belongs to the shard, so both wires get it alike. The shard's
//! decision cache answers binary repeats only (`Codec::DECISION_CACHE`):
//! every JSON tune runs the recommendation flow.

use std::sync::atomic::AtomicU64;

use icomm_serve::{Metrics, StatsQuery, TuneRequest, TuneResponse};

use crate::wire::{
    decode_batch_request, decode_characterize_request, decode_tune_request, encode_batch_response,
    encode_error, encode_tune_response, frame_bytes, FrameDecoder, Opcode, WireError,
};

/// Which codec a listener speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireMode {
    /// Newline-delimited JSON.
    Json,
    /// `icommwire v1` frames ([`FrameDecoder`]).
    Binary,
}

impl WireMode {
    /// Parses a `--wire` flag value.
    ///
    /// # Errors
    ///
    /// Returns a usage message for anything but `json` / `binary`.
    pub fn parse(s: &str) -> Result<WireMode, String> {
        match s {
            "json" => Ok(WireMode::Json),
            "binary" => Ok(WireMode::Binary),
            other => Err(format!(
                "unknown wire mode '{other}' (expected json|binary)"
            )),
        }
    }

    /// The flag spelling for this mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            WireMode::Json => "json",
            WireMode::Binary => "binary",
        }
    }
}

/// A request decoded off the wire, whichever codec carried it.
#[derive(Debug)]
pub(crate) enum Request {
    /// One tuning request.
    Tune(TuneRequest),
    /// Several tuning requests answered by one reply.
    Batch(Vec<TuneRequest>),
    /// The service's counters.
    Stats,
    /// The supervision tree's health.
    Health,
    /// A full characterization of the named board.
    Characterize(String),
}

/// A reply for a codec to encode.
#[derive(Debug)]
pub(crate) enum Reply<'a> {
    /// The answer to [`Request::Tune`].
    Tune(&'a TuneResponse),
    /// The answers to [`Request::Batch`], in request order.
    Batch(&'a [TuneResponse]),
    /// A JSON [`icomm_serve::StatsReport`].
    Stats(&'a str),
    /// A JSON [`crate::HealthReport`].
    Health(&'a str),
    /// A JSON `DeviceCharacterization`.
    Characterize(&'a str),
    /// The request could not be served.
    Error(&'a str),
}

/// Bytes a codec could not turn into a request.
#[derive(Debug)]
pub(crate) struct Fault {
    /// The error reply's text.
    pub message: String,
    /// The fault counter this refusal bumps.
    pub counter: fn(&Metrics) -> &AtomicU64,
    /// The stream lost sync: the connection closes once the error reply
    /// is flushed. A non-fatal fault skips one request and reads on.
    pub fatal: bool,
}

/// One wire format, as the shard event loop sees it: an incremental
/// decoder per connection plus a stateless reply encoder.
pub(crate) trait Codec: Default {
    /// Whether the shard answers this wire's repeat tune requests from
    /// its decision cache instead of the engine.
    const DECISION_CACHE: bool;

    /// Appends received bytes.
    fn extend(&mut self, bytes: &[u8]);

    /// Whether part of a request is buffered: a peer that stops here is
    /// stalled (read deadline) or cut off (end of stream).
    fn has_partial(&self) -> bool;

    /// The next complete request, `None` when more bytes are needed.
    fn next_request(&mut self) -> Option<Result<Request, Fault>>;

    /// The peer closed its half of the stream. A codec that can still
    /// make a request of what is buffered does so here.
    fn finish(&mut self) {}

    /// Encodes one reply as the bytes of one write.
    fn encode(reply: &Reply<'_>) -> Vec<u8>;
}

impl Codec for FrameDecoder {
    const DECISION_CACHE: bool = true;

    fn extend(&mut self, bytes: &[u8]) {
        FrameDecoder::extend(self, bytes);
    }

    fn has_partial(&self) -> bool {
        FrameDecoder::has_partial(self)
    }

    fn next_request(&mut self) -> Option<Result<Request, Fault>> {
        // A framing error means the next frame boundary is lost.
        let frame = match self.next_frame() {
            Ok(frame) => frame?,
            Err(err) => return Some(Err(wire_fault(&err, true))),
        };
        let body = &frame.body;
        let request = match frame.opcode {
            Opcode::Tune => decode_tune_request(body).map(Request::Tune),
            Opcode::Batch => decode_batch_request(body).map(Request::Batch),
            Opcode::Stats => Ok(Request::Stats),
            Opcode::Health => Ok(Request::Health),
            Opcode::Characterize => decode_characterize_request(body).map(Request::Characterize),
            // Reply opcodes (and Error) only flow server to client; a
            // client sending one is confused or hostile.
            Opcode::TuneReply
            | Opcode::StatsReply
            | Opcode::CharacterizeReply
            | Opcode::BatchReply
            | Opcode::HealthReply
            | Opcode::Error => {
                return Some(Err(Fault {
                    message: "unexpected reply opcode from client".to_string(),
                    counter: |m| &m.frame_malformed,
                    fatal: true,
                }))
            }
        };
        // An undecodable body leaves the frame boundaries intact.
        Some(request.map_err(|err| wire_fault(&err, false)))
    }

    fn encode(reply: &Reply<'_>) -> Vec<u8> {
        match reply {
            Reply::Tune(response) => {
                frame_bytes(Opcode::TuneReply, &encode_tune_response(response))
            }
            Reply::Batch(responses) => {
                frame_bytes(Opcode::BatchReply, &encode_batch_response(responses))
            }
            Reply::Stats(json) => frame_bytes(Opcode::StatsReply, json.as_bytes()),
            Reply::Health(json) => frame_bytes(Opcode::HealthReply, json.as_bytes()),
            Reply::Characterize(json) => frame_bytes(Opcode::CharacterizeReply, json.as_bytes()),
            Reply::Error(message) => frame_bytes(Opcode::Error, &encode_error(message)),
        }
    }
}

fn wire_fault(err: &WireError, fatal: bool) -> Fault {
    let counter: fn(&Metrics) -> &AtomicU64 = match err {
        WireError::Oversized { .. } => |m| &m.frame_oversized,
        WireError::BadCrc { .. } => |m| &m.frame_crc_errors,
        _ => |m| &m.frame_malformed,
    };
    Fault {
        message: err.to_string(),
        counter,
        fatal,
    }
}

/// Bound on one JSON request line, its newline included.
pub(crate) const MAX_LINE_BYTES: usize = 64 * 1024;

/// Newline-delimited JSON. Blank lines are skipped; a line that parses
/// as neither a [`TuneRequest`] nor a [`StatsQuery`] draws a
/// `malformed request` reply and the connection reads on; a line that
/// outgrows [`MAX_LINE_BYTES`] draws one last reply before the close.
/// Replies are [`TuneResponse`] lines, and failures carry id 0.
///
/// Every tune line runs the recommendation flow: a reply reflects the
/// registry's characterization at the time of the request, and a
/// request costs the same whatever its connection sent before.
#[derive(Debug, Default)]
pub(crate) struct LineCodec {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes.
    pos: usize,
    /// Bytes from `pos` already searched for a newline.
    scanned: usize,
}

impl Codec for LineCodec {
    const DECISION_CACHE: bool = false;

    fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is consumed.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= MAX_LINE_BYTES) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }

    fn next_request(&mut self) -> Option<Result<Request, Fault>> {
        loop {
            let pending = &self.buf[self.pos..];
            let window = &pending[..pending.len().min(MAX_LINE_BYTES)];
            let Some(newline) = window[self.scanned..].iter().position(|&b| b == b'\n') else {
                if window.len() == MAX_LINE_BYTES {
                    return Some(Err(Fault {
                        message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                        counter: |m| &m.oversized_lines,
                        fatal: true,
                    }));
                }
                self.scanned = window.len();
                return None;
            };
            let end = self.scanned + newline;
            let line = String::from_utf8_lossy(&pending[..end]).into_owned();
            self.pos += end + 1;
            self.scanned = 0;
            if !line.trim().is_empty() {
                return Some(parse_line(&line));
            }
        }
    }

    fn finish(&mut self) {
        // A last line without its newline is still a request.
        if self.has_partial() {
            self.buf.push(b'\n');
        }
    }

    fn encode(reply: &Reply<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        match reply {
            Reply::Tune(response) => push_response(&mut out, response),
            Reply::Batch(responses) => {
                for response in *responses {
                    push_response(&mut out, response);
                }
            }
            Reply::Stats(json) | Reply::Health(json) | Reply::Characterize(json) => {
                out.extend_from_slice(json.as_bytes());
                out.push(b'\n');
            }
            Reply::Error(message) => {
                push_response(&mut out, &TuneResponse::failure(0, message.to_string()));
            }
        }
        out
    }
}

/// A tune request, else the stats verb, else a malformed line.
fn parse_line(line: &str) -> Result<Request, Fault> {
    match icomm_persist::from_str::<TuneRequest>(line) {
        Ok(request) => Ok(Request::Tune(request)),
        Err(_) if icomm_persist::from_str::<StatsQuery>(line).is_ok() => Ok(Request::Stats),
        Err(err) => Err(Fault {
            message: format!("malformed request: {err:?}"),
            counter: |m| &m.malformed_requests,
            fatal: false,
        }),
    }
}

/// Appends `response` as one JSON line.
fn push_response(out: &mut Vec<u8>, response: &TuneResponse) {
    let json = icomm_persist::to_string(response).unwrap_or_else(|err| {
        // Only a non-finite number fails to serialize; a failure
        // response carries none.
        let failure =
            TuneResponse::failure(response.id, format!("reply serialization failed: {err}"));
        icomm_persist::to_string(&failure).unwrap_or_default()
    });
    out.extend_from_slice(json.as_bytes());
    out.push(b'\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(codec: &mut LineCodec) -> Vec<Result<Request, Fault>> {
        std::iter::from_fn(|| codec.next_request()).collect()
    }

    #[test]
    fn lines_decode_in_order_and_blank_lines_are_skipped() {
        let mut codec = LineCodec::default();
        codec.extend(b"{\"id\": 1, \"board\": \"tx2\", \"app\": \"orb\"}\n\n  \r\n{\"stats\": true}\n{\"id\": 2,");
        let decoded = lines(&mut codec);
        assert_eq!(decoded.len(), 2);
        assert!(matches!(&decoded[0], Ok(Request::Tune(r)) if r.id == 1 && r.board == "tx2"));
        assert!(matches!(decoded[1], Ok(Request::Stats)));
        assert!(codec.has_partial());
        codec.extend(b" \"board\": \"nano\", \"app\": \"lane\"}\n");
        let decoded = lines(&mut codec);
        assert!(matches!(&decoded[..], [Ok(Request::Tune(r))] if r.id == 2));
        assert!(!codec.has_partial());
    }

    #[test]
    fn a_line_past_the_bound_is_fatal_even_when_it_arrives_in_pieces() {
        let mut codec = LineCodec::default();
        for _ in 0..MAX_LINE_BYTES / 1024 - 1 {
            codec.extend(&[b'x'; 1024]);
            assert!(codec.next_request().is_none());
        }
        codec.extend(&[b'x'; 1024]);
        let fault = codec.next_request().unwrap().unwrap_err();
        assert_eq!(fault.message, "request line exceeds 65536 bytes");
        assert!(fault.fatal);

        // One byte less, newline included, is still a line.
        let mut codec = LineCodec::default();
        codec.extend(&[b' '; MAX_LINE_BYTES - 1]);
        codec.extend(b"\n");
        assert!(codec.next_request().is_none());
        assert!(!codec.has_partial());
    }

    #[test]
    fn each_json_reply_is_one_buffer_ending_in_its_newline() {
        let response = TuneResponse::failure(7, "no such board".to_string());
        let json = icomm_persist::to_string(&response).unwrap();
        assert_eq!(
            LineCodec::encode(&Reply::Tune(&response)),
            format!("{json}\n").into_bytes()
        );
        let error = LineCodec::encode(&Reply::Error("server at connection capacity"));
        assert_eq!(error.iter().filter(|&&b| b == b'\n').count(), 1);
        assert!(error.ends_with(b"\n"));
        let parsed: TuneResponse =
            icomm_persist::from_str(std::str::from_utf8(&error).unwrap().trim()).unwrap();
        assert_eq!((parsed.id, parsed.ok), (0, false));
        assert_eq!(
            LineCodec::encode(&Reply::Stats("{\"requests\":1}")),
            b"{\"requests\":1}\n"
        );
    }

    #[test]
    fn frames_decode_to_the_same_requests() {
        let request = TuneRequest::new(3, "nano", "orb");
        let mut codec = FrameDecoder::default();
        codec.extend(&frame_bytes(
            Opcode::Tune,
            &crate::wire::encode_tune_request(&request),
        ));
        codec.extend(&frame_bytes(Opcode::Stats, &[]));
        codec.extend(&frame_bytes(Opcode::TuneReply, &[]));
        let decoded: Vec<_> = std::iter::from_fn(|| codec.next_request()).collect();
        assert!(matches!(&decoded[0], Ok(Request::Tune(r)) if *r == request));
        assert!(matches!(decoded[1], Ok(Request::Stats)));
        assert!(matches!(&decoded[2], Err(fault) if fault.fatal));
    }
}
