//! `icommwire v1` — the compact length-prefixed binary protocol.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! +----------+---------+----------+------------------+-----------+
//! | len: u32 | ver: u8 | op: u8   | body (len-2 B)   | crc: u32  |
//! +----------+---------+----------+------------------+-----------+
//! ```
//!
//! All integers are little-endian. `len` counts the version byte, the
//! opcode byte, and the body; the CRC32 trailer (IEEE polynomial, the
//! same [`icomm_persist::crc32`] the snapshot format uses) covers
//! exactly those `len` bytes, so a bit flip anywhere in a frame is
//! detected before the body is ever decoded. A frame whose `len` field
//! exceeds the negotiated bound is rejected *before* buffering the
//! body, so a hostile 4 GiB length never allocates 4 GiB.
//!
//! Bodies are field-by-field binary: fixed-width integers, `u16`-length-
//! prefixed UTF-8 strings, and one presence byte per optional field. The
//! stats and characterize replies carry JSON payloads — they are rare,
//! diagnostic, and their schemas churn; the hot tune/batch path never
//! touches JSON.

use icomm_serve::{TuneRequest, TuneResponse};

/// Protocol version carried in every frame.
pub const WIRE_VERSION: u8 = 1;

/// Bytes in the length prefix.
pub const LEN_BYTES: usize = 4;

/// Bytes in the CRC32 trailer.
pub const CRC_BYTES: usize = 4;

/// Minimum value of the `len` field: version byte + opcode byte.
pub const MIN_FRAME_LEN: u32 = 2;

/// Default bound on the `len` field (version + opcode + body).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 256 * 1024;

/// Frame opcodes. Requests have the high bit clear; replies echo the
/// request opcode with the high bit set; `0xE0` is the transport-level
/// error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// One [`TuneRequest`] body; answered by [`Opcode::TuneReply`].
    Tune = 0x01,
    /// Empty body; answered by [`Opcode::StatsReply`].
    Stats = 0x02,
    /// Board-name body; answered by [`Opcode::CharacterizeReply`].
    Characterize = 0x03,
    /// `u32` count + that many [`TuneRequest`] bodies; answered by one
    /// [`Opcode::BatchReply`] carrying every response.
    Batch = 0x04,
    /// Empty body; answered by [`Opcode::HealthReply`].
    Health = 0x05,
    /// One [`TuneResponse`] body.
    TuneReply = 0x81,
    /// JSON [`icomm_serve::StatsReport`] payload.
    StatsReply = 0x82,
    /// JSON `DeviceCharacterization` payload.
    CharacterizeReply = 0x83,
    /// `u32` count + that many [`TuneResponse`] bodies.
    BatchReply = 0x84,
    /// JSON [`crate::HealthReport`] payload: per-shard liveness and
    /// restart counts from the supervision tree.
    HealthReply = 0x85,
    /// UTF-8 message body: the transport could not serve the frame
    /// (malformed body, unknown board, connection capacity, ...).
    Error = 0xE0,
}

impl Opcode {
    /// Parses a wire opcode byte.
    pub fn from_u8(byte: u8) -> Option<Opcode> {
        match byte {
            0x01 => Some(Opcode::Tune),
            0x02 => Some(Opcode::Stats),
            0x03 => Some(Opcode::Characterize),
            0x04 => Some(Opcode::Batch),
            0x05 => Some(Opcode::Health),
            0x81 => Some(Opcode::TuneReply),
            0x82 => Some(Opcode::StatsReply),
            0x83 => Some(Opcode::CharacterizeReply),
            0x84 => Some(Opcode::BatchReply),
            0x85 => Some(Opcode::HealthReply),
            0xE0 => Some(Opcode::Error),
            _ => None,
        }
    }

    /// All opcodes, for exhaustive codec tests.
    pub const ALL: [Opcode; 11] = [
        Opcode::Tune,
        Opcode::Stats,
        Opcode::Characterize,
        Opcode::Batch,
        Opcode::Health,
        Opcode::TuneReply,
        Opcode::StatsReply,
        Opcode::CharacterizeReply,
        Opcode::BatchReply,
        Opcode::HealthReply,
        Opcode::Error,
    ];
}

/// Why a frame (or a frame body) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length field exceeds the frame bound.
    Oversized {
        /// Length the frame claimed.
        len: u32,
        /// Bound it violated.
        max: u32,
    },
    /// The length field is below [`MIN_FRAME_LEN`].
    TooShort {
        /// Length the frame claimed.
        len: u32,
    },
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The CRC32 trailer does not match the frame bytes.
    BadCrc {
        /// CRC computed from the received bytes.
        expected: u32,
        /// CRC carried in the trailer.
        found: u32,
    },
    /// The opcode byte is not assigned.
    BadOpcode(u8),
    /// The body failed to decode (truncated field, bad UTF-8, ...).
    BadBody(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte bound")
            }
            WireError::TooShort { len } => {
                write!(
                    f,
                    "frame length {len} is below the {MIN_FRAME_LEN}-byte minimum"
                )
            }
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadCrc { expected, found } => {
                write!(
                    f,
                    "frame checksum mismatch: computed {expected:08x}, trailer {found:08x}"
                )
            }
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadBody(what) => write!(f, "malformed frame body: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One decoded frame: opcode plus raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame opcode.
    pub opcode: Opcode,
    /// The undecoded body.
    pub body: Vec<u8>,
}

/// Appends one complete frame (length prefix, version, opcode, body,
/// CRC32 trailer) for `body` to `out`.
pub fn encode_frame(opcode: Opcode, body: &[u8], out: &mut Vec<u8>) {
    let len = MIN_FRAME_LEN + body.len() as u32;
    out.extend_from_slice(&len.to_le_bytes());
    let covered_start = out.len();
    out.push(WIRE_VERSION);
    out.push(opcode as u8);
    out.extend_from_slice(body);
    let crc = icomm_persist::crc32(&out[covered_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Convenience: one frame as an owned buffer.
pub fn frame_bytes(opcode: Opcode, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(LEN_BYTES + MIN_FRAME_LEN as usize + body.len() + CRC_BYTES);
    encode_frame(opcode, body, &mut out);
    out
}

/// Incremental frame parser over a byte stream.
///
/// Feed received bytes with [`FrameDecoder::extend`], then drain frames
/// with [`FrameDecoder::next_frame`]. A [`WireError`] means the stream
/// is unsynchronized — the connection should answer with an error frame
/// and close, because frame boundaries can no longer be trusted.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    max_len: u32,
}

impl Default for FrameDecoder {
    /// A decoder with the default frame bound.
    fn default() -> Self {
        FrameDecoder::new(DEFAULT_MAX_FRAME_LEN)
    }
}

impl FrameDecoder {
    /// Creates a decoder enforcing `max_len` as the frame-length bound.
    pub fn new(max_len: u32) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_len: max_len.max(MIN_FRAME_LEN),
        }
    }

    /// Appends received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is consumed.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a partial frame is buffered — true between the first byte
    /// of a frame and its CRC trailer. Drives the truncation counters:
    /// a connection that reaches EOF (or its read deadline) while this
    /// holds was cut off mid-frame.
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] leaves the decoder unsynchronized; the caller
    /// must drop the stream.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < LEN_BYTES {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len < MIN_FRAME_LEN {
            return Err(WireError::TooShort { len });
        }
        if len > self.max_len {
            return Err(WireError::Oversized {
                len,
                max: self.max_len,
            });
        }
        let total = LEN_BYTES + len as usize + CRC_BYTES;
        if avail.len() < total {
            return Ok(None);
        }
        let covered = &avail[LEN_BYTES..LEN_BYTES + len as usize];
        let trailer = &avail[LEN_BYTES + len as usize..total];
        let found = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let expected = icomm_persist::crc32(covered);
        if expected != found {
            return Err(WireError::BadCrc { expected, found });
        }
        let version = covered[0];
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let Some(opcode) = Opcode::from_u8(covered[1]) else {
            return Err(WireError::BadOpcode(covered[1]));
        };
        let body = covered[2..].to_vec();
        self.pos += total;
        Ok(Some(Frame { opcode, body }))
    }
}

// ---------------------------------------------------------------------
// Body codecs
// ---------------------------------------------------------------------

/// Body-field writer: fixed-width little-endian integers, `u16`-length-
/// prefixed strings, one presence byte per optional field.
#[derive(Debug, Default)]
pub struct BodyWriter {
    bytes: Vec<u8>,
}

impl BodyWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BodyWriter::default()
    }

    /// Finishes and returns the body bytes.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a `u16`-length-prefixed UTF-8 string. Strings longer than
    /// `u16::MAX` bytes are truncated at the last character boundary
    /// that fits — wire strings are names and rationale sentences, never
    /// bulk data.
    pub fn put_str(&mut self, s: &str) {
        let mut end = s.len().min(u16::MAX as usize);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        self.bytes.extend_from_slice(&(end as u16).to_le_bytes());
        self.bytes.extend_from_slice(&s.as_bytes()[..end]);
    }

    /// Writes a presence byte, then the string when present.
    pub fn put_opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.put_u8(1);
                self.put_str(s);
            }
            None => self.put_u8(0),
        }
    }

    /// Writes a presence byte, then the flag when present.
    pub fn put_opt_bool(&mut self, v: Option<bool>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u8(u8::from(v));
            }
            None => self.put_u8(0),
        }
    }

    /// Writes a presence byte, then the value when present.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_f64(v);
            }
            None => self.put_u8(0),
        }
    }

    /// Writes a presence byte, then the value when present.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
            None => self.put_u8(0),
        }
    }
}

/// Body-field reader mirroring [`BodyWriter`].
#[derive(Debug)]
pub struct BodyReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    /// Wraps a body.
    pub fn new(bytes: &'a [u8]) -> Self {
        BodyReader { bytes, pos: 0 }
    }

    /// Whether every byte has been consumed — decoders require this so
    /// trailing garbage in a body is rejected, not silently ignored.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < n {
            return Err(WireError::BadBody("field truncated"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let b = self.take(2)?;
        let len = u16::from_le_bytes([b[0], b[1]]) as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadBody("string is not UTF-8"))
    }

    /// Reads a presence byte, then the string when present.
    pub fn get_opt_str(&mut self) -> Result<Option<String>, WireError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_str()?)),
            _ => Err(WireError::BadBody("presence byte out of range")),
        }
    }

    /// Reads a presence byte, then the flag when present.
    pub fn get_opt_bool(&mut self) -> Result<Option<bool>, WireError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => match self.get_u8()? {
                0 => Ok(Some(false)),
                1 => Ok(Some(true)),
                _ => Err(WireError::BadBody("bool byte out of range")),
            },
            _ => Err(WireError::BadBody("presence byte out of range")),
        }
    }

    /// Reads a presence byte, then the value when present.
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_f64()?)),
            _ => Err(WireError::BadBody("presence byte out of range")),
        }
    }

    /// Reads a presence byte, then the value when present.
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            _ => Err(WireError::BadBody("presence byte out of range")),
        }
    }
}

/// Encodes a [`TuneRequest`] body.
pub fn encode_tune_request(request: &TuneRequest) -> Vec<u8> {
    let mut w = BodyWriter::new();
    put_tune_request(&mut w, request);
    w.finish()
}

fn put_tune_request(w: &mut BodyWriter, request: &TuneRequest) {
    w.put_u64(request.id);
    w.put_str(&request.board);
    w.put_str(&request.app);
    w.put_opt_str(request.current.as_deref());
    w.put_opt_str(request.class.as_deref());
}

/// Decodes a [`TuneRequest`] body.
///
/// # Errors
///
/// [`WireError::BadBody`] on truncation, bad UTF-8, or trailing bytes.
pub fn decode_tune_request(body: &[u8]) -> Result<TuneRequest, WireError> {
    let mut r = BodyReader::new(body);
    let request = get_tune_request(&mut r)?;
    if !r.is_exhausted() {
        return Err(WireError::BadBody("trailing bytes after request"));
    }
    Ok(request)
}

fn get_tune_request(r: &mut BodyReader<'_>) -> Result<TuneRequest, WireError> {
    Ok(TuneRequest {
        id: r.get_u64()?,
        board: r.get_str()?,
        app: r.get_str()?,
        current: r.get_opt_str()?,
        class: r.get_opt_str()?,
    })
}

/// Encodes a [`TuneResponse`] body.
pub fn encode_tune_response(response: &TuneResponse) -> Vec<u8> {
    let mut w = BodyWriter::new();
    put_tune_response(&mut w, response);
    w.finish()
}

fn put_tune_response(w: &mut BodyWriter, response: &TuneResponse) {
    w.put_u64(response.id);
    w.put_u8(u8::from(response.ok));
    w.put_opt_str(response.error.as_deref());
    w.put_opt_str(response.board.as_deref());
    w.put_opt_str(response.app.as_deref());
    w.put_opt_str(response.current.as_deref());
    w.put_opt_str(response.recommended.as_deref());
    w.put_opt_bool(response.switch_suggested);
    w.put_opt_f64(response.estimated_speedup);
    w.put_opt_str(response.rationale.as_deref());
    w.put_opt_bool(response.cache_hit);
    w.put_opt_u64(response.latency_us);
    w.put_opt_str(response.overloaded.as_deref());
}

/// Decodes a [`TuneResponse`] body.
///
/// # Errors
///
/// [`WireError::BadBody`] on truncation, bad UTF-8, or trailing bytes.
pub fn decode_tune_response(body: &[u8]) -> Result<TuneResponse, WireError> {
    let mut r = BodyReader::new(body);
    let response = get_tune_response(&mut r)?;
    if !r.is_exhausted() {
        return Err(WireError::BadBody("trailing bytes after response"));
    }
    Ok(response)
}

fn get_tune_response(r: &mut BodyReader<'_>) -> Result<TuneResponse, WireError> {
    Ok(TuneResponse {
        id: r.get_u64()?,
        ok: match r.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(WireError::BadBody("ok byte out of range")),
        },
        error: r.get_opt_str()?,
        board: r.get_opt_str()?,
        app: r.get_opt_str()?,
        current: r.get_opt_str()?,
        recommended: r.get_opt_str()?,
        switch_suggested: r.get_opt_bool()?,
        estimated_speedup: r.get_opt_f64()?,
        rationale: r.get_opt_str()?,
        cache_hit: r.get_opt_bool()?,
        latency_us: r.get_opt_u64()?,
        overloaded: r.get_opt_str()?,
    })
}

/// Largest request count a batch body may carry — bounds the allocation
/// a hostile count field can trigger (the frame-length bound already
/// limits the real payload).
pub const MAX_BATCH_REQUESTS: u32 = 4096;

/// Encodes a batch body: `u32` count + the request bodies.
pub fn encode_batch_request(requests: &[TuneRequest]) -> Vec<u8> {
    let mut w = BodyWriter::new();
    w.put_u32(requests.len() as u32);
    for request in requests {
        put_tune_request(&mut w, request);
    }
    w.finish()
}

/// Decodes a batch body into its requests.
///
/// # Errors
///
/// [`WireError::BadBody`] on a hostile count, truncation, or trailing
/// bytes.
pub fn decode_batch_request(body: &[u8]) -> Result<Vec<TuneRequest>, WireError> {
    let mut r = BodyReader::new(body);
    let count = r.get_u32()?;
    if count > MAX_BATCH_REQUESTS {
        return Err(WireError::BadBody("batch count beyond bound"));
    }
    let mut requests = Vec::with_capacity(count as usize);
    for _ in 0..count {
        requests.push(get_tune_request(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(WireError::BadBody("trailing bytes after batch"));
    }
    Ok(requests)
}

/// Encodes a batch reply body: `u32` count + the response bodies.
pub fn encode_batch_response(responses: &[TuneResponse]) -> Vec<u8> {
    let mut w = BodyWriter::new();
    w.put_u32(responses.len() as u32);
    for response in responses {
        put_tune_response(&mut w, response);
    }
    w.finish()
}

/// Decodes a batch reply body into its responses.
///
/// # Errors
///
/// [`WireError::BadBody`] on a hostile count, truncation, or trailing
/// bytes.
pub fn decode_batch_response(body: &[u8]) -> Result<Vec<TuneResponse>, WireError> {
    let mut r = BodyReader::new(body);
    let count = r.get_u32()?;
    if count > MAX_BATCH_REQUESTS {
        return Err(WireError::BadBody("batch count beyond bound"));
    }
    let mut responses = Vec::with_capacity(count as usize);
    for _ in 0..count {
        responses.push(get_tune_response(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(WireError::BadBody("trailing bytes after batch"));
    }
    Ok(responses)
}

/// Encodes a characterize request body (the board name).
pub fn encode_characterize_request(board: &str) -> Vec<u8> {
    let mut w = BodyWriter::new();
    w.put_str(board);
    w.finish()
}

/// Decodes a characterize request body.
///
/// # Errors
///
/// [`WireError::BadBody`] on truncation, bad UTF-8, or trailing bytes.
pub fn decode_characterize_request(body: &[u8]) -> Result<String, WireError> {
    let mut r = BodyReader::new(body);
    let board = r.get_str()?;
    if !r.is_exhausted() {
        return Err(WireError::BadBody("trailing bytes after board name"));
    }
    Ok(board)
}

/// Encodes an error-frame body (the message).
pub fn encode_error(message: &str) -> Vec<u8> {
    let mut w = BodyWriter::new();
    w.put_str(message);
    w.finish()
}

/// Decodes an error-frame body.
///
/// # Errors
///
/// [`WireError::BadBody`] on truncation, bad UTF-8, or trailing bytes.
pub fn decode_error(body: &[u8]) -> Result<String, WireError> {
    let mut r = BodyReader::new(body);
    let message = r.get_str()?;
    if !r.is_exhausted() {
        return Err(WireError::BadBody("trailing bytes after message"));
    }
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> TuneRequest {
        TuneRequest::new(42, "tx2", "orb")
            .with_current("zc")
            .with_class("bulk")
    }

    fn sample_response() -> TuneResponse {
        TuneResponse {
            id: 42,
            ok: true,
            error: None,
            board: Some("tx2".to_string()),
            app: Some("orb".to_string()),
            current: Some("ZC".to_string()),
            recommended: Some("SC".to_string()),
            switch_suggested: Some(true),
            estimated_speedup: Some(1.37),
            rationale: Some("cache zone".to_string()),
            cache_hit: Some(false),
            latency_us: Some(812),
            overloaded: None,
        }
    }

    #[test]
    fn frame_round_trips() {
        let body = encode_tune_request(&sample_request());
        let bytes = frame_bytes(Opcode::Tune, &body);
        let mut decoder = FrameDecoder::default();
        decoder.extend(&bytes);
        let frame = decoder.next_frame().unwrap().unwrap();
        assert_eq!(frame.opcode, Opcode::Tune);
        assert_eq!(decode_tune_request(&frame.body).unwrap(), sample_request());
        assert!(decoder.next_frame().unwrap().is_none());
        assert!(!decoder.has_partial());
    }

    #[test]
    fn decoder_reassembles_split_frames() {
        let body = encode_tune_response(&sample_response());
        let bytes = frame_bytes(Opcode::TuneReply, &body);
        let mut decoder = FrameDecoder::default();
        // Feed one byte at a time: no frame until the last byte.
        for (i, byte) in bytes.iter().enumerate() {
            if i + 1 < bytes.len() {
                decoder.extend(&[*byte]);
                assert!(decoder.next_frame().unwrap().is_none());
                assert!(decoder.has_partial());
            }
        }
        decoder.extend(&bytes[bytes.len() - 1..]);
        let frame = decoder.next_frame().unwrap().unwrap();
        assert_eq!(
            decode_tune_response(&frame.body).unwrap(),
            sample_response()
        );
    }

    #[test]
    fn two_frames_in_one_read_both_decode() {
        let mut bytes = frame_bytes(Opcode::Stats, &[]);
        bytes.extend_from_slice(&frame_bytes(
            Opcode::Characterize,
            &encode_characterize_request("nano"),
        ));
        let mut decoder = FrameDecoder::default();
        decoder.extend(&bytes);
        assert_eq!(decoder.next_frame().unwrap().unwrap().opcode, Opcode::Stats);
        let second = decoder.next_frame().unwrap().unwrap();
        assert_eq!(second.opcode, Opcode::Characterize);
        assert_eq!(decode_characterize_request(&second.body).unwrap(), "nano");
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut decoder = FrameDecoder::new(1024);
        decoder.extend(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decoder.next_frame(),
            Err(WireError::Oversized { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn short_length_is_rejected() {
        let mut decoder = FrameDecoder::default();
        decoder.extend(&1u32.to_le_bytes());
        assert!(matches!(
            decoder.next_frame(),
            Err(WireError::TooShort { len: 1 })
        ));
    }

    #[test]
    fn crc_flip_is_detected() {
        let mut bytes = frame_bytes(Opcode::Tune, &encode_tune_request(&sample_request()));
        let flip = bytes.len() / 2;
        bytes[flip] ^= 0x40;
        let mut decoder = FrameDecoder::default();
        decoder.extend(&bytes);
        assert!(matches!(
            decoder.next_frame(),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn bad_version_and_opcode_are_rejected() {
        // Hand-build a frame with a bad version but a valid CRC.
        let covered = [9u8, Opcode::Tune as u8];
        let mut bytes = (covered.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&covered);
        bytes.extend_from_slice(&icomm_persist::crc32(&covered).to_le_bytes());
        let mut decoder = FrameDecoder::default();
        decoder.extend(&bytes);
        assert_eq!(decoder.next_frame(), Err(WireError::BadVersion(9)));

        let covered = [WIRE_VERSION, 0x55];
        let mut bytes = (covered.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&covered);
        bytes.extend_from_slice(&icomm_persist::crc32(&covered).to_le_bytes());
        let mut decoder = FrameDecoder::default();
        decoder.extend(&bytes);
        assert_eq!(decoder.next_frame(), Err(WireError::BadOpcode(0x55)));
    }

    #[test]
    fn batch_round_trips_and_bounds_the_count() {
        let requests: Vec<TuneRequest> = (0..5)
            .map(|i| TuneRequest::new(i, "nano", "shwfs"))
            .collect();
        let body = encode_batch_request(&requests);
        assert_eq!(decode_batch_request(&body).unwrap(), requests);

        let mut hostile = BodyWriter::new();
        hostile.put_u32(MAX_BATCH_REQUESTS + 1);
        assert!(matches!(
            decode_batch_request(&hostile.finish()),
            Err(WireError::BadBody(_))
        ));
    }

    #[test]
    fn trailing_bytes_in_a_body_are_rejected() {
        let mut body = encode_tune_request(&sample_request());
        body.push(0xAA);
        assert!(matches!(
            decode_tune_request(&body),
            Err(WireError::BadBody(_))
        ));
    }

    #[test]
    fn long_strings_truncate_at_char_boundaries() {
        let long = "é".repeat(40_000); // 80k bytes of 2-byte chars
        let mut w = BodyWriter::new();
        w.put_str(&long);
        let body = w.finish();
        let mut r = BodyReader::new(&body);
        let back = r.get_str().unwrap();
        assert!(back.len() <= u16::MAX as usize);
        assert!(back.chars().all(|c| c == 'é'));
    }

    #[test]
    fn error_frame_round_trips() {
        let body = encode_error("server at connection capacity");
        assert_eq!(
            decode_error(&body).unwrap(),
            "server at connection capacity"
        );
    }
}
