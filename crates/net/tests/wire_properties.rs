//! Property-based tests of the `icommwire v1` codec.
//!
//! The framing layer is the part of the serving plane that faces
//! arbitrary bytes from the network, so it gets the adversarial
//! treatment: every opcode must round-trip through encode → (chunked)
//! decode, and truncated / bit-flipped / oversized / garbage inputs
//! must be rejected or left pending — never panic, never mis-decode.

use proptest::prelude::*;

use icomm_net::wire::{
    decode_batch_request, decode_error, decode_tune_request, decode_tune_response,
    encode_batch_request, encode_batch_response, encode_error, encode_tune_request,
    encode_tune_response, frame_bytes, FrameDecoder, Opcode, WireError,
};
use icomm_serve::{TuneRequest, TuneResponse};

fn ascii_string() -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..24)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII is valid UTF-8"))
}

fn opt_string() -> impl Strategy<Value = Option<String>> {
    (prop::bool::ANY, ascii_string()).prop_map(|(some, s)| if some { Some(s) } else { None })
}

fn opt_bool() -> impl Strategy<Value = Option<bool>> {
    (prop::bool::ANY, prop::bool::ANY).prop_map(|(some, v)| if some { Some(v) } else { None })
}

fn opt_f64() -> impl Strategy<Value = Option<f64>> {
    (prop::bool::ANY, prop::num::f64::NORMAL)
        .prop_map(|(some, v)| if some { Some(v) } else { None })
}

fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    (prop::bool::ANY, any::<u64>()).prop_map(|(some, v)| if some { Some(v) } else { None })
}

fn tune_request() -> impl Strategy<Value = TuneRequest> {
    (
        any::<u64>(),
        ascii_string(),
        ascii_string(),
        opt_string(),
        opt_string(),
    )
        .prop_map(|(id, board, app, current, class)| {
            let mut request = TuneRequest::new(id, &board, &app);
            request.current = current;
            request.class = class;
            request
        })
}

fn tune_response() -> impl Strategy<Value = TuneResponse> {
    (
        (any::<u64>(), prop::bool::ANY, opt_string(), opt_string()),
        (opt_string(), opt_string(), opt_string(), opt_bool()),
        (opt_f64(), opt_string(), opt_bool(), opt_u64(), opt_string()),
    )
        .prop_map(
            |(
                (id, ok, error, board),
                (app, current, recommended, switch_suggested),
                (estimated_speedup, rationale, cache_hit, latency_us, overloaded),
            )| TuneResponse {
                id,
                ok,
                error,
                board,
                app,
                current,
                recommended,
                switch_suggested,
                estimated_speedup,
                rationale,
                cache_hit,
                latency_us,
                overloaded,
            },
        )
}

/// Splits `bytes` into decoder-feed chunks at pseudo-random points
/// derived from `salt`, and decodes exactly one frame.
fn decode_chunked(bytes: &[u8], salt: u64) -> Result<Option<icomm_net::Frame>, WireError> {
    let mut decoder = FrameDecoder::default();
    let mut offset = 0usize;
    let mut state = salt | 1;
    while offset < bytes.len() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let take = 1 + (state % 7) as usize;
        let end = (offset + take).min(bytes.len());
        decoder.extend(&bytes[offset..end]);
        offset = end;
        // Mid-stream pulls must never produce a frame early or error.
        if offset < bytes.len() {
            match decoder.next_frame() {
                Ok(None) => {}
                Ok(Some(frame)) => return Ok(Some(frame)),
                Err(e) => return Err(e),
            }
        }
    }
    decoder.next_frame()
}

proptest! {
    #[test]
    fn every_opcode_round_trips_through_chunked_decode(
        request in tune_request(),
        response in tune_response(),
        message in ascii_string(),
        payload in prop::collection::vec(any::<u8>(), 0..64),
        salt in any::<u64>(),
    ) {
        // One representative body per opcode, exercising all eleven.
        let bodies: Vec<(Opcode, Vec<u8>)> = vec![
            (Opcode::Tune, encode_tune_request(&request)),
            (Opcode::Stats, Vec::new()),
            (Opcode::Characterize, icomm_net::wire::encode_characterize_request("tx2")),
            (Opcode::Batch, encode_batch_request(std::slice::from_ref(&request))),
            (Opcode::Health, Vec::new()),
            (Opcode::TuneReply, encode_tune_response(&response)),
            (Opcode::StatsReply, payload.clone()),
            (Opcode::CharacterizeReply, payload.clone()),
            (Opcode::BatchReply, encode_batch_response(std::slice::from_ref(&response))),
            (Opcode::HealthReply, payload.clone()),
            (Opcode::Error, encode_error(&message)),
        ];
        prop_assert_eq!(bodies.len(), Opcode::ALL.len());
        for (opcode, body) in bodies {
            let framed = frame_bytes(opcode, &body);
            let frame = decode_chunked(&framed, salt)
                .expect("valid frame rejected")
                .expect("valid frame left pending");
            prop_assert_eq!(frame.opcode, opcode);
            prop_assert_eq!(&frame.body, &body);
        }
    }

    #[test]
    fn tune_request_body_round_trips(request in tune_request()) {
        let body = encode_tune_request(&request);
        let decoded = decode_tune_request(&body).expect("decode");
        prop_assert_eq!(decoded, request);
    }

    #[test]
    fn tune_response_body_round_trips(response in tune_response()) {
        let body = encode_tune_response(&response);
        let decoded = decode_tune_response(&body).expect("decode");
        // NaN-safe comparison: the codec must preserve bits, and
        // PartialEq on f64 treats NaN != NaN.
        prop_assert_eq!(
            decoded.estimated_speedup.map(f64::to_bits),
            response.estimated_speedup.map(f64::to_bits)
        );
        let mut normalized = decoded;
        normalized.estimated_speedup = response.estimated_speedup;
        prop_assert_eq!(normalized, response);
    }

    #[test]
    fn batch_bodies_round_trip(
        requests in prop::collection::vec(tune_request(), 0..8),
    ) {
        let body = encode_batch_request(&requests);
        let decoded = decode_batch_request(&body).expect("decode");
        prop_assert_eq!(decoded, requests);
    }

    #[test]
    fn error_bodies_round_trip(message in ascii_string()) {
        let body = encode_error(&message);
        prop_assert_eq!(decode_error(&body).expect("decode"), message);
    }

    #[test]
    fn truncated_frames_stay_pending_and_never_decode(
        request in tune_request(),
        cut in any::<u64>(),
    ) {
        let framed = frame_bytes(Opcode::Tune, &encode_tune_request(&request));
        // Cut anywhere from the empty prefix to one byte short.
        let keep = (cut % framed.len() as u64) as usize;
        let mut decoder = FrameDecoder::default();
        decoder.extend(&framed[..keep]);
        match decoder.next_frame() {
            Ok(None) => {}
            Ok(Some(_)) => prop_assert!(false, "decoded a frame from a strict prefix"),
            Err(e) => prop_assert!(false, "prefix of a valid frame errored: {e}"),
        }
        prop_assert_eq!(decoder.has_partial(), keep > 0);
    }

    #[test]
    fn bit_flips_in_the_covered_region_are_rejected(
        request in tune_request(),
        flip in any::<u64>(),
    ) {
        let mut framed = frame_bytes(Opcode::Tune, &encode_tune_request(&request));
        // Flip one bit past the length prefix: version, opcode, body,
        // or CRC trailer — all covered by the checksum.
        let covered_bits = (framed.len() - 4) * 8;
        let bit = (flip % covered_bits as u64) as usize;
        framed[4 + bit / 8] ^= 1 << (bit % 8);
        let mut decoder = FrameDecoder::default();
        decoder.extend(&framed);
        match decoder.next_frame() {
            Err(WireError::BadCrc { .. }) => {}
            other => prop_assert!(false, "single bit flip not caught by CRC: {other:?}"),
        }
    }

    #[test]
    fn bit_flips_in_the_length_prefix_never_yield_the_frame(
        request in tune_request(),
        flip in any::<u64>(),
    ) {
        let framed = frame_bytes(Opcode::Tune, &encode_tune_request(&request));
        let mut corrupted = framed.clone();
        let bit = (flip % 32) as usize;
        corrupted[bit / 8] ^= 1 << (bit % 8);
        let mut decoder = FrameDecoder::default();
        decoder.extend(&corrupted);
        match decoder.next_frame() {
            // Shorter advertised length: trailer misaligns, CRC fails.
            // Longer: the decoder waits (pending) or rejects the bound.
            Ok(None) | Err(_) => {}
            Ok(Some(frame)) => {
                let original = decode_tune_request(&encode_tune_request(&request)).expect("self");
                let reparsed = decode_tune_request(&frame.body);
                prop_assert!(
                    reparsed.map(|r| r != original).unwrap_or(true),
                    "length-prefix flip reproduced the original frame"
                );
            }
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_before_the_body_arrives(
        excess in 1u32..1_000_000,
        tail in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let max = 4096;
        let mut decoder = FrameDecoder::new(max);
        let advertised = max + excess;
        let mut bytes = advertised.to_le_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        decoder.extend(&bytes);
        match decoder.next_frame() {
            Err(WireError::Oversized { len, max: m }) => {
                prop_assert_eq!(len, advertised);
                prop_assert_eq!(m, max);
            }
            other => prop_assert!(false, "oversized length not rejected: {other:?}"),
        }
    }

    #[test]
    fn random_garbage_never_panics_the_decoder(
        garbage in prop::collection::vec(any::<u8>(), 0..512),
        salt in any::<u64>(),
    ) {
        let mut decoder = FrameDecoder::new(4096);
        let mut offset = 0usize;
        let mut state = salt | 1;
        while offset < garbage.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let end = (offset + 1 + (state % 17) as usize).min(garbage.len());
            decoder.extend(&garbage[offset..end]);
            offset = end;
            // Drain until pending or rejected; rejection ends the
            // stream (a real connection would close here).
            loop {
                match decoder.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => return,
                }
            }
        }
        // Memory stays bounded by the frame cap plus framing overhead.
        prop_assert!(decoder.pending_bytes() <= 4096 + 8);
    }
}
