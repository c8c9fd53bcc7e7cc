//! icomm-net — the event-driven serving plane.
//!
//! One listener type serves the tuning service over TCP, in either of
//! two codecs: newline-delimited JSON or the compact binary
//! `icommwire v1` frames.
//!
//! * [`sys`] / [`reactor`] — a minimal level-triggered epoll reactor
//!   over nonblocking `std::net` sockets, built on direct `extern
//!   "C"` bindings (the workspace is offline; no `libc`/`mio`/`tokio`
//!   available).
//! * [`codec`] — the seam between bytes and requests, with the
//!   line-JSON codec and the frame codec behind one trait.
//! * [`wire`] — `icommwire v1`: compact length-prefixed binary frames
//!   with a CRC32 trailer, reusing the snapshot CRC from
//!   `icomm-persist`.
//! * `shard` — shared-nothing per-core event loops that drain ready
//!   sockets into request batches and submit each sweep to the
//!   [`icomm_serve::TuningService`] worker pool in a single hop.
//! * [`server`] — the acceptor + shard assembly, with a global
//!   connection cap enforced before a socket reaches a shard.
//! * [`client`] / [`loadgen`] — blocking clients for both codecs and a
//!   closed-loop load generator that drives either with the same
//!   workload for apples-to-apples comparison.
//!
//! Backpressure is inherited, not reinvented: engine-bound requests
//! flow through the service's admission controller, so a saturated
//! service sheds with `overloaded` responses on both wires, and a
//! connection whose peer does not read its replies is read no further
//! once [`MAX_QUEUED_REPLIES`] of them are queued, leaving TCP flow
//! control to stop the peer.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod codec;
pub mod loadgen;
pub mod reactor;
pub mod resilient;
pub mod server;
mod shard;
pub mod supervise;
pub mod sys;
pub mod wire;

pub use client::{BinaryClient, ClientError, JsonClient};
pub use codec::WireMode;
pub use loadgen::{run_load, warmup, LoadReport};
pub use reactor::{Event, Interest, Reactor, Waker};
pub use resilient::{ResilienceConfig, ResilienceCounters, ResilientClient};
pub use server::{NetConfig, Server};
pub use shard::MAX_QUEUED_REPLIES;
pub use supervise::{HealthBoard, HealthReport, PanicInjector, PanicPlan, ShardHealth};
pub use wire::{
    decode_batch_request, decode_batch_response, decode_tune_request, decode_tune_response,
    encode_batch_request, encode_batch_response, encode_frame, encode_tune_request,
    encode_tune_response, frame_bytes, Frame, FrameDecoder, Opcode, WireError,
};
