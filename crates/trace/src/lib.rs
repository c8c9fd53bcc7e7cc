//! # icomm-trace — memory-access streams for the icomm simulator
//!
//! Two complementary ways of describing memory traffic:
//!
//! - [`pattern::Pattern`]: compact symbolic generators (linear, strided,
//!   sparse-uniform, single-address, read-modify-write, composition) that
//!   expand lazily into [`icomm_soc::request::MemRequest`] streams. The
//!   micro-benchmarks and workload descriptors are built from these.
//! - [`tracer::Tracer`]: instrumentation hooks so the *real* application
//!   implementations in `icomm-apps` can emit the accesses they actually
//!   perform, to be replayed against the simulator.
//!
//! # Example
//!
//! ```
//! use icomm_soc::cache::AccessKind;
//! use icomm_soc::hierarchy::MemSpace;
//! use icomm_trace::pattern::Pattern;
//!
//! // Four passes over a 1 MiB array in 64 B transactions.
//! let sweep = Pattern::Repeat {
//!     body: Box::new(Pattern::Linear {
//!         start: 0,
//!         bytes: 1 << 20,
//!         txn_bytes: 64,
//!         kind: AccessKind::Read,
//!     }),
//!     times: 4,
//! };
//! assert_eq!(sweep.len(), 4 * (1 << 20) / 64);
//! let mut requests = sweep.requests(MemSpace::Cached);
//! assert!(matches!(requests.next(), Some(first) if first.addr == 0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod pattern;
pub mod tracer;

pub use pattern::{Pattern, PatternIter};
pub use tracer::{CountingTracer, NullTracer, RecordingTracer, Tracer};
