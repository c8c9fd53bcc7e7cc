//! Instrumentation hooks for real algorithm implementations.
//!
//! The applications in `icomm-apps` are real Rust implementations (they
//! compute actual centroids and ORB descriptors). To drive the simulator
//! with *their* memory behaviour rather than a hand-written approximation,
//! the algorithms are parameterized over a [`Tracer`]: production callers
//! pass [`NullTracer`] (zero overhead), while workload extraction passes a
//! [`RecordingTracer`] or [`CountingTracer`].

use icomm_soc::cache::AccessKind;
use icomm_soc::hierarchy::MemSpace;
use icomm_soc::request::MemRequest;

/// Receives the memory requests an instrumented algorithm performs.
pub trait Tracer {
    /// Records one request.
    fn record(&mut self, request: MemRequest);

    /// Convenience: records a read of `bytes` at `addr`.
    fn read(&mut self, addr: u64, bytes: u32, space: MemSpace) {
        self.record(MemRequest {
            addr,
            bytes,
            kind: AccessKind::Read,
            space,
        });
    }

    /// Convenience: records a write of `bytes` at `addr`.
    fn write(&mut self, addr: u64, bytes: u32, space: MemSpace) {
        self.record(MemRequest {
            addr,
            bytes,
            kind: AccessKind::Write,
            space,
        });
    }
}

/// Discards every request; the zero-cost tracer for production use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn record(&mut self, _request: MemRequest) {}
}

/// Stores requests up to a configurable cap (to bound memory for huge
/// workloads), counting overflow separately.
#[derive(Debug, Clone, Default)]
pub struct RecordingTracer {
    requests: Vec<MemRequest>,
    cap: Option<usize>,
    dropped: u64,
}

impl RecordingTracer {
    /// Creates an unbounded recorder.
    pub fn new() -> Self {
        RecordingTracer::default()
    }

    /// Creates a recorder that keeps at most `cap` requests.
    pub fn with_cap(cap: usize) -> Self {
        RecordingTracer {
            requests: Vec::new(),
            cap: Some(cap),
            dropped: 0,
        }
    }

    /// The recorded requests.
    pub fn requests(&self) -> &[MemRequest] {
        &self.requests
    }

    /// Requests dropped because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Tracer for RecordingTracer {
    fn record(&mut self, request: MemRequest) {
        if let Some(cap) = self.cap {
            if self.requests.len() >= cap {
                self.dropped += 1;
                return;
            }
        }
        self.requests.push(request);
    }
}

/// Counts traffic without storing it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingTracer {
    /// Read transactions observed.
    pub reads: u64,
    /// Write transactions observed.
    pub writes: u64,
    /// Total bytes requested.
    pub bytes: u64,
}

impl CountingTracer {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        CountingTracer::default()
    }

    /// Total transactions observed.
    pub fn transactions(&self) -> u64 {
        self.reads + self.writes
    }
}

impl Tracer for CountingTracer {
    fn record(&mut self, request: MemRequest) {
        match request.kind {
            AccessKind::Read => self.reads += 1,
            AccessKind::Write => self.writes += 1,
        }
        self.bytes += request.bytes as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_silent() {
        let mut t = NullTracer;
        t.read(0, 64, MemSpace::Cached);
        t.write(0, 64, MemSpace::Cached);
        // Nothing observable; this test exists to exercise the default
        // methods.
    }

    #[test]
    fn recording_tracer_stores_in_order() {
        let mut t = RecordingTracer::new();
        t.read(0x10, 4, MemSpace::Cached);
        t.write(0x20, 8, MemSpace::Pinned);
        assert_eq!(t.requests().len(), 2);
        assert_eq!(t.requests()[0].kind, AccessKind::Read);
        assert_eq!(t.requests()[1].addr, 0x20);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn recording_tracer_respects_cap() {
        let mut t = RecordingTracer::with_cap(2);
        for i in 0..5 {
            t.read(i, 4, MemSpace::Cached);
        }
        assert_eq!(t.requests().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn counting_tracer_tallies() {
        let mut t = CountingTracer::new();
        t.read(0, 64, MemSpace::Cached);
        t.read(64, 64, MemSpace::Cached);
        t.write(0, 32, MemSpace::Cached);
        assert_eq!(t.reads, 2);
        assert_eq!(t.writes, 1);
        assert_eq!(t.bytes, 160);
        assert_eq!(t.transactions(), 3);
    }
}
