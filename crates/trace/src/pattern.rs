//! Symbolic memory-access patterns.
//!
//! A [`Pattern`] is a compact, serializable description of a memory-request
//! stream. Workload descriptors carry patterns instead of materialized
//! request vectors so that multi-hundred-megabyte footprints (the paper's
//! third micro-benchmark streams 2²⁷ floats) cost nothing to describe; the
//! requests are generated lazily while the simulator consumes them.
//!
//! The communication model decides *at run time* whether a pattern's
//! requests target cacheable partitions (standard copy / unified memory) or
//! the pinned zero-copy allocation, which is why [`Pattern::requests`]
//! takes the [`MemSpace`] as a parameter.
//!
//! Tasks and kernels consume patterns through [`Pattern::play`], which
//! issues the same requests as [`Pattern::requests`] but hands every
//! [`Pattern::Repeat`] body and [`Pattern::SingleAddress`] run to
//! [`Port::repeat`], so passes past the hierarchy's fixed point are
//! charged without being replayed. The iterator remains for callers that
//! need the requests themselves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use icomm_soc::cache::AccessKind;
use icomm_soc::hierarchy::MemSpace;
use icomm_soc::request::MemRequest;
use icomm_soc::traffic::Port;

/// A symbolic description of a memory-request stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Pattern {
    /// Sequential coalesced transactions covering `[start, start + bytes)`.
    Linear {
        /// First byte address.
        start: u64,
        /// Footprint in bytes.
        bytes: u64,
        /// Transaction size (a coalesced warp access, typically 32–128 B).
        txn_bytes: u32,
        /// Read or write.
        kind: AccessKind,
    },
    /// Sequential read-modify-write sweeps: for each transaction-sized
    /// element, a read immediately followed by a write (the `ld.global` /
    /// `fma` / `st.global` loop of the paper's second micro-benchmark).
    LinearRmw {
        /// First byte address.
        start: u64,
        /// Footprint in bytes.
        bytes: u64,
        /// Transaction size.
        txn_bytes: u32,
    },
    /// Fixed-stride transactions.
    Strided {
        /// First byte address.
        start: u64,
        /// Number of transactions.
        count: u64,
        /// Stride between consecutive transaction addresses, in bytes.
        stride: u64,
        /// Transaction size.
        txn_bytes: u32,
        /// Read or write.
        kind: AccessKind,
    },
    /// Repeated accesses to one address (a register-resident hot loop that
    /// touches memory only through a single location, as in the CPU routine
    /// of the first micro-benchmark).
    SingleAddress {
        /// The address.
        addr: u64,
        /// Number of accesses.
        count: u64,
        /// Access size.
        txn_bytes: u32,
        /// Read or write.
        kind: AccessKind,
    },
    /// Uniformly random transaction addresses over a region, guaranteeing a
    /// maximal miss rate when the region exceeds the cache (the paper's
    /// third micro-benchmark uses "sufficiently sparse" accesses).
    SparseUniform {
        /// Region base address.
        start: u64,
        /// Region size in bytes.
        region_bytes: u64,
        /// Number of transactions.
        count: u64,
        /// Transaction size.
        txn_bytes: u32,
        /// RNG seed (patterns are deterministic given the seed).
        seed: u64,
        /// Read or write.
        kind: AccessKind,
    },
    /// Concatenation of sub-patterns, generated in order.
    Sequence(Vec<Pattern>),
    /// A pattern repeated back-to-back (multiple passes over a footprint).
    Repeat {
        /// The repeated body.
        body: Box<Pattern>,
        /// Number of passes.
        times: u32,
    },
}

/// Transactions needed to cover `bytes` in `txn_bytes` chunks. A
/// zero-byte transaction size covers nothing — degraded descriptors
/// (deserialized from a corrupted or hostile source) must not divide by
/// zero; [`Pattern::validate`] is where they are rejected loudly.
fn txns(bytes: u64, txn_bytes: u32) -> u64 {
    if txn_bytes == 0 {
        0
    } else {
        bytes.div_ceil(txn_bytes as u64)
    }
}

/// Transaction-sized slots a sparse pattern draws from (at least one).
fn sparse_slots(region_bytes: u64, txn_bytes: u32) -> u64 {
    if txn_bytes == 0 {
        1
    } else {
        (region_bytes / txn_bytes as u64).max(1)
    }
}

impl Pattern {
    /// Number of requests the pattern will generate.
    pub fn len(&self) -> u64 {
        match self {
            Pattern::Linear {
                bytes, txn_bytes, ..
            } => txns(*bytes, *txn_bytes),
            Pattern::LinearRmw {
                bytes, txn_bytes, ..
            } => 2 * txns(*bytes, *txn_bytes),
            Pattern::Strided { count, .. } => *count,
            Pattern::SingleAddress { count, .. } => *count,
            Pattern::SparseUniform { count, .. } => *count,
            Pattern::Sequence(parts) => parts.iter().map(Pattern::len).sum(),
            Pattern::Repeat { body, times } => body.len() * *times as u64,
        }
    }

    /// Whether the pattern generates no requests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes requested by the pattern.
    pub fn bytes(&self) -> u64 {
        match self {
            Pattern::Linear {
                bytes, txn_bytes, ..
            } => txns(*bytes, *txn_bytes) * *txn_bytes as u64,
            Pattern::LinearRmw {
                bytes, txn_bytes, ..
            } => 2 * txns(*bytes, *txn_bytes) * *txn_bytes as u64,
            Pattern::Strided {
                count, txn_bytes, ..
            }
            | Pattern::SingleAddress {
                count, txn_bytes, ..
            }
            | Pattern::SparseUniform {
                count, txn_bytes, ..
            } => count * *txn_bytes as u64,
            Pattern::Sequence(parts) => parts.iter().map(Pattern::bytes).sum(),
            Pattern::Repeat { body, times } => body.bytes() * *times as u64,
        }
    }

    /// Bytes of *distinct* memory the pattern touches — its footprint —
    /// as opposed to [`Pattern::bytes`], which counts total traffic.
    /// Multiple passes over one region ([`Pattern::Repeat`]) do not grow
    /// the footprint; concatenated parts are summed, an upper bound when
    /// parts alias. The co-run interference model uses this to size a
    /// tenant's LLC pressure.
    pub fn footprint_bytes(&self) -> u64 {
        match self {
            Pattern::Linear {
                bytes, txn_bytes, ..
            }
            | Pattern::LinearRmw {
                bytes, txn_bytes, ..
            } => txns(*bytes, *txn_bytes) * *txn_bytes as u64,
            Pattern::Strided {
                count, txn_bytes, ..
            } => count * *txn_bytes as u64,
            Pattern::SingleAddress { txn_bytes, .. } => *txn_bytes as u64,
            Pattern::SparseUniform {
                region_bytes,
                count,
                txn_bytes,
                ..
            } => (*region_bytes).min(count * *txn_bytes as u64),
            Pattern::Sequence(parts) => parts.iter().map(Pattern::footprint_bytes).sum(),
            Pattern::Repeat { body, .. } => body.footprint_bytes(),
        }
    }

    /// Instantiates the lazy request iterator, mapping every request onto
    /// `space`.
    pub fn requests(&self, space: MemSpace) -> PatternIter {
        PatternIter {
            stack: vec![Frame::new(self.clone())],
            space,
        }
    }

    /// Issues the pattern's requests through `port`, every address shifted
    /// by `base` and every request mapped onto `space`: the requests of
    /// [`Pattern::requests`], in the same order, except that repeated
    /// passes ([`Pattern::Repeat`] bodies, and [`Pattern::SingleAddress`]
    /// runs as passes of one request) go through [`Port::repeat`]. Every
    /// pass replays the same requests — a sparse pattern reseeds its
    /// generator on each pass — which is what that requires.
    pub fn play(&self, base: u64, space: MemSpace, port: &mut Port<'_>) {
        match self {
            Pattern::Linear {
                start,
                bytes,
                txn_bytes,
                kind,
            } => {
                for index in 0..txns(*bytes, *txn_bytes) {
                    port.issue(MemRequest {
                        addr: base + (start + index * *txn_bytes as u64),
                        bytes: *txn_bytes,
                        kind: *kind,
                        space,
                    });
                }
            }
            Pattern::LinearRmw {
                start,
                bytes,
                txn_bytes,
            } => {
                for index in 0..txns(*bytes, *txn_bytes) {
                    let addr = base + (start + index * *txn_bytes as u64);
                    port.issue(MemRequest::read(addr, *txn_bytes, space));
                    port.issue(MemRequest::write(addr, *txn_bytes, space));
                }
            }
            Pattern::Strided {
                start,
                count,
                stride,
                txn_bytes,
                kind,
            } => {
                for index in 0..*count {
                    port.issue(MemRequest {
                        addr: base + (start + index * stride),
                        bytes: *txn_bytes,
                        kind: *kind,
                        space,
                    });
                }
            }
            Pattern::SingleAddress {
                addr,
                count,
                txn_bytes,
                kind,
            } => {
                let req = MemRequest {
                    addr: base + addr,
                    bytes: *txn_bytes,
                    kind: *kind,
                    space,
                };
                port.repeat(*count, |port| port.issue(req));
            }
            Pattern::SparseUniform {
                start,
                region_bytes,
                count,
                txn_bytes,
                seed,
                kind,
            } => {
                let slots = sparse_slots(*region_bytes, *txn_bytes);
                let mut rng = StdRng::seed_from_u64(*seed);
                for _ in 0..*count {
                    let slot = rng.gen_range(0..slots);
                    port.issue(MemRequest {
                        addr: base + (start + slot * *txn_bytes as u64),
                        bytes: *txn_bytes,
                        kind: *kind,
                        space,
                    });
                }
            }
            Pattern::Sequence(parts) => {
                for part in parts {
                    part.play(base, space, port);
                }
            }
            Pattern::Repeat { body, times } => {
                port.repeat(*times as u64, |port| body.play(base, space, port));
            }
        }
    }

    /// Checks the pattern describes a well-formed request stream.
    ///
    /// Patterns arrive from untrusted places — deserialized schedules
    /// shipped to the tuning service, hand-written experiment files — so
    /// a malformed descriptor must fail here with a message, not panic
    /// deep inside the simulator. The generators themselves treat a
    /// zero-byte transaction as generating nothing (see [`Pattern::len`]),
    /// which this check surfaces as an error instead of a silent no-op.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed (sub-)pattern.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Pattern::Linear { txn_bytes, .. }
            | Pattern::LinearRmw { txn_bytes, .. }
            | Pattern::Strided { txn_bytes, .. }
            | Pattern::SingleAddress { txn_bytes, .. }
            | Pattern::SparseUniform { txn_bytes, .. } => {
                if *txn_bytes == 0 {
                    return Err("pattern has zero-byte transactions".into());
                }
                Ok(())
            }
            Pattern::Sequence(parts) => {
                for (index, part) in parts.iter().enumerate() {
                    part.validate()
                        .map_err(|e| format!("sequence part {index}: {e}"))?;
                }
                Ok(())
            }
            Pattern::Repeat { body, .. } => {
                body.validate().map_err(|e| format!("repeat body: {e}"))
            }
        }
    }
}

#[derive(Debug)]
struct Frame {
    pattern: Pattern,
    /// Progress cursor: meaning depends on the pattern variant.
    index: u64,
    /// Pending write of an RMW pair.
    pending_write: Option<u64>,
    /// Seeded lazily on the first sparse request, so a frame can never
    /// reach the generator without its generator state.
    rng: Option<StdRng>,
}

impl Frame {
    fn new(pattern: Pattern) -> Self {
        Frame {
            pattern,
            index: 0,
            pending_write: None,
            rng: None,
        }
    }
}

/// Lazy iterator over a pattern's requests.
///
/// Produced by [`Pattern::requests`].
#[derive(Debug)]
pub struct PatternIter {
    stack: Vec<Frame>,
    space: MemSpace,
}

impl Iterator for PatternIter {
    type Item = MemRequest;

    fn next(&mut self) -> Option<MemRequest> {
        loop {
            let space = self.space;
            let frame = self.stack.last_mut()?;
            match &frame.pattern {
                Pattern::Linear {
                    start,
                    bytes,
                    txn_bytes,
                    kind,
                } => {
                    let n = txns(*bytes, *txn_bytes);
                    if frame.index >= n {
                        self.stack.pop();
                        continue;
                    }
                    let addr = start + frame.index * *txn_bytes as u64;
                    frame.index += 1;
                    return Some(MemRequest {
                        addr,
                        bytes: *txn_bytes,
                        kind: *kind,
                        space,
                    });
                }
                Pattern::LinearRmw {
                    start,
                    bytes,
                    txn_bytes,
                } => {
                    if let Some(addr) = frame.pending_write.take() {
                        return Some(MemRequest::write(addr, *txn_bytes, space));
                    }
                    let n = txns(*bytes, *txn_bytes);
                    if frame.index >= n {
                        self.stack.pop();
                        continue;
                    }
                    let addr = start + frame.index * *txn_bytes as u64;
                    frame.index += 1;
                    frame.pending_write = Some(addr);
                    return Some(MemRequest::read(addr, *txn_bytes, space));
                }
                Pattern::Strided {
                    start,
                    count,
                    stride,
                    txn_bytes,
                    kind,
                } => {
                    if frame.index >= *count {
                        self.stack.pop();
                        continue;
                    }
                    let addr = start + frame.index * stride;
                    frame.index += 1;
                    return Some(MemRequest {
                        addr,
                        bytes: *txn_bytes,
                        kind: *kind,
                        space,
                    });
                }
                Pattern::SingleAddress {
                    addr,
                    count,
                    txn_bytes,
                    kind,
                } => {
                    if frame.index >= *count {
                        self.stack.pop();
                        continue;
                    }
                    frame.index += 1;
                    return Some(MemRequest {
                        addr: *addr,
                        bytes: *txn_bytes,
                        kind: *kind,
                        space,
                    });
                }
                Pattern::SparseUniform {
                    start,
                    region_bytes,
                    count,
                    txn_bytes,
                    seed,
                    kind,
                } => {
                    if frame.index >= *count {
                        self.stack.pop();
                        continue;
                    }
                    frame.index += 1;
                    let slots = sparse_slots(*region_bytes, *txn_bytes);
                    let start = *start;
                    let txn = *txn_bytes;
                    let kind = *kind;
                    let seed = *seed;
                    let rng = frame.rng.get_or_insert_with(|| StdRng::seed_from_u64(seed));
                    let slot = rng.gen_range(0..slots);
                    return Some(MemRequest {
                        addr: start + slot * txn as u64,
                        bytes: txn,
                        kind,
                        space,
                    });
                }
                // Composites expand one child at a time: the frame stays
                // on the stack and counts the parts (or passes) it has
                // started.
                Pattern::Sequence(parts) => {
                    let next = parts.get(frame.index as usize).cloned();
                    frame.index += 1;
                    match next {
                        Some(part) => self.stack.push(Frame::new(part)),
                        None => {
                            self.stack.pop();
                        }
                    }
                    continue;
                }
                Pattern::Repeat { body, times } => {
                    let next = (frame.index < *times as u64).then(|| (**body).clone());
                    frame.index += 1;
                    match next {
                        Some(pass) => self.stack.push(Frame::new(pass)),
                        None => {
                            self.stack.pop();
                        }
                    }
                    continue;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(p: &Pattern) -> Vec<MemRequest> {
        p.requests(MemSpace::Cached).collect()
    }

    #[test]
    fn linear_covers_footprint() {
        let p = Pattern::Linear {
            start: 0x1000,
            bytes: 256,
            txn_bytes: 64,
            kind: AccessKind::Read,
        };
        let reqs = collect(&p);
        assert_eq!(reqs.len(), 4);
        assert_eq!(reqs[0].addr, 0x1000);
        assert_eq!(reqs[3].addr, 0x10c0);
        assert_eq!(p.len(), 4);
        assert_eq!(p.bytes(), 256);
    }

    #[test]
    fn linear_rounds_partial_transaction_up() {
        let p = Pattern::Linear {
            start: 0,
            bytes: 100,
            txn_bytes: 64,
            kind: AccessKind::Read,
        };
        assert_eq!(collect(&p).len(), 2);
    }

    #[test]
    fn rmw_pairs_read_then_write_same_address() {
        let p = Pattern::LinearRmw {
            start: 0,
            bytes: 128,
            txn_bytes: 64,
        };
        let reqs = collect(&p);
        assert_eq!(reqs.len(), 4);
        assert_eq!(reqs[0].kind, AccessKind::Read);
        assert_eq!(reqs[1].kind, AccessKind::Write);
        assert_eq!(reqs[0].addr, reqs[1].addr);
        assert_eq!(reqs[2].addr, 64);
    }

    #[test]
    fn strided_applies_stride() {
        let p = Pattern::Strided {
            start: 0,
            count: 3,
            stride: 4096,
            txn_bytes: 32,
            kind: AccessKind::Write,
        };
        let reqs = collect(&p);
        assert_eq!(reqs[2].addr, 8192);
        assert!(reqs.iter().all(|r| r.kind == AccessKind::Write));
    }

    #[test]
    fn single_address_never_moves() {
        let p = Pattern::SingleAddress {
            addr: 0xdead00,
            count: 10,
            txn_bytes: 8,
            kind: AccessKind::Read,
        };
        let reqs = collect(&p);
        assert_eq!(reqs.len(), 10);
        assert!(reqs.iter().all(|r| r.addr == 0xdead00));
    }

    #[test]
    fn sparse_is_deterministic_per_seed() {
        let make = |seed| Pattern::SparseUniform {
            start: 0,
            region_bytes: 1 << 20,
            count: 100,
            txn_bytes: 64,
            seed,
            kind: AccessKind::Read,
        };
        let a = collect(&make(7));
        let b = collect(&make(7));
        let c = collect(&make(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sparse_addresses_stay_in_region() {
        let p = Pattern::SparseUniform {
            start: 0x10000,
            region_bytes: 4096,
            count: 500,
            txn_bytes: 64,
            seed: 3,
            kind: AccessKind::Read,
        };
        for r in p.requests(MemSpace::Pinned) {
            assert!(r.addr >= 0x10000 && r.addr + 64 <= 0x10000 + 4096);
            assert_eq!(r.space, MemSpace::Pinned);
        }
    }

    #[test]
    fn sequence_concatenates_in_order() {
        let p = Pattern::Sequence(vec![
            Pattern::SingleAddress {
                addr: 1,
                count: 2,
                txn_bytes: 4,
                kind: AccessKind::Read,
            },
            Pattern::SingleAddress {
                addr: 2,
                count: 1,
                txn_bytes: 4,
                kind: AccessKind::Read,
            },
        ]);
        let addrs: Vec<u64> = collect(&p).iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![1, 1, 2]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn repeat_multiplies_body() {
        let p = Pattern::Repeat {
            body: Box::new(Pattern::Linear {
                start: 0,
                bytes: 128,
                txn_bytes: 64,
                kind: AccessKind::Read,
            }),
            times: 3,
        };
        let addrs: Vec<u64> = collect(&p).iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0, 64, 0, 64, 0, 64]);
        assert_eq!(p.len(), 6);
        assert_eq!(p.bytes(), 384);
    }

    #[test]
    fn footprint_ignores_repeats_but_sums_sequences() {
        let body = Pattern::Linear {
            start: 0,
            bytes: 4096,
            txn_bytes: 64,
            kind: AccessKind::Read,
        };
        let hot = Pattern::Repeat {
            body: Box::new(body.clone()),
            times: 16,
        };
        // Sixteen passes over 4 KiB touch 4 KiB of distinct memory but
        // generate 64 KiB of traffic.
        assert_eq!(hot.footprint_bytes(), 4096);
        assert_eq!(hot.bytes(), 16 * 4096);
        let seq = Pattern::Sequence(vec![body.clone(), body]);
        assert_eq!(seq.footprint_bytes(), 8192);
        let single = Pattern::SingleAddress {
            addr: 0,
            count: 1000,
            txn_bytes: 8,
            kind: AccessKind::Read,
        };
        assert_eq!(single.footprint_bytes(), 8);
        let sparse = Pattern::SparseUniform {
            start: 0,
            region_bytes: 1024,
            count: 1_000_000,
            txn_bytes: 64,
            seed: 1,
            kind: AccessKind::Read,
        };
        // Bounded by the region however many transactions land in it.
        assert_eq!(sparse.footprint_bytes(), 1024);
    }

    #[test]
    fn len_matches_iterator_for_composites() {
        let p = Pattern::Repeat {
            body: Box::new(Pattern::Sequence(vec![
                Pattern::LinearRmw {
                    start: 0,
                    bytes: 300,
                    txn_bytes: 64,
                },
                Pattern::SparseUniform {
                    start: 0,
                    region_bytes: 1 << 16,
                    count: 17,
                    txn_bytes: 32,
                    seed: 1,
                    kind: AccessKind::Write,
                },
            ])),
            times: 4,
        };
        assert_eq!(p.len(), collect(&p).len() as u64);
    }

    #[test]
    fn zero_byte_transactions_never_panic_and_fail_validation() {
        // A corrupted or hostile descriptor with txn_bytes = 0 must not
        // divide by zero anywhere — it covers nothing and fails validate().
        let degraded = [
            Pattern::Linear {
                start: 0,
                bytes: 4096,
                txn_bytes: 0,
                kind: AccessKind::Read,
            },
            Pattern::LinearRmw {
                start: 0,
                bytes: 4096,
                txn_bytes: 0,
            },
            Pattern::SparseUniform {
                start: 0,
                region_bytes: 4096,
                count: 3,
                txn_bytes: 0,
                seed: 1,
                kind: AccessKind::Read,
            },
        ];
        for p in &degraded {
            let _ = p.len();
            let _ = p.bytes();
            let _ = p.is_empty();
            let _: Vec<_> = p.requests(MemSpace::Cached).take(16).collect();
            assert!(p.validate().is_err(), "{p:?} validated");
        }
        // The error propagates out of composites with context.
        let nested = Pattern::Repeat {
            body: Box::new(Pattern::Sequence(vec![degraded[0].clone()])),
            times: 2,
        };
        let err = nested.validate().unwrap_err();
        assert!(err.contains("zero-byte"), "{err}");
        assert!(err.contains("repeat body"), "{err}");
    }

    #[test]
    fn well_formed_patterns_validate() {
        let p = Pattern::Repeat {
            body: Box::new(Pattern::Sequence(vec![
                Pattern::Linear {
                    start: 0,
                    bytes: 256,
                    txn_bytes: 64,
                    kind: AccessKind::Read,
                },
                Pattern::SingleAddress {
                    addr: 4,
                    count: 2,
                    txn_bytes: 8,
                    kind: AccessKind::Write,
                },
            ])),
            times: 3,
        };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn space_parameter_is_applied() {
        let p = Pattern::Linear {
            start: 0,
            bytes: 64,
            txn_bytes: 64,
            kind: AccessKind::Read,
        };
        let pinned: Vec<_> = p.requests(MemSpace::Pinned).collect();
        assert_eq!(pinned[0].space, MemSpace::Pinned);
    }
}
