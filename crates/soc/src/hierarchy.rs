//! The shared memory hierarchy: per-agent caches in front of one DRAM.
//!
//! This module encodes the three cache behaviours that distinguish the
//! CPU-iGPU communication models of the paper:
//!
//! - **Cached** accesses flow through the issuing agent's L1 and LLC with
//!   write-back/write-allocate semantics (used by standard copy and unified
//!   memory).
//! - **Pinned** (zero-copy) accesses obey the device's [`ZcRules`]: the GPU
//!   caches never hold pinned lines; on Nano/TX2-class devices the CPU
//!   caches are bypassed too; on I/O-coherent devices (AGX Xavier) the GPU
//!   *snoops the CPU LLC* so pinned reads can be served from cache.
//! - **Flush/invalidate** operations implement the implicit coherence of the
//!   standard-copy model around kernel launches.
//!
//! Each access returns an [`AccessCost`] carrying the latency seen by the
//! agent plus the LLC and DRAM channel occupancies, which the agent models
//! combine into latency-bound or bandwidth-bound execution times.

use serde::{Deserialize, Serialize};

use crate::cache::{AccessKind, Cache, CacheGeometry, CacheOutcome};
use crate::dram::{Dram, DramConfig};
use crate::stats::{CacheStats, DramStats};
use crate::units::{Bandwidth, ByteSize, Picos};

/// A processing element that issues memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Agent {
    /// The CPU cluster.
    Cpu,
    /// The integrated GPU.
    Gpu,
    /// The DMA copy engine.
    CopyEngine,
}

/// Which logical allocation an access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemSpace {
    /// An ordinary cacheable allocation (private partitions of the standard
    /// copy model, or unified-memory pages).
    Cached,
    /// A pinned zero-copy allocation shared between CPU and iGPU.
    Pinned,
    /// A system-allocated, hardware-coherent unified allocation (UPM on
    /// MI300A / Grace-Hopper-class parts): cached by both agents like
    /// [`MemSpace::Cached`], but every LLC-line fill pays a
    /// topology-derived extra (TLB walks past reach, remote-node hops)
    /// configured via [`MemorySystem::set_upm_fill_extra`].
    Upm,
}

/// Device-specific handling of pinned (zero-copy) allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZcRules {
    /// Whether CPU caches may hold pinned lines (false on Nano/TX2-class
    /// devices, which effectively disable the CPU cache for zero-copy).
    pub cpu_caches_pinned: bool,
    /// Whether the device implements hardware I/O coherence, letting the GPU
    /// snoop the CPU LLC on pinned accesses (true on AGX Xavier).
    pub io_coherent: bool,
}

/// Fixed latencies and level bandwidths of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyLatencies {
    /// CPU L1 hit latency.
    pub cpu_l1_hit: Picos,
    /// CPU LLC hit latency.
    pub cpu_llc_hit: Picos,
    /// GPU L1 hit latency.
    pub gpu_l1_hit: Picos,
    /// GPU LLC hit latency.
    pub gpu_llc_hit: Picos,
    /// Latency of an I/O-coherent GPU access that hits in the CPU LLC.
    pub snoop_hit: Picos,
    /// Extra latency added to a DRAM access for the coherence lookup when an
    /// I/O-coherent access misses the CPU LLC.
    pub snoop_miss_extra: Picos,
    /// Extra per-access latency for uncached (pinned, non-coherent) CPU
    /// accesses on top of the DRAM latency.
    pub uncached_cpu_extra: Picos,
    /// Extra per-access latency for uncached pinned GPU accesses on top of
    /// the DRAM latency.
    pub uncached_gpu_extra: Picos,
    /// Peak bandwidth of the CPU LLC array.
    pub cpu_llc_bandwidth: Bandwidth,
    /// Peak bandwidth of the GPU LLC array (the `LL-L1` throughput ceiling
    /// the first micro-benchmark measures).
    pub gpu_llc_bandwidth: Bandwidth,
}

/// Cost of one transaction as charged to the issuing agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessCost {
    /// Latency until the transaction completes, as seen by one thread of
    /// execution. Agents with memory-level parallelism may overlap many of
    /// these.
    pub latency: Picos,
    /// Occupancy of the issuing agent's LLC data array.
    pub llc_occupancy: Picos,
    /// Occupancy of the DRAM channel.
    pub dram_occupancy: Picos,
    /// Bytes that moved on the DRAM channel.
    pub dram_bytes: u64,
}

impl AccessCost {
    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: AccessCost) {
        self.latency += other.latency;
        self.llc_occupancy += other.llc_occupancy;
        self.dram_occupancy += other.dram_occupancy;
        self.dram_bytes += other.dram_bytes;
    }
}

/// Cost of a cache flush or invalidate operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushCost {
    /// Wall time of the maintenance operation.
    pub time: Picos,
    /// Dirty lines written back to DRAM.
    pub lines_written: u64,
}

/// Geometries for the four caches of the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheLayout {
    /// CPU L1 data cache geometry.
    pub cpu_l1: CacheGeometry,
    /// CPU last-level cache geometry.
    pub cpu_llc: CacheGeometry,
    /// GPU L1 cache geometry.
    pub gpu_l1: CacheGeometry,
    /// GPU last-level cache geometry.
    pub gpu_llc: CacheGeometry,
}

/// The complete memory system: four caches, shared DRAM, and the pinned
/// (zero-copy) access rules.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cpu_l1: Cache,
    cpu_llc: Cache,
    gpu_l1: Cache,
    gpu_llc: Cache,
    dram: Dram,
    latencies: HierarchyLatencies,
    zc_rules: ZcRules,
    /// Per-line CPU overhead of walking the cache during flush operations.
    flush_line_overhead: Picos,
    /// Extra latency a CPU LLC-miss fill pays on the [`MemSpace::Upm`]
    /// path (expected TLB walk + remote-node hop for the current
    /// working set).
    upm_fill_extra_cpu: Picos,
    /// Same, for GPU fills.
    upm_fill_extra_gpu: Picos,
    /// Per-line constants of the CPU's cached path.
    cpu_path: LinePath,
    /// Per-line constants of the GPU's cached path.
    gpu_path: LinePath,
    /// Per-line constants of I/O-coherent GPU snoops into the CPU LLC.
    snoop_path: LinePath,
}

/// Constants of moving one line on a path, computed once per hierarchy
/// instead of once per access.
#[derive(Debug, Clone, Copy)]
struct LinePath {
    line_bytes: u64,
    /// Occupancy of the LLC data array the path goes through.
    llc_line: Picos,
    /// Occupancy of the DRAM channel.
    dram_line: Picos,
}

impl LinePath {
    fn new(line_bytes: u32, llc_bandwidth: Bandwidth, dram: &DramConfig) -> Self {
        let bytes = ByteSize(line_bytes as u64);
        LinePath {
            line_bytes: line_bytes as u64,
            llc_line: llc_bandwidth.transfer_time(bytes),
            dram_line: dram.peak_bandwidth.transfer_time(bytes),
        }
    }
}

/// Every counter the hierarchy keeps: its four caches' and the DRAM's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HierarchyCounters {
    caches: [CacheStats; 4],
    dram: DramStats,
}

impl HierarchyCounters {
    pub(crate) fn since(&self, earlier: &HierarchyCounters) -> HierarchyCounters {
        let mut caches = self.caches;
        for (cache, before) in caches.iter_mut().zip(&earlier.caches) {
            *cache = cache.delta(before);
        }
        HierarchyCounters {
            caches,
            dram: self.dram.delta(&earlier.dram),
        }
    }

    /// Lines filled at any level.
    pub(crate) fn fills(&self) -> u64 {
        self.caches.iter().map(|c| c.fills).sum()
    }
}

impl MemorySystem {
    /// Builds the memory system from its component configurations.
    pub fn new(
        layout: CacheLayout,
        dram: DramConfig,
        latencies: HierarchyLatencies,
        zc_rules: ZcRules,
        flush_line_overhead: Picos,
    ) -> Self {
        MemorySystem {
            cpu_l1: Cache::new(layout.cpu_l1),
            cpu_llc: Cache::new(layout.cpu_llc),
            gpu_l1: Cache::new(layout.gpu_l1),
            gpu_llc: Cache::new(layout.gpu_llc),
            dram: Dram::new(dram),
            latencies,
            zc_rules,
            flush_line_overhead,
            upm_fill_extra_cpu: Picos::ZERO,
            upm_fill_extra_gpu: Picos::ZERO,
            cpu_path: LinePath::new(layout.cpu_l1.line_bytes, latencies.cpu_llc_bandwidth, &dram),
            gpu_path: LinePath::new(layout.gpu_l1.line_bytes, latencies.gpu_llc_bandwidth, &dram),
            snoop_path: LinePath::new(
                layout.cpu_llc.line_bytes,
                latencies.cpu_llc_bandwidth,
                &dram,
            ),
        }
    }

    fn caches_mut(&mut self) -> [&mut Cache; 4] {
        [
            &mut self.cpu_l1,
            &mut self.cpu_llc,
            &mut self.gpu_l1,
            &mut self.gpu_llc,
        ]
    }

    pub(crate) fn counters(&self) -> HierarchyCounters {
        HierarchyCounters {
            caches: [
                *self.cpu_l1.stats(),
                *self.cpu_llc.stats(),
                *self.gpu_l1.stats(),
                *self.gpu_llc.stats(),
            ],
            dram: *self.dram.stats(),
        }
    }

    /// Adds `times` copies of `delta` to every counter.
    pub(crate) fn add_counters(&mut self, delta: &HierarchyCounters, times: u64) {
        for (cache, stats) in self.caches_mut().into_iter().zip(&delta.caches) {
            cache.add_stats(stats, times);
        }
        self.dram.add_stats(&delta.dram, times);
    }

    /// Opens a watch on every cache (see [`Cache::begin_watch`]).
    pub(crate) fn begin_watch(&mut self) {
        for cache in self.caches_mut() {
            cache.begin_watch();
        }
    }

    /// Closes the innermost watch on every cache and returns whether the
    /// whole hierarchy is in the state it was in when the watch opened.
    pub(crate) fn end_watch(&mut self) -> bool {
        let mut unchanged = true;
        for cache in self.caches_mut() {
            // Every cache closes its watch, even after one has changed.
            unchanged &= cache.end_watch();
        }
        unchanged
    }

    /// Configures the per-fill extra charged on [`MemSpace::Upm`]
    /// accesses that miss the LLC. The SoC layer derives the values from
    /// the device's memory topology and the workload's shared footprint;
    /// both default to zero (a flat topology within TLB reach).
    pub fn set_upm_fill_extra(&mut self, cpu: Picos, gpu: Picos) {
        self.upm_fill_extra_cpu = cpu;
        self.upm_fill_extra_gpu = gpu;
    }

    /// The configured per-fill UPM extras `(cpu, gpu)`.
    pub fn upm_fill_extra(&self) -> (Picos, Picos) {
        (self.upm_fill_extra_cpu, self.upm_fill_extra_gpu)
    }

    /// The zero-copy rules in force.
    pub fn zc_rules(&self) -> ZcRules {
        self.zc_rules
    }

    /// Overrides the zero-copy rules (used by ablation studies).
    pub fn set_zc_rules(&mut self, rules: ZcRules) {
        self.zc_rules = rules;
    }

    /// The hierarchy latency/bandwidth parameters.
    pub fn latencies(&self) -> HierarchyLatencies {
        self.latencies
    }

    /// Immutable view of a cache by agent/level (`level 1` = L1, otherwise
    /// LLC).
    pub fn cache(&self, agent: Agent, level: u8) -> &Cache {
        match (agent, level) {
            (Agent::Cpu, 1) => &self.cpu_l1,
            (Agent::Cpu, _) => &self.cpu_llc,
            (Agent::Gpu, 1) => &self.gpu_l1,
            (Agent::Gpu, _) => &self.gpu_llc,
            (Agent::CopyEngine, _) => &self.cpu_llc, // DMA snoops the CPU LLC
        }
    }

    /// The DRAM controller.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable access to the DRAM controller (copy engine streaming).
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Issues one transaction of `bytes` at `addr` from `agent` against
    /// `space`, updating cache state and counters, and returns its cost.
    ///
    /// Transactions that span cache lines are split internally.
    pub fn access(
        &mut self,
        agent: Agent,
        space: MemSpace,
        addr: u64,
        kind: AccessKind,
        bytes: u32,
    ) -> AccessCost {
        match (agent, space) {
            (Agent::Cpu, MemSpace::Cached) => {
                self.cached_access(Agent::Cpu, addr, kind, bytes, Picos::ZERO)
            }
            (Agent::Gpu, MemSpace::Cached) => {
                self.cached_access(Agent::Gpu, addr, kind, bytes, Picos::ZERO)
            }
            // Hardware-coherent unified allocations are fully cacheable
            // by both agents; the topology-derived per-fill extra covers
            // TLB walks and remote-node hops.
            (Agent::Cpu, MemSpace::Upm) => {
                self.cached_access(Agent::Cpu, addr, kind, bytes, self.upm_fill_extra_cpu)
            }
            (Agent::Gpu, MemSpace::Upm) => {
                self.cached_access(Agent::Gpu, addr, kind, bytes, self.upm_fill_extra_gpu)
            }
            (Agent::Cpu, MemSpace::Pinned) => {
                if self.zc_rules.cpu_caches_pinned {
                    self.cached_access(Agent::Cpu, addr, kind, bytes, Picos::ZERO)
                } else {
                    self.uncached_access(addr, kind, bytes, self.latencies.uncached_cpu_extra)
                }
            }
            (Agent::Gpu, MemSpace::Pinned) => {
                if self.zc_rules.io_coherent {
                    self.snooped_access(addr, kind, bytes)
                } else {
                    self.uncached_access(addr, kind, bytes, self.latencies.uncached_gpu_extra)
                }
            }
            (Agent::CopyEngine, _) => {
                // The copy engine streams straight through DRAM.
                let cost = match kind {
                    AccessKind::Read => self.dram.read(ByteSize(bytes as u64)),
                    AccessKind::Write => self.dram.write(ByteSize(bytes as u64)),
                };
                AccessCost {
                    latency: cost.latency,
                    llc_occupancy: Picos::ZERO,
                    dram_occupancy: cost.occupancy,
                    dram_bytes: bytes as u64,
                }
            }
        }
    }

    fn cached_access(
        &mut self,
        agent: Agent,
        addr: u64,
        kind: AccessKind,
        bytes: u32,
        fill_extra: Picos,
    ) -> AccessCost {
        let line_bytes = match agent {
            Agent::Gpu => self.gpu_path.line_bytes,
            _ => self.cpu_path.line_bytes,
        };
        let mut total = AccessCost::default();
        let end = addr as u128 + bytes as u128;
        let mut line_addr = addr & !(line_bytes - 1);
        while (line_addr as u128) < end {
            total.accumulate(self.cached_line_access(agent, line_addr, kind, fill_extra));
            line_addr += line_bytes;
        }
        total
    }

    fn cached_line_access(
        &mut self,
        agent: Agent,
        line_addr: u64,
        kind: AccessKind,
        fill_extra: Picos,
    ) -> AccessCost {
        let (l1, llc, path, l1_hit, llc_hit) = match agent {
            Agent::Gpu => (
                &mut self.gpu_l1,
                &mut self.gpu_llc,
                self.gpu_path,
                self.latencies.gpu_l1_hit,
                self.latencies.gpu_llc_hit,
            ),
            _ => (
                &mut self.cpu_l1,
                &mut self.cpu_llc,
                self.cpu_path,
                self.latencies.cpu_l1_hit,
                self.latencies.cpu_llc_hit,
            ),
        };
        let mut cost = AccessCost {
            latency: l1_hit,
            ..AccessCost::default()
        };
        let l1_out = l1.access(line_addr, kind);
        let l1_missed = match l1_out {
            CacheOutcome::Hit => false,
            CacheOutcome::Miss { victim_writeback } => {
                if victim_writeback {
                    // Dirty L1 victims land in the LLC; model the array
                    // occupancy but keep it off the DRAM channel.
                    cost.llc_occupancy += path.llc_line;
                }
                true
            }
            CacheOutcome::Bypass => true,
        };
        if !l1_missed {
            return cost;
        }

        // L1 missed (or is disabled): consult the LLC.
        cost.latency = llc_hit;
        cost.llc_occupancy += path.llc_line;
        let llc_out = llc.access(line_addr, kind);
        let llc_missed = match llc_out {
            CacheOutcome::Hit => false,
            CacheOutcome::Miss { victim_writeback } => {
                if victim_writeback {
                    let wb = self
                        .dram
                        .transfer_timed(path.line_bytes, path.dram_line, false);
                    // Writebacks are posted; they consume channel occupancy
                    // but do not stall the agent.
                    cost.dram_occupancy += wb.occupancy;
                    cost.dram_bytes += path.line_bytes;
                }
                true
            }
            CacheOutcome::Bypass => true,
        };
        if llc_missed {
            let fill = self
                .dram
                .transfer_timed(path.line_bytes, path.dram_line, true);
            cost.latency = llc_hit + fill.latency + fill_extra;
            cost.dram_occupancy += fill.occupancy;
            cost.dram_bytes += path.line_bytes;
        }
        cost
    }

    fn uncached_access(
        &mut self,
        addr: u64,
        kind: AccessKind,
        bytes: u32,
        extra: Picos,
    ) -> AccessCost {
        let _ = addr; // uncached accesses carry no cache state
        let dram_cost = match kind {
            AccessKind::Read => self.dram.read(ByteSize(bytes as u64)),
            AccessKind::Write => self.dram.write(ByteSize(bytes as u64)),
        };
        AccessCost {
            latency: dram_cost.latency + extra,
            llc_occupancy: Picos::ZERO,
            dram_occupancy: dram_cost.occupancy,
            dram_bytes: bytes as u64,
        }
    }

    /// GPU access to pinned memory on an I/O-coherent device: the request
    /// snoops the CPU LLC. Reads that hit are served from cache; writes
    /// update the LLC line (keeping it coherent) without DRAM traffic;
    /// misses fall through to DRAM with a coherence-lookup penalty.
    fn snooped_access(&mut self, addr: u64, kind: AccessKind, bytes: u32) -> AccessCost {
        let path = self.snoop_path;
        let line_bytes = path.line_bytes;
        let mut total = AccessCost::default();
        let end = addr as u128 + bytes as u128;
        let mut line_addr = addr & !(line_bytes - 1);
        while (line_addr as u128) < end {
            let piece = if self.cpu_llc.probe(line_addr) {
                // Served by (or merged into) the CPU LLC.
                let _ = self.cpu_llc.access(line_addr, kind);
                AccessCost {
                    latency: self.latencies.snoop_hit,
                    llc_occupancy: path.llc_line,
                    dram_occupancy: Picos::ZERO,
                    dram_bytes: 0,
                }
            } else {
                let is_read = kind == AccessKind::Read;
                let dram_cost = self
                    .dram
                    .transfer_timed(line_bytes, path.dram_line, is_read);
                AccessCost {
                    latency: dram_cost.latency + self.latencies.snoop_miss_extra,
                    llc_occupancy: Picos::ZERO,
                    dram_occupancy: dram_cost.occupancy,
                    dram_bytes: line_bytes,
                }
            };
            total.accumulate(piece);
            line_addr += line_bytes;
        }
        total
    }

    fn flush_cache_pair(&mut self, agent: Agent, invalidate: bool) -> FlushCost {
        let (l1, llc) = match agent {
            Agent::Gpu => (&mut self.gpu_l1, &mut self.gpu_llc),
            _ => (&mut self.cpu_l1, &mut self.cpu_llc),
        };
        let line_bytes = llc.geometry().line_bytes as u64;
        let resident = l1.resident_lines() + llc.resident_lines();
        let written = if invalidate {
            l1.invalidate_all() + llc.invalidate_all()
        } else {
            l1.flush_dirty() + llc.flush_dirty()
        };
        let mut time = self.flush_line_overhead * resident.max(1);
        if written > 0 {
            time += self.dram.stream_time(ByteSize(written * line_bytes));
            // Account the writeback traffic.
            let _ = self.dram.write(ByteSize(written * line_bytes));
        }
        FlushCost {
            time,
            lines_written: written,
        }
    }

    /// Writes back all dirty CPU cache lines (standard-copy pre-kernel
    /// coherence step).
    pub fn flush_cpu_caches(&mut self) -> FlushCost {
        self.flush_cache_pair(Agent::Cpu, false)
    }

    /// Writes back and invalidates all GPU cache lines (standard-copy
    /// post-kernel coherence step).
    pub fn invalidate_gpu_caches(&mut self) -> FlushCost {
        self.flush_cache_pair(Agent::Gpu, true)
    }

    /// Invalidates only the GPU L1 (kernel-launch semantics: GPU L1s are
    /// not coherent and are flushed at every launch). Dirty lines are
    /// written back into the LLC, which costs nothing extra here because
    /// the L1 is write-through to the LLC in this model's accounting.
    pub fn invalidate_gpu_l1(&mut self) {
        let _ = self.gpu_l1.invalidate_all();
    }

    /// Resets every statistics counter in the hierarchy.
    pub fn reset_stats(&mut self) {
        self.cpu_l1.reset_stats();
        self.cpu_llc.reset_stats();
        self.gpu_l1.reset_stats();
        self.gpu_llc.reset_stats();
        self.dram.reset_stats();
    }

    /// Drops all cached state (cold caches), without touching counters.
    pub fn cold_caches(&mut self) {
        self.cpu_l1.invalidate_all();
        self.cpu_llc.invalidate_all();
        self.gpu_l1.invalidate_all();
        self.gpu_llc.invalidate_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Bandwidth;

    fn latencies() -> HierarchyLatencies {
        HierarchyLatencies {
            cpu_l1_hit: Picos::from_nanos(1),
            cpu_llc_hit: Picos::from_nanos(10),
            gpu_l1_hit: Picos::from_nanos(2),
            gpu_llc_hit: Picos::from_nanos(20),
            snoop_hit: Picos::from_nanos(50),
            snoop_miss_extra: Picos::from_nanos(30),
            uncached_cpu_extra: Picos::from_nanos(100),
            uncached_gpu_extra: Picos::from_nanos(150),
            cpu_llc_bandwidth: Bandwidth::gib_per_sec(100),
            gpu_llc_bandwidth: Bandwidth::gib_per_sec(100),
        }
    }

    fn system(rules: ZcRules) -> MemorySystem {
        let layout = CacheLayout {
            cpu_l1: CacheGeometry::new(ByteSize::kib(4), 64, 2),
            cpu_llc: CacheGeometry::new(ByteSize::kib(64), 64, 8),
            gpu_l1: CacheGeometry::new(ByteSize::kib(4), 64, 2),
            gpu_llc: CacheGeometry::new(ByteSize::kib(64), 64, 8),
        };
        MemorySystem::new(
            layout,
            DramConfig::new(Bandwidth::gib_per_sec(25), Picos::from_nanos(100)),
            latencies(),
            rules,
            Picos::from_nanos(1),
        )
    }

    const NO_ZC_CACHE: ZcRules = ZcRules {
        cpu_caches_pinned: false,
        io_coherent: false,
    };
    const IO_COHERENT: ZcRules = ZcRules {
        cpu_caches_pinned: true,
        io_coherent: true,
    };

    #[test]
    fn cpu_cached_miss_then_hit() {
        let mut m = system(NO_ZC_CACHE);
        let miss = m.access(Agent::Cpu, MemSpace::Cached, 0x1000, AccessKind::Read, 4);
        assert!(miss.latency > Picos::from_nanos(100));
        assert_eq!(miss.dram_bytes, 64);
        let hit = m.access(Agent::Cpu, MemSpace::Cached, 0x1000, AccessKind::Read, 4);
        assert_eq!(hit.latency, Picos::from_nanos(1));
        assert_eq!(hit.dram_bytes, 0);
    }

    #[test]
    fn multi_line_transaction_splits() {
        let mut m = system(NO_ZC_CACHE);
        // 128 bytes from a 64 B line boundary touches two lines.
        let cost = m.access(Agent::Gpu, MemSpace::Cached, 0x0, AccessKind::Read, 128);
        assert_eq!(cost.dram_bytes, 128);
        assert_eq!(m.cache(Agent::Gpu, 1).stats().misses, 2);
    }

    #[test]
    fn unaligned_transaction_touches_extra_line() {
        let mut m = system(NO_ZC_CACHE);
        // 64 bytes starting at offset 32 spans two lines.
        let cost = m.access(Agent::Cpu, MemSpace::Cached, 32, AccessKind::Read, 64);
        assert_eq!(cost.dram_bytes, 128);
    }

    #[test]
    fn pinned_cpu_bypasses_when_rules_say_so() {
        let mut m = system(NO_ZC_CACHE);
        let c1 = m.access(Agent::Cpu, MemSpace::Pinned, 0x0, AccessKind::Read, 4);
        let c2 = m.access(Agent::Cpu, MemSpace::Pinned, 0x0, AccessKind::Read, 4);
        // No caching: the second access is as expensive as the first.
        assert_eq!(c1.latency, c2.latency);
        assert!(c1.latency >= Picos::from_nanos(200)); // dram + uncached extra
        assert_eq!(m.cache(Agent::Cpu, 1).stats().accesses(), 0);
    }

    #[test]
    fn pinned_cpu_cached_on_io_coherent_device() {
        let mut m = system(IO_COHERENT);
        let c1 = m.access(Agent::Cpu, MemSpace::Pinned, 0x0, AccessKind::Read, 4);
        let c2 = m.access(Agent::Cpu, MemSpace::Pinned, 0x0, AccessKind::Read, 4);
        assert!(c2.latency < c1.latency);
        assert_eq!(c2.latency, Picos::from_nanos(1)); // L1 hit
    }

    #[test]
    fn pinned_gpu_never_fills_gpu_caches() {
        let mut m = system(IO_COHERENT);
        m.access(Agent::Gpu, MemSpace::Pinned, 0x0, AccessKind::Read, 64);
        assert_eq!(m.cache(Agent::Gpu, 1).stats().accesses(), 0);
        assert_eq!(m.cache(Agent::Gpu, 2).stats().accesses(), 0);
    }

    #[test]
    fn io_coherent_gpu_read_hits_cpu_llc() {
        let mut m = system(IO_COHERENT);
        // CPU warms the line (pinned but CPU-cached on Xavier-class rules).
        m.access(Agent::Cpu, MemSpace::Pinned, 0x40, AccessKind::Write, 4);
        let snooped = m.access(Agent::Gpu, MemSpace::Pinned, 0x40, AccessKind::Read, 4);
        assert_eq!(snooped.latency, Picos::from_nanos(50));
        assert_eq!(snooped.dram_bytes, 0);
    }

    #[test]
    fn io_coherent_gpu_miss_pays_snoop_penalty() {
        let mut m = system(IO_COHERENT);
        let c = m.access(Agent::Gpu, MemSpace::Pinned, 0x5000, AccessKind::Read, 4);
        // dram latency (100ns) + line occupancy + snoop extra (30ns)
        assert!(c.latency >= Picos::from_nanos(130));
        assert_eq!(c.dram_bytes, 64);
    }

    #[test]
    fn non_coherent_gpu_pinned_pays_uncached_extra() {
        let mut m = system(NO_ZC_CACHE);
        let c = m.access(Agent::Gpu, MemSpace::Pinned, 0x0, AccessKind::Read, 64);
        assert!(c.latency >= Picos::from_nanos(250));
    }

    #[test]
    fn copy_engine_streams_through_dram() {
        let mut m = system(NO_ZC_CACHE);
        let c = m.access(
            Agent::CopyEngine,
            MemSpace::Cached,
            0x0,
            AccessKind::Read,
            1024,
        );
        assert_eq!(c.dram_bytes, 1024);
        assert_eq!(c.llc_occupancy, Picos::ZERO);
    }

    #[test]
    fn flush_cpu_writes_back_dirty_lines() {
        let mut m = system(NO_ZC_CACHE);
        m.access(Agent::Cpu, MemSpace::Cached, 0x0, AccessKind::Write, 4);
        m.access(Agent::Cpu, MemSpace::Cached, 0x40, AccessKind::Write, 4);
        let wrote_before = m.dram().stats().bytes_written;
        let flush = m.flush_cpu_caches();
        assert!(flush.lines_written >= 2);
        assert!(flush.time > Picos::ZERO);
        assert!(m.dram().stats().bytes_written > wrote_before);
        // Lines remain resident after a flush (write-back, not invalidate).
        let hit = m.access(Agent::Cpu, MemSpace::Cached, 0x0, AccessKind::Read, 4);
        assert_eq!(hit.latency, Picos::from_nanos(1));
    }

    #[test]
    fn invalidate_gpu_empties_caches() {
        let mut m = system(NO_ZC_CACHE);
        m.access(Agent::Gpu, MemSpace::Cached, 0x0, AccessKind::Write, 4);
        let inv = m.invalidate_gpu_caches();
        assert!(inv.lines_written >= 1);
        let miss = m.access(Agent::Gpu, MemSpace::Cached, 0x0, AccessKind::Read, 4);
        assert!(miss.dram_bytes > 0);
    }

    #[test]
    fn dirty_llc_eviction_writes_back_to_dram() {
        let mut m = system(NO_ZC_CACHE);
        // Dirty far more lines than the 64 KiB LLC holds.
        for i in 0..4096u64 {
            m.access(Agent::Cpu, MemSpace::Cached, i * 64, AccessKind::Write, 4);
        }
        assert!(m.dram().stats().bytes_written > 0);
    }

    #[test]
    fn upm_without_extras_matches_cached() {
        let mut a = system(NO_ZC_CACHE);
        let mut b = system(NO_ZC_CACHE);
        let ca = a.access(Agent::Gpu, MemSpace::Cached, 0x2000, AccessKind::Read, 64);
        let cb = b.access(Agent::Gpu, MemSpace::Upm, 0x2000, AccessKind::Read, 64);
        assert_eq!(ca, cb);
    }

    #[test]
    fn upm_fill_extra_charged_only_on_llc_miss() {
        let mut m = system(NO_ZC_CACHE);
        m.set_upm_fill_extra(Picos::from_nanos(40), Picos::from_nanos(400));
        let mut plain = system(NO_ZC_CACHE);
        let miss = m.access(Agent::Gpu, MemSpace::Upm, 0x3000, AccessKind::Read, 4);
        let base = plain.access(Agent::Gpu, MemSpace::Cached, 0x3000, AccessKind::Read, 4);
        assert_eq!(miss.latency, base.latency + Picos::from_nanos(400));
        // A hit on the now-resident line pays no extra at all.
        let hit = m.access(Agent::Gpu, MemSpace::Upm, 0x3000, AccessKind::Read, 4);
        assert_eq!(hit.latency, Picos::from_nanos(2));
        // The CPU pays its own (smaller) extra.
        let cpu = m.access(Agent::Cpu, MemSpace::Upm, 0x9000, AccessKind::Read, 4);
        let cpu_base = plain.access(Agent::Cpu, MemSpace::Cached, 0x9000, AccessKind::Read, 4);
        assert_eq!(cpu.latency, cpu_base.latency + Picos::from_nanos(40));
    }

    #[test]
    fn zc_rules_can_be_overridden() {
        let mut m = system(IO_COHERENT);
        m.set_zc_rules(NO_ZC_CACHE);
        assert_eq!(m.zc_rules(), NO_ZC_CACHE);
        let c = m.access(Agent::Cpu, MemSpace::Pinned, 0x0, AccessKind::Read, 4);
        assert!(c.latency >= Picos::from_nanos(200));
    }
}
