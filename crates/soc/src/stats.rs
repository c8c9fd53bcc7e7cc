//! Hardware performance counters exposed by the simulated SoC.
//!
//! The profiler crate reads these counters the way `nvprof`/`perf` read the
//! PMU of a real Jetson board: snapshot before a run, snapshot after, and
//! subtract. All counter types therefore implement a cheap [`Clone`] and a
//! `delta` operation.

use serde::{Deserialize, Serialize};

use crate::units::{ByteSize, Energy, Picos};

/// Counters of a single cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Accesses that missed and caused a fill.
    pub misses: u64,
    /// Lines filled from the next level.
    pub fills: u64,
    /// Dirty lines written to the next level (evictions and flushes).
    pub writebacks: u64,
    /// Accesses that bypassed the cache because it was disabled.
    pub bypasses: u64,
    /// Number of flush/invalidate operations performed.
    pub flushes: u64,
}

impl CacheStats {
    /// Total accesses presented while the cache was enabled.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Miss rate in `[0, 1]`; zero when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Counter difference `self - earlier` (element-wise, saturating).
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            fills: self.fills.saturating_sub(earlier.fills),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
            bypasses: self.bypasses.saturating_sub(earlier.bypasses),
            flushes: self.flushes.saturating_sub(earlier.flushes),
        }
    }

    /// Adds `times` copies of `delta`.
    pub(crate) fn add_scaled(&mut self, delta: &CacheStats, times: u64) {
        self.hits += delta.hits * times;
        self.misses += delta.misses * times;
        self.fills += delta.fills * times;
        self.writebacks += delta.writebacks * times;
        self.bypasses += delta.bypasses * times;
        self.flushes += delta.flushes * times;
    }
}

/// Counters of the DRAM controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Bytes read from DRAM.
    pub bytes_read: u64,
    /// Bytes written to DRAM.
    pub bytes_written: u64,
    /// Individual DRAM transactions serviced.
    pub transactions: u64,
    /// Total time the controller was busy moving data.
    pub busy_time: Picos,
}

impl DramStats {
    /// Total bytes moved in either direction.
    pub fn bytes_total(&self) -> ByteSize {
        ByteSize(self.bytes_read + self.bytes_written)
    }

    /// Counter difference `self - earlier`.
    pub fn delta(&self, earlier: &DramStats) -> DramStats {
        DramStats {
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            transactions: self.transactions.saturating_sub(earlier.transactions),
            busy_time: self.busy_time.saturating_sub(earlier.busy_time),
        }
    }

    /// Adds `times` copies of `delta`.
    pub(crate) fn add_scaled(&mut self, delta: &DramStats, times: u64) {
        self.bytes_read += delta.bytes_read * times;
        self.bytes_written += delta.bytes_written * times;
        self.transactions += delta.transactions * times;
        self.busy_time += delta.busy_time * times;
    }
}

/// Counters of one processing agent (CPU cluster or GPU).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentStats {
    /// Time spent executing work.
    pub busy_time: Picos,
    /// Compute operations retired (FLOPs for the CPU, instructions for GPU).
    pub ops_retired: u64,
    /// Memory transactions issued to the hierarchy.
    pub mem_transactions: u64,
    /// Bytes requested by those transactions.
    pub mem_bytes: u64,
}

impl AgentStats {
    /// Counter difference `self - earlier`.
    pub fn delta(&self, earlier: &AgentStats) -> AgentStats {
        AgentStats {
            busy_time: self.busy_time.saturating_sub(earlier.busy_time),
            ops_retired: self.ops_retired.saturating_sub(earlier.ops_retired),
            mem_transactions: self
                .mem_transactions
                .saturating_sub(earlier.mem_transactions),
            mem_bytes: self.mem_bytes.saturating_sub(earlier.mem_bytes),
        }
    }
}

/// Full counter snapshot of the SoC, as read by the profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SocSnapshot {
    /// CPU-side L1 data cache.
    pub cpu_l1: CacheStats,
    /// CPU-side last-level cache.
    pub cpu_llc: CacheStats,
    /// GPU-side L1 cache.
    pub gpu_l1: CacheStats,
    /// GPU-side last-level cache.
    pub gpu_llc: CacheStats,
    /// DRAM controller.
    pub dram: DramStats,
    /// CPU cluster activity.
    pub cpu: AgentStats,
    /// GPU activity.
    pub gpu: AgentStats,
    /// Copy-engine (DMA) activity.
    pub copy_engine: AgentStats,
    /// Energy consumed so far.
    pub energy: Energy,
}

impl SocSnapshot {
    /// Counter difference `self - earlier`; the standard way to attribute
    /// counters to a region of interest.
    pub fn delta(&self, earlier: &SocSnapshot) -> SocSnapshot {
        SocSnapshot {
            cpu_l1: self.cpu_l1.delta(&earlier.cpu_l1),
            cpu_llc: self.cpu_llc.delta(&earlier.cpu_llc),
            gpu_l1: self.gpu_l1.delta(&earlier.gpu_l1),
            gpu_llc: self.gpu_llc.delta(&earlier.gpu_llc),
            dram: self.dram.delta(&earlier.dram),
            cpu: self.cpu.delta(&earlier.cpu),
            gpu: self.gpu.delta(&earlier.gpu),
            copy_engine: self.copy_engine.delta(&earlier.copy_engine),
            energy: self.energy.saturating_sub(earlier.energy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_rates() {
        let s = CacheStats {
            hits: 30,
            misses: 10,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(s.accesses(), 40);
    }

    #[test]
    fn empty_cache_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn cache_delta_subtracts() {
        let early = CacheStats {
            hits: 5,
            misses: 2,
            fills: 2,
            writebacks: 1,
            bypasses: 0,
            flushes: 0,
        };
        let late = CacheStats {
            hits: 15,
            misses: 8,
            fills: 8,
            writebacks: 3,
            bypasses: 4,
            flushes: 1,
        };
        let d = late.delta(&early);
        assert_eq!(d.hits, 10);
        assert_eq!(d.misses, 6);
        assert_eq!(d.writebacks, 2);
        assert_eq!(d.bypasses, 4);
        assert_eq!(d.flushes, 1);
    }

    #[test]
    fn dram_totals() {
        let s = DramStats {
            bytes_read: 100,
            bytes_written: 50,
            transactions: 3,
            busy_time: Picos(10),
        };
        assert_eq!(s.bytes_total(), ByteSize(150));
    }

    #[test]
    fn snapshot_delta_is_elementwise() {
        let mut a = SocSnapshot::default();
        a.cpu.ops_retired = 10;
        a.energy = Energy(100);
        let mut b = a;
        b.cpu.ops_retired = 25;
        b.energy = Energy(180);
        let d = b.delta(&a);
        assert_eq!(d.cpu.ops_retired, 15);
        assert_eq!(d.energy, Energy(80));
    }
}
