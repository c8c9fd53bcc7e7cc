//! LPDDR system-memory model.
//!
//! Embedded SoCs in the Jetson class share a single LPDDR4(x) channel group
//! between the CPU cluster, the iGPU and the DMA engines, so the model's job
//! is to (a) charge a fixed access latency per transaction, (b) bound
//! aggregate throughput by the controller's peak bandwidth, and (c) account
//! every byte moved for the energy model.
//!
//! Timing is *charged*, not scheduled: callers receive the latency and
//! occupancy cost of each transaction and weave those into their own agent
//! timelines. Bandwidth saturation under concurrent agents is handled by the
//! overlap executor in `icomm-models`, which knows which agents run at the
//! same time.

use icomm_mem::MemTopology;
use serde::{Deserialize, Serialize};

use crate::stats::DramStats;
use crate::units::{Bandwidth, ByteSize, Picos};

/// Configuration of the DRAM controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Peak controller bandwidth (all agents combined).
    pub peak_bandwidth: Bandwidth,
    /// Latency of a single transaction (row activation + CAS + transfer of
    /// the first beat), charged to latency-sensitive agents.
    pub access_latency: Picos,
}

impl DramConfig {
    /// Creates a new configuration.
    ///
    /// # Panics
    ///
    /// Panics if `peak_bandwidth` is zero.
    pub fn new(peak_bandwidth: Bandwidth, access_latency: Picos) -> Self {
        assert!(
            peak_bandwidth.as_bytes_per_sec() > 0,
            "DRAM bandwidth must be non-zero"
        );
        DramConfig {
            peak_bandwidth,
            access_latency,
        }
    }

    /// Derives the flat single-channel view of a memory topology: the
    /// aggregate bandwidth across every NUMA node and the home node's
    /// access latency. For single-node ("flat") topologies this
    /// reproduces the node's constants exactly, so the Jetson presets
    /// behave bit-identically to the pre-topology simulator.
    ///
    /// # Panics
    ///
    /// Panics if the topology's aggregate bandwidth is zero.
    pub fn from_topology(topology: &MemTopology) -> Self {
        DramConfig::new(topology.aggregate_bandwidth(), topology.base_latency())
    }
}

/// Cost of one DRAM transaction as seen by the issuing agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCost {
    /// Latency until the data is available (for reads) or accepted (writes).
    pub latency: Picos,
    /// Controller occupancy: how long the channel is kept busy. Used for
    /// bandwidth-bound streaming and contention accounting.
    pub occupancy: Picos,
}

/// The shared system-memory controller.
///
/// # Examples
///
/// ```
/// use icomm_soc::dram::{Dram, DramConfig};
/// use icomm_soc::units::{Bandwidth, ByteSize, Picos};
///
/// let mut dram = Dram::new(DramConfig::new(
///     Bandwidth::gib_per_sec(25),
///     Picos::from_nanos(80),
/// ));
/// let cost = dram.read(ByteSize(64));
/// assert_eq!(cost.latency, Picos::from_nanos(80) + cost.occupancy);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    stats: DramStats,
    /// The last `(bytes, occupancy)` computed: a stream's transactions
    /// share one size, so this spares a division per transaction.
    last_occupancy: (u64, Picos),
}

impl Dram {
    /// Creates a new controller.
    pub fn new(config: DramConfig) -> Self {
        Dram {
            config,
            stats: DramStats::default(),
            last_occupancy: (0, Picos::ZERO),
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets the counters.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Adds `times` copies of `delta` to the counters.
    pub(crate) fn add_stats(&mut self, delta: &DramStats, times: u64) {
        self.stats.add_scaled(delta, times);
    }

    fn transfer(&mut self, bytes: ByteSize, is_read: bool) -> DramCost {
        if self.last_occupancy.0 != bytes.as_u64() {
            let occupancy = self.config.peak_bandwidth.transfer_time(bytes);
            self.last_occupancy = (bytes.as_u64(), occupancy);
        }
        self.transfer_timed(bytes.as_u64(), self.last_occupancy.1, is_read)
    }

    /// Charges one transaction of `bytes` whose occupancy the caller has
    /// already computed (the hierarchy precomputes it per line size).
    pub(crate) fn transfer_timed(
        &mut self,
        bytes: u64,
        occupancy: Picos,
        is_read: bool,
    ) -> DramCost {
        let latency = self.config.access_latency + occupancy;
        self.stats.transactions += 1;
        if is_read {
            self.stats.bytes_read += bytes;
        } else {
            self.stats.bytes_written += bytes;
        }
        self.stats.busy_time += occupancy;
        DramCost { latency, occupancy }
    }

    /// Reads `bytes` from DRAM.
    pub fn read(&mut self, bytes: ByteSize) -> DramCost {
        self.transfer(bytes, true)
    }

    /// Writes `bytes` to DRAM.
    pub fn write(&mut self, bytes: ByteSize) -> DramCost {
        self.transfer(bytes, false)
    }

    /// Time for a bulk, pipelined stream of `bytes` (a DMA copy): one
    /// leading access latency plus bandwidth-bound occupancy.
    pub fn stream_time(&self, bytes: ByteSize) -> Picos {
        self.config.access_latency + self.config.peak_bandwidth.transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::new(
            Bandwidth::bytes_per_sec(64_000_000_000_000), // 64 B/ps
            Picos::from_nanos(100),
        ))
    }

    #[test]
    fn read_charges_latency_plus_occupancy() {
        let mut d = dram();
        let cost = d.read(ByteSize(64));
        assert_eq!(cost.occupancy, Picos(1));
        assert_eq!(cost.latency, Picos::from_nanos(100) + Picos(1));
    }

    #[test]
    fn counters_accumulate() {
        let mut d = dram();
        d.read(ByteSize(64));
        d.write(ByteSize(128));
        assert_eq!(d.stats().bytes_read, 64);
        assert_eq!(d.stats().bytes_written, 128);
        assert_eq!(d.stats().transactions, 2);
        assert_eq!(d.stats().bytes_total(), ByteSize(192));
    }

    #[test]
    fn stream_time_is_pipelined() {
        let d = dram();
        // 1 MiB at 64 B/ps = 16384 ps + 100 ns leading latency.
        let t = d.stream_time(ByteSize::mib(1));
        assert_eq!(t, Picos::from_nanos(100) + Picos(16384));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bandwidth_rejected() {
        let _ = DramConfig::new(Bandwidth(0), Picos::ZERO);
    }

    #[test]
    fn reset_clears_counters() {
        let mut d = dram();
        d.read(ByteSize(64));
        d.reset_stats();
        assert_eq!(d.stats().transactions, 0);
    }
}
