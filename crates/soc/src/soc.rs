//! The [`Soc`] facade: one object owning the memory system and attributing
//! work, counters and energy to the right agents.
//!
//! Communication models (in `icomm-models`) drive a `Soc` by launching CPU
//! tasks, GPU kernels, copies and cache-maintenance operations, then compose
//! the returned phase timings into an end-to-end timeline. The `Soc` itself
//! is timeline-agnostic: it accounts busy time and traffic per agent, and
//! derives energy from those counters.

use crate::copy_engine::{run_copy, CopyResult};
use crate::cpu::{run_cpu_task_with, CpuRunResult, OpCount};
use crate::device::DeviceProfile;
use crate::gpu::{run_kernel_with, KernelResult};
use crate::hierarchy::{FlushCost, MemorySystem};
use crate::request::MemRequest;
use crate::stats::{AgentStats, SocSnapshot};
use crate::traffic::Port;
use crate::units::{ByteSize, Energy, Picos};

/// A simulated heterogeneous SoC instance.
///
/// # Examples
///
/// ```
/// use icomm_soc::device::DeviceProfile;
/// use icomm_soc::soc::Soc;
///
/// let mut soc = Soc::new(DeviceProfile::jetson_tx2());
/// let copy = soc.copy(icomm_soc::units::ByteSize::mib(1));
/// assert!(copy.time.as_micros_f64() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Soc {
    profile: DeviceProfile,
    mem: MemorySystem,
    cpu_stats: AgentStats,
    gpu_stats: AgentStats,
    copy_stats: AgentStats,
}

impl Soc {
    /// Creates a fresh SoC (cold caches, zeroed counters) for a device.
    pub fn new(profile: DeviceProfile) -> Self {
        let mem = profile.build_memory_system();
        Soc {
            profile,
            mem,
            cpu_stats: AgentStats::default(),
            gpu_stats: AgentStats::default(),
            copy_stats: AgentStats::default(),
        }
    }

    /// The device profile this SoC simulates.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Read access to the memory system.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to the memory system (for ablations that tweak rules).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Runs a CPU task and attributes its activity.
    pub fn run_cpu_task(
        &mut self,
        ops: &[OpCount],
        requests: impl Iterator<Item = MemRequest>,
    ) -> CpuRunResult {
        self.run_cpu_task_with(ops, |port| requests.for_each(|req| port.issue(req)))
    }

    /// Runs a CPU task whose traffic `traffic` issues through a [`Port`]
    /// and attributes its activity.
    pub fn run_cpu_task_with(
        &mut self,
        ops: &[OpCount],
        traffic: impl FnOnce(&mut Port<'_>),
    ) -> CpuRunResult {
        let cpu = self.profile.cpu;
        let result = run_cpu_task_with(&mut self.mem, &cpu, ops, traffic);
        self.cpu_stats.busy_time += result.time;
        self.cpu_stats.ops_retired += result.ops_retired;
        self.cpu_stats.mem_transactions += result.transactions;
        self.cpu_stats.mem_bytes += result.bytes;
        result
    }

    /// Launches a GPU kernel and attributes its activity.
    pub fn run_kernel(
        &mut self,
        compute_work: u64,
        requests: impl Iterator<Item = MemRequest>,
    ) -> KernelResult {
        self.run_kernel_with(compute_work, |port| {
            requests.for_each(|req| port.issue(req))
        })
    }

    /// Launches a GPU kernel whose traffic `traffic` issues through a
    /// [`Port`] and attributes its activity.
    pub fn run_kernel_with(
        &mut self,
        compute_work: u64,
        traffic: impl FnOnce(&mut Port<'_>),
    ) -> KernelResult {
        let gpu = self.profile.gpu;
        let result = run_kernel_with(&mut self.mem, &gpu, compute_work, traffic);
        self.gpu_stats.busy_time += result.time;
        self.gpu_stats.ops_retired += result.ops_retired;
        self.gpu_stats.mem_transactions += result.transactions;
        self.gpu_stats.mem_bytes += result.bytes;
        result
    }

    /// Performs a DMA copy and attributes its activity.
    pub fn copy(&mut self, bytes: ByteSize) -> CopyResult {
        let engine = self.profile.copy_engine;
        let result = run_copy(&mut self.mem, &engine, bytes);
        self.copy_stats.busy_time += result.time;
        self.copy_stats.mem_transactions += if bytes.as_u64() > 0 { 2 } else { 0 };
        self.copy_stats.mem_bytes += 2 * result.bytes;
        result
    }

    /// Flushes dirty CPU cache lines (standard-copy pre-kernel step);
    /// charged as CPU busy time.
    pub fn flush_cpu_caches(&mut self) -> FlushCost {
        let cost = self.mem.flush_cpu_caches();
        self.cpu_stats.busy_time += cost.time;
        cost
    }

    /// Invalidates GPU caches (standard-copy post-kernel step); charged as
    /// GPU busy time.
    pub fn invalidate_gpu_caches(&mut self) -> FlushCost {
        let cost = self.mem.invalidate_gpu_caches();
        self.gpu_stats.busy_time += cost.time;
        cost
    }

    /// Reads the full counter set, with energy derived from the counters.
    pub fn snapshot(&self) -> SocSnapshot {
        use crate::hierarchy::Agent;
        let energy_model = self.profile.energy;
        let dram = *self.mem.dram().stats();
        let energy: Energy = energy_model.dram_energy(dram.bytes_read + dram.bytes_written)
            + energy_model.busy_energy(energy_model.cpu_busy_mw, self.cpu_stats.busy_time)
            + energy_model.busy_energy(energy_model.gpu_busy_mw, self.gpu_stats.busy_time)
            + energy_model.busy_energy(energy_model.copy_busy_mw, self.copy_stats.busy_time);
        SocSnapshot {
            cpu_l1: *self.mem.cache(Agent::Cpu, 1).stats(),
            cpu_llc: *self.mem.cache(Agent::Cpu, 2).stats(),
            gpu_l1: *self.mem.cache(Agent::Gpu, 1).stats(),
            gpu_llc: *self.mem.cache(Agent::Gpu, 2).stats(),
            dram,
            cpu: self.cpu_stats,
            gpu: self.gpu_stats,
            copy_engine: self.copy_stats,
            energy,
        }
    }

    /// Zeroes every counter (cache contents are untouched).
    pub fn reset_stats(&mut self) {
        self.mem.reset_stats();
        self.cpu_stats = AgentStats::default();
        self.gpu_stats = AgentStats::default();
        self.copy_stats = AgentStats::default();
    }

    /// Empties all caches (cold start) without touching counters, then
    /// resets counters so the cold-start writebacks are not attributed to
    /// the next region of interest.
    pub fn cold_start(&mut self) {
        self.mem.cold_caches();
        self.reset_stats();
    }

    /// Configures the hardware-coherent unified-memory (UPM) path for a
    /// shared working set of `footprint` bytes: derives the per-fill
    /// extras (expected TLB walk past reach plus remote-node hop) from
    /// the device's memory topology and installs them in the hierarchy.
    /// On flat in-reach topologies this is a no-op (extras stay zero).
    pub fn configure_upm(&mut self, footprint: ByteSize) {
        use icomm_mem::MemAgent;
        let topology = &self.profile.topology;
        let cpu = topology.upm_fill_extra(MemAgent::Cpu, footprint.as_u64());
        let gpu = topology.upm_fill_extra(MemAgent::Gpu, footprint.as_u64());
        self.mem.set_upm_fill_extra(cpu, gpu);
    }

    /// Clears the UPM per-fill extras (back to the flat default).
    pub fn clear_upm(&mut self) {
        self.mem.set_upm_fill_extra(Picos::ZERO, Picos::ZERO);
    }

    /// Adds extra CPU busy time (used by models for driver overheads such
    /// as page-fault servicing).
    pub fn charge_cpu_overhead(&mut self, time: Picos) {
        self.cpu_stats.busy_time += time;
    }

    /// Adds extra GPU busy time (e.g. per-phase pipeline barriers).
    pub fn charge_gpu_overhead(&mut self, time: Picos) {
        self.gpu_stats.busy_time += time;
    }

    /// Adds extra copy-engine busy time (e.g. page-migration transfers that
    /// bypass the `copy` API).
    pub fn charge_copy_overhead(&mut self, time: Picos) {
        self.copy_stats.busy_time += time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuOpClass;
    use crate::hierarchy::MemSpace;

    #[test]
    fn snapshot_attributes_busy_time() {
        let mut soc = Soc::new(DeviceProfile::jetson_tx2());
        soc.run_cpu_task(&[OpCount::new(CpuOpClass::FpDiv, 1000)], std::iter::empty());
        soc.run_kernel(1 << 20, std::iter::empty());
        soc.copy(ByteSize::kib(64));
        let snap = soc.snapshot();
        assert!(snap.cpu.busy_time > Picos::ZERO);
        assert!(snap.gpu.busy_time > Picos::ZERO);
        assert!(snap.copy_engine.busy_time > Picos::ZERO);
        assert!(snap.energy > Energy::ZERO);
    }

    #[test]
    fn delta_isolates_region_of_interest() {
        let mut soc = Soc::new(DeviceProfile::jetson_tx2());
        soc.copy(ByteSize::mib(1));
        let before = soc.snapshot();
        soc.run_kernel(
            0,
            (0..16u64).map(|i| MemRequest::read(i * 64, 64, MemSpace::Cached)),
        );
        let after = soc.snapshot();
        let delta = after.delta(&before);
        assert_eq!(delta.gpu.mem_transactions, 16);
        assert_eq!(delta.copy_engine.mem_transactions, 0);
    }

    #[test]
    fn reset_stats_zeroes_counters_but_keeps_cache_contents() {
        let mut soc = Soc::new(DeviceProfile::jetson_tx2());
        soc.run_cpu_task(
            &[],
            std::iter::once(MemRequest::read(0x40, 4, MemSpace::Cached)),
        );
        soc.reset_stats();
        let r = soc.run_cpu_task(
            &[],
            std::iter::once(MemRequest::read(0x40, 4, MemSpace::Cached)),
        );
        // Still cached from before the reset.
        assert_eq!(r.dram_bytes, 0);
        assert_eq!(soc.snapshot().cpu_l1.hits, 1);
    }

    #[test]
    fn cold_start_forces_misses() {
        let mut soc = Soc::new(DeviceProfile::jetson_tx2());
        soc.run_cpu_task(
            &[],
            std::iter::once(MemRequest::read(0x40, 4, MemSpace::Cached)),
        );
        soc.cold_start();
        let r = soc.run_cpu_task(
            &[],
            std::iter::once(MemRequest::read(0x40, 4, MemSpace::Cached)),
        );
        assert!(r.dram_bytes > 0);
    }

    #[test]
    fn energy_grows_with_dram_traffic() {
        let mut a = Soc::new(DeviceProfile::jetson_tx2());
        let mut b = Soc::new(DeviceProfile::jetson_tx2());
        a.copy(ByteSize::mib(1));
        b.copy(ByteSize::mib(16));
        assert!(b.snapshot().energy > a.snapshot().energy);
    }

    #[test]
    fn charge_cpu_overhead_adds_busy_time() {
        let mut soc = Soc::new(DeviceProfile::jetson_nano());
        soc.charge_cpu_overhead(Picos::from_micros(10));
        assert_eq!(soc.snapshot().cpu.busy_time, Picos::from_micros(10));
    }
}
