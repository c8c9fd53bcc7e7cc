//! The **unified memory (UM)** communication model.
//!
//! CPU and GPU address one managed allocation through the same pointers.
//! The runtime driver keeps the illusion coherent with on-demand page
//! migration: when the kernel first touches a page that is CPU-resident the
//! driver flushes it out of the CPU caches and migrates it (physically a
//! DRAM-to-DRAM move on these SoCs), and symmetrically on CPU read-back.
//!
//! The driver escalates migration granularity with speculative prefetching
//! ([`icomm_soc::device::UmConfig::migration_chunk_bytes`]), which keeps UM
//! within a few percent of SC across payload sizes — the paper measures the
//! difference at ±8 % and treats the two models as equivalent for tuning
//! purposes.

use icomm_soc::hierarchy::MemSpace;
use icomm_soc::units::{Bandwidth, ByteSize, Picos};
use icomm_soc::Soc;

use crate::layout::UNIFIED_BASE;
use crate::model::{CommModel, CommModelKind};
use crate::report::RunReport;
use crate::workload::Workload;

/// The unified-memory model.
///
/// # Examples
///
/// ```
/// use icomm_models::model::{CommModel, CommModelKind};
/// use icomm_models::unified_memory::UnifiedMemory;
///
/// assert_eq!(UnifiedMemory::new().kind(), CommModelKind::UnifiedMemory);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnifiedMemory;

impl UnifiedMemory {
    /// Creates the model.
    pub fn new() -> Self {
        UnifiedMemory
    }

    /// Cost of migrating `bytes` between the logical halves: fault-group
    /// servicing plus a DRAM-to-DRAM move. Traffic is charged to DRAM and
    /// the busy time to the copy engine.
    fn migrate(&self, soc: &mut Soc, bytes: ByteSize) -> Picos {
        if bytes.as_u64() == 0 {
            return Picos::ZERO;
        }
        let um = soc.profile().um;
        let dram_peak = soc.profile().dram.peak_bandwidth;
        let engine_bw = soc.profile().copy_engine.bandwidth;
        let effective = Bandwidth(
            engine_bw
                .as_bytes_per_sec()
                .min(dram_peak.as_bytes_per_sec() / 2),
        );
        let chunks = bytes.as_u64().div_ceil(um.migration_chunk_bytes.max(1));
        let fault_time = um.fault_cost * chunks;
        let transfer = effective.transfer_time(bytes);
        // Page moves read the source and write the destination.
        let _ = soc.mem_mut().dram_mut().read(bytes);
        let _ = soc.mem_mut().dram_mut().write(bytes);
        soc.charge_cpu_overhead(fault_time); // faults are serviced by the CPU
        soc.charge_copy_overhead(transfer);
        fault_time + transfer
    }
}

impl CommModel for UnifiedMemory {
    fn kind(&self) -> CommModelKind {
        CommModelKind::UnifiedMemory
    }

    fn run(&self, soc: &mut Soc, workload: &Workload) -> RunReport {
        let before = soc.snapshot();
        let um = soc.profile().um;
        let mut total_time = Picos::ZERO;
        let mut copy_time = Picos::ZERO;
        let mut kernel_time = Picos::ZERO;
        let mut cpu_time = Picos::ZERO;

        for _ in 0..workload.iterations {
            // 1. CPU works on the managed allocation through its caches.
            let cpu_result = workload.cpu.run(soc, UNIFIED_BASE, MemSpace::Cached);
            cpu_time += cpu_result.time;

            // 2. Driver migrates CPU-resident pages to the GPU half.
            if workload.bytes_to_gpu.as_u64() > 0 {
                let flush = soc.flush_cpu_caches();
                copy_time += flush.time;
                copy_time += self.migrate(soc, workload.bytes_to_gpu);
            }
            copy_time += um.kernel_overhead;
            soc.charge_cpu_overhead(um.kernel_overhead);

            // 3. Kernel works on the managed allocation through GPU caches.
            let kernel = workload.gpu.run(soc, UNIFIED_BASE, MemSpace::Cached);
            kernel_time += kernel.time;

            // 4. Results fault back to the CPU on first touch.
            if workload.bytes_from_gpu.as_u64() > 0 {
                let flush = soc.invalidate_gpu_caches();
                copy_time += flush.time;
                copy_time += self.migrate(soc, workload.bytes_from_gpu);
            }

            total_time += cpu_result.time + kernel.time;
        }
        total_time += copy_time;

        let counters = soc.snapshot().delta(&before);
        RunReport {
            model: self.kind(),
            workload: workload.name.clone(),
            iterations: workload.iterations,
            total_time,
            copy_time,
            kernel_time,
            cpu_time,
            sync_time: Picos::ZERO,
            overlap_saved: Picos::ZERO,
            energy: counters.energy,
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icomm_soc::cache::AccessKind;
    use icomm_soc::DeviceProfile;
    use icomm_trace::Pattern;

    use crate::model::run_model;
    use crate::workload::{CpuPhase, GpuPhase};

    fn workload(bytes: u64) -> Workload {
        Workload::builder("um-test")
            .bytes_to_gpu(ByteSize(bytes))
            .bytes_from_gpu(ByteSize(bytes))
            .cpu(CpuPhase {
                ops: vec![],
                shared_accesses: Pattern::Linear {
                    start: 0,
                    bytes,
                    txn_bytes: 64,
                    kind: AccessKind::Write,
                },
                private_accesses: None,
            })
            .gpu(GpuPhase {
                compute_work: 1 << 16,
                shared_accesses: Pattern::Linear {
                    start: 0,
                    bytes,
                    txn_bytes: 64,
                    kind: AccessKind::Read,
                },
                private_accesses: None,
            })
            .iterations(2)
            .build()
    }

    #[test]
    fn um_close_to_sc_small_payload() {
        let device = DeviceProfile::jetson_tx2();
        let w = workload(1 << 20);
        let sc = run_model(CommModelKind::StandardCopy, &device, &w);
        let um = run_model(CommModelKind::UnifiedMemory, &device, &w);
        let rel = (um.total_time.as_picos() as f64 - sc.total_time.as_picos() as f64).abs()
            / sc.total_time.as_picos() as f64;
        assert!(rel < 0.08, "UM deviates from SC by {:.1}%", rel * 100.0);
    }

    #[test]
    fn um_close_to_sc_large_payload() {
        let device = DeviceProfile::jetson_agx_xavier();
        // 32 MiB payload with a light kernel: transfer dominated.
        let mut w = workload(1 << 25);
        w.iterations = 1;
        let sc = run_model(CommModelKind::StandardCopy, &device, &w);
        let um = run_model(CommModelKind::UnifiedMemory, &device, &w);
        let rel = (um.total_time.as_picos() as f64 - sc.total_time.as_picos() as f64).abs()
            / sc.total_time.as_picos() as f64;
        assert!(rel < 0.08, "UM deviates from SC by {:.1}%", rel * 100.0);
    }

    #[test]
    fn migration_charges_dram_traffic() {
        let device = DeviceProfile::jetson_tx2();
        let um = run_model(CommModelKind::UnifiedMemory, &device, &workload(1 << 20));
        // Each direction moves the payload once per iteration: read+write.
        assert!(um.counters.dram.bytes_read >= 2 * (1 << 20));
        assert!(um.counters.dram.bytes_written >= 2 * (1 << 20));
    }

    #[test]
    fn kernel_uses_gpu_caches() {
        let device = DeviceProfile::jetson_tx2();
        let um = run_model(CommModelKind::UnifiedMemory, &device, &workload(1 << 18));
        assert!(um.counters.gpu_l1.accesses() > 0);
    }
}
