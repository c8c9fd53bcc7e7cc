//! Extension: **double-buffered standard copy (SC-async)**.
//!
//! The paper's SC model serializes produce → copy → kernel → copy-back.
//! A common mitigation on real pipelines is double buffering with an
//! asynchronous DMA: while the kernel crunches frame *i*, the CPU produces
//! frame *i+1* into the second buffer and the copy engine streams it over.
//! In steady state the iteration wall time becomes
//!
//! ```text
//! t_iter = max(t_cpu + t_copies, t_kernel) + t_sync
//! ```
//!
//! floored by the combined DRAM occupancy (copy traffic and kernel traffic
//! share one memory controller).
//!
//! This model is not part of the paper's evaluation; it exists to answer a
//! question the paper raises implicitly: *how much of zero copy's win is
//! overlap, and how much is copy elimination?* On the AGX Xavier the
//! answer (see the `ablation_async_copy` bench) is that double buffering
//! recovers most of the overlap benefit but none of the copy-energy
//! savings, and it costs a second buffer plus pipeline latency.

use icomm_soc::hierarchy::MemSpace;
use icomm_soc::units::Picos;
use icomm_soc::Soc;

use crate::layout::{CPU_PARTITION_BASE, GPU_PARTITION_BASE};
use crate::model::{CommModel, CommModelKind};
use crate::report::RunReport;
use crate::workload::Workload;

/// The double-buffered asynchronous-copy model.
///
/// # Examples
///
/// ```
/// use icomm_models::async_copy::DoubleBufferedCopy;
/// use icomm_models::model::{CommModel, CommModelKind};
///
/// assert_eq!(
///     DoubleBufferedCopy::new().kind(),
///     CommModelKind::StandardCopyAsync
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoubleBufferedCopy {
    /// Per-iteration event synchronization (stream record/wait).
    sync_cost: Picos,
}

impl DoubleBufferedCopy {
    /// Creates the model.
    pub fn new() -> Self {
        DoubleBufferedCopy {
            sync_cost: Picos::from_micros(3),
        }
    }
}

impl Default for DoubleBufferedCopy {
    fn default() -> Self {
        DoubleBufferedCopy::new()
    }
}

impl CommModel for DoubleBufferedCopy {
    fn kind(&self) -> CommModelKind {
        CommModelKind::StandardCopyAsync
    }

    fn run(&self, soc: &mut Soc, workload: &Workload) -> RunReport {
        let before = soc.snapshot();
        let mut total_time = Picos::ZERO;
        let mut copy_time = Picos::ZERO;
        let mut kernel_time = Picos::ZERO;
        let mut cpu_time = Picos::ZERO;
        let mut sync_time = Picos::ZERO;
        let mut overlap_saved = Picos::ZERO;

        for _ in 0..workload.iterations {
            // Measure the same components as synchronous SC.
            let cpu_result = workload.cpu.run(soc, CPU_PARTITION_BASE, MemSpace::Cached);
            cpu_time += cpu_result.time;

            let mut iter_copy = Picos::ZERO;
            let mut copy_occupancy = Picos::ZERO;
            if workload.bytes_to_gpu.as_u64() > 0 {
                let flush = soc.flush_cpu_caches();
                iter_copy += flush.time;
                let h2d = soc.copy(workload.bytes_to_gpu);
                iter_copy += h2d.time;
                copy_occupancy += h2d.dram_occupancy;
            }

            let kernel = workload.gpu.run(soc, GPU_PARTITION_BASE, MemSpace::Cached);
            kernel_time += kernel.time;

            if workload.bytes_from_gpu.as_u64() > 0 {
                let flush = soc.invalidate_gpu_caches();
                iter_copy += flush.time;
                let d2h = soc.copy(workload.bytes_from_gpu);
                iter_copy += d2h.time;
                copy_occupancy += d2h.dram_occupancy;
            }
            copy_time += iter_copy;

            // Steady-state pipelining: the CPU production and the copies
            // of the next frame hide behind the current kernel (or vice
            // versa), bounded below by DRAM contention.
            let producer_side = cpu_result.time + iter_copy;
            let serial = producer_side + kernel.time;
            let pipelined = producer_side
                .max(kernel.time)
                .max(copy_occupancy + kernel.dram_occupancy + cpu_result.dram_occupancy)
                + self.sync_cost;
            let wall = pipelined.min(serial + self.sync_cost);
            total_time += wall;
            sync_time += self.sync_cost;
            overlap_saved += serial.saturating_sub(wall);
        }

        let counters = soc.snapshot().delta(&before);
        RunReport {
            model: self.kind(),
            workload: workload.name.clone(),
            iterations: workload.iterations,
            total_time,
            copy_time,
            kernel_time,
            cpu_time,
            sync_time,
            overlap_saved,
            energy: counters.energy,
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icomm_soc::cache::AccessKind;
    use icomm_soc::units::ByteSize;
    use icomm_soc::DeviceProfile;
    use icomm_trace::Pattern;

    use crate::model::run_model;
    use crate::workload::{CpuPhase, GpuPhase};

    fn workload(bytes: u64) -> Workload {
        Workload::builder("async-test")
            .bytes_to_gpu(ByteSize(bytes))
            .bytes_from_gpu(ByteSize(bytes / 8))
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
                compute_work: 1 << 24,
                shared_accesses: Pattern::Linear {
                    start: 0,
                    bytes,
                    txn_bytes: 64,
                    kind: AccessKind::Read,
                },
                private_accesses: None,
            })
            .iterations(3)
            .build()
    }

    #[test]
    fn async_copy_beats_synchronous_sc() {
        let device = DeviceProfile::jetson_tx2();
        let w = workload(1 << 21);
        let sc = run_model(CommModelKind::StandardCopy, &device, &w);
        let sc_async = run_model(CommModelKind::StandardCopyAsync, &device, &w);
        assert!(
            sc_async.total_time < sc.total_time,
            "double buffering should hide copies: {} vs {}",
            sc_async.total_time,
            sc.total_time
        );
        assert!(sc_async.overlap_saved > Picos::ZERO);
    }

    #[test]
    fn async_copy_still_pays_copy_energy() {
        let device = DeviceProfile::jetson_agx_xavier();
        let w = workload(1 << 21);
        let sc_async = run_model(CommModelKind::StandardCopyAsync, &device, &w);
        let zc = run_model(CommModelKind::ZeroCopy, &device, &w);
        // The copies still exist (and still burn DRAM energy).
        assert!(sc_async.copy_time > Picos::ZERO);
        assert!(zc.counters.dram.bytes_total() < sc_async.counters.dram.bytes_total());
    }

    #[test]
    fn wall_time_bounded_by_components() {
        let device = DeviceProfile::jetson_nano();
        let w = workload(1 << 20);
        let r = run_model(CommModelKind::StandardCopyAsync, &device, &w);
        // Never faster than the kernel alone, never slower than serial SC.
        let sc = run_model(CommModelKind::StandardCopy, &device, &w);
        assert!(r.total_time >= r.kernel_time);
        assert!(r.total_time <= sc.total_time + r.sync_time);
    }
}
