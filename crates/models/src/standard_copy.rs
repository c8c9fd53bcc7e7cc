//! The **standard copy (SC)** communication model.
//!
//! The physically shared memory is partitioned into CPU and GPU logical
//! spaces. Every iteration:
//!
//! 1. the CPU task produces into its own partition (fully cached),
//! 2. dirty CPU cache lines are flushed so the DMA engine sees the data,
//! 3. the copy engine moves the payload to the GPU partition,
//! 4. the kernel runs out of the GPU partition (fully cached),
//! 5. GPU caches are flushed/invalidated so the CPU sees the results,
//! 6. the copy engine moves results back.
//!
//! CPU and GPU phases are implicitly synchronized by the copies, so they
//! never overlap. All communication overhead (copies *and* the coherence
//! flushes that guard them) is attributed to `copy_time`, matching the
//! paper's `copy_time` term in Eqn. 3.

use icomm_soc::hierarchy::MemSpace;
use icomm_soc::units::Picos;
use icomm_soc::Soc;

use crate::layout::{CPU_PARTITION_BASE, GPU_PARTITION_BASE};
use crate::model::{CommModel, CommModelKind};
use crate::report::RunReport;
use crate::workload::Workload;

/// The standard-copy model.
///
/// # Examples
///
/// ```
/// use icomm_models::model::{CommModel, CommModelKind};
/// use icomm_models::standard_copy::StandardCopy;
///
/// assert_eq!(StandardCopy::new().kind(), CommModelKind::StandardCopy);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandardCopy;

impl StandardCopy {
    /// Creates the model.
    pub fn new() -> Self {
        StandardCopy
    }
}

impl CommModel for StandardCopy {
    fn kind(&self) -> CommModelKind {
        CommModelKind::StandardCopy
    }

    fn run(&self, soc: &mut Soc, workload: &Workload) -> RunReport {
        let before = soc.snapshot();
        let mut total_time = Picos::ZERO;
        let mut copy_time = Picos::ZERO;
        let mut kernel_time = Picos::ZERO;
        let mut cpu_time = Picos::ZERO;

        for _ in 0..workload.iterations {
            // 1. CPU produces into its partition.
            let cpu_result = workload.cpu.run(soc, CPU_PARTITION_BASE, MemSpace::Cached);
            cpu_time += cpu_result.time;

            // 2+3. Flush and copy host -> device.
            if workload.bytes_to_gpu.as_u64() > 0 {
                let flush = soc.flush_cpu_caches();
                copy_time += flush.time;
                let h2d = soc.copy(workload.bytes_to_gpu);
                copy_time += h2d.time;
            }

            // 4. Kernel out of the GPU partition.
            let kernel = workload.gpu.run(soc, GPU_PARTITION_BASE, MemSpace::Cached);
            kernel_time += kernel.time;

            // 5+6. Flush GPU caches and copy device -> host.
            if workload.bytes_from_gpu.as_u64() > 0 {
                let flush = soc.invalidate_gpu_caches();
                copy_time += flush.time;
                let d2h = soc.copy(workload.bytes_from_gpu);
                copy_time += d2h.time;
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
    use icomm_soc::units::ByteSize;
    use icomm_soc::DeviceProfile;
    use icomm_trace::Pattern;

    use crate::workload::{CpuPhase, GpuPhase};

    fn workload(bytes: u64, iterations: u32) -> Workload {
        Workload::builder("sc-test")
            .bytes_to_gpu(ByteSize(bytes))
            .bytes_from_gpu(ByteSize(bytes / 4))
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
            .iterations(iterations)
            .build()
    }

    #[test]
    fn decomposition_sums_to_total() {
        let mut soc = Soc::new(DeviceProfile::jetson_tx2());
        let r = StandardCopy::new().run(&mut soc, &workload(1 << 20, 2));
        assert_eq!(r.total_time, r.cpu_time + r.kernel_time + r.copy_time);
        assert_eq!(r.iterations, 2);
    }

    #[test]
    fn copies_present_when_payload_nonzero() {
        let mut soc = Soc::new(DeviceProfile::jetson_tx2());
        let r = StandardCopy::new().run(&mut soc, &workload(1 << 20, 1));
        assert!(r.copy_time > Picos::from_micros(10));
        assert!(r.counters.copy_engine.mem_bytes > 0);
    }

    #[test]
    fn no_payload_no_copy_time() {
        let mut soc = Soc::new(DeviceProfile::jetson_tx2());
        let mut w = workload(1 << 16, 1);
        w.bytes_to_gpu = ByteSize::ZERO;
        w.bytes_from_gpu = ByteSize::ZERO;
        let r = StandardCopy::new().run(&mut soc, &w);
        assert_eq!(r.copy_time, Picos::ZERO);
    }

    #[test]
    fn caches_are_exercised() {
        let mut soc = Soc::new(DeviceProfile::jetson_tx2());
        let r = StandardCopy::new().run(&mut soc, &workload(1 << 18, 3));
        assert!(r.counters.cpu_l1.accesses() > 0);
        assert!(r.counters.gpu_l1.accesses() > 0);
        // CPU caches stay warm across iterations (flushes write back but do
        // not invalidate), so later iterations hit in the CPU LLC. GPU
        // caches are invalidated after every kernel by the coherence
        // protocol, so no cross-iteration reuse is expected there.
        assert!(r.counters.cpu_llc.hits + r.counters.cpu_l1.hits > 0);
    }

    #[test]
    fn flushes_recorded() {
        let mut soc = Soc::new(DeviceProfile::jetson_tx2());
        let r = StandardCopy::new().run(&mut soc, &workload(1 << 18, 1));
        assert!(r.counters.cpu_l1.flushes + r.counters.cpu_llc.flushes >= 1);
        assert!(r.counters.gpu_l1.flushes + r.counters.gpu_llc.flushes >= 1);
    }
}
