//! The **zero copy (ZC)** communication model.
//!
//! CPU and iGPU access one *pinned* allocation through the same pointers —
//! no copies at all. The price is paid in the caches: the GPU caches never
//! hold pinned lines, and on devices without hardware I/O coherence
//! (Nano/TX2 class) the CPU caches are bypassed too. On I/O-coherent
//! devices (AGX Xavier) the GPU snoops the CPU LLC instead, retaining a
//! useful fraction of cached throughput. All of this behaviour lives in the
//! simulator's pinned-access rules; this model simply routes the shared
//! accesses through [`MemSpace::Pinned`].
//!
//! When the workload is a producer/consumer pipeline
//! ([`Workload::overlappable`]), the model applies the paper's tiled
//! communication pattern ([`crate::tiling`]) and overlaps the CPU and GPU
//! halves, paying only phase-barrier synchronization.

use icomm_soc::hierarchy::MemSpace;
use icomm_soc::units::Picos;
use icomm_soc::Soc;

use crate::layout::{rebase, PINNED_BASE};
use crate::model::{CommModel, CommModelKind};
use crate::overlap::{overlapped_wall, OverlapInputs};
use crate::report::RunReport;
use crate::tiling::TilingConfig;
use crate::workload::Workload;

/// The zero-copy model.
///
/// # Examples
///
/// ```
/// use icomm_models::model::{CommModel, CommModelKind};
/// use icomm_models::zero_copy::ZeroCopy;
///
/// assert_eq!(ZeroCopy::new().kind(), CommModelKind::ZeroCopy);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroCopy {
    tiling: TilingConfig,
    /// Per-iteration synchronization when phases serialize (a stream/event
    /// sync instead of an implicit copy barrier).
    sync_cost: Picos,
    /// Whether overlapping is permitted at all (disabled for the
    /// serialized variant used when characterizing raw path throughput).
    allow_overlap: bool,
    /// Whether to *execute* the tiled pipeline phase by phase
    /// ([`crate::tiled_exec`]) instead of using the analytic overlap
    /// model. Slower but assumption-free.
    simulated_overlap: bool,
}

impl ZeroCopy {
    /// Creates the model with default tiling.
    pub fn new() -> Self {
        ZeroCopy {
            tiling: TilingConfig::default(),
            sync_cost: Picos::from_micros(2),
            allow_overlap: true,
            simulated_overlap: false,
        }
    }

    /// Creates the model with explicit tiling parameters.
    pub fn with_tiling(tiling: TilingConfig) -> Self {
        ZeroCopy {
            tiling,
            ..ZeroCopy::new()
        }
    }

    /// A variant that never overlaps, even for overlappable workloads.
    /// Used to isolate the raw zero-copy path cost.
    pub fn serialized() -> Self {
        ZeroCopy {
            allow_overlap: false,
            ..ZeroCopy::new()
        }
    }

    /// A variant that executes the tiled pipeline phase by phase instead
    /// of applying the analytic overlap model. Materializes the shared
    /// request streams, so prefer the default for very large workloads.
    pub fn with_simulated_overlap(tiling: TilingConfig) -> Self {
        ZeroCopy {
            tiling,
            simulated_overlap: true,
            ..ZeroCopy::new()
        }
    }

    /// The tiling configuration in use.
    pub fn tiling(&self) -> TilingConfig {
        self.tiling
    }
}

impl Default for ZeroCopy {
    fn default() -> Self {
        ZeroCopy::new()
    }
}

impl CommModel for ZeroCopy {
    fn kind(&self) -> CommModelKind {
        CommModelKind::ZeroCopy
    }

    fn run(&self, soc: &mut Soc, workload: &Workload) -> RunReport {
        let before = soc.snapshot();
        let mut total_time = Picos::ZERO;
        let mut kernel_time = Picos::ZERO;
        let mut cpu_time = Picos::ZERO;
        let mut sync_time = Picos::ZERO;
        let mut overlap_saved = Picos::ZERO;

        for _ in 0..workload.iterations {
            if workload.overlappable && self.allow_overlap && self.simulated_overlap {
                // Execute the tiled pipeline for real: partition the
                // shared streams by tile ownership and run per phase.
                let cpu_vec: Vec<_> = rebase(
                    workload.cpu.shared_accesses.requests(MemSpace::Pinned),
                    PINNED_BASE,
                )
                .collect();
                let gpu_vec: Vec<_> = rebase(
                    workload.gpu.shared_accesses.requests(MemSpace::Pinned),
                    PINNED_BASE,
                )
                .collect();
                let run = crate::tiled_exec::run_tiled_iteration(
                    soc,
                    workload,
                    self.tiling,
                    PINNED_BASE,
                    cpu_vec,
                    gpu_vec,
                );
                cpu_time += run.cpu_total;
                kernel_time += run.gpu_total;
                total_time += run.wall;
                sync_time += self.tiling.barrier_cost * self.tiling.phases as u64;
                overlap_saved += run.saved();
                continue;
            }
            // CPU half: shared accesses go to the pinned region.
            let cpu_result = workload.cpu.run(soc, PINNED_BASE, MemSpace::Pinned);
            cpu_time += cpu_result.time;

            // GPU half: kernel reads/writes the pinned region directly.
            let kernel = workload.gpu.run(soc, PINNED_BASE, MemSpace::Pinned);
            kernel_time += kernel.time;

            if workload.overlappable && self.allow_overlap {
                let outcome = overlapped_wall(OverlapInputs {
                    cpu_time: cpu_result.time,
                    gpu_time: kernel.time,
                    cpu_dram_occupancy: cpu_result.dram_occupancy,
                    gpu_dram_occupancy: kernel.dram_occupancy,
                    phases: self.tiling.phases,
                    barrier_cost: self.tiling.barrier_cost,
                });
                total_time += outcome.wall;
                sync_time += outcome.barrier_total;
                overlap_saved += outcome.saved;
            } else {
                total_time += cpu_result.time + kernel.time + self.sync_cost;
                sync_time += self.sync_cost;
            }
        }

        let counters = soc.snapshot().delta(&before);
        RunReport {
            model: self.kind(),
            workload: workload.name.clone(),
            iterations: workload.iterations,
            total_time,
            copy_time: Picos::ZERO,
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

    fn workload(bytes: u64, overlappable: bool) -> Workload {
        Workload::builder("zc-test")
            .bytes_to_gpu(ByteSize(bytes))
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
            .overlappable(overlappable)
            .iterations(2)
            .build()
    }

    #[test]
    fn zero_copy_time_is_zero() {
        let device = DeviceProfile::jetson_tx2();
        let r = run_model(CommModelKind::ZeroCopy, &device, &workload(1 << 18, false));
        assert_eq!(r.copy_time, Picos::ZERO);
        assert_eq!(r.counters.copy_engine.mem_bytes, 0);
    }

    #[test]
    fn gpu_caches_untouched_on_pinned_path() {
        let device = DeviceProfile::jetson_tx2();
        let r = run_model(CommModelKind::ZeroCopy, &device, &workload(1 << 18, false));
        assert_eq!(r.counters.gpu_l1.accesses(), 0);
        assert_eq!(r.counters.gpu_llc.accesses(), 0);
    }

    #[test]
    fn overlap_reduces_wall_time() {
        let device = DeviceProfile::jetson_agx_xavier();
        let serial = run_model(CommModelKind::ZeroCopy, &device, &workload(1 << 20, false));
        let mut soc = Soc::new(device.clone());
        let overlapped = ZeroCopy::new().run(&mut soc, &workload(1 << 20, true));
        assert!(overlapped.total_time < serial.total_time);
        assert!(overlapped.overlap_saved > Picos::ZERO);
    }

    #[test]
    fn serialized_variant_ignores_overlappable_flag() {
        let device = DeviceProfile::jetson_agx_xavier();
        let mut soc = Soc::new(device.clone());
        let r = ZeroCopy::serialized().run(&mut soc, &workload(1 << 20, true));
        assert_eq!(r.overlap_saved, Picos::ZERO);
        assert_eq!(r.total_time, r.cpu_time + r.kernel_time + r.sync_time);
    }

    #[test]
    fn zc_slower_than_sc_for_cache_heavy_kernel_on_tx2() {
        // Multiple passes over a small footprint: huge cache benefit,
        // which ZC forfeits on TX2.
        let device = DeviceProfile::jetson_tx2();
        let bytes = 1u64 << 18; // 256 KiB, fits the 512 KiB GPU LLC
        let sweep = Pattern::Repeat {
            body: Box::new(Pattern::Linear {
                start: 0,
                bytes,
                txn_bytes: 64,
                kind: AccessKind::Read,
            }),
            times: 8,
        };
        let w = Workload::builder("cache-heavy")
            .bytes_to_gpu(ByteSize(bytes))
            .cpu(CpuPhase::idle())
            .gpu(GpuPhase {
                compute_work: 0,
                shared_accesses: sweep,
                private_accesses: None,
            })
            .build();
        let sc = run_model(CommModelKind::StandardCopy, &device, &w);
        let zc = run_model(CommModelKind::ZeroCopy, &device, &w);
        assert!(
            zc.kernel_time > sc.kernel_time * 5,
            "zc kernel {} vs sc kernel {}",
            zc.kernel_time,
            sc.kernel_time
        );
    }

    #[test]
    fn xavier_zc_penalty_much_smaller_than_tx2() {
        let bytes = 1u64 << 18;
        let sweep = Pattern::Repeat {
            body: Box::new(Pattern::Linear {
                start: 0,
                bytes,
                txn_bytes: 64,
                kind: AccessKind::Read,
            }),
            times: 8,
        };
        let w = Workload::builder("cache-heavy")
            .bytes_to_gpu(ByteSize(bytes))
            .cpu(CpuPhase::idle())
            .gpu(GpuPhase {
                compute_work: 0,
                shared_accesses: sweep,
                private_accesses: None,
            })
            .build();
        let penalty = |device: &DeviceProfile| {
            let sc = run_model(CommModelKind::StandardCopy, device, &w);
            let zc = run_model(CommModelKind::ZeroCopy, device, &w);
            zc.kernel_time.as_picos() as f64 / sc.kernel_time.as_picos() as f64
        };
        let tx2 = penalty(&DeviceProfile::jetson_tx2());
        let xavier = penalty(&DeviceProfile::jetson_agx_xavier());
        assert!(
            tx2 > 4.0 * xavier,
            "tx2 penalty {tx2:.1} should dwarf xavier {xavier:.1}"
        );
    }
}
