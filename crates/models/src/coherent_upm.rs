//! The **hardware-coherent unified memory (UPM)** communication model.
//!
//! APU-class parts (MI300A, Grace Hopper) back `malloc`'d system memory
//! with a coherent fabric: CPU and GPU cache the same allocation and the
//! hardware keeps the caches coherent, so there is no page migration, no
//! driver fault servicing, and no maintenance flush around kernels. What
//! remains is the *topology*: an LLC miss fills from wherever the page
//! physically lives, paying the interconnect hop when that node is remote
//! to the accessor, plus the expected TLB walk when the shared footprint
//! exceeds TLB reach at the device's page size. Both costs come from
//! [`icomm_soc::DeviceProfile::topology`] via [`Soc::configure_upm`],
//! which is why huge pages move the UM-vs-UPM crossover: at 2 MiB pages
//! the reach covers working sets that thrash a 4 KiB-page TLB.
//!
//! On devices without hardware coherence (`supports_coherent_upm()` is
//! false — all the Jetson boards) a UPM request degrades to the driver's
//! software path: this model delegates to [`UnifiedMemory`] and re-stamps
//! the report, mirroring how `cudaMallocManaged` semantics are what you
//! actually get when you ask for system-allocated sharing there.

use icomm_soc::hierarchy::MemSpace;
use icomm_soc::units::{ByteSize, Picos};
use icomm_soc::Soc;

use crate::layout::UNIFIED_BASE;
use crate::model::{CommModel, CommModelKind};
use crate::report::RunReport;
use crate::unified_memory::UnifiedMemory;
use crate::workload::Workload;

/// The hardware-coherent unified-memory model.
///
/// # Examples
///
/// ```
/// use icomm_models::coherent_upm::CoherentUpm;
/// use icomm_models::model::{CommModel, CommModelKind};
///
/// assert_eq!(CoherentUpm::new().kind(), CommModelKind::CoherentUpm);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherentUpm;

impl CoherentUpm {
    /// Creates the model.
    pub fn new() -> Self {
        CoherentUpm
    }

    /// The shared working set the TLB and placement model should see:
    /// the larger of the declared exchange payload and the actual shared
    /// access footprints of the two phases.
    fn shared_footprint(workload: &Workload) -> ByteSize {
        let exchanged = workload.bytes_exchanged().as_u64();
        let cpu = workload.cpu.shared_accesses.footprint_bytes();
        let gpu = workload.gpu.shared_accesses.footprint_bytes();
        ByteSize(exchanged.max(cpu).max(gpu))
    }
}

impl CommModel for CoherentUpm {
    fn kind(&self) -> CommModelKind {
        CommModelKind::CoherentUpm
    }

    fn run(&self, soc: &mut Soc, workload: &Workload) -> RunReport {
        if !soc.profile().supports_coherent_upm() {
            // No coherent fabric: system-allocated sharing falls back to
            // the driver's migrating path. Keep the UPM stamp so callers
            // see which model they asked for.
            let mut report = UnifiedMemory::new().run(soc, workload);
            report.model = self.kind();
            return report;
        }

        let before = soc.snapshot();
        soc.configure_upm(Self::shared_footprint(workload));
        let mut total_time = Picos::ZERO;
        let mut kernel_time = Picos::ZERO;
        let mut cpu_time = Picos::ZERO;

        for _ in 0..workload.iterations {
            // 1. CPU works on the shared allocation through its caches;
            //    the fabric keeps the GPU's view coherent, so no flush.
            let cpu_result = workload.cpu.run(soc, UNIFIED_BASE, MemSpace::Upm);
            cpu_time += cpu_result.time;

            // 2. Kernel reads the same physical pages; misses fill over
            //    the coherent fabric (remote hop + TLB walk are folded
            //    into the per-fill extra installed by configure_upm).
            let kernel = workload.gpu.run(soc, UNIFIED_BASE, MemSpace::Upm);
            kernel_time += kernel.time;

            total_time += cpu_result.time + kernel.time;
        }
        soc.clear_upm();

        let counters = soc.snapshot().delta(&before);
        RunReport {
            model: self.kind(),
            workload: workload.name.clone(),
            iterations: workload.iterations,
            total_time,
            copy_time: Picos::ZERO,
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
    use icomm_soc::{DeviceProfile, PageSize};
    use icomm_trace::Pattern;

    use crate::model::run_model;
    use crate::workload::{CpuPhase, GpuPhase};

    fn workload(bytes: u64) -> Workload {
        Workload::builder("upm-test")
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
    fn upm_never_copies_or_migrates() {
        let device = DeviceProfile::mi300a_like();
        let upm = run_model(CommModelKind::CoherentUpm, &device, &workload(1 << 23));
        assert_eq!(upm.copy_time, Picos::ZERO);
        assert_eq!(upm.counters.copy_engine.busy_time, Picos::ZERO);
    }

    #[test]
    fn upm_beats_um_under_huge_pages() {
        // With 2 MiB pages the 8 MiB working set is inside TLB reach, so
        // UPM pays nothing extra while UM still migrates both directions
        // every iteration.
        let device = DeviceProfile::mi300a_like().with_page_size(PageSize::Huge2M);
        let w = workload(1 << 23);
        let um = run_model(CommModelKind::UnifiedMemory, &device, &w);
        let upm = run_model(CommModelKind::CoherentUpm, &device, &w);
        assert!(
            upm.total_time < um.total_time,
            "UPM {} not below UM {}",
            upm.total_time,
            um.total_time
        );
    }

    #[test]
    fn small_pages_inflate_upm_kernel_time() {
        let w = workload(1 << 23);
        let small = run_model(
            CommModelKind::CoherentUpm,
            &DeviceProfile::mi300a_like().with_page_size(PageSize::Small4K),
            &w,
        );
        let huge = run_model(
            CommModelKind::CoherentUpm,
            &DeviceProfile::mi300a_like().with_page_size(PageSize::Huge2M),
            &w,
        );
        assert!(
            small.kernel_time > huge.kernel_time,
            "4K kernel {} not above 2M kernel {}",
            small.kernel_time,
            huge.kernel_time
        );
    }

    #[test]
    fn gh_like_gpu_pays_the_remote_hop() {
        // First-touch-CPU on the superchip homes the shared set in the
        // CPU's DDR node, so the GPU's fills cross the interconnect even
        // when the TLB reaches; the unified node on the APU pays nothing.
        let w = workload(1 << 21);
        let gh = run_model(
            CommModelKind::CoherentUpm,
            &DeviceProfile::gh_like().with_page_size(PageSize::Huge2M),
            &w,
        );
        assert!(gh.total_time > Picos::ZERO);
        let (_, gpu_extra) = {
            let mut soc = Soc::new(DeviceProfile::gh_like().with_page_size(PageSize::Huge2M));
            soc.configure_upm(ByteSize(1 << 21));
            soc.mem().upm_fill_extra()
        };
        assert!(gpu_extra > Picos::ZERO);
    }

    #[test]
    fn non_coherent_device_falls_back_to_um_timing() {
        let device = DeviceProfile::jetson_tx2();
        let w = workload(1 << 20);
        let um = run_model(CommModelKind::UnifiedMemory, &device, &w);
        let upm = run_model(CommModelKind::CoherentUpm, &device, &w);
        assert_eq!(upm.model, CommModelKind::CoherentUpm);
        assert_eq!(upm.total_time, um.total_time);
        assert_eq!(upm.copy_time, um.copy_time);
    }

    #[test]
    fn upm_extras_cleared_after_run() {
        let mut soc = Soc::new(DeviceProfile::mi300a_like());
        let _ = CoherentUpm::new().run(&mut soc, &workload(1 << 23));
        assert_eq!(soc.mem().upm_fill_extra(), (Picos::ZERO, Picos::ZERO));
    }
}
