//! Workload descriptors: what a CPU-iGPU application does, independent of
//! how its data is communicated.
//!
//! A [`Workload`] captures one processing iteration (one camera frame, one
//! sensor batch): a CPU phase, a GPU kernel, the bytes exchanged between
//! them, and whether the phases may overlap when the zero-copy pattern is
//! used. All shared-buffer accesses are expressed as offsets from zero; the
//! communication model rebases them into the partitions it allocates (see
//! [`crate::layout`]).

use serde::{Deserialize, Serialize};

use icomm_soc::cpu::{CpuRunResult, OpCount};
use icomm_soc::gpu::KernelResult;
use icomm_soc::hierarchy::MemSpace;
use icomm_soc::units::ByteSize;
use icomm_soc::Soc;
use icomm_trace::Pattern;

use crate::layout::{CPU_PRIVATE_BASE, GPU_PRIVATE_BASE};

/// The CPU side of one iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuPhase {
    /// Arithmetic mix executed by the task.
    pub ops: Vec<OpCount>,
    /// Accesses to the shared (communicated) buffer, offset-based.
    pub shared_accesses: Pattern,
    /// Accesses to CPU-private data (always cacheable).
    pub private_accesses: Option<Pattern>,
}

impl CpuPhase {
    /// A phase that does nothing.
    pub fn idle() -> Self {
        CpuPhase {
            ops: Vec::new(),
            shared_accesses: Pattern::Sequence(Vec::new()),
            private_accesses: None,
        }
    }

    /// Runs the phase as one CPU task: the shared accesses at
    /// `shared_base` in `space` (where the communication model placed the
    /// buffer), then the private ones, always cached, at
    /// [`CPU_PRIVATE_BASE`].
    pub fn run(&self, soc: &mut Soc, shared_base: u64, space: MemSpace) -> CpuRunResult {
        soc.run_cpu_task_with(&self.ops, |port| {
            self.shared_accesses.play(shared_base, space, port);
            if let Some(private) = &self.private_accesses {
                private.play(CPU_PRIVATE_BASE, MemSpace::Cached, port);
            }
        })
    }
}

/// The GPU side of one iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuPhase {
    /// Total compute work (dynamic instruction-cycles across all threads).
    pub compute_work: u64,
    /// Coalesced accesses to the shared buffer, offset-based.
    pub shared_accesses: Pattern,
    /// Accesses to GPU-private data (always cacheable).
    pub private_accesses: Option<Pattern>,
}

impl GpuPhase {
    /// Launches the phase as one kernel: the shared accesses at
    /// `shared_base` in `space`, then the private ones, always cached, at
    /// [`GPU_PRIVATE_BASE`].
    pub fn run(&self, soc: &mut Soc, shared_base: u64, space: MemSpace) -> KernelResult {
        soc.run_kernel_with(self.compute_work, |port| {
            self.shared_accesses.play(shared_base, space, port);
            if let Some(private) = &self.private_accesses {
                private.play(GPU_PRIVATE_BASE, MemSpace::Cached, port);
            }
        })
    }
}

/// A complete application workload.
///
/// # Examples
///
/// ```
/// use icomm_models::workload::{CpuPhase, GpuPhase, Workload};
/// use icomm_soc::cache::AccessKind;
/// use icomm_soc::units::ByteSize;
/// use icomm_trace::Pattern;
///
/// let w = Workload::builder("stream")
///     .bytes_to_gpu(ByteSize::mib(1))
///     .gpu(GpuPhase {
///         compute_work: 1 << 20,
///         shared_accesses: Pattern::Linear {
///             start: 0,
///             bytes: 1 << 20,
///             txn_bytes: 64,
///             kind: AccessKind::Read,
///         },
///         private_accesses: None,
///     })
///     .build();
/// assert_eq!(w.iterations, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Human-readable name.
    pub name: String,
    /// Bytes the CPU produces for the GPU each iteration (the H2D payload
    /// under standard copy).
    pub bytes_to_gpu: ByteSize,
    /// Bytes the GPU produces for the CPU each iteration (the D2H payload).
    pub bytes_from_gpu: ByteSize,
    /// CPU phase.
    pub cpu: CpuPhase,
    /// GPU kernel.
    pub gpu: GpuPhase,
    /// Whether the CPU and GPU phases form a producer/consumer pipeline
    /// that the tiled zero-copy pattern may overlap.
    pub overlappable: bool,
    /// Iterations (frames) to simulate.
    pub iterations: u32,
}

impl Workload {
    /// Starts building a workload.
    pub fn builder(name: impl Into<String>) -> WorkloadBuilder {
        WorkloadBuilder::new(name)
    }

    /// Total bytes communicated per iteration in both directions.
    pub fn bytes_exchanged(&self) -> ByteSize {
        self.bytes_to_gpu + self.bytes_from_gpu
    }
}

/// Builder for [`Workload`].
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    name: String,
    bytes_to_gpu: ByteSize,
    bytes_from_gpu: ByteSize,
    cpu: CpuPhase,
    gpu: Option<GpuPhase>,
    overlappable: bool,
    iterations: u32,
}

impl WorkloadBuilder {
    fn new(name: impl Into<String>) -> Self {
        WorkloadBuilder {
            name: name.into(),
            bytes_to_gpu: ByteSize::ZERO,
            bytes_from_gpu: ByteSize::ZERO,
            cpu: CpuPhase::idle(),
            gpu: None,
            overlappable: false,
            iterations: 1,
        }
    }

    /// Sets the H2D payload.
    pub fn bytes_to_gpu(mut self, bytes: ByteSize) -> Self {
        self.bytes_to_gpu = bytes;
        self
    }

    /// Sets the D2H payload.
    pub fn bytes_from_gpu(mut self, bytes: ByteSize) -> Self {
        self.bytes_from_gpu = bytes;
        self
    }

    /// Sets the CPU phase.
    pub fn cpu(mut self, cpu: CpuPhase) -> Self {
        self.cpu = cpu;
        self
    }

    /// Sets the GPU kernel.
    pub fn gpu(mut self, gpu: GpuPhase) -> Self {
        self.gpu = Some(gpu);
        self
    }

    /// Marks the workload as overlappable under the zero-copy pattern.
    pub fn overlappable(mut self, overlappable: bool) -> Self {
        self.overlappable = overlappable;
        self
    }

    /// Sets the number of iterations to simulate.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn iterations(mut self, iterations: u32) -> Self {
        assert!(iterations > 0, "a workload needs at least one iteration");
        self.iterations = iterations;
        self
    }

    /// Finalizes the workload.
    ///
    /// # Panics
    ///
    /// Panics if no GPU phase was provided (a CPU-only program has no
    /// CPU-iGPU communication to tune). Use [`Self::try_build`] to get
    /// the error instead.
    pub fn build(self) -> Workload {
        self.try_build().unwrap_or_else(|err| panic!("{err}"))
    }

    /// Finalizes the workload, returning an error instead of panicking
    /// when the builder is incomplete.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message when no GPU phase was provided.
    pub fn try_build(self) -> Result<Workload, String> {
        let gpu = self.gpu.ok_or_else(|| {
            format!(
                "workload '{}' has no GPU phase — a CPU-only program has \
                 no CPU-iGPU communication to tune",
                self.name
            )
        })?;
        Ok(Workload {
            name: self.name,
            bytes_to_gpu: self.bytes_to_gpu,
            bytes_from_gpu: self.bytes_from_gpu,
            cpu: self.cpu,
            gpu,
            overlappable: self.overlappable,
            iterations: self.iterations,
        })
    }
}

/// Shared-buffer cycle: CPU arithmetic mix for a given op profile.
pub fn ops(profile: &[(icomm_soc::cpu::CpuOpClass, u64)]) -> Vec<OpCount> {
    profile
        .iter()
        .map(|&(class, count)| OpCount::new(class, count))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use icomm_soc::cache::AccessKind;
    use icomm_soc::cpu::CpuOpClass;

    fn gpu_phase() -> GpuPhase {
        GpuPhase {
            compute_work: 1000,
            shared_accesses: Pattern::Linear {
                start: 0,
                bytes: 4096,
                txn_bytes: 64,
                kind: AccessKind::Read,
            },
            private_accesses: None,
        }
    }

    #[test]
    fn builder_defaults() {
        let w = Workload::builder("t").gpu(gpu_phase()).build();
        assert_eq!(w.iterations, 1);
        assert!(!w.overlappable);
        assert_eq!(w.bytes_exchanged(), ByteSize::ZERO);
    }

    #[test]
    fn builder_sets_fields() {
        let w = Workload::builder("t")
            .bytes_to_gpu(ByteSize::kib(4))
            .bytes_from_gpu(ByteSize::kib(2))
            .overlappable(true)
            .iterations(5)
            .gpu(gpu_phase())
            .build();
        assert_eq!(w.bytes_exchanged(), ByteSize::kib(6));
        assert!(w.overlappable);
        assert_eq!(w.iterations, 5);
    }

    #[test]
    #[should_panic(expected = "GPU phase")]
    fn builder_requires_gpu() {
        let _ = Workload::builder("t").build();
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn builder_rejects_zero_iterations() {
        let _ = Workload::builder("t").iterations(0);
    }

    #[test]
    fn try_build_names_the_incomplete_workload() {
        let err = Workload::builder("headless").try_build().unwrap_err();
        assert!(err.contains("'headless'"), "{err}");
        assert!(err.contains("GPU phase"), "{err}");
        assert!(Workload::builder("ok").gpu(gpu_phase()).try_build().is_ok());
    }

    #[test]
    fn ops_helper_maps_profile() {
        let v = ops(&[(CpuOpClass::FpSqrt, 10), (CpuOpClass::FpDiv, 5)]);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].count, 10);
    }

    #[test]
    fn idle_cpu_phase_is_empty() {
        let idle = CpuPhase::idle();
        assert!(idle.ops.is_empty());
        assert!(idle.shared_accesses.is_empty());
    }
}
