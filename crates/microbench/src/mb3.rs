//! **Micro-benchmark 3**: maximum communication speedup with overlap.
//!
//! A balanced CPU+iGPU computation whose performance is fully independent
//! of the GPU cache: the kernel streams a large array with sufficiently
//! sparse single reads and writes to guarantee the maximum miss rate, and
//! the CPU half is auto-balanced to match the kernel's standalone runtime.
//! Because the data set is large (the paper uses 2²⁷ floats, 512 MB),
//! transfer time contributes significantly under SC/UM, while ZC overlaps
//! the two halves with the tiled concurrent access pattern
//! ([`icomm_models::tiling`]).
//!
//! The SC-vs-ZC ratio measured here is the *device's*
//! `SC/ZC_Max_speedup` — the most a cache-independent application can gain
//! by switching to zero copy (Fig. 7).

use serde::{Deserialize, Serialize};

use icomm_models::model::{CommModel, CommModelKind};
use icomm_models::zero_copy::ZeroCopy;
use icomm_models::{model_for, CpuPhase, GpuPhase, RunReport, Workload};
use icomm_soc::cache::AccessKind;
use icomm_soc::cpu::{CpuOpClass, OpCount};
use icomm_soc::hierarchy::MemSpace;
use icomm_soc::units::ByteSize;
use icomm_soc::{DeviceProfile, Soc};
use icomm_trace::Pattern;

/// Configuration of the overlap probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mb3Config {
    /// Array size in bytes. The paper's figure uses 2²⁷ floats (512 MB);
    /// the default is 2²⁴ bytes to keep unit tests fast — benches override
    /// it with the paper's size.
    pub array_bytes: u64,
    /// RNG seed for the sparse access pattern.
    pub seed: u64,
    /// Iterations per model run.
    pub iterations: u32,
}

impl Default for Mb3Config {
    fn default() -> Self {
        Mb3Config {
            array_bytes: 1 << 24,
            seed: 0x1c0,
            iterations: 1,
        }
    }
}

/// Result of the third micro-benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mb3Result {
    /// Board name.
    pub device: String,
    /// Array size exercised.
    pub array_bytes: u64,
    /// Full run reports per model (SC, UM, ZC overlapped).
    pub runs: Vec<RunReport>,
}

impl Mb3Result {
    /// The run for one model.
    ///
    /// # Panics
    ///
    /// Panics if the model was not measured (all three always are).
    pub fn run(&self, kind: CommModelKind) -> &RunReport {
        self.runs
            .iter()
            .find(|r| r.model == kind)
            .expect("all three models are measured")
    }

    /// `SC/ZC_Max_speedup`: total SC time over total ZC time. Values above
    /// 1 mean zero copy wins on this device for cache-independent work.
    pub fn sc_zc_max_speedup(&self) -> f64 {
        let sc = self.run(CommModelKind::StandardCopy).total_time.as_picos() as f64;
        let zc = self.run(CommModelKind::ZeroCopy).total_time.as_picos() as f64;
        if zc == 0.0 {
            1.0
        } else {
            sc / zc
        }
    }

    /// ZC advantage over a model, in the paper's percent convention
    /// (`164%` means ZC is 2.64x faster).
    pub fn zc_advantage_pct(&self, other: CommModelKind) -> f64 {
        let other_t = self.run(other).total_time.as_picos() as f64;
        let zc = self.run(CommModelKind::ZeroCopy).total_time.as_picos() as f64;
        if zc == 0.0 {
            0.0
        } else {
            (other_t / zc - 1.0) * 100.0
        }
    }
}

/// The third micro-benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapProbe {
    config: Mb3Config,
}

impl OverlapProbe {
    /// Creates the probe with default configuration.
    pub fn new() -> Self {
        OverlapProbe {
            config: Mb3Config::default(),
        }
    }

    /// Creates the probe with an explicit configuration.
    pub fn with_config(config: Mb3Config) -> Self {
        OverlapProbe { config }
    }

    /// Builds the balanced workload for a device.
    ///
    /// The GPU half sparsely reads the whole array and writes a compact
    /// result. The CPU half is sized so its standalone (cached) runtime
    /// matches the kernel's: the probe first measures the kernel alone,
    /// then measures a small CPU slice and scales it linearly.
    pub fn workload(&self, device: &DeviceProfile) -> Workload {
        let bytes = self.config.array_bytes;
        let txn: u32 = 64;
        let gpu_reads = Pattern::SparseUniform {
            start: 0,
            region_bytes: bytes,
            count: bytes / txn as u64,
            txn_bytes: txn,
            seed: self.config.seed,
            kind: AccessKind::Read,
        };
        let gpu_writes = Pattern::Linear {
            start: 0,
            bytes: bytes / 64,
            txn_bytes: txn,
            kind: AccessKind::Write,
        };
        let gpu = GpuPhase {
            compute_work: bytes / 4,
            shared_accesses: Pattern::Sequence(vec![gpu_reads, gpu_writes]),
            private_accesses: None,
        };

        // Standalone kernel time on the *pinned* path: the benchmark is
        // built to measure overlapped zero-copy execution, so the halves
        // are balanced in that configuration (the paper overlaps them
        // "perfectly", which requires comparable runtimes under ZC).
        let mut probe_soc = Soc::new(device.clone());
        let kernel_probe = gpu.run(&mut probe_soc, 0, MemSpace::Pinned);

        // CPU probe: cost of producing one slice (linear writes + flops).
        let slice = (bytes / 64).max(4096);
        let cpu_probe_pattern = Pattern::LinearRmw {
            start: 0,
            bytes: slice,
            txn_bytes: txn,
        };
        let flops_per_byte = 2;
        let mut cpu_soc = Soc::new(device.clone());
        let cpu_probe = cpu_soc.run_cpu_task_with(
            &[OpCount::new(CpuOpClass::FpMulAdd, slice * flops_per_byte)],
            |port| cpu_probe_pattern.play(0, MemSpace::Cached, port),
        );

        // Scale the CPU slice so cpu_time ~= kernel_time.
        let scale = kernel_probe.time.as_picos() as f64 / cpu_probe.time.as_picos().max(1) as f64;
        let cpu_bytes =
            ((slice as f64 * scale) as u64).clamp(4096, bytes) / txn as u64 * txn as u64;

        Workload::builder(format!("mb3/{}", device.name))
            .bytes_to_gpu(ByteSize(bytes))
            .bytes_from_gpu(ByteSize(bytes / 64))
            .cpu(CpuPhase {
                ops: vec![OpCount::new(
                    CpuOpClass::FpMulAdd,
                    cpu_bytes * flops_per_byte,
                )],
                shared_accesses: Pattern::LinearRmw {
                    start: 0,
                    bytes: cpu_bytes,
                    txn_bytes: txn,
                },
                private_accesses: None,
            })
            .gpu(gpu)
            .overlappable(true)
            .iterations(self.config.iterations)
            .build()
    }

    /// Runs SC, UM and overlapped ZC on a device.
    pub fn run(&self, device: &DeviceProfile) -> Mb3Result {
        let workload = self.workload(device);
        let runs = CommModelKind::ALL
            .iter()
            .map(|&kind| {
                let mut soc = Soc::new(device.clone());
                match kind {
                    CommModelKind::ZeroCopy => ZeroCopy::new().run(&mut soc, &workload),
                    other => model_for(other).run(&mut soc, &workload),
                }
            })
            .collect();
        Mb3Result {
            device: device.name.clone(),
            array_bytes: self.config.array_bytes,
            runs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_roughly_balanced_on_xavier() {
        // Balance is defined in the overlapped zero-copy configuration; on
        // Xavier the CPU keeps its caches on pinned data, so its ZC time
        // should be comparable to the ZC kernel time.
        let device = DeviceProfile::jetson_agx_xavier();
        let w = OverlapProbe::new().workload(&device);
        let zc = icomm_models::run_model(CommModelKind::ZeroCopy, &device, &w);
        let ratio = zc.cpu_time.as_picos() as f64 / zc.kernel_time.as_picos() as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "cpu/gpu balance ratio {ratio:.2}"
        );
    }

    #[test]
    fn xavier_zc_beats_sc_and_um() {
        // Transfer times only dominate at the paper's large-array scale
        // (Fig. 7 uses 2^27 floats); 64 MiB is already deep enough in that
        // regime to show a solid win.
        let probe = OverlapProbe::with_config(Mb3Config {
            array_bytes: 1 << 26,
            ..Mb3Config::default()
        });
        let r = probe.run(&DeviceProfile::jetson_agx_xavier());
        assert!(
            r.sc_zc_max_speedup() > 1.3,
            "SC/ZC speedup {:.2}",
            r.sc_zc_max_speedup()
        );
        assert!(r.zc_advantage_pct(CommModelKind::UnifiedMemory) > 30.0);
    }

    #[test]
    fn tx2_zc_loses_on_cache_independent_streams() {
        // The TX2 pinned path is so slow that even copy elimination plus
        // overlap cannot pay for it.
        let r = OverlapProbe::new().run(&DeviceProfile::jetson_tx2());
        assert!(
            r.sc_zc_max_speedup() < 1.0,
            "SC/ZC speedup {:.2} should be < 1 on TX2",
            r.sc_zc_max_speedup()
        );
    }

    #[test]
    fn zc_saves_energy_by_eliminating_copies() {
        let r = OverlapProbe::new().run(&DeviceProfile::jetson_agx_xavier());
        let sc = r.run(CommModelKind::StandardCopy);
        let zc = r.run(CommModelKind::ZeroCopy);
        assert!(
            zc.counters.dram.bytes_total() < sc.counters.dram.bytes_total(),
            "ZC must move fewer DRAM bytes"
        );
    }

    #[test]
    fn overlap_is_actually_exploited() {
        let r = OverlapProbe::new().run(&DeviceProfile::jetson_agx_xavier());
        let zc = r.run(CommModelKind::ZeroCopy);
        assert!(zc.overlap_saved > icomm_soc::units::Picos::ZERO);
    }
}
