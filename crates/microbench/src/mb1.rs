//! **Micro-benchmark 1**: peak GPU LL-L1 cache throughput per
//! communication model.
//!
//! The benchmark elaborates a matrix computed by both agents (Section
//! III-B): the CPU performs a series of floating-point operations (square
//! roots, divisions, multiplications) against a single memory address,
//! while the GPU performs a 2D reduction multiple times through linear
//! memory accesses. Running it under SC, UM and ZC exposes, per model,
//!
//! - the CPU-routine and GPU-kernel execution times (Fig. 5), and
//! - the maximum throughput of the GPU cache path
//!   (`GPU_Cache^max_throughput`, Table I),
//!
//! which in turn bounds the speedup a cache-dependent application can gain
//! by switching from ZC back to SC (`ZC/SC_Max_speedup`).

use serde::{Deserialize, Serialize};

use icomm_models::model::{CommModel, CommModelKind};
use icomm_models::zero_copy::ZeroCopy;
use icomm_models::{model_for, CpuPhase, GpuPhase, RunReport, Workload};
use icomm_profile::ProfileReport;
use icomm_soc::cache::AccessKind;
use icomm_soc::cpu::CpuOpClass;
use icomm_soc::cpu::OpCount;
use icomm_soc::units::{ByteSize, Picos};
use icomm_soc::{DeviceProfile, Soc};
use icomm_trace::Pattern;

/// Configuration of the first micro-benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mb1Config {
    /// Matrix footprint. Defaults to half the device's GPU LLC so the
    /// cached path is LLC-resident (peak LL-L1 throughput) while still
    /// exceeding the GPU L1.
    pub footprint: Option<ByteSize>,
    /// Reduction passes over the matrix.
    pub passes: u32,
    /// Floating-point operations in the CPU routine (mix of sqrt, div,
    /// mul per the paper).
    pub cpu_fp_ops: u64,
    /// Iterations per model run.
    pub iterations: u32,
}

impl Default for Mb1Config {
    fn default() -> Self {
        Mb1Config {
            footprint: None,
            passes: 64,
            cpu_fp_ops: 60_000,
            iterations: 2,
        }
    }
}

/// Per-model measurements of the first micro-benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mb1ModelResult {
    /// Model measured.
    pub model: CommModelKind,
    /// CPU routine time per iteration.
    pub cpu_time: Picos,
    /// GPU kernel time per iteration.
    pub kernel_time: Picos,
    /// Measured LL-L1 path throughput in bytes/second.
    pub ll_throughput: f64,
}

/// Result of the first micro-benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mb1Result {
    /// Board name.
    pub device: String,
    /// Measurements under SC, UM, ZC (in that order).
    pub per_model: Vec<Mb1ModelResult>,
}

impl Mb1Result {
    /// Measurement for one model.
    ///
    /// # Panics
    ///
    /// Panics if the model was not measured (all three always are).
    pub fn model(&self, kind: CommModelKind) -> &Mb1ModelResult {
        self.per_model
            .iter()
            .find(|m| m.model == kind)
            .expect("all three models are measured")
    }

    /// Peak cached-path throughput (`GPU_Cache^max_throughput`): the SC
    /// measurement.
    pub fn max_throughput(&self) -> f64 {
        self.model(CommModelKind::StandardCopy).ll_throughput
    }

    /// `ZC/SC_Max_speedup`: how many times faster the kernel gets by
    /// switching a fully cache-dependent workload from ZC to SC.
    pub fn zc_sc_max_speedup(&self) -> f64 {
        let sc = self.model(CommModelKind::StandardCopy).kernel_time;
        let zc = self.model(CommModelKind::ZeroCopy).kernel_time;
        if sc.is_zero() {
            1.0
        } else {
            zc.as_picos() as f64 / sc.as_picos() as f64
        }
    }
}

/// The first micro-benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeakCacheThroughput {
    config: Mb1Config,
}

impl PeakCacheThroughput {
    /// Creates the benchmark with default configuration.
    pub fn new() -> Self {
        PeakCacheThroughput {
            config: Mb1Config::default(),
        }
    }

    /// Creates the benchmark with an explicit configuration.
    pub fn with_config(config: Mb1Config) -> Self {
        PeakCacheThroughput { config }
    }

    /// Builds the benchmark workload for a device.
    pub fn workload(&self, device: &DeviceProfile) -> Workload {
        let footprint = self
            .config
            .footprint
            .unwrap_or(ByteSize(device.layout.gpu_llc.size.as_u64() / 2));
        let bytes = footprint.as_u64();
        // GPU: `passes` linear reduction sweeps (ld.global + add) with one
        // compact result write per row.
        let gpu_reads = Pattern::Repeat {
            body: Box::new(Pattern::Linear {
                start: 0,
                bytes,
                txn_bytes: 64,
                kind: AccessKind::Read,
            }),
            times: self.config.passes,
        };
        let result_writes = Pattern::Linear {
            start: 0,
            bytes: bytes / 64,
            txn_bytes: 64,
            kind: AccessKind::Write,
        };
        // One fused multiply-add per 4-byte element per pass.
        let compute_work = (bytes / 4) * self.config.passes as u64;
        // CPU: tight FP loop against a single address (paper: sqrt, div,
        // mul on one location).
        let third = self.config.cpu_fp_ops / 3;
        Workload::builder(format!("mb1/{}", device.name))
            .bytes_to_gpu(footprint)
            .bytes_from_gpu(ByteSize(bytes / 64))
            .cpu(CpuPhase {
                ops: vec![
                    OpCount::new(CpuOpClass::FpSqrt, third),
                    OpCount::new(CpuOpClass::FpDiv, third),
                    OpCount::new(CpuOpClass::FpMulAdd, third),
                ],
                shared_accesses: Pattern::SingleAddress {
                    addr: 0,
                    count: self.config.cpu_fp_ops / 8,
                    txn_bytes: 4,
                    kind: AccessKind::Write,
                },
                private_accesses: None,
            })
            .gpu(GpuPhase {
                compute_work,
                shared_accesses: Pattern::Sequence(vec![gpu_reads, result_writes]),
                private_accesses: None,
            })
            .iterations(self.config.iterations)
            .build()
    }

    fn run_one(
        &self,
        device: &DeviceProfile,
        workload: &Workload,
        kind: CommModelKind,
    ) -> RunReport {
        let mut soc = Soc::new(device.clone());
        match kind {
            // ZC is measured serialized: the benchmark isolates the raw
            // path cost, it does not exploit overlap.
            CommModelKind::ZeroCopy => ZeroCopy::serialized().run(&mut soc, workload),
            other => model_for(other).run(&mut soc, workload),
        }
    }

    /// Runs the benchmark on a device.
    pub fn run(&self, device: &DeviceProfile) -> Mb1Result {
        let workload = self.workload(device);
        let per_model = CommModelKind::ALL
            .iter()
            .map(|&kind| {
                let run = self.run_one(device, &workload, kind);
                let profile = ProfileReport::from_run(&run);
                Mb1ModelResult {
                    model: kind,
                    cpu_time: run.cpu_time_per_iteration(),
                    kernel_time: run.kernel_time_per_iteration(),
                    ll_throughput: profile.gpu_ll_throughput(),
                }
            })
            .collect();
        Mb1Result {
            device: device.name.clone(),
            per_model,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx2_zc_collapses_by_tens() {
        let r = PeakCacheThroughput::new().run(&DeviceProfile::jetson_tx2());
        let ratio = r.zc_sc_max_speedup();
        // Paper: ~70x kernel slowdown (Table I: 77x throughput gap).
        assert!(ratio > 30.0, "TX2 ZC/SC kernel ratio {ratio:.1}");
    }

    #[test]
    fn xavier_zc_penalty_is_single_digit() {
        let r = PeakCacheThroughput::new().run(&DeviceProfile::jetson_agx_xavier());
        let ratio = r.zc_sc_max_speedup();
        // Paper: 3.7x kernel slowdown, 6.6x throughput gap.
        assert!(
            ratio > 1.5 && ratio < 15.0,
            "Xavier ZC/SC kernel ratio {ratio:.1}"
        );
    }

    #[test]
    fn sc_throughput_near_llc_bandwidth() {
        let device = DeviceProfile::jetson_tx2();
        let r = PeakCacheThroughput::new().run(&device);
        let measured = r.max_throughput();
        let bound = device.latencies.gpu_llc_bandwidth.as_bytes_per_sec() as f64;
        assert!(measured <= bound * 1.001);
        assert!(
            measured > bound * 0.6,
            "measured {measured:.2e} vs bound {bound:.2e}"
        );
    }

    #[test]
    fn um_close_to_sc() {
        let r = PeakCacheThroughput::new().run(&DeviceProfile::jetson_agx_xavier());
        let sc = r.model(CommModelKind::StandardCopy).ll_throughput;
        let um = r.model(CommModelKind::UnifiedMemory).ll_throughput;
        let rel = (um - sc).abs() / sc;
        assert!(rel < 0.08, "UM deviates from SC by {:.1}%", rel * 100.0);
    }

    #[test]
    fn cpu_routine_time_similar_across_sc_um() {
        let r = PeakCacheThroughput::new().run(&DeviceProfile::jetson_tx2());
        let sc = r.model(CommModelKind::StandardCopy).cpu_time.as_picos() as f64;
        let um = r.model(CommModelKind::UnifiedMemory).cpu_time.as_picos() as f64;
        assert!((um - sc).abs() / sc < 0.1);
    }

    #[test]
    fn kernel_replays_at_most_three_of_its_passes() {
        use icomm_models::layout::GPU_PARTITION_BASE;
        use icomm_soc::hierarchy::MemSpace;
        use icomm_soc::traffic::replay_counts;

        let mb1 = PeakCacheThroughput::new();
        for device in DeviceProfile::extended_boards() {
            let workload = mb1.workload(&device);
            let Pattern::Sequence(parts) = &workload.gpu.shared_accesses else {
                panic!("MB1's kernel is a sequence of sweeps and result writes");
            };
            let (sweeps, writes) = (&parts[0], &parts[1]);
            let Pattern::Repeat { body, times: 64 } = sweeps else {
                panic!("MB1 sweeps 64 times: {sweeps:?}");
            };
            for space in [MemSpace::Cached, MemSpace::Pinned] {
                let mut soc = Soc::new(device.clone());
                let before = replay_counts();
                let kernel = workload.gpu.run(&mut soc, GPU_PARTITION_BASE, space);
                let after = replay_counts();
                let simulated = after.simulated - before.simulated;
                assert_eq!(kernel.transactions, workload.gpu.shared_accesses.len());
                assert!(
                    simulated <= 3 * body.len() + writes.len(),
                    "{} {space:?}: {simulated} requests simulated, a pass is {}",
                    device.name,
                    body.len()
                );
            }
        }
    }

    #[test]
    fn tx2_zc_cpu_routine_slower() {
        // TX2 disables the CPU cache on pinned buffers, so even the
        // register-hot CPU routine pays for its single-address traffic.
        let r = PeakCacheThroughput::new().run(&DeviceProfile::jetson_tx2());
        let sc = r.model(CommModelKind::StandardCopy).cpu_time;
        let zc = r.model(CommModelKind::ZeroCopy).cpu_time;
        assert!(zc > sc, "zc {zc} should exceed sc {sc}");
    }
}
