//! Calls into the layers, split at their public-function boundaries so a
//! traced run can time each piece. With the ledger disabled every helper
//! makes the single composite call a user would make.

use std::hint::black_box;
use std::time::Instant;

use icomm_core::{
    copy_time_estimate, joint_assignment_capped, oracle_assignment_capped, recommend_for_device,
    tenant_demand, CorunTenant, JointAssignment, TuningOutcome,
};
use icomm_microbench::{
    characterize_device, DeviceCharacterization, OverlapProbe, PeakCacheThroughput, ThresholdSweep,
    UpmProbe,
};
use icomm_models::interference::{co_run_interference, co_run_oracle, InterferenceConfig};
use icomm_models::{candidate_models, CommModelKind, RunReport, Workload};
use icomm_profile::{ProfileReport, Profiler};
use icomm_soc::units::ByteSize;
use icomm_soc::DeviceProfile;

use crate::common::{Digest, Rng};
use crate::inputs::{combo_counts, footprints};
use crate::ledger::Ledger;

/// `characterize_device`, or its four micro-benchmarks plus assembly as
/// separate spans. The two must agree byte for byte (checked after the
/// traced phase).
pub fn characterize(device: &DeviceProfile, ledger: &mut Ledger) -> DeviceCharacterization {
    if !ledger.enabled() {
        return characterize_device(device);
    }
    let mb1 = ledger.time("microbench.mb1", || PeakCacheThroughput::new().run(device));
    let mb2 = ledger.time("microbench.mb2", || ThresholdSweep::new().run(device));
    let mb3 = ledger.time("microbench.mb3", || OverlapProbe::new().run(device));
    let upm = ledger.time("microbench.upm", || UpmProbe::new().run(device));
    ledger.time("microbench.assemble", || {
        DeviceCharacterization::from_results(&mb1, &mb2, &mb3, &upm)
    })
}

/// `recommend_for_device`, or its profile runs and the decision as
/// separate spans under one `core.recommend` span.
pub fn recommend(
    device: &DeviceProfile,
    characterization: &DeviceCharacterization,
    workload: &Workload,
    current: CommModelKind,
    ledger: &mut Ledger,
) -> TuningOutcome {
    if !ledger.enabled() {
        return recommend_for_device(device, characterization, workload, current);
    }
    ledger.enter("core.recommend");
    let profiler = Profiler::new(device.clone());
    let profile = profile_run(&profiler, workload, CommModelKind::StandardCopy, ledger);
    let current_profile = if current == CommModelKind::StandardCopy {
        profile.clone()
    } else {
        profile_run(&profiler, workload, current, ledger)
    };
    let copy_estimate = copy_time_estimate(device, workload);
    let recommendation = ledger.time("core.decide", || {
        icomm_core::recommend(
            &profile,
            &current_profile,
            current,
            characterization,
            copy_estimate,
        )
    });
    ledger.exit();
    TuningOutcome {
        profile,
        current_profile,
        recommendation,
    }
}

fn profile_run(
    profiler: &Profiler,
    workload: &Workload,
    model: CommModelKind,
    ledger: &mut Ledger,
) -> ProfileReport {
    let (profile, run) = ledger.time("profile.run", || profiler.profile_run(workload, model));
    let txn = transactions(&run) as f64;
    ledger.add("soc.txn", txn);
    // The profiler simulates one warm-up iteration before the measured
    // ones and resets the counters in between; the warm-up issues the
    // same transactions as a measured iteration.
    let iterations = run.iterations.max(1) as f64;
    ledger.add("soc.txn_simulated", txn * (iterations + 1.0) / iterations);
    profile
}

/// Memory transactions the agents issued in a run.
fn transactions(run: &RunReport) -> u64 {
    let c = &run.counters;
    c.cpu.mem_transactions + c.gpu.mem_transactions + c.copy_engine.mem_transactions
}

/// Span names for joint/oracle timings by tenant count.
pub fn bucket(n: usize) -> (&'static str, &'static str) {
    match n {
        0..=4 => ("core.joint_n2_4", "core.oracle_n2_4"),
        5..=6 => ("core.joint_n5_6", "core.oracle_n5_6"),
        _ => ("core.joint_n7_8", "core.oracle_n7_8"),
    }
}

/// The plan op: capped joint assignment, then the capped oracle.
pub fn plan(
    device: &DeviceProfile,
    characterization: &DeviceCharacterization,
    tenants: &[CorunTenant],
    cap: Option<ByteSize>,
    ledger: &mut Ledger,
) -> Result<(JointAssignment, Vec<CommModelKind>), String> {
    let (joint_span, oracle_span) = bucket(tenants.len());
    let started = Instant::now();
    let joint = ledger.time(joint_span, || {
        joint_assignment_capped(device, characterization, tenants, cap)
    })?;
    ledger.add(
        "core.joint_measured_ns",
        started.elapsed().as_nanos() as f64,
    );
    let oracle = ledger.time(oracle_span, || {
        oracle_assignment_capped(device, tenants, cap)
    })?;
    Ok((joint, oracle))
}

/// Combinations timed per op to price one closed-form or oracle score.
const COMBO_SAMPLE: usize = 64;

/// Re-does the pieces of one joint assignment as separate spans: every
/// solo simulation, every per-tenant recommendation, and a seeded sample
/// of combination scores under the interference model and the oracle.
/// Adds the op's predicted joint time (pieces summed, combinations
/// priced at the sampled rate) to `core.joint_model_ns`, the closure
/// check against `core.joint_measured_ns`.
pub fn decompose_plan(
    device: &DeviceProfile,
    characterization: &DeviceCharacterization,
    tenants: &[CorunTenant],
    cap: Option<ByteSize>,
    rng: &mut Rng,
    ledger: &mut Ledger,
) {
    ledger.enter("plan.decompose");
    let models = candidate_models(device);
    let started = Instant::now();
    let demands: Vec<Vec<_>> = tenants
        .iter()
        .map(|t| {
            models
                .iter()
                .map(|&m| {
                    ledger.time("core.solo_sim", || {
                        tenant_demand(device, &t.name, &t.workload, m)
                    })
                })
                .collect()
        })
        .collect();
    let solo_ns = started.elapsed().as_nanos() as f64;

    let started = Instant::now();
    for t in tenants {
        black_box(recommend(
            device,
            characterization,
            &t.workload,
            t.current,
            ledger,
        ));
    }
    let recommend_ns = started.elapsed().as_nanos() as f64;

    let fps = footprints(device, tenants);
    let (_, within) = combo_counts(&fps, cap.map(|c| c.as_u64()));
    ledger.add("core.joint_calls", 1.0);
    ledger.add("core.combos", within as f64);

    let config = InterferenceConfig::for_device(device);
    let sample: Vec<Vec<usize>> = (0..COMBO_SAMPLE)
        .map(|_| {
            (0..tenants.len())
                .map(|_| rng.below(models.len()))
                .collect()
        })
        .collect();
    let pick = |picks: &[usize]| -> Vec<_> {
        picks
            .iter()
            .enumerate()
            .map(|(i, &k)| demands[i][k].clone())
            .collect()
    };
    let started = Instant::now();
    ledger.time("models.interference_sample", || {
        for picks in &sample {
            let wall: u64 = co_run_interference(&pick(picks), &config)
                .iter()
                .map(|t| t.wall_co.as_picos())
                .sum();
            black_box(wall);
        }
    });
    let per_combo_ns = started.elapsed().as_nanos() as f64 / COMBO_SAMPLE as f64;
    ledger.add("models.interference_combos", COMBO_SAMPLE as f64);
    ledger.time("models.oracle_sample", || {
        for picks in &sample {
            let wall: u64 = co_run_oracle(&pick(picks), &config)
                .iter()
                .map(|w| w.as_picos())
                .sum();
            black_box(wall);
        }
    });
    ledger.add("models.oracle_combos", COMBO_SAMPLE as f64);

    if let Some(cap) = cap {
        // The cap binds when the per-tenant solo optima do not fit it
        // together.
        let solo_best: u64 = demands
            .iter()
            .zip(&fps)
            .map(|(d, fp)| {
                let best = (0..d.len())
                    .min_by_key(|&k| d[k].wall_solo.as_picos())
                    .unwrap_or(0);
                fp[best]
            })
            .sum();
        ledger.add("footprint.capped_ops", 1.0);
        if solo_best > cap.as_u64() {
            ledger.add("footprint.binding_ops", 1.0);
        }
    }
    ledger.add(
        "core.joint_model_ns",
        solo_ns + recommend_ns + within as f64 * per_combo_ns,
    );
    ledger.exit();
}

// ------------------------------------------------------------- digests

pub fn digest_characterization(d: &mut Digest, c: &DeviceCharacterization) {
    d.str(&c.device)
        .f64(c.gpu_cache_max_throughput)
        .f64(c.gpu_zc_throughput)
        .f64(c.gpu_um_throughput)
        .f64(c.gpu_cache_threshold_pct)
        .f64(c.gpu_cache_zone2_pct.unwrap_or(-1.0))
        .f64(c.cpu_cache_threshold_pct)
        .f64(c.sc_zc_max_speedup)
        .f64(c.zc_sc_max_speedup)
        .u64(c.upm_supported as u64)
        .f64(c.gpu_upm_throughput)
        .f64(c.upm_kernel_penalty)
        .f64(c.um_upm_max_speedup);
}

fn digest_profile(d: &mut Digest, p: &ProfileReport) {
    d.str(&p.workload)
        .str(p.model.abbrev())
        .f64(p.miss_rate_l1_cpu)
        .f64(p.miss_rate_ll_cpu)
        .f64(p.hit_rate_l1_gpu)
        .u64(p.gpu_transactions)
        .f64(p.gpu_transaction_bytes)
        .u64(p.kernel_time.as_picos())
        .u64(p.cpu_time.as_picos())
        .u64(p.copy_time.as_picos())
        .u64(p.total_time.as_picos());
}

/// Decision and simulated statistics of a tuning outcome; the free-text
/// rationale is left out so rewording it is not a behaviour change.
pub fn digest_outcome(d: &mut Digest, o: &TuningOutcome) {
    digest_profile(d, &o.profile);
    digest_profile(d, &o.current_profile);
    let r = &o.recommendation;
    d.str(r.current.abbrev())
        .str(r.recommended.abbrev())
        .str(&r.zone.to_string())
        .f64(r.cpu_usage_pct)
        .f64(r.gpu_usage_pct)
        .f64(r.cpu_threshold_pct)
        .f64(r.gpu_threshold_pct)
        .u64(r.cpu_cache_dependent as u64)
        .u64(r.gpu_cache_dependent as u64);
    match &r.estimated_speedup {
        Some(s) => d.f64(s.estimated).f64(s.raw).f64(s.max_bound),
        None => d.str("no-estimate"),
    };
}

pub fn digest_plan(d: &mut Digest, joint: &JointAssignment, oracle: &[CommModelKind]) {
    d.str(&joint.device);
    for t in &joint.tenants {
        d.str(&t.name)
            .str(t.solo_best.abbrev())
            .str(t.solo_recommended.abbrev())
            .str(t.joint.abbrev())
            .u64(t.wall_solo.as_picos())
            .u64(t.wall_co.as_picos())
            .f64(t.slowdown)
            .u64(t.footprint.as_u64());
    }
    d.u64(joint.joint_total.as_picos())
        .u64(joint.greedy_total.as_picos())
        .u64(joint.footprint.as_u64())
        .u64(joint.mem_cap.map_or(u64::MAX, |c| c.as_u64()));
    for m in oracle {
        d.str(m.abbrev());
    }
}
