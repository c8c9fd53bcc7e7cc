//! Deterministic virtual-time fleet simulation.
//!
//! The simulator runs the *real* characterization pipeline — the actual
//! registry, the actual transfer interpolation, the actual quick
//! micro-benchmark sweeps — under a discrete-event queueing model with
//! virtual time. Arrival timestamps, admission decisions, queue depths,
//! and latencies are all functions of the seed and the configuration,
//! never of the host's wall clock, so the resulting [`FleetReport`]
//! serializes byte-identically across replays. Wall-clock numbers exist
//! too (the optional live-fire TCP stage) but are confined to
//! [`LivefireStats`](crate::report::LivefireStats).
//!
//! Per-request virtual service cost is classified by how the lookup was
//! satisfied: a registry cache hit costs microseconds, a federated
//! transfer costs the interpolation, and a full characterization costs
//! the micro-benchmark sweep — the three-orders-of-magnitude spread that
//! makes warm-start rate the number that decides fleet p99.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use icomm_chaos::{ChaosRng, FaultPlan};
use icomm_core::recommend_for_device;
use icomm_microbench::{
    fingerprint_features, quick_characterize_device, DeviceCharacterization, TransferPolicy,
};
use icomm_models::run_model;
use icomm_sched::{run_sched_with, PolicyKind, SchedConfig, SchedReport};
use icomm_serve::catalog;
use icomm_serve::registry::{EntryMeta, MissResolution};
use icomm_serve::{AdmissionConfig, AdmissionController, AdmissionDecision, Registry, ShedReason};
use icomm_soc::units::ByteSize;
use icomm_soc::DeviceProfile;
use icomm_synth::RuleSet;

use crate::arrival::ArrivalConfig;
use crate::population::{synthesize_population, BoardMix, PopulationConfig};
use crate::report::{FleetReport, FleetRunOutput};

/// Virtual service cost of a registry cache hit (decision flow only).
const COST_HIT_US: u64 = 180;
/// Virtual service cost of a federated transfer (neighbor search +
/// interpolation + decision flow).
const COST_TRANSFER_US: u64 = 600;
/// Virtual service cost of a rules-first warm start (first-match rule
/// evaluation over the transferred rule set — cheaper than a k-NN
/// interpolation, pricier than an exact cache hit).
const COST_RULES_US: u64 = 240;
/// Virtual service cost of a full quick micro-benchmark sweep.
const COST_FULL_US: u64 = 24_000;

/// Full fleet-run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Comma-separated board mix (`"nano,tx2,xavier"`).
    pub boards: String,
    /// Population size (one request per device).
    pub devices: usize,
    /// Arrival-process knobs.
    pub arrival: ArrivalConfig,
    /// Population-shape knobs.
    pub population: PopulationConfig,
    /// Seed for population, schedule, and class draws.
    pub seed: u64,
    /// Virtual service workers (concurrent characterizations).
    pub workers: usize,
    /// Admission-control policy applied in the simulation.
    pub admission: AdmissionConfig,
    /// Federated-transfer policy.
    pub transfer: TransferPolicy,
    /// Latency SLO the attainment is measured against, microseconds.
    pub slo_us: u64,
    /// Transferred devices to spot-check against a full
    /// characterization for the regret metric.
    pub regret_samples: usize,
    /// Whether to run the live-fire TCP stage after the simulation.
    pub livefire: bool,
    /// Wire the live-fire stage speaks to its `icomm-net` listener:
    /// line JSON or `icommwire v1` frames.
    pub livefire_wire: icomm_net::WireMode,
    /// Tenants co-hosted per served device. `1` (the default) keeps the
    /// fleet single-tenant; `2`–`4` turn on the multi-tenant stage: every
    /// served device schedules the co-run mix of that size under the
    /// characterization the registry resolved for it (cache hit,
    /// federated transfer, or full sweep — the same object, so a bad
    /// transfer shows up as co-run deadline misses too).
    pub tenants_per_device: usize,
    /// Named co-run mix for the multi-tenant stage, or `"auto"` to pick
    /// by `tenants_per_device` (2 → `duo`, 3 → `contended`, 4 → `quad`).
    pub tenant_mix: String,
    /// Explicit per-device memory cap the multi-tenant stage admits
    /// under (`None` = each board's stock DRAM budget, which the
    /// paper-scale mixes never approach). Only meaningful when
    /// `tenants_per_device > 1`.
    pub mem_cap: Option<ByteSize>,
    /// Synthesized rule set shipped to the fleet ahead of time
    /// (`icomm-synth`). When present, a registry miss on a board whose
    /// every named mix the rule set verified is answered **rules-first**
    /// — the transferred characterization plus rule-backed provenance —
    /// before k-NN transfer or a full sweep is even attempted. `None`
    /// (the default) leaves the pipeline exactly as before.
    pub rules: Option<Arc<RuleSet>>,
    /// Fleet-scale fault plan: `churn_prob` evicts a device's registry
    /// state before its lookup (crash-and-rejoin), `poison_prob` makes a
    /// served device upload an adversarial characterization under a
    /// near-identical identity, and `shard_panics` injects panics into
    /// the live-fire binary serving plane.
    pub faults: FaultPlan,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            boards: "nano,tx2,xavier".to_string(),
            devices: 256,
            arrival: ArrivalConfig::default(),
            population: PopulationConfig::default(),
            seed: 7,
            workers: 4,
            admission: AdmissionConfig {
                rate_per_sec: 2_000.0,
                burst: 64.0,
                queue_bound: 64,
                bulk_queue_fraction: 0.5,
            },
            transfer: TransferPolicy::default(),
            slo_us: 50_000,
            regret_samples: 16,
            livefire: true,
            livefire_wire: icomm_net::WireMode::Json,
            tenants_per_device: 1,
            tenant_mix: "auto".to_string(),
            mem_cap: None,
            rules: None,
            faults: FaultPlan::none(),
        }
    }
}

/// Salt decorrelating the fault-injection draws from the population and
/// arrival draws, so turning faults on never reshuffles who arrives
/// when.
const FAULT_STREAM_SALT: u64 = 0xFA17_5EED_0B5E_55ED;

/// Builds the adversarial characterization a compromised device uploads.
/// Even-numbered poison events violate board physics outright (caught by
/// the plausibility screen and quarantined at the source); odd-numbered
/// ones lie an order of magnitude while staying inside physical bounds
/// (caught by the consensus screen once an honest majority exists).
fn poison_characterization(name: &str, event: u64) -> DeviceCharacterization {
    let implausible = event.is_multiple_of(2);
    DeviceCharacterization {
        device: name.to_string(),
        gpu_cache_max_throughput: if implausible { -5.0e9 } else { 9.0e12 },
        gpu_zc_throughput: 9.0e12,
        gpu_um_throughput: 9.0e12,
        gpu_cache_threshold_pct: 99.0,
        gpu_cache_zone2_pct: Some(99.5),
        cpu_cache_threshold_pct: 99.0,
        sc_zc_max_speedup: 900.0,
        zc_sc_max_speedup: 900.0,
        upm_supported: false,
        gpu_upm_throughput: 0.0,
        upm_kernel_penalty: 1.0,
        um_upm_max_speedup: 1.0,
    }
}

/// Resolves the co-run mix name for the configured tenant count, or
/// `None` when the fleet stays single-tenant.
fn corun_mix(config: &FleetConfig) -> Result<Option<String>, String> {
    match config.tenants_per_device {
        0 => Err("tenants_per_device must be at least 1".to_string()),
        1 => Ok(None),
        n @ 2..=4 => Ok(Some(if config.tenant_mix == "auto" {
            match n {
                2 => "duo",
                3 => "contended",
                _ => "quad",
            }
            .to_string()
        } else {
            config.tenant_mix.clone()
        })),
        n => Err(format!(
            "tenants_per_device must be between 1 and 4, got {n}"
        )),
    }
}

/// How one simulated lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LookupClass {
    Hit,
    Rules,
    Transfer,
    FullFresh,
    FullFallback,
}

/// Exact quantile from a sorted latency vector (nearest-rank).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Positive-part relative regret of running `chosen` instead of `best`,
/// in percent of `best`'s ground-truth runtime.
fn decision_regret_pct(
    device: &DeviceProfile,
    app: &str,
    chosen: icomm_models::CommModelKind,
    best: icomm_models::CommModelKind,
) -> Result<f64, String> {
    if chosen == best {
        return Ok(0.0);
    }
    let workload = catalog::workload_by_name(app)?;
    let t_chosen = run_model(chosen, device, &workload).total_time.as_picos() as f64;
    let t_best = run_model(best, device, &workload).total_time.as_picos() as f64;
    if t_best <= 0.0 {
        return Ok(0.0);
    }
    Ok(((t_chosen - t_best) / t_best * 100.0).max(0.0))
}

/// Runs the deterministic simulation (and, when configured, the
/// live-fire stage) and assembles the [`FleetRunOutput`].
///
/// # Errors
///
/// Returns a message on an unknown board in the mix, a zero-device
/// population, or a live-fire stage that cannot bind its socket.
pub fn run_fleet(config: &FleetConfig) -> Result<FleetRunOutput, String> {
    if config.devices == 0 {
        return Err("fleet population must have at least one device".to_string());
    }
    config.faults.validate()?;
    if config.faults.shard_panics > 0 {
        if !config.livefire {
            return Err(
                "shard_panics requires the live-fire stage (set livefire=true)".to_string(),
            );
        }
        if config.livefire_wire != icomm_net::WireMode::Binary {
            return Err("shard_panics requires the binary wire (--wire binary): \
                 the line-JSON client does not retry the requests a panic drops"
                .to_string());
        }
    }
    let mix = BoardMix::parse(&config.boards)?;
    let mut rng = ChaosRng::new(config.seed);
    // Separate stream for fault draws: a fault-free plan consumes no
    // draws from it, and enabling faults never perturbs the population
    // or arrival schedule.
    let mut fault_rng = ChaosRng::new(config.seed ^ FAULT_STREAM_SALT);
    let population = synthesize_population(&mix, config.devices, &config.population, &mut rng);
    let arrivals = crate::arrival::generate_arrivals(config.devices, &config.arrival, &mut rng);

    let registry = Registry::default();
    let controller = AdmissionController::new(config.admission.clone());
    let workers = config.workers.max(1);
    let mut worker_free_us = vec![0u64; workers];
    let mut in_system: BinaryHeap<Reverse<u64>> = BinaryHeap::new();

    let mut served = 0u64;
    let mut shed_queue = 0u64;
    let mut shed_rate = 0u64;
    let mut churn_events = 0u64;
    let mut poisoned_sources = 0u64;
    let mut cache_hits = 0u64;
    let mut transfer_hits = 0u64;
    let mut rules_hits = 0u64;
    let mut transfer_fallbacks = 0u64;
    let mut full_runs = 0u64;
    let mut latencies: Vec<u64> = Vec::with_capacity(arrivals.len());
    let mut within_slo = 0u64;
    let mut max_finish_us = 0u64;
    // Transferred devices, with the app each one asked for — the regret
    // spot-check pool.
    let mut transferred: Vec<(usize, &'static str)> = Vec::new();

    // Multi-tenant stage: a co-run schedule per served device, memoized
    // per (board, cluster). Co-run behaviour is a cluster property (the
    // cluster shares DVFS caps and memory timings), so the first
    // registry-resolved characterization in a cluster prices the whole
    // cluster; per-unit clock drift stays a single-tenant concern.
    let tenant_mix_name = corun_mix(config)?;
    let mut sched_memo: HashMap<(String, usize), SchedReport> = HashMap::new();
    let mut corun_tenants = 0u64;
    let mut corun_jobs = 0u64;
    let mut corun_missed = 0u64;
    let mut corun_slo_ok = 0u64;
    let mut corun_slowdown_sum = 0.0f64;
    let mut corun_flips = 0u64;
    let mut corun_demotions = 0u64;
    let mut corun_evictions = 0u64;
    let mut corun_spilled_bytes = 0u64;
    let mut corun_footprint_peak = 0u64;

    for arrival in &arrivals {
        let now = arrival.at_us;
        while matches!(in_system.peek(), Some(Reverse(finish)) if *finish <= now) {
            in_system.pop();
        }
        match controller.admit(arrival.class, in_system.len(), now) {
            AdmissionDecision::Shed(ShedReason::Queue) => {
                shed_queue += 1;
                continue;
            }
            AdmissionDecision::Shed(ShedReason::Rate) => {
                shed_rate += 1;
                continue;
            }
            AdmissionDecision::Admit => {}
        }

        let device = &population[arrival.device_index];
        // Device churn: the device crashed, lost local state, and
        // re-joins the fleet as a stranger — its registry entry (and any
        // quarantine verdict against it) evaporates before the lookup.
        if fault_rng.chance(config.faults.churn_prob) && registry.remove(&device.profile) {
            churn_events += 1;
        }
        let class_flag = Cell::new(LookupClass::Hit);
        let (characterization, lookup) =
            registry.get_or_characterize_with(&device.profile, |profile| {
                // Rules-first: a shipped rule set that verified every
                // named mix on this board answers the miss outright —
                // no neighbor search, no sweep. Confidence stays below
                // measured so the entry never seeds k-NN transfers.
                if let Some(rules) = &config.rules {
                    if let Some((chr, confidence)) = rules.warm_start(&device.board) {
                        class_flag.set(LookupClass::Rules);
                        let features = fingerprint_features(profile);
                        return (chr.clone(), Some(EntryMeta::rules(features, confidence)));
                    }
                }
                let miss = registry.transfer_or_measure(
                    profile,
                    &config.transfer,
                    quick_characterize_device,
                );
                class_flag.set(match miss.resolution {
                    MissResolution::Transferred => LookupClass::Transfer,
                    MissResolution::Measured {
                        had_neighbors: true,
                    } => LookupClass::FullFallback,
                    MissResolution::Measured {
                        had_neighbors: false,
                    } => LookupClass::FullFresh,
                });
                (miss.characterization, Some(miss.meta))
            });
        let class = if lookup.served_from_cache() {
            LookupClass::Hit
        } else {
            class_flag.get()
        };
        let cost = match class {
            LookupClass::Hit => {
                cache_hits += 1;
                COST_HIT_US
            }
            LookupClass::Rules => {
                rules_hits += 1;
                // Rules-served devices join the regret spot-check pool:
                // a bad rule set must show up as decision regret, not
                // hide behind the warm-start number.
                transferred.push((arrival.device_index, arrival.app));
                COST_RULES_US
            }
            LookupClass::Transfer => {
                transfer_hits += 1;
                transferred.push((arrival.device_index, arrival.app));
                COST_TRANSFER_US
            }
            LookupClass::FullFallback => {
                transfer_fallbacks += 1;
                full_runs += 1;
                COST_FULL_US
            }
            LookupClass::FullFresh => {
                full_runs += 1;
                COST_FULL_US
            }
        };

        // Characterization poisoning: with probability `poison_prob` the
        // served device is compromised and uploads an adversarial
        // characterization under a near-identical (Sybil) identity — a
        // fresh key sitting well inside the transfer horizon of its
        // cluster, marked measured so it enters neighbor aggregation.
        if fault_rng.chance(config.faults.poison_prob) {
            let scale = 1.0015 + 0.0005 * (poisoned_sources % 4) as f64;
            let sybil = device.profile.with_power_scale(scale, scale, scale);
            let features = fingerprint_features(&sybil);
            registry.insert_with_meta(
                &sybil,
                poison_characterization(&sybil.name, poisoned_sources),
                EntryMeta::measured(features),
            );
            poisoned_sources += 1;
        }

        if let Some(mix_name) = &tenant_mix_name {
            let key = (device.board.clone(), device.cluster);
            if !sched_memo.contains_key(&key) {
                let mut sched = SchedConfig::new(device.profile.clone());
                sched.mix = mix_name.clone();
                sched.policy = PolicyKind::DeadlineBudget;
                // Decorrelate release phases across clusters while
                // keeping the whole stage a function of the fleet seed.
                sched.seed = config.seed ^ ((device.cluster as u64) << 8);
                sched.jobs_per_tenant = 4;
                sched.mem_cap = config.mem_cap;
                let out = run_sched_with(&sched, &characterization)?;
                sched_memo.insert(key.clone(), out.report);
            }
            let corun = &sched_memo[&key];
            corun_tenants += corun.tenants.len() as u64;
            if corun.any_flip {
                corun_flips += 1;
            }
            corun_demotions += u64::from(corun.demotions);
            corun_evictions += u64::from(corun.evictions);
            corun_spilled_bytes += corun.spilled_bytes;
            corun_footprint_peak = corun_footprint_peak.max(corun.footprint_bytes);
            for tenant in &corun.tenants {
                corun_jobs += u64::from(tenant.jobs);
                corun_missed += u64::from(tenant.missed);
                if tenant.missed == 0 {
                    corun_slo_ok += 1;
                }
                corun_slowdown_sum += tenant.mean_slowdown * f64::from(tenant.jobs);
            }
        }

        // Assign to the earliest-free virtual worker.
        let (slot, free_at) = worker_free_us
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(i, free)| (*free, *i))
            .unwrap_or((0, 0));
        let start = now.max(free_at);
        let finish = start + cost;
        worker_free_us[slot] = finish;
        in_system.push(Reverse(finish));
        max_finish_us = max_finish_us.max(finish);

        let latency = finish - now;
        if latency <= config.slo_us {
            within_slo += 1;
        }
        latencies.push(latency);
        served += 1;
    }

    latencies.sort_unstable();
    let latency_mean_us = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };

    // Spot-check transferred characterizations against full sweeps:
    // stride-sample so the checks spread across boards and clusters.
    let mut regret_samples = 0u64;
    let mut regret_disagreements = 0u64;
    let mut regret_sum_pct = 0.0f64;
    let mut regret_max_pct = 0.0f64;
    if !transferred.is_empty() && config.regret_samples > 0 {
        let stride = (transferred.len() / config.regret_samples.min(transferred.len())).max(1);
        for (device_index, app) in transferred.iter().step_by(stride) {
            let device = &population[*device_index];
            let transferred_chr: std::sync::Arc<DeviceCharacterization> = registry
                .get(&device.profile)
                .ok_or_else(|| format!("transferred entry for device {device_index} vanished"))?;
            let full_chr = quick_characterize_device(&device.profile);
            let workload = catalog::workload_by_name(app)?;
            let current = icomm_models::CommModelKind::StandardCopy;
            let chosen =
                recommend_for_device(&device.profile, &transferred_chr, &workload, current)
                    .recommendation
                    .recommended;
            let best = recommend_for_device(&device.profile, &full_chr, &workload, current)
                .recommendation
                .recommended;
            let regret = decision_regret_pct(&device.profile, app, chosen, best)?;
            if chosen != best {
                regret_disagreements += 1;
            }
            regret_sum_pct += regret;
            regret_max_pct = regret_max_pct.max(regret);
            regret_samples += 1;
        }
    }
    let mean_regret_pct = if regret_samples == 0 {
        0.0
    } else {
        regret_sum_pct / regret_samples as f64
    };

    let lookups = cache_hits
        + transfer_hits
        + rules_hits
        + transfer_fallbacks
        + (full_runs - transfer_fallbacks);
    let warm_start_pct = if lookups == 0 {
        0.0
    } else {
        (cache_hits + transfer_hits + rules_hits) as f64 / lookups as f64 * 100.0
    };
    let transfer_attempts = transfer_hits + transfer_fallbacks;
    let transfer_hit_pct = if transfer_attempts == 0 {
        0.0
    } else {
        transfer_hits as f64 / transfer_attempts as f64 * 100.0
    };
    let throughput_rps = if max_finish_us == 0 {
        0.0
    } else {
        served as f64 / (max_finish_us as f64 / 1e6)
    };
    let slo_attainment_pct = if served == 0 {
        0.0
    } else {
        within_slo as f64 / served as f64 * 100.0
    };
    let corun_deadline_miss_pct = if corun_jobs == 0 {
        0.0
    } else {
        corun_missed as f64 / corun_jobs as f64 * 100.0
    };
    let corun_slo_attainment_pct = if corun_tenants == 0 {
        0.0
    } else {
        corun_slo_ok as f64 / corun_tenants as f64 * 100.0
    };
    let corun_mean_slowdown = if corun_jobs == 0 {
        0.0
    } else {
        corun_slowdown_sum / corun_jobs as f64
    };

    let (livefire_counts, livefire_stats, livefire_shard_restarts) = if config.livefire {
        let outcome = crate::livefire::run_livefire(
            config.devices.min(192),
            4,
            config.livefire_wire,
            config.faults.shard_panics,
        )?;
        (
            (outcome.sent, outcome.ok, outcome.failed),
            Some(outcome.stats),
            outcome.shard_restarts,
        )
    } else {
        ((0, 0, 0), None, 0)
    };

    let report = FleetReport {
        boards: mix.names().join(","),
        devices: config.devices as u64,
        arrival: config.arrival.process.as_str().to_string(),
        rate_per_sec: config.arrival.rate_per_sec,
        seed: config.seed,
        requests: arrivals.len() as u64,
        served,
        shed_queue,
        shed_rate,
        cache_hits,
        transfer_hits,
        transfer_fallbacks,
        rules_hits,
        full_characterizations: full_runs,
        warm_start_pct,
        transfer_hit_pct,
        latency_p50_us: quantile(&latencies, 0.50),
        latency_p95_us: quantile(&latencies, 0.95),
        latency_p99_us: quantile(&latencies, 0.99),
        latency_mean_us,
        throughput_rps,
        slo_us: config.slo_us,
        slo_attainment_pct,
        regret_samples,
        regret_disagreements,
        mean_regret_pct,
        max_regret_pct: regret_max_pct,
        tenants_per_device: config.tenants_per_device as u64,
        corun_tenants,
        corun_deadline_miss_pct,
        corun_slo_attainment_pct,
        corun_mean_slowdown,
        corun_flips,
        mem_cap_bytes: config.mem_cap.map_or(0, |c| c.as_u64()),
        corun_demotions,
        corun_evictions,
        corun_spilled_bytes,
        corun_footprint_peak_bytes: corun_footprint_peak,
        churn_events,
        poisoned_sources,
        quarantined_sources: registry.quarantined_sources().len() as u64,
        livefire_sent: livefire_counts.0,
        livefire_ok: livefire_counts.1,
        livefire_failed: livefire_counts.2,
        livefire_shard_restarts,
    };
    Ok(FleetRunOutput {
        report,
        livefire: livefire_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FleetConfig {
        FleetConfig {
            devices: 96,
            livefire: false,
            regret_samples: 4,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn simulation_replays_byte_identically() {
        let run = || {
            let out = run_fleet(&small_config()).unwrap();
            icomm_persist::to_string(&out.report).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warm_start_clears_ninety_percent_on_clustered_population() {
        let out = run_fleet(&small_config()).unwrap();
        let r = out.report;
        assert_eq!(r.requests, 96);
        assert_eq!(r.served + r.shed_queue + r.shed_rate, r.requests);
        assert!(
            r.warm_start_pct >= 90.0,
            "warm start {:.1}% (hits {}, transfers {}, full {})",
            r.warm_start_pct,
            r.cache_hits,
            r.transfer_hits,
            r.full_characterizations
        );
        assert!(r.latency_p50_us <= r.latency_p95_us);
        assert!(r.latency_p95_us <= r.latency_p99_us);
        assert!(r.latency_p99_us > 0);
        assert!(
            r.mean_regret_pct <= 10.0,
            "regret {:.2}%",
            r.mean_regret_pct
        );
    }

    #[test]
    fn a_shipped_ruleset_answers_misses_rules_first() {
        let synth_config = icomm_synth::SynthConfig {
            boards: vec!["nano".to_string(), "tx2".to_string(), "xavier".to_string()],
            mixes: icomm_apps::MIX_NAMES
                .iter()
                .map(|m| m.to_string())
                .collect(),
            capped_pressure: false,
            ..icomm_synth::SynthConfig::default()
        };
        let ruleset = icomm_synth::synthesize(&synth_config)
            .expect("synthesis runs")
            .ruleset;
        for board in ["nano", "tx2", "xavier"] {
            assert!(
                ruleset.warm_start(board).is_some(),
                "{board} must be fully verified for rules-first warm start"
            );
        }
        let config = FleetConfig {
            rules: Some(Arc::new(ruleset)),
            ..small_config()
        };
        let out = run_fleet(&config).expect("rules-first fleet runs");
        let r = out.report;
        assert!(r.rules_hits > 0, "misses must be answered from rules");
        assert_eq!(
            r.full_characterizations, 0,
            "no device may pay a full sweep when rules cover every board"
        );
        assert_eq!(r.transfer_hits, 0, "rules pre-empt k-NN transfer");
        assert!(r.warm_start_pct >= 90.0, "warm {:.1}%", r.warm_start_pct);
        assert!(
            r.mean_regret_pct <= 10.0,
            "regret {:.2}%",
            r.mean_regret_pct
        );
        // Rules-served fleets replay byte-identically like every mode.
        let replay = run_fleet(&config).expect("replay runs").report;
        assert_eq!(
            icomm_persist::to_string(&r).unwrap(),
            icomm_persist::to_string(&replay).unwrap()
        );
    }

    #[test]
    fn burst_arrivals_trip_admission_control() {
        let config = FleetConfig {
            devices: 192,
            arrival: ArrivalConfig {
                process: crate::arrival::ArrivalProcess::Burst,
                rate_per_sec: 4_000.0,
                bulk_fraction: 0.3,
            },
            admission: AdmissionConfig {
                rate_per_sec: 500.0,
                burst: 16.0,
                queue_bound: 8,
                bulk_queue_fraction: 0.25,
            },
            livefire: false,
            regret_samples: 0,
            ..FleetConfig::default()
        };
        let out = run_fleet(&config).unwrap();
        let r = out.report;
        assert!(
            r.shed_queue + r.shed_rate > 0,
            "overdriven burst load must shed"
        );
        assert_eq!(r.served + r.shed_queue + r.shed_rate, r.requests);
    }

    #[test]
    fn multi_tenant_mode_schedules_every_served_device() {
        let config = FleetConfig {
            devices: 36,
            tenants_per_device: 2,
            ..small_config()
        };
        let out = run_fleet(&config).expect("multi-tenant fleet runs");
        let r = out.report;
        assert_eq!(r.tenants_per_device, 2);
        // Every served device hosts exactly the duo mix's two tenants.
        assert_eq!(r.corun_tenants, r.served * 2);
        assert!(r.corun_slo_attainment_pct > 0.0);
        assert!(r.corun_mean_slowdown >= 1.0);
        // The single-tenant pipeline metrics are untouched by the stage.
        let solo = run_fleet(&FleetConfig {
            devices: 36,
            ..small_config()
        })
        .expect("single-tenant fleet runs");
        assert_eq!(r.served, solo.report.served);
        assert_eq!(r.warm_start_pct, solo.report.warm_start_pct);
        assert_eq!(solo.report.corun_tenants, 0);
    }

    #[test]
    fn a_fleet_wide_memory_cap_is_accounted_per_device() {
        let capped_config = FleetConfig {
            devices: 36,
            tenants_per_device: 3,
            tenant_mix: "pressure".to_string(),
            mem_cap: Some(ByteSize(6 << 20)),
            ..small_config()
        };
        let capped = run_fleet(&capped_config).expect("capped fleet runs").report;
        assert_eq!(capped.mem_cap_bytes, 6 << 20);
        // The HD mix does not fit 6 MiB under double-buffered optima, so
        // every served device's schedule demotes at least one tenant.
        assert!(capped.corun_demotions >= capped.served, "{capped:?}");
        assert_eq!(capped.corun_evictions, 0);
        assert_eq!(capped.corun_spilled_bytes, 0);
        assert!(capped.corun_footprint_peak_bytes > 0);
        assert!(capped.corun_footprint_peak_bytes <= 6 << 20);

        // Same fleet uncapped: stock budgets never bind, nothing demotes,
        // and the single-tenant pipeline metrics are untouched.
        let open = run_fleet(&FleetConfig {
            mem_cap: None,
            ..capped_config.clone()
        })
        .expect("uncapped fleet runs")
        .report;
        assert_eq!(open.mem_cap_bytes, 0);
        assert_eq!(open.corun_demotions, 0);
        assert!(open.corun_footprint_peak_bytes > capped.corun_footprint_peak_bytes);
        assert_eq!(open.served, capped.served);
        assert_eq!(open.warm_start_pct, capped.warm_start_pct);

        // Capped runs replay byte-identically like every other mode.
        let replay = run_fleet(&capped_config)
            .expect("capped replay runs")
            .report;
        assert_eq!(
            icomm_persist::to_string(&capped).unwrap(),
            icomm_persist::to_string(&replay).unwrap()
        );
    }

    #[test]
    fn bad_tenant_counts_are_rejected() {
        for tenants in [0, 5] {
            let config = FleetConfig {
                tenants_per_device: tenants,
                ..small_config()
            };
            let err = run_fleet(&config).expect_err("tenant count out of range");
            assert!(err.contains("tenants_per_device"), "error: {err}");
        }
    }

    #[test]
    fn faulted_simulation_replays_byte_identically() {
        let config = FleetConfig {
            faults: FaultPlan {
                churn_prob: 0.2,
                poison_prob: 0.25,
                ..FaultPlan::none()
            },
            ..small_config()
        };
        let run = || {
            let out = run_fleet(&config).unwrap();
            icomm_persist::to_string(&out.report).unwrap()
        };
        let first = run();
        assert_eq!(first, run());
        let report: FleetReport = icomm_persist::from_str(&first).unwrap();
        assert!(report.churn_events > 0, "churn draws must fire at 20%");
        assert!(report.poisoned_sources > 0, "poison draws must fire at 25%");
        assert!(
            report.quarantined_sources > 0,
            "implausible poisons must be caught and attributed"
        );
    }

    #[test]
    fn poisoned_fleet_holds_decisions_and_quarantines_sources() {
        let baseline = run_fleet(&small_config()).unwrap().report;
        let poisoned = run_fleet(&FleetConfig {
            faults: FaultPlan {
                poison_prob: 0.25,
                ..FaultPlan::none()
            },
            ..small_config()
        })
        .unwrap()
        .report;
        assert!(poisoned.poisoned_sources > 0);
        assert!(poisoned.quarantined_sources > 0);
        // Each plausible poison costs at most one fail-safe decline into
        // measurement before the neighborhood majority quarantines it;
        // at 96 devices that overhead is proportionally heavy (it
        // amortizes to a few points at fleet scale), so the bound here
        // is looser than the fleet gate.
        assert!(
            poisoned.warm_start_pct >= 75.0,
            "warm start {:.1}% under poisoning",
            poisoned.warm_start_pct
        );
        // The robust aggregation keeps transferred decisions identical
        // to the unpoisoned fleet: zero regret inflation.
        assert!(
            poisoned.mean_regret_pct <= baseline.mean_regret_pct,
            "regret inflated: {:.2}% vs baseline {:.2}%",
            poisoned.mean_regret_pct,
            baseline.mean_regret_pct
        );
        assert_eq!(poisoned.regret_disagreements, 0);
    }

    #[test]
    fn churn_forces_relookups_without_losing_requests() {
        let baseline = run_fleet(&small_config()).unwrap().report;
        let churned = run_fleet(&FleetConfig {
            faults: FaultPlan {
                churn_prob: 0.5,
                ..FaultPlan::none()
            },
            ..small_config()
        })
        .unwrap()
        .report;
        assert!(churned.churn_events > 0);
        assert_eq!(
            churned.served + churned.shed_queue + churned.shed_rate,
            churned.requests
        );
        assert!(
            churned.cache_hits < baseline.cache_hits,
            "evictions must cost cache hits ({} vs {})",
            churned.cache_hits,
            baseline.cache_hits
        );
    }

    #[test]
    fn livefire_survives_injected_shard_panics() {
        let config = FleetConfig {
            devices: 96,
            regret_samples: 0,
            livefire: true,
            livefire_wire: icomm_net::WireMode::Binary,
            faults: FaultPlan {
                shard_panics: 2,
                ..FaultPlan::none()
            },
            ..FleetConfig::default()
        };
        let out = run_fleet(&config).unwrap();
        let r = out.report;
        assert_eq!(r.livefire_sent, 96);
        assert_eq!(r.livefire_failed, 0, "no response may be lost to a panic");
        assert_eq!(r.livefire_shard_restarts, 2);
        assert!(r.passed(), "report:\n{r}");
    }

    #[test]
    fn shard_panics_demand_a_supervised_plane() {
        let json_wire = FleetConfig {
            faults: FaultPlan {
                shard_panics: 1,
                ..FaultPlan::none()
            },
            ..FleetConfig::default()
        };
        let err = run_fleet(&json_wire).unwrap_err();
        assert!(err.contains("binary"), "error: {err}");

        let no_livefire = FleetConfig {
            livefire: false,
            livefire_wire: icomm_net::WireMode::Binary,
            ..json_wire
        };
        let err = run_fleet(&no_livefire).unwrap_err();
        assert!(err.contains("live-fire"), "error: {err}");
    }

    #[test]
    fn unknown_board_is_a_descriptive_error() {
        let config = FleetConfig {
            boards: "nano,pi5".to_string(),
            ..small_config()
        };
        let err = run_fleet(&config).unwrap_err();
        assert!(err.contains("pi5"), "error: {err}");
    }

    #[test]
    fn exact_quantiles_from_sorted_samples() {
        let sorted = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(quantile(&sorted, 0.5), 50);
        assert_eq!(quantile(&sorted, 0.95), 100);
        assert_eq!(quantile(&sorted, 0.0), 10);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
