//! Deterministic sweep-sample generation from the existing simulators.
//!
//! A *sweep* runs the ground-truth decision stack — solo
//! [`icomm_models::run_model`] runs for every candidate model plus the
//! brute-force
//! [`oracle_assignment_capped`] over every tenant combination — across a
//! set of `(board, mix, cap)` contexts, and records one
//! [`SweepSample`] per tenant: its feature vector, the per-model solo
//! wall times the sweep measured, and the oracle's chosen model as the
//! label. The table is what the synthesizer trains on, and its
//! persisted size is the denominator of the compression ratio the rule
//! set is measured by.

use icomm_apps::catalog::{board_by_name, workload_by_name, APP_NAMES};
use icomm_core::{oracle_assignment_capped, tenant_demand, CorunTenant};
use icomm_microbench::{quick_characterize_device, DeviceCharacterization};
use icomm_models::{candidate_models, CommModelKind};
use icomm_soc::units::ByteSize;
use serde::{Deserialize, Serialize};

use crate::feature::mix_features;

/// Mixes a default sweep visits: the three applications solo, every
/// named co-run mix uncapped, and the memory-heavy mix under the
/// 6 MiB cap that demonstrably demotes it.
pub const SWEEP_MIX_NAMES: [&str; 8] = [
    "solo:shwfs",
    "solo:orb",
    "solo:lane",
    "duo",
    "trio",
    "quad",
    "contended",
    "pressure",
];

/// The cap (bytes) the capped `pressure` context runs under.
pub const SWEEP_CAP_BYTES: u64 = 6 << 20;

/// Resolves a sweep mix name — a named co-run mix, or `solo:<app>` for
/// a single-tenant tune context — into its tenant list.
///
/// # Errors
///
/// Returns a message listing the valid names when `mix` is unknown.
pub fn context_tenants(mix: &str) -> Result<Vec<CorunTenant>, String> {
    if let Some(app) = mix.strip_prefix("solo:") {
        let workload = workload_by_name(app)
            .map_err(|_| format!("unknown app '{app}' (try {})", APP_NAMES.join(", ")))?;
        return Ok(vec![CorunTenant {
            name: app.to_string(),
            workload,
            current: CommModelKind::StandardCopy,
        }]);
    }
    Ok(icomm_apps::mix_by_name(mix)?
        .into_iter()
        .map(|s| CorunTenant {
            name: s.name,
            workload: s.workload,
            current: s.current,
        })
        .collect())
}

/// One training sample: one tenant inside one `(board, mix, cap)`
/// context, with everything the sweep measured for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSample {
    /// Board the context ran on.
    pub board: String,
    /// Mix name (including `solo:<app>` contexts).
    pub mix: String,
    /// Tenant name within the mix.
    pub tenant: String,
    /// Memory cap of the context, bytes (0 = uncapped).
    pub mem_cap_bytes: u64,
    /// Feature vector in [`crate::feature::Feature::ALL`] order.
    pub features: Vec<f64>,
    /// Candidate models the sweep measured, catalog order.
    pub models: Vec<CommModelKind>,
    /// Measured solo wall time per candidate model, microseconds,
    /// aligned with `models`.
    pub model_wall_us: Vec<f64>,
    /// The oracle's joint choice for this tenant — the label.
    pub label: CommModelKind,
}

/// The full training table plus the boards it came from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepTable {
    /// Boards swept, in request order.
    pub boards: Vec<String>,
    /// All samples, in deterministic board → mix → tenant order.
    pub samples: Vec<SweepSample>,
    /// Capped contexts skipped because the cap was infeasible on that
    /// board (eviction would be required), as `board/mix` strings.
    pub skipped_contexts: Vec<String>,
}

/// Sweeps one board over the given mixes and returns its
/// characterization plus samples.
///
/// Capped contexts that are infeasible under the cap (the oracle would
/// have to evict) are skipped and reported, not failed: a sweep over a
/// small board must not abort the whole synthesis.
///
/// # Errors
///
/// Returns a message on an unknown board or mix name.
pub fn sweep_board(
    board: &str,
    mixes: &[String],
    capped_pressure: bool,
) -> Result<(DeviceCharacterization, Vec<SweepSample>, Vec<String>), String> {
    let device = board_by_name(board).map_err(|_| format!("unknown board '{board}' for sweep"))?;
    let characterization = quick_characterize_device(&device);
    let mut samples = Vec::new();
    let mut skipped = Vec::new();

    let mut contexts: Vec<(String, Option<ByteSize>)> =
        mixes.iter().map(|m| (m.clone(), None)).collect();
    if capped_pressure && mixes.iter().any(|m| m == "pressure") {
        contexts.push(("pressure".to_string(), Some(ByteSize(SWEEP_CAP_BYTES))));
    }

    for (mix, cap) in contexts {
        let tenants = context_tenants(&mix)?;
        let labels = match oracle_assignment_capped(&device, &tenants, cap) {
            Ok(labels) => labels,
            Err(err) if cap.is_some() => {
                // The cap cannot admit this mix on this board even after
                // full demotion; record the hole and move on.
                let _ = err;
                skipped.push(format!("{board}/{mix}"));
                continue;
            }
            Err(err) => return Err(format!("{board}/{mix}: {err}")),
        };
        let candidates = candidate_models(&device);
        let features_by_tenant = mix_features(&device, &characterization, &tenants, cap);
        for (i, tenant) in tenants.iter().enumerate() {
            let features = features_by_tenant[i];
            let model_wall_us: Vec<f64> = candidates
                .iter()
                .map(|&m| {
                    let d = tenant_demand(&device, &tenant.name, &tenant.workload, m);
                    d.wall_solo.as_picos() as f64 / 1e6
                })
                .collect();
            samples.push(SweepSample {
                board: board.to_string(),
                mix: mix.clone(),
                tenant: tenant.name.clone(),
                mem_cap_bytes: cap.map_or(0, |c| c.as_u64()),
                features: features.to_vec(),
                models: candidates.clone(),
                model_wall_us,
                label: labels[i],
            });
        }
    }
    Ok((characterization, samples, skipped))
}

impl SweepTable {
    /// Serialized size of the table inside a CRC-framed snapshot —
    /// the bytes a persisted sweep occupies on disk.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures (practically unreachable for
    /// this type).
    pub fn persisted_bytes(&self) -> Result<u64, String> {
        let json = icomm_persist::to_string(self).map_err(|e| e.to_string())?;
        Ok(icomm_persist::snapshot::encode(&json).len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_contexts_resolve_to_one_tenant() {
        for app in ["shwfs", "orb", "lane"] {
            let tenants = context_tenants(&format!("solo:{app}")).expect("solo resolves");
            assert_eq!(tenants.len(), 1);
            assert_eq!(tenants[0].name, app);
        }
        assert!(context_tenants("solo:quake").is_err());
        assert!(context_tenants("nosuchmix").is_err());
    }

    #[test]
    fn sweeping_a_board_labels_every_tenant() {
        let mixes = vec!["solo:shwfs".to_string(), "duo".to_string()];
        let (chr, samples, skipped) = sweep_board("tx2", &mixes, false).expect("sweep runs");
        assert_eq!(chr.device, "Jetson TX2");
        assert!(skipped.is_empty());
        assert_eq!(samples.len(), 3, "1 solo + 2 duo tenants");
        for s in &samples {
            assert_eq!(s.features.len(), crate::feature::FEATURE_COUNT);
            assert_eq!(s.models.len(), s.model_wall_us.len());
            assert!(s.models.contains(&s.label), "label must be a candidate");
            assert!(s.model_wall_us.iter().all(|w| *w > 0.0));
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let mixes = vec!["duo".to_string()];
        let a = sweep_board("nano", &mixes, false).expect("sweep runs");
        let b = sweep_board("nano", &mixes, false).expect("sweep runs");
        assert_eq!(a.1, b.1);
    }
}
