//! # icomm-synth — auto-synthesized algebraic decision rules
//!
//! The decision stack answers "which communication model should each
//! tenant use?" by brute force: `M^N` co-run oracle evaluations per mix
//! ([`icomm_core::oracle_assignment`]). This crate compresses those
//! sweeps into a handful of human-readable **algebraic rules** — in the
//! spirit of rewrite-rule synthesis à la Ruler — and serves decisions
//! from the rules alone:
//!
//! 1. **Enumerate** ([`grammar`]): grow guard predicates bottom-up by
//!    term size over a typed feature grammar (workload shape,
//!    characterization thresholds, interference and cap pressure),
//!    collapsing candidates that behave identically on the training
//!    table into observational-equivalence classes.
//! 2. **Sweep** ([`sweep`]): the training table comes from the existing
//!    deterministic simulators — every stock board × tenant mix,
//!    labeled by the brute-force oracle.
//! 3. **Cover** ([`cover`]): greedily select the fewest sound classes
//!    that explain every training sample.
//! 4. **Decide** ([`decider`]): answer live queries by first-match rule
//!    evaluation, falling back to the full sweep out of verified scope.
//!
//! The synthesized [`RuleSet`] is serializable (CRC-framed via
//! `icomm-persist`), ships across the fleet as a warm-start artifact
//! (`icomm-fleet` consumes it before falling back to k-NN transfer),
//! and records exactly where it is proven exact: its `scope` lists only
//! contexts re-validated rule-for-rule against the oracle with zero
//! disagreements.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cover;
pub mod decider;
pub mod feature;
pub mod grammar;
pub mod sweep;

use std::path::Path;

use icomm_microbench::DeviceCharacterization;
use icomm_models::CommModelKind;
use serde::{Deserialize, Serialize};

pub use cover::{select_cover, Cover, Rule};
pub use decider::{DecisionSource, MixDecision, RuleDecider};
pub use feature::{mix_features, tenant_features, Feature, FeatureVec, FEATURE_COUNT};
pub use grammar::{enumerate_classes, Atom, Enumeration, EquivClass, Pred};
pub use sweep::{
    context_tenants, sweep_board, SweepSample, SweepTable, SWEEP_CAP_BYTES, SWEEP_MIX_NAMES,
};

/// Configuration of one synthesis run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Boards to sweep and learn from.
    pub boards: Vec<String>,
    /// Mixes per board (see [`SWEEP_MIX_NAMES`]).
    pub mixes: Vec<String>,
    /// Largest predicate term size to enumerate.
    pub max_size: u32,
    /// Seed shuffling enumeration order (and thus representatives and
    /// greedy tie-breaks). Same seed → byte-identical rule set.
    pub seed: u64,
    /// Also sweep the `pressure` mix under [`SWEEP_CAP_BYTES`].
    pub capped_pressure: bool,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            boards: icomm_apps::catalog::BOARD_NAMES
                .iter()
                .map(|b| b.to_string())
                .collect(),
            mixes: SWEEP_MIX_NAMES.iter().map(|m| m.to_string()).collect(),
            max_size: 3,
            seed: 42,
            capped_pressure: true,
        }
    }
}

/// A synthesized, serializable set of decision rules with its verified
/// scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleSet {
    /// Seed the synthesis ran under.
    pub seed: u64,
    /// Largest term size the grammar enumerated.
    pub max_size: u32,
    /// Boards the training sweep covered.
    pub boards: Vec<String>,
    /// The rules, in greedy selection order (first match wins; sound
    /// rules never conflict, so order only affects `rules_used` stats).
    pub rules: Vec<Rule>,
    /// Contexts verified exact against the oracle, as
    /// `board/mix` (uncapped) or `board/mix@<capbytes>` keys.
    pub scope: Vec<String>,
    /// Training samples the sweep produced.
    pub samples: u64,
    /// Training samples no rule covers (their contexts are out of
    /// scope).
    pub uncovered: u64,
    /// Rule-vs-oracle label disagreements during validation. Sound
    /// covers make this 0 by construction; it is re-counted and stored
    /// so a corrupt or hand-edited rule set is detectable.
    pub disagreements: u64,
    /// Per-board characterizations the rules' features were computed
    /// against — the decider recomputes query features with these.
    pub board_characterizations: Vec<(String, DeviceCharacterization)>,
}

impl RuleSet {
    /// Scope key of a `(board, mix, cap)` context.
    pub fn scope_key(board: &str, mix: &str, cap_bytes: u64) -> String {
        if cap_bytes == 0 {
            format!("{board}/{mix}")
        } else {
            format!("{board}/{mix}@{cap_bytes}")
        }
    }

    /// Whether a context was verified exact during synthesis.
    pub fn in_scope(&self, board: &str, mix: &str, cap_bytes: u64) -> bool {
        self.scope
            .contains(&RuleSet::scope_key(board, mix, cap_bytes))
    }

    /// Stored characterization of `board`, if it was swept.
    pub fn characterization(&self, board: &str) -> Option<&DeviceCharacterization> {
        self.board_characterizations
            .iter()
            .find(|(b, _)| b == board)
            .map(|(_, c)| c)
    }

    /// First rule matching a feature vector: `(rule index, model)`.
    pub fn match_features(&self, features: &[f64]) -> Option<(usize, CommModelKind)> {
        self.rules
            .iter()
            .enumerate()
            .find(|(_, r)| r.pred.eval(features))
            .map(|(i, r)| (i, r.model))
    }

    /// Rules-only warm start for a fleet device on `board`: the stored
    /// characterization plus a sub-measured confidence, available only
    /// when **every** named co-run mix on that board is verified in
    /// scope — a partially-verified board must not skip its sweep.
    pub fn warm_start(&self, board: &str) -> Option<(&DeviceCharacterization, f64)> {
        let characterization = self.characterization(board)?;
        let all_verified = icomm_apps::MIX_NAMES
            .iter()
            .all(|mix| self.in_scope(board, mix, 0));
        if all_verified {
            // Below 1.0 so rules-backed registry entries never enter the
            // measured k-NN neighbor pool.
            Some((characterization, 0.99))
        } else {
            None
        }
    }

    /// Serialized size inside a CRC-framed snapshot — the numerator of
    /// the compression ratio against [`SweepTable::persisted_bytes`].
    ///
    /// # Errors
    ///
    /// Propagates serialization failures (practically unreachable).
    pub fn persisted_bytes(&self) -> Result<u64, String> {
        let json = icomm_persist::to_string(self).map_err(|e| e.to_string())?;
        Ok(icomm_persist::snapshot::encode(&json).len() as u64)
    }

    /// Writes the rule set atomically as a CRC-framed snapshot.
    ///
    /// # Errors
    ///
    /// Returns a message on serialization or I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let json = icomm_persist::to_string(self).map_err(|e| e.to_string())?;
        icomm_persist::snapshot::write_atomic(path, &json).map_err(|e| e.to_string())
    }

    /// Reads a rule set back from a CRC-framed snapshot.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O, framing/CRC, or deserialization
    /// failure.
    pub fn load(path: &Path) -> Result<RuleSet, String> {
        let json = icomm_persist::snapshot::read_verified(path).map_err(|e| e.to_string())?;
        icomm_persist::from_str(&json).map_err(|e| e.to_string())
    }
}

/// Everything one synthesis run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthOutput {
    /// The synthesized rule set.
    pub ruleset: RuleSet,
    /// The training table it was learned from.
    pub table: SweepTable,
    /// Size-1 candidates enumerated.
    pub atoms_enumerated: u64,
    /// Total candidates enumerated across all term sizes.
    pub preds_enumerated: u64,
    /// Surviving equivalence classes.
    pub classes: usize,
    /// Classes with a uniform oracle label (the cover's candidates).
    pub sound_candidates: usize,
}

/// Runs the full pipeline: sweep → enumerate → cover → validate.
///
/// Deterministic per `(config)`: the sweep is closed-form, the
/// enumeration is seeded, and validation replays the decider's own
/// feature path — so equal configs produce byte-identical rule sets.
///
/// # Errors
///
/// Returns a message on unknown board/mix names or an uncapped oracle
/// failure (capped-infeasible contexts are skipped, not failed).
pub fn synthesize(config: &SynthConfig) -> Result<SynthOutput, String> {
    let mut board_characterizations = Vec::new();
    let mut samples: Vec<SweepSample> = Vec::new();
    let mut skipped_contexts = Vec::new();
    for board in &config.boards {
        let (characterization, board_samples, skipped) =
            sweep_board(board, &config.mixes, config.capped_pressure)?;
        board_characterizations.push((board.clone(), characterization));
        samples.extend(board_samples);
        skipped_contexts.extend(skipped);
    }
    if samples.is_empty() {
        return Err("sweep produced no samples (no boards or mixes?)".to_string());
    }

    let features: Vec<Vec<f64>> = samples.iter().map(|s| s.features.clone()).collect();
    let labels: Vec<CommModelKind> = samples.iter().map(|s| s.label).collect();
    let sample_boards: Vec<String> = samples.iter().map(|s| s.board.clone()).collect();

    let enumeration = enumerate_classes(&features, config.max_size, config.seed);
    let cover = select_cover(&enumeration, &labels, &sample_boards);

    // Validate through the decide-time path: first-match over the
    // selected rules must reproduce the oracle label for every covered
    // sample; a context is in scope only when all its samples agree.
    let mut disagreements = 0u64;
    let mut verdict: Vec<Option<bool>> = Vec::with_capacity(samples.len()); // None = uncovered
    let interim = RuleSet {
        seed: config.seed,
        max_size: config.max_size,
        boards: config.boards.clone(),
        rules: cover.rules.clone(),
        scope: Vec::new(),
        samples: samples.len() as u64,
        uncovered: cover.uncovered() as u64,
        disagreements: 0,
        board_characterizations,
    };
    for sample in &samples {
        match interim.match_features(&sample.features) {
            Some((_, model)) if model == sample.label => verdict.push(Some(true)),
            Some(_) => {
                disagreements += 1;
                verdict.push(Some(false));
            }
            None => verdict.push(None),
        }
    }

    let mut scope = Vec::new();
    let mut seen = Vec::new();
    for sample in &samples {
        let key = RuleSet::scope_key(&sample.board, &sample.mix, sample.mem_cap_bytes);
        if seen.contains(&key) {
            continue;
        }
        let exact = samples
            .iter()
            .zip(&verdict)
            .filter(|(s, _)| {
                s.board == sample.board
                    && s.mix == sample.mix
                    && s.mem_cap_bytes == sample.mem_cap_bytes
            })
            .all(|(_, v)| *v == Some(true));
        if exact {
            scope.push(key.clone());
        }
        seen.push(key);
    }

    let mut table_boards = config.boards.clone();
    table_boards.dedup();
    let ruleset = RuleSet {
        scope,
        disagreements,
        ..interim
    };
    Ok(SynthOutput {
        ruleset,
        table: SweepTable {
            boards: table_boards,
            samples,
            skipped_contexts,
        },
        atoms_enumerated: enumeration.atoms_enumerated,
        preds_enumerated: enumeration.preds_enumerated,
        classes: enumeration.classes.len(),
        sound_candidates: cover.sound_candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SynthConfig {
        SynthConfig {
            boards: vec!["tx2".to_string()],
            mixes: vec!["solo:shwfs".to_string(), "duo".to_string()],
            max_size: 2,
            seed: 42,
            capped_pressure: false,
        }
    }

    #[test]
    fn synthesis_runs_and_validates_cleanly() {
        let out = synthesize(&tiny_config()).expect("synthesis runs");
        assert_eq!(out.ruleset.disagreements, 0);
        assert!(!out.ruleset.rules.is_empty());
        assert_eq!(out.ruleset.samples, out.table.samples.len() as u64);
    }

    #[test]
    fn scope_keys_round_trip() {
        assert_eq!(RuleSet::scope_key("tx2", "duo", 0), "tx2/duo");
        assert_eq!(
            RuleSet::scope_key("nano", "pressure", 6 << 20),
            "nano/pressure@6291456"
        );
    }

    #[test]
    fn same_config_is_byte_identical() {
        let a = synthesize(&tiny_config()).expect("synthesis runs");
        let b = synthesize(&tiny_config()).expect("synthesis runs");
        assert_eq!(a.ruleset, b.ruleset);
        let sa = icomm_persist::to_string(&a.ruleset).expect("serializes");
        let sb = icomm_persist::to_string(&b.ruleset).expect("serializes");
        assert_eq!(sa, sb);
    }
}
