//! Answering live tune/joint-assignment queries from a rule set alone.
//!
//! A [`RuleDecider`] holds a synthesized [`RuleSet`] and answers
//! `(board, mix, cap)` queries. In-scope queries — contexts the
//! synthesis verified rule-for-rule against the oracle — are answered
//! by first-match rule evaluation with **no** `M^N` sweep. Anything
//! else (unknown board, unverified context, a tenant no rule matches)
//! falls back to the full [`oracle_assignment_capped`] sweep, so the
//! decider never answers worse than the oracle and never panics on an
//! out-of-scope query.

use icomm_apps::catalog::board_by_name;
use icomm_core::{oracle_assignment_capped, CorunTenant};
use icomm_models::CommModelKind;
use icomm_soc::units::ByteSize;
use icomm_soc::DeviceProfile;
use serde::{Deserialize, Serialize};

use crate::feature::mix_features;
use crate::sweep::context_tenants;
use crate::RuleSet;

/// How a [`MixDecision`] was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionSource {
    /// Answered from synthesized rules alone — no oracle sweep ran.
    Rules,
    /// Out of verified scope (or an unmatched tenant): the full oracle
    /// sweep produced the answer.
    SweepFallback,
}

/// A joint model assignment for one queried mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixDecision {
    /// Chosen model per tenant, in mix order.
    pub assignment: Vec<CommModelKind>,
    /// Whether rules or the fallback sweep answered.
    pub source: DecisionSource,
    /// Distinct rules consulted (0 on fallback).
    pub rules_used: usize,
}

/// Answers decision queries from a [`RuleSet`], with oracle fallback.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleDecider {
    ruleset: RuleSet,
}

impl RuleDecider {
    /// Wraps a synthesized rule set.
    pub fn new(ruleset: RuleSet) -> Self {
        RuleDecider { ruleset }
    }

    /// The wrapped rule set.
    pub fn ruleset(&self) -> &RuleSet {
        &self.ruleset
    }

    /// Whether `(board, mix, cap)` was verified exact during synthesis.
    pub fn in_scope(&self, board: &str, mix: &str, cap: Option<ByteSize>) -> bool {
        self.ruleset
            .in_scope(board, mix, cap.map_or(0, ByteSize::as_u64))
    }

    /// Answers a `(board, mix, cap)` query.
    ///
    /// In-scope queries are answered from rules; everything else falls
    /// back to the oracle sweep.
    ///
    /// # Errors
    ///
    /// Returns a message when the board or mix name is unknown, or when
    /// the fallback sweep itself fails (e.g. an infeasible cap).
    pub fn decide(
        &self,
        board: &str,
        mix: &str,
        cap: Option<ByteSize>,
    ) -> Result<MixDecision, String> {
        let device =
            board_by_name(board).map_err(|_| format!("unknown board '{board}' for decide"))?;
        let tenants = context_tenants(mix)?;
        if self.in_scope(board, mix, cap) {
            if let Some((assignment, rules_used)) =
                self.match_tenants(board, &device, &tenants, cap)
            {
                return Ok(MixDecision {
                    assignment,
                    source: DecisionSource::Rules,
                    rules_used,
                });
            }
        }
        let assignment = oracle_assignment_capped(&device, &tenants, cap)?;
        Ok(MixDecision {
            assignment,
            source: DecisionSource::SweepFallback,
            rules_used: 0,
        })
    }

    /// First-match rule evaluation for every tenant of the mix; `None`
    /// when the board has no stored characterization or any tenant
    /// matches no rule (callers then fall back to the sweep).
    fn match_tenants(
        &self,
        board: &str,
        device: &DeviceProfile,
        tenants: &[CorunTenant],
        cap: Option<ByteSize>,
    ) -> Option<(Vec<CommModelKind>, usize)> {
        let characterization = self.ruleset.characterization(board)?;
        let mut assignment = Vec::with_capacity(tenants.len());
        let mut used: Vec<usize> = Vec::new();
        for features in mix_features(device, characterization, tenants, cap) {
            let (rule_idx, model) = self.ruleset.match_features(&features)?;
            if !used.contains(&rule_idx) {
                used.push(rule_idx);
            }
            assignment.push(model);
        }
        Some((assignment, used.len()))
    }
}
