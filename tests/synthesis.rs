//! Tier-1 acceptance tests for the rule-synthesis subsystem: the
//! synthesized rule set must reproduce the brute-force co-run oracle
//! with zero in-scope disagreements on every stock board × named tenant
//! mix, compress the persisted sweep at least 5× in bytes, keep the
//! fleet's warm-start and regret gates when served rules-first, and
//! fall back to the sweep — without panicking — on out-of-scope
//! queries.

use std::sync::{Arc, OnceLock};

use icomm::apps::catalog::{board_by_name, BOARD_NAMES};
use icomm::apps::MIX_NAMES;
use icomm::core::oracle_assignment;
use icomm::fleet::{run_fleet, FleetConfig};
use icomm::soc::units::ByteSize;
use icomm::synth::{
    context_tenants, synthesize, DecisionSource, RuleDecider, SynthConfig, SynthOutput,
};

/// One full-sweep synthesis shared by every test in this file — the
/// sweep labels every sample with an `M^N` oracle evaluation, so
/// re-running it per test would dominate the tier's wall time.
fn shared() -> &'static SynthOutput {
    static OUT: OnceLock<SynthOutput> = OnceLock::new();
    OUT.get_or_init(|| synthesize(&SynthConfig::default()).expect("default synthesis runs"))
}

#[test]
fn synthesized_rules_reproduce_the_oracle_on_every_board_and_mix() {
    let out = shared();
    assert_eq!(
        out.ruleset.disagreements, 0,
        "validation found disagreements"
    );
    assert_eq!(out.ruleset.uncovered, 0, "cover left samples unexplained");
    assert!(!out.ruleset.rules.is_empty());
    let decider = RuleDecider::new(out.ruleset.clone());
    for board in BOARD_NAMES {
        let device = board_by_name(board).expect("stock board resolves");
        for mix in MIX_NAMES {
            assert!(
                decider.in_scope(board, mix, None),
                "{board}/{mix}: not in verified scope"
            );
            let decision = decider
                .decide(board, mix, None)
                .expect("in-scope decision succeeds");
            assert_eq!(
                decision.source,
                DecisionSource::Rules,
                "{board}/{mix}: in-scope query fell back to the sweep"
            );
            assert!(decision.rules_used > 0, "{board}/{mix}: no rule consulted");
            let tenants = context_tenants(mix).expect("named mix resolves");
            let oracle = oracle_assignment(&device, &tenants).expect("oracle succeeds");
            assert_eq!(
                decision.assignment, oracle,
                "{board}/{mix}: rules disagree with the brute-force oracle"
            );
        }
    }
}

#[test]
fn ruleset_compresses_the_persisted_sweep_at_least_five_fold() {
    let out = shared();
    let sweep_bytes = out.table.persisted_bytes().expect("sweep serializes");
    let ruleset_bytes = out.ruleset.persisted_bytes().expect("ruleset serializes");
    assert!(
        sweep_bytes >= 5 * ruleset_bytes,
        "compression only {:.2}x ({sweep_bytes} B sweep vs {ruleset_bytes} B rules)",
        sweep_bytes as f64 / ruleset_bytes as f64
    );
}

#[test]
fn rules_first_fleet_keeps_the_warm_start_and_regret_gates() {
    let out = shared();
    let fleet = run_fleet(&FleetConfig {
        devices: 150,
        seed: 7,
        livefire: false,
        regret_samples: 4,
        rules: Some(Arc::new(out.ruleset.clone())),
        ..FleetConfig::default()
    })
    .expect("rules-first fleet runs");
    let r = &fleet.report;
    assert!(r.rules_hits > 0, "rules never answered a registry miss");
    // Every default-fleet board is rules-warm-start eligible, so no
    // device ever pays for a full characterization sweep.
    assert_eq!(
        r.full_characterizations, 0,
        "a full sweep ran despite rules covering every board"
    );
    assert!(
        r.warm_start_pct >= 90.0,
        "warm start {:.1}%",
        r.warm_start_pct
    );
    assert!(
        r.mean_regret_pct <= 10.0,
        "regret {:.2}%",
        r.mean_regret_pct
    );
    assert!(r.passed(), "fleet gate failed:\n{r}");
}

#[test]
fn out_of_scope_queries_fall_back_to_the_sweep_without_panicking() {
    let out = shared();
    let decider = RuleDecider::new(out.ruleset.clone());
    // A cap the sweep never ran: feasible (looser than the swept
    // 6 MiB pressure cap) but absent from the verified scope.
    let cap = Some(ByteSize(7 << 20));
    assert!(!decider.in_scope("tx2", "pressure", cap));
    let decision = decider
        .decide("tx2", "pressure", cap)
        .expect("fallback decision succeeds");
    assert_eq!(decision.source, DecisionSource::SweepFallback);
    assert_eq!(decision.rules_used, 0);
    assert!(!decision.assignment.is_empty());
    // Unknown boards and mixes error cleanly instead of panicking.
    assert!(decider.decide("pi5", "duo", None).is_err());
    assert!(decider.decide("tx2", "solo:quake", None).is_err());
}
