//! Output correctness: the digests recorded in `expected.json`.
//!
//! `outputs` and `inputs` hold one digest per workload for the default
//! and the held-out seed. `known` holds a known answer every run checks
//! whatever its seed: onboarding device 0, or planning mix 0, of the
//! default seed. `decisions` holds the decision digest of every serve
//! key, which both serving planes must reproduce on every response (so
//! plane parity is checked on every run, any seed). A mismatch prints
//! the observed value so a deliberate behaviour change can be recorded.

use std::collections::BTreeMap;

use serde::Deserialize;

use icomm_serve::TuneResponse;

use crate::common::{Digest, Outcome};

#[derive(Debug, Deserialize)]
pub struct Expected {
    /// The default seed and the held-out seed claims must also hold on.
    pub seeds: Vec<u64>,
    pub outputs: BTreeMap<String, BTreeMap<String, String>>,
    pub inputs: BTreeMap<String, BTreeMap<String, String>>,
    pub known: BTreeMap<String, BTreeMap<String, String>>,
    pub decisions: BTreeMap<String, String>,
}

pub fn expected() -> Expected {
    icomm_persist::from_str(include_str!("../expected.json"))
        .expect("expected.json is part of the benchmark and must parse")
}

/// Compares a digest against the record for `(kind, workload, seed)`,
/// when one exists.
pub fn digest(
    out: &mut Outcome,
    expected: &Expected,
    kind: &str,
    workload: &str,
    seed: u64,
    observed: &str,
) {
    let table = match kind {
        "inputs" => &expected.inputs,
        "known" => &expected.known,
        _ => &expected.outputs,
    };
    let want = table.get(workload).and_then(|m| m.get(&seed.to_string()));
    eprintln!(
        "{workload}: {kind} digest seed {seed} = {observed} ({})",
        if want.is_some() {
            "recorded"
        } else {
            "none recorded"
        }
    );
    if let Some(want) = want {
        out.check(
            want == observed,
            format!("{workload} {kind} digest for seed {seed} is {observed}, expected {want}"),
        );
    }
}

/// Digest of a response's decision. Like the onboard and plan digests it
/// leaves out latency, cache provenance and the free-text rationale, so
/// removing a cache or rewording a rationale passes.
pub fn decision_digest(r: &TuneResponse) -> u64 {
    fn text(v: &Option<String>) -> &str {
        v.as_deref().unwrap_or("-")
    }
    Digest::default()
        .u64(r.ok as u64)
        .str(text(&r.error))
        .str(text(&r.board))
        .str(text(&r.app))
        .str(text(&r.current))
        .str(text(&r.recommended))
        .u64(r.switch_suggested.map_or(2, u64::from))
        .u64(r.estimated_speedup.map_or(u64::MAX, f64::to_bits))
        .str(text(&r.overloaded))
        .value()
}
