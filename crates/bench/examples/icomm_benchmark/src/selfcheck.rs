//! `--selfcheck`: checks the input generator, not the program. The same
//! seed must give byte-identical inputs and another seed different ones;
//! `onboard` never repeats a (device, workload, model) key; every `plan`
//! cap is feasible; every serve key is a catalog name. It prints each
//! workload's input properties and checks that `BENCHMARK.json` names
//! exactly the metrics this binary reports.

use std::collections::BTreeSet;

use icomm_serve::catalog::{board_by_name, model_by_name, workload_by_name};
use icomm_soc::DeviceProfile;

use crate::check;
use crate::common::{mean, Digest};
use crate::inputs::{
    combo_counts, footprint_bounds, footprints, onboard_input, onboard_pool, plan_input, plan_pool,
    repeat_share_pct, serve_key, serve_key_name, serve_sequence, SERVE_KEYS,
};
use crate::report::{manifest, Entry, END_TO_END, PER_LAYER};
use crate::serve::CONNS;

/// Inputs examined per workload: more than a default run consumes, except
/// on serve-binary, whose millions of requests draw from the same
/// generator.
const ONBOARD_DEVICES: usize = 256;
const PLAN_MIXES: usize = 84;
const SERVE_REQUESTS: usize = 4096;

fn json<T: serde::Serialize>(value: &T) -> String {
    icomm_persist::to_string(value).expect("generated inputs serialize")
}

/// Canonical text of every workload's inputs for a seed.
fn input_texts(seed: u64) -> Vec<(&'static str, String)> {
    let pool = onboard_pool(seed);
    let mut onboard = String::new();
    for w in pool.apps.iter().flatten() {
        onboard.push_str(&json(w));
    }
    for i in 0..ONBOARD_DEVICES {
        let input = onboard_input(seed, i);
        onboard.push_str(&json(&input.device));
        onboard.push_str(&format!("{:?}", input.apps));
    }
    let pool = plan_pool(seed);
    let mut plan = String::new();
    for w in pool.apps.iter().flatten() {
        plan.push_str(&json(w));
    }
    for i in 0..PLAN_MIXES {
        let input = plan_input(seed, i, &pool);
        plan.push_str(&format!("{} {:?}", input.board, input.cap));
        for t in &input.tenants {
            plan.push_str(&format!("{} {} {:?}", t.name, t.workload.name, t.current));
        }
    }
    let serve: String = (0..CONNS)
        .map(|c| format!("{:?}", serve_sequence(seed, c, SERVE_REQUESTS)))
        .collect();
    vec![
        ("onboard", onboard),
        ("plan", plan),
        ("serve-json", serve.clone()),
        ("serve-binary", serve),
    ]
}

pub fn run(seed: u64) -> Result<bool, String> {
    let mut ok = true;
    let mut fail = |what: String| {
        println!("FAIL {what}");
        ok = false;
    };
    let expected = check::expected();

    // Determinism and seed sensitivity.
    let first = input_texts(seed);
    let again = input_texts(seed);
    let other = input_texts(seed.wrapping_add(1));
    let mut digests = crate::common::Outcome::default();
    for ((name, a), ((_, b), (_, c))) in first.iter().zip(again.iter().zip(&other)) {
        if a != b {
            fail(format!(
                "{name}: seed {seed} generated different inputs twice"
            ));
        }
        if a == c {
            fail(format!(
                "{name}: seeds {seed} and {} generated the same inputs",
                seed + 1
            ));
        }
        let hex = Digest::default().str(a).hex();
        println!("{name}: inputs {} bytes, digest {hex}", a.len());
        check::digest(&mut digests, &expected, "inputs", name, seed, &hex);
    }
    for p in digests.problems {
        fail(p);
    }

    // onboard: distinct devices, and working sets against the GPU LLC.
    let pool = onboard_pool(seed);
    let mut devices = BTreeSet::new();
    let (mut above, mut pairs) = (0usize, 0usize);
    for i in 0..ONBOARD_DEVICES {
        let input = onboard_input(seed, i);
        if !devices.insert(json(&input.device)) {
            fail(format!("onboard: device {i} repeats an earlier device"));
        }
        let llc = input.device.layout.gpu_llc.size.as_u64();
        for &(app, variant, _) in &input.apps {
            pairs += 1;
            above += (pool.apps[app][variant]
                .gpu
                .shared_accesses
                .footprint_bytes()
                > llc) as usize;
        }
    }
    println!(
        "onboard: {ONBOARD_DEVICES} distinct devices, so 0 repeated (device, workload, model) keys; \
         GPU working set exceeds the GPU LLC on {:.1}% of (device, app) pairs",
        100.0 * above as f64 / pairs as f64
    );

    // plan: caps feasible and binding, search size.
    let pool = plan_pool(seed);
    let boards = DeviceProfile::extended_boards();
    let (mut all, mut within, mut excluded, mut capped) = (vec![], vec![], vec![], 0usize);
    for i in 0..PLAN_MIXES {
        let input = plan_input(seed, i, &pool);
        let device = &boards[input.board];
        let fps = footprints(device, &input.tenants);
        let (total, inside) = combo_counts(&fps, input.cap.map(|c| c.as_u64()));
        all.push(total as f64);
        within.push(inside as f64);
        if let Some(cap) = input.cap {
            capped += 1;
            let (cheapest, largest) = footprint_bounds(device, &input.tenants);
            if cap.as_u64() < cheapest {
                fail(format!("plan: mix {i} has an infeasible cap"));
            }
            if cap.as_u64() >= largest {
                fail(format!("plan: mix {i} has a cap that excludes nothing"));
            }
            excluded.push(100.0 * (total - inside) as f64 / total as f64);
        }
    }
    println!(
        "plan: {PLAN_MIXES} mixes, {capped} capped (all feasible); combos per op {:.0} \
         (within cap {:.0}); a cap excludes {:.1}% of combos on average",
        mean(&all),
        mean(&within),
        mean(&excluded)
    );

    // serve: valid keys, repeat share, popularity.
    for k in 0..SERVE_KEYS {
        let (board, app, current) = serve_key(k);
        let valid = board_by_name(board).is_ok()
            && workload_by_name(app).is_ok()
            && current.is_none_or(|m| model_by_name(m).is_ok());
        if !valid {
            fail(format!(
                "serve: key {} is not a catalog name",
                serve_key_name(k)
            ));
        }
    }
    for c in 0..CONNS {
        let seq = serve_sequence(seed, c, SERVE_REQUESTS);
        let orb = seq
            .iter()
            .filter(|&&k| serve_key(k as usize).1 == "orb")
            .count();
        let distinct: BTreeSet<u8> = seq[..300].iter().copied().collect();
        println!(
            "serve conn {c}: repeat share {:.1}% over 300 requests ({} distinct keys), \
             {:.1}% over {SERVE_REQUESTS}; orb share {:.1}%",
            repeat_share_pct(&seq[..300]),
            distinct.len(),
            repeat_share_pct(&seq),
            100.0 * orb as f64 / seq.len() as f64
        );
    }

    // BENCHMARK.json must list exactly the metrics reported here.
    let manifest = manifest();
    let listed = |entries: &[Entry]| -> BTreeSet<String> {
        entries
            .iter()
            .map(|e| format!("{} {} {}", e.name, e.unit, e.better))
            .collect()
    };
    let e2e: BTreeSet<String> = END_TO_END
        .iter()
        .map(|(name, unit, better)| format!("{name} {unit} {better}"))
        .collect();
    let layer: BTreeSet<String> = PER_LAYER
        .iter()
        .map(|m| format!("{} {} {}", m.name, m.unit, m.better))
        .collect();
    let workloads: BTreeSet<&str> = manifest.workloads.iter().map(|w| w.name.as_str()).collect();
    if listed(&manifest.end_to_end) != e2e || listed(&manifest.per_layer) != layer {
        fail("BENCHMARK.json metrics differ from the benchmark's own tables".to_string());
    }
    if workloads != crate::WORKLOADS.into_iter().collect() {
        fail("BENCHMARK.json workloads differ from the benchmark's own".to_string());
    }
    println!(
        "recorded seeds: {:?} (default first, then the held-out seed)",
        expected.seeds
    );
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
