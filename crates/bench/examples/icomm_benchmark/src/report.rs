//! The metric tables (mirrored by `BENCHMARK.json`) and the per-layer
//! values derived from a traced run's ledger.

use serde::Deserialize;

use crate::common::{mean, median, percentile, Metric, Phase};
use crate::ledger::Ledger;

/// `(name, unit, better)` of the end-to-end metrics, reported by every
/// untraced run.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// The parts of `BENCHMARK.json` this binary reads: the measured seconds
/// a run defaults to, and the names it must agree with.
#[derive(Deserialize)]
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<Named>,
    pub end_to_end: Vec<Entry>,
    pub per_layer: Vec<Entry>,
}

#[derive(Deserialize)]
pub struct Named {
    pub name: String,
}

#[derive(Deserialize)]
pub struct Entry {
    pub name: String,
    pub unit: String,
    pub better: String,
}

pub fn manifest() -> Manifest {
    icomm_persist::from_str(include_str!("../../../../../BENCHMARK.json"))
        .expect("BENCHMARK.json names this benchmark and must parse")
}

/// One per-layer metric, the workloads whose traffic drives it, and the
/// end-to-end metric it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub driven_by: &'static [&'static str],
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    driven_by: &'static [&'static str],
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        driven_by,
        moves,
    }
}

const ONBOARD: &[&str] = &["onboard"];
const SEQUENTIAL: &[&str] = &["onboard", "plan"];
const PLAN: &[&str] = &["plan"];
const JSON: &[&str] = &["serve-json"];
const BINARY: &[&str] = &["serve-binary"];
const SERVE: &[&str] = &["serve-json", "serve-binary"];
const ALL: &[&str] = &crate::WORKLOADS;

const MB: &str = "onboard op_p50_ms; setup_s of plan, serve-json, serve-binary";
const SIM: &str = "ops_per_s of onboard, plan, serve-json; flat on serve-binary";
const PLAN_RATE: &str = "plan ops_per_s";
const JSON_LATENCY: &str = "serve-json op_p50_ms";
const BINARY_RATE: &str = "serve-binary ops_per_s, op_p50_ms";

pub const PER_LAYER: [LayerMetric; 34] = [
    m("microbench.mb1_ms", "ms", "lower", ONBOARD, MB),
    m("microbench.mb2_ms", "ms", "lower", ONBOARD, MB),
    m("microbench.mb3_ms", "ms", "lower", ONBOARD, MB),
    m("microbench.upm_ms", "ms", "lower", ONBOARD, MB),
    m("profile.run_ms", "ms", "lower", SEQUENTIAL, SIM),
    m("soc.sim_txn_per_op", "count", "lower", SEQUENTIAL, SIM),
    m("soc.host_ns_per_txn", "ns", "lower", SEQUENTIAL, SIM),
    m(
        "core.decide_us",
        "us",
        "lower",
        SEQUENTIAL,
        "none: shows decide is not the floor",
    ),
    m("core.solo_sim_ms", "ms", "lower", PLAN, PLAN_RATE),
    m("core.recommend_ms", "ms", "lower", SEQUENTIAL, PLAN_RATE),
    m(
        "models.interference_ns_per_combo",
        "ns",
        "lower",
        PLAN,
        PLAN_RATE,
    ),
    m("models.oracle_ns_per_combo", "ns", "lower", PLAN, PLAN_RATE),
    m("core.combos_per_op", "count", "lower", PLAN, PLAN_RATE),
    m(
        "footprint.cap_binding_pct",
        "%",
        "higher",
        PLAN,
        "input property of plan",
    ),
    m("core.joint_ms_n2_4", "ms", "lower", PLAN, PLAN_RATE),
    m("core.joint_ms_n5_6", "ms", "lower", PLAN, PLAN_RATE),
    m("core.joint_ms_n7_8", "ms", "lower", PLAN, PLAN_RATE),
    m("core.oracle_ms_n2_4", "ms", "lower", PLAN, PLAN_RATE),
    m("core.oracle_ms_n5_6", "ms", "lower", PLAN, PLAN_RATE),
    m("core.oracle_ms_n7_8", "ms", "lower", PLAN, PLAN_RATE),
    m("serve.engine_p50_us", "us", "lower", JSON, JSON_LATENCY),
    m("serve.engine_p99_us", "us", "lower", JSON, JSON_LATENCY),
    m("serve.wait_ms", "ms", "lower", JSON, JSON_LATENCY),
    m("serve.registry_hit_pct", "%", "higher", JSON, JSON_LATENCY),
    m(
        "serve.repeat_share_pct",
        "%",
        "higher",
        SERVE,
        "input property of serve-json, serve-binary",
    ),
    m(
        "net.decision_cache_hit_pct",
        "%",
        "higher",
        BINARY,
        BINARY_RATE,
    ),
    m(
        "net.batches_submitted",
        "count",
        "lower",
        BINARY,
        BINARY_RATE,
    ),
    m("net.wire_encode_ns", "ns", "lower", BINARY, BINARY_RATE),
    m("net.wire_decode_ns", "ns", "lower", BINARY, BINARY_RATE),
    m("persist.json_encode_ns", "ns", "lower", JSON, JSON_LATENCY),
    m("persist.json_decode_ns", "ns", "lower", JSON, JSON_LATENCY),
    m(
        "trace.overhead_pct",
        "%",
        "lower",
        ALL,
        "none: cost of tracing an op",
    ),
    m(
        "trace.span_coverage_pct",
        "%",
        "higher",
        ALL,
        "none: share of op time in layer spans",
    ),
    m(
        "trace.joint_model_err_pct",
        "%",
        "lower",
        PLAN,
        "none: plan closure check",
    ),
];

/// Gates of the two closure checks.
pub const MIN_COVERAGE_PCT: f64 = 90.0;
pub const MAX_JOINT_MODEL_ERR_PCT: f64 = 15.0;

fn mean_ns(l: &Ledger, span: &str) -> Option<f64> {
    l.total(span).map(|t| t.total_ns as f64 / t.count as f64)
}

/// `100 * numerator / denominator` over counters; an absent numerator
/// counts as zero, an absent or zero denominator means unmeasured.
fn share(l: &Ledger, numerator: &str, denominator: &str) -> Option<f64> {
    let d = l.counter(denominator).filter(|&d| d > 0.0)?;
    Some(100.0 * l.counter(numerator).unwrap_or(0.0) / d)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Share of the traced ops' time spent inside child (layer) spans.
fn span_coverage_pct(l: &Ledger, op_span: &str) -> Option<f64> {
    let t = l.total(op_span)?;
    Some(100.0 * (1.0 - t.self_ns as f64 / t.total_ns.max(1) as f64))
}

/// Tracing cost per op: the spans a traced op records times the measured
/// cost of one span, over the untraced mean op time. (Comparing the two
/// halves' op rates directly would compare different inputs.)
fn overhead_pct(l: &Ledger, op_span: &str, phases: &(Phase, Option<Phase>)) -> Option<f64> {
    let spans = l.total(op_span)?.spans as f64;
    let traced_ops = phases.1.as_ref()?.ops().max(1) as f64;
    let op_ns = mean(&phases.0.latencies_ms) * 1e6;
    Some(100.0 * spans / traced_ops * Ledger::span_cost_ns() / op_ns)
}

/// The value of a per-layer metric in a traced run's ledger, if the run
/// saw the layer.
fn layer_value(
    name: &str,
    l: &Ledger,
    op_span: &str,
    phases: &(Phase, Option<Phase>),
) -> Option<f64> {
    let ms = |span| mean_ns(l, span).map(|v| v / 1e6);
    match name {
        "microbench.mb1_ms" => ms("microbench.mb1"),
        "microbench.mb2_ms" => ms("microbench.mb2"),
        "microbench.mb3_ms" => ms("microbench.mb3"),
        "microbench.upm_ms" => ms("microbench.upm"),
        "profile.run_ms" => ms("profile.run"),
        "soc.sim_txn_per_op" => Some(l.counter("soc.txn")? / l.total("profile.run")?.count as f64),
        "soc.host_ns_per_txn" => {
            Some(l.total("profile.run")?.total_ns as f64 / l.counter("soc.txn_simulated")?)
        }
        "core.decide_us" => mean_ns(l, "core.decide").map(|v| v / 1e3),
        "core.solo_sim_ms" => ms("core.solo_sim"),
        "core.recommend_ms" => ms("core.recommend"),
        "models.interference_ns_per_combo" => Some(
            l.total("models.interference_sample")?.total_ns as f64
                / l.counter("models.interference_combos")?,
        ),
        "models.oracle_ns_per_combo" => Some(
            l.total("models.oracle_sample")?.total_ns as f64 / l.counter("models.oracle_combos")?,
        ),
        "core.combos_per_op" => Some(l.counter("core.combos")? / l.counter("core.joint_calls")?),
        "footprint.cap_binding_pct" => share(l, "footprint.binding_ops", "footprint.capped_ops"),
        "core.joint_ms_n2_4" => ms("core.joint_n2_4"),
        "core.joint_ms_n5_6" => ms("core.joint_n5_6"),
        "core.joint_ms_n7_8" => ms("core.joint_n7_8"),
        "core.oracle_ms_n2_4" => ms("core.oracle_n2_4"),
        "core.oracle_ms_n5_6" => ms("core.oracle_n5_6"),
        "core.oracle_ms_n7_8" => ms("core.oracle_n7_8"),
        "serve.engine_p50_us" => Some(median(l.samples("serve.engine_us")?)),
        "serve.engine_p99_us" => Some(percentile(&sorted(l.samples("serve.engine_us")?), 99.0)),
        "serve.wait_ms" => {
            Some((mean(l.samples("serve.client_us")?) - mean(l.samples("serve.engine_us")?)) / 1e3)
        }
        "serve.registry_hit_pct" => {
            let hits = l.counter("serve.registry_hits").unwrap_or(0.0);
            let misses = l.counter("serve.registry_misses").unwrap_or(0.0);
            (hits + misses > 0.0).then(|| 100.0 * hits / (hits + misses))
        }
        "serve.repeat_share_pct" => share(l, "serve.repeats", "serve.requests"),
        "net.decision_cache_hit_pct" => share(l, "net.decision_cache_hits", "net.requests"),
        "net.batches_submitted" => l.counter("net.batches"),
        "net.wire_encode_ns" => mean_ns(l, "net.wire_encode"),
        "net.wire_decode_ns" => mean_ns(l, "net.wire_decode"),
        "persist.json_encode_ns" => mean_ns(l, "persist.json_encode"),
        "persist.json_decode_ns" => mean_ns(l, "persist.json_decode"),
        "trace.overhead_pct" => overhead_pct(l, op_span, phases),
        "trace.span_coverage_pct" => span_coverage_pct(l, op_span),
        "trace.joint_model_err_pct" => {
            let model = l.counter("core.joint_model_ns")?;
            let measured = l.counter("core.joint_measured_ns").filter(|&m| m > 0.0)?;
            Some(100.0 * (model - measured).abs() / measured)
        }
        _ => None,
    }
}

/// One row of the per-layer ledger.
pub struct LayerRow {
    pub metric: Metric,
    pub layer: &'static LayerMetric,
    /// Whether this workload's traffic drives the layer. A row it does
    /// not drive reads 0: the workload spends nothing there.
    pub driven: bool,
    /// Whether the traced run measured the row.
    pub measured: bool,
}

/// Every per-layer metric of a traced run of `workload`.
pub fn layer_rows(
    workload: &str,
    l: &Ledger,
    op_span: &str,
    phases: &(Phase, Option<Phase>),
) -> Vec<LayerRow> {
    PER_LAYER
        .iter()
        .map(|layer| {
            let driven = layer.driven_by.contains(&workload);
            let value = driven
                .then(|| layer_value(layer.name, l, op_span, phases))
                .flatten();
            LayerRow {
                metric: Metric {
                    name: layer.name,
                    value: value.unwrap_or(0.0),
                    unit: layer.unit,
                },
                layer,
                driven,
                measured: value.is_some(),
            }
        })
        .collect()
}
