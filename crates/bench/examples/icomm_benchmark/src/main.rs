//! The icomm benchmark: one workload per process, every metric by name.
//!
//! ```text
//! icomm_benchmark --workload onboard|plan|serve-json|serve-binary
//!                 [--seed N] [--seconds S] [--trace 0|1] [--icomm PATH]
//! icomm_benchmark --selfcheck [--seed N]
//! ```
//!
//! The command in `BENCHMARK.json` is invoked with `--workload`,
//! `--seed`, `--seconds <run_seconds>` and `--trace` by whatever runs the
//! benchmark; `--seconds` defaults to that same `run_seconds`. An
//! untraced run (`--trace 0`, the default) prints the end-to-end
//! metrics; a traced run prints the per-layer ledger and writes its spans
//! next to the binary. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Any output
//! check that fails makes `correct` false and the exit code 1. See
//! README.md for what each workload and metric is for.

mod check;
mod closed;
mod common;
mod host;
mod inputs;
mod layers;
mod ledger;
mod onboard;
mod plan;
mod report;
mod selfcheck;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::{median, percentile, Metric, Outcome, Phase};
use ledger::Ledger;
use serve::Wire;

pub const WORKLOADS: [&str; 4] = ["onboard", "plan", "serve-json", "serve-binary"];
/// The default seed; `expected.json` also records the held-out 1042.
pub const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage: icomm_benchmark --workload onboard|plan|serve-json|serve-binary \
[--seed N] [--seconds S] [--trace 0|1] [--icomm PATH]\n       icomm_benchmark --selfcheck [--seed N]";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured seconds of the run.
    pub seconds: f64,
    pub trace: bool,
    pub selfcheck: bool,
    /// The `icomm` CLI the serve workloads start; defaults to the one
    /// built next to this binary.
    pub icomm: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: report::manifest().run_seconds,
        trace: false,
        selfcheck: false,
        icomm: std::env::current_exe()
            .map_err(|e| format!("cannot locate this binary: {e}"))?
            .with_file_name("icomm"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds '{value}'"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--icomm" => args.icomm = PathBuf::from(value),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !args.selfcheck && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.selfcheck {
        selfcheck::run(args.seed)
    } else {
        run(&args, process_start)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// What every workload hands back for reporting.
struct Run {
    outcome: Outcome,
    ledger: Ledger,
    phases: (Phase, Option<Phase>),
    /// The span around one op, for coverage and tracing overhead.
    op_span: &'static str,
}

fn run(args: &Args, process_start: Instant) -> Result<bool, String> {
    let mut run = match args.workload.as_str() {
        "onboard" | "plan" => {
            let (seq, setup_s, op_span) = if args.workload == "onboard" {
                let (seq, setup_s) = onboard::run(args, process_start)?;
                (seq, setup_s, "onboard.op")
            } else {
                let (seq, setup_s) = plan::run(args, process_start)?;
                (seq, setup_s, "plan.mix")
            };
            let mut outcome = seq.outcome;
            outcome.metric("setup_s", setup_s, "s");
            Run {
                outcome,
                ledger: seq.ledger,
                phases: seq.phases,
                op_span,
            }
        }
        _ => {
            let wire = if args.workload == "serve-json" {
                Wire::Json
            } else {
                Wire::Binary
            };
            let s = serve::run(args, process_start, wire)?;
            Run {
                outcome: s.outcome,
                ledger: s.ledger,
                phases: s.phases,
                op_span: "serve.request",
            }
        }
    };

    let mut reported: Vec<Metric> = Vec::new();
    if args.trace {
        let rows = report::layer_rows(&args.workload, &run.ledger, run.op_span, &run.phases);
        println!("per-layer ledger ({}, seed {}):", args.workload, args.seed);
        for row in &rows {
            println!(
                "  {:<34} {:>16.6} {:<5}  {}  moves: {}",
                row.metric.name,
                row.metric.value,
                row.metric.unit,
                if row.driven {
                    "[driven]    "
                } else {
                    "[not driven]"
                },
                row.layer.moves
            );
            run.outcome.check(
                !row.driven || row.measured,
                format!(
                    "per-layer metric {} was not measured on {}",
                    row.metric.name, args.workload
                ),
            );
        }
        closure_checks(&args.workload, &rows);
        write_trace(args, &run.ledger);
        reported.extend(rows.into_iter().map(|row| row.metric));
    } else {
        let phase = &run.phases.0;
        let mut sorted = phase.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        print_latencies(&args.workload, phase, &sorted);
        let by_name = |name: &str| {
            run.outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        let speed = phase.host_speed();
        for (name, unit, _) in report::END_TO_END {
            let value = match name {
                "ops_per_s" => Some(sorted.len() as f64 / phase.wall_s / speed),
                "op_p50_ms" => Some(median(&sorted) * speed),
                other => by_name(other),
            };
            if let Some(value) = value {
                reported.push(Metric { name, value, unit });
            }
        }
    }

    for p in &run.outcome.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let mut correct = run.outcome.problems.is_empty();
    let mut fields = Vec::new();
    for metric in &reported {
        println!("metric {} = {} {}", metric.name, metric.value, metric.unit);
        if metric.value.is_finite() {
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            ));
        } else {
            eprintln!(
                "CHECK FAILED: metric {} is not a finite number",
                metric.name
            );
            correct = false;
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.outcome.attempted,
        run.outcome.failed,
        fields.join(", ")
    );
    Ok(correct)
}

/// Prints the sample count, the median and the highest percentile of the
/// ladder that keeps at least ten samples beyond it. The tail is printed,
/// not reported: an onboard or plan run holds too few ops for any tail.
fn print_latencies(workload: &str, phase: &Phase, sorted: &[f64]) {
    let n = sorted.len();
    let beyond = |p: f64| n - ((p / 100.0 * n as f64).ceil() as usize).min(n);
    let tail = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| beyond(p) >= 10);
    let tail = match tail {
        Some(p) => format!(
            "p{p} {:.6} ms ({} samples beyond)",
            percentile(sorted, p),
            beyond(p)
        ),
        None => "no percentile above p50 has ten samples beyond it".to_string(),
    };
    println!(
        "{workload}: {n} ops in {:.3} s; p50 {:.6} ms; {tail}",
        phase.wall_s,
        median(sorted)
    );
    if let Some((kernel, ms)) = &phase.reference {
        println!(
            "{workload}: host speed {:.4} of the sized host ({} median {:.4} ms over {} \
             samples); ops_per_s and op_p50_ms, and on onboard and plan setup_s, are reported \
             at the sized host's speed",
            phase.host_speed(),
            kernel.name(),
            median(ms),
            ms.len()
        );
    }
}

/// Prints the two closure checks: on `onboard` the layer spans must cover
/// at least 90% of op time; on `plan` the joint assignment's time must
/// match its pieces within 15%. They judge the trace, not the outputs,
/// so they do not make a run incorrect.
fn closure_checks(workload: &str, rows: &[report::LayerRow]) {
    let value = |name: &str| {
        rows.iter()
            .find(|row| row.metric.name == name && row.measured)
            .map(|row| row.metric.value)
    };
    if let Some(coverage) = value("trace.span_coverage_pct") {
        let gate = workload == "onboard";
        println!(
            "closure: layer spans cover {coverage:.2}% of {workload} op time{}",
            if !gate {
                String::new()
            } else if coverage >= report::MIN_COVERAGE_PCT {
                format!(" (PASS, >= {}%)", report::MIN_COVERAGE_PCT)
            } else {
                format!(" (FAIL, < {}%)", report::MIN_COVERAGE_PCT)
            }
        );
    }
    if let Some(err) = value("trace.joint_model_err_pct") {
        println!(
            "closure: joint time vs solo sims + recommends + combos x per-combo score: {err:.2}% error ({})",
            if err <= report::MAX_JOINT_MODEL_ERR_PCT {
                "PASS"
            } else {
                "FAIL"
            }
        );
    }
}

fn write_trace(args: &Args, ledger: &Ledger) {
    let dir = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("icomm_benchmark_traces"),
        Err(e) => {
            eprintln!("cannot locate this binary, trace not written: {e}");
            return;
        }
    };
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let result = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, ledger.to_json(&args.workload, args.seed)));
    match result {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("cannot write trace {}: {e}", path.display()),
    }
    eprintln!("span summary ({}):", args.workload);
    for line in ledger.summary_lines() {
        eprintln!("{line}");
    }
}
