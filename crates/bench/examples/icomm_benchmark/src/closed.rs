//! The closed loop shared by `onboard` and `plan`: two workers, one per
//! core, each taking the next op index as soon as its last op is done.
//!
//! Two workers rather than one because the host's slow spells strike each
//! core on its own: two runs side by side on the two cores slowed down at
//! uncorrelated moments (correlation -0.03 over 120 s), so the pooled rate
//! of two workers wanders less than the rate of one.
//!
//! After every op a worker also times the [`Walk`] reference kernel,
//! outside the op's time. The kernel's median time over
//! the run gives the speed the host ran at (see [`Phase::host_speed`]),
//! with which `main` reports op rate and latency at the speed of the host
//! the benchmark was sized on. The host's speed drifts by ±15% over
//! minutes, which no run of 20 s averages away.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::check;
use crate::common::{ops_for, peak_rss_mib, Digest, Outcome, Phase};
use crate::host::{Kernel, Walk};
use crate::ledger::Ledger;
use crate::Args;

/// Worker threads: the cores of the host the benchmark was sized on.
pub const WORKERS: usize = 2;

/// One op's result: its measured duration, the digest of its outputs and
/// whatever the workload checks after the run.
pub type Done<T> = (Duration, u64, T);

pub struct ClosedRun {
    pub outcome: Outcome,
    pub ledger: Ledger,
    /// `(untraced, traced)` phases; a traced run splits its time evenly.
    pub phases: (Phase, Option<Phase>),
}

/// Runs `op(i, ledger)` for the run's seconds at `ops_per_s`, in rounds of
/// `round` ops, untraced and then (with `--trace 1`) traced, takes the
/// process's peak RSS before any later check allocates, and compares the
/// first round's output digest with the one recorded for the seed.
/// Also returns `(op index, output)` of every op that succeeded, in op
/// order.
pub fn run<T: Send>(
    args: &Args,
    workload: &str,
    ops_per_s: f64,
    round: usize,
    op: impl Fn(usize, &mut Ledger) -> Result<Done<T>, String> + Sync,
) -> Result<(ClosedRun, Vec<(usize, T)>), String> {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let count = ops_for(seconds, ops_per_s, round);
    let (first, _, mut done) = closed_loop(0, count, false, &op);
    let mut first_round = Digest::default();
    let first_round_ok = (0..round).all(|i| done.get(i).is_some_and(|d| d.0 == i));
    for (_, digest, _) in done.iter().take(round) {
        first_round.u64(*digest);
    }
    let (traced, ledger) = if args.trace {
        let (phase, ledger, more) = closed_loop(first.next, count, true, &op);
        done.extend(more);
        (Some(phase), ledger)
    } else {
        (None, Ledger::new(false))
    };

    let mut out = Outcome::default();
    out.metric("peak_rss_mib", peak_rss_mib(None)?, "MiB");
    let digest = if first_round_ok {
        first_round.hex()
    } else {
        "failed".to_string()
    };
    check::digest(
        &mut out,
        &check::expected(),
        "outputs",
        workload,
        args.seed,
        &digest,
    );
    let phases = [Some(&first), traced.as_ref()];
    out.attempted = phases
        .iter()
        .flatten()
        .map(|p| p.ops() as u64 + p.failed)
        .sum();
    out.failed = phases.iter().flatten().map(|p| p.failed).sum();
    let run = ClosedRun {
        outcome: out,
        ledger,
        phases: (first, traced),
    };
    Ok((run, done.into_iter().map(|(i, _, t)| (i, t)).collect()))
}

/// What one worker did in a phase.
struct Worker<T> {
    ledger: Ledger,
    done: Vec<(usize, Duration, u64, T)>,
    failed: u64,
    /// From the phase's start to the end of this worker's last op, less
    /// the time spent in the reference kernel.
    busy_s: f64,
    reference_ms: Vec<f64>,
}

/// Runs ops `start .. start + count` on [`WORKERS`] threads. The phase's
/// wall time is the workers' mean busy time: ops over it is the pooled
/// rate while both work, without the tail where one has run out of ops
/// and waits for the other's last one. Returns the phase, the merged
/// ledger and `(index, digest, output)` of each successful op in order.
fn closed_loop<T: Send>(
    start: usize,
    count: usize,
    traced: bool,
    op: &(impl Fn(usize, &mut Ledger) -> Result<Done<T>, String> + Sync),
) -> (Phase, Ledger, Vec<(usize, u64, T)>) {
    let next = AtomicUsize::new(start);
    let end = start + count;
    let mut ledger = Ledger::new(traced);
    let began = Instant::now();
    let workers: Vec<Worker<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut w = Worker {
                        ledger: Ledger::new(traced),
                        done: Vec::new(),
                        failed: 0,
                        busy_s: 0.0,
                        reference_ms: Vec::new(),
                    };
                    let reference = Walk::new();
                    let mut reference_s = 0.0;
                    loop {
                        // Relaxed: the counter hands out indices and
                        // publishes no other data.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= end {
                            break;
                        }
                        w.ledger.set_op(i as u64);
                        match op(i, &mut w.ledger) {
                            Ok((took, digest, output)) => w.done.push((i, took, digest, output)),
                            Err(e) => {
                                eprintln!("op {i} failed: {e}");
                                w.failed += 1;
                            }
                        }
                        let (timed_ms, spent_ms) = reference.time_ms();
                        w.reference_ms.push(timed_ms);
                        reference_s += spent_ms / 1e3;
                    }
                    w.busy_s = began.elapsed().as_secs_f64() - reference_s;
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let mut phase = Phase {
        next: end,
        ..Phase::default()
    };
    let mut done = Vec::with_capacity(count);
    let mut reference_ms = Vec::new();
    for w in workers {
        phase.wall_s += w.busy_s / WORKERS as f64;
        phase.failed += w.failed;
        reference_ms.extend(w.reference_ms);
        ledger.merge(w.ledger);
        done.extend(w.done);
    }
    phase.reference = Some((Kernel::Walk, reference_ms));
    done.sort_by_key(|d| d.0);
    phase.latencies_ms = done.iter().map(|d| d.1.as_secs_f64() * 1e3).collect();
    let done = done
        .into_iter()
        .map(|(i, _, digest, t)| (i, digest, t))
        .collect();
    (phase, ledger, done)
}
