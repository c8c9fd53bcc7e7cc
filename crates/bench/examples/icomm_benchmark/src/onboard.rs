//! `onboard`: the paper's Fig. 2 flow end to end on devices nobody has
//! seen before — characterize each, then tune the three catalog apps.
//! One op onboards one new device.

use std::time::Instant;

use icomm_core::{recommend_for_device, TuningOutcome};
use icomm_microbench::{characterize_device, DeviceCharacterization};
use icomm_models::candidate_models;

use crate::closed::{self, ClosedRun};
use crate::common::{setup_median, Digest};
use crate::inputs::{onboard_input, onboard_pool, AppPool, ONBOARD_ROUND};
use crate::layers;
use crate::ledger::Ledger;
use crate::{check, Args, DEFAULT_SEED};

/// Devices onboarded per second by the two workers on the host the
/// benchmark was sized on (2 vCPUs of a shared 2.1 GHz Xeon): turns
/// `--seconds` into a fixed op count.
const OPS_PER_S: f64 = 1.5;
/// Set-ups per run; `setup_s` is their median. A set-up takes half a
/// second, short enough for the host's wander to move one by 40%.
const SETUP_REPS: usize = 5;

/// What onboarding one device produced.
struct Onboarded {
    digest: u64,
    characterization: DeviceCharacterization,
    outcomes: Vec<TuningOutcome>,
    /// Recommendations that are not candidate models of the device.
    invalid: Vec<String>,
}

fn onboard_device(seed: u64, j: usize, pool: &AppPool, ledger: &mut Ledger) -> Onboarded {
    let input = onboard_input(seed, j);
    let characterization = layers::characterize(&input.device, ledger);
    let outcomes: Vec<TuningOutcome> = input
        .apps
        .iter()
        .map(|&(app, variant, current)| {
            layers::recommend(
                &input.device,
                &characterization,
                &pool.apps[app][variant],
                current,
                ledger,
            )
        })
        .collect();
    let models = candidate_models(&input.device);
    let mut digest = Digest::default();
    layers::digest_characterization(&mut digest, &characterization);
    let mut invalid = Vec::new();
    for o in &outcomes {
        layers::digest_outcome(&mut digest, o);
        if !models.contains(&o.recommendation.recommended) {
            invalid.push(format!(
                "device {j}: recommended {:?} is not a candidate model",
                o.recommendation.recommended
            ));
        }
    }
    Onboarded {
        digest: digest.value(),
        characterization,
        outcomes,
        invalid,
    }
}

pub fn run(args: &Args, process_start: Instant) -> Result<(ClosedRun, f64), String> {
    let pool = onboard_pool(args.seed);
    let first_setup_s = process_start.elapsed().as_secs_f64();
    let (mut run, devices) =
        closed::run(args, "onboard", OPS_PER_S, ONBOARD_ROUND, |i, ledger| {
            let started = Instant::now();
            ledger.enter("onboard.op");
            let device = onboard_device(args.seed, i, &pool, ledger);
            ledger.exit();
            Ok((started.elapsed(), device.digest, device))
        })?;
    for (_, device) in &devices {
        run.outcome.problems.extend(device.invalid.iter().cloned());
    }
    // The first device onboarded traced, to check the split calls against
    // the composite ones.
    let traced_from = run.phases.0.next;
    let split = devices.into_iter().find(|(j, _)| *j >= traced_from);

    // Known answer: device 0 of the default seed, onboarded again after
    // the measured phase.
    let default_pool;
    let known_pool = if args.seed == DEFAULT_SEED {
        &pool
    } else {
        default_pool = onboard_pool(DEFAULT_SEED);
        &default_pool
    };
    let known = onboard_device(DEFAULT_SEED, 0, known_pool, &mut Ledger::new(false));
    check::digest(
        &mut run.outcome,
        &check::expected(),
        "known",
        "onboard",
        DEFAULT_SEED,
        &format!("{:016x}", known.digest),
    );
    if let Some((j, traced)) = split {
        let input = onboard_input(args.seed, j);
        run.outcome.check(
            characterize_device(&input.device) == traced.characterization,
            "traced micro-benchmarks differ from characterize_device",
        );
        for (&(app, variant, current), outcome) in input.apps.iter().zip(&traced.outcomes) {
            let whole = recommend_for_device(
                &input.device,
                &traced.characterization,
                &pool.apps[app][variant],
                current,
            );
            run.outcome.check(
                whole == *outcome,
                "traced profile/decide calls differ from recommend_for_device",
            );
        }
    }
    let setup_s = setup_median(first_setup_s, SETUP_REPS - 1, || {
        Ok(onboard_pool(args.seed))
    })?;
    // Set-ups are the same kind of work as the ops, timed just before and
    // just after them, so they are reported at the same host speed.
    let speed = run.phases.0.host_speed();
    Ok((run, setup_s * speed))
}
