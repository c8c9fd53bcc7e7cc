//! `plan`: co-run planning on onboarded boards — capped joint assignment
//! followed by the capped oracle it is validated against. One op plans
//! one mix.

use std::time::Instant;

use icomm_core::JointAssignment;
use icomm_microbench::{quick_characterize_device, DeviceCharacterization};
use icomm_models::{candidate_models, CommModelKind};
use icomm_soc::DeviceProfile;

use crate::closed::{self, ClosedRun};
use crate::common::{setup_median, Digest, Rng};
use crate::inputs::{footprints, plan_input, plan_pool, AppPool, PlanInput, PLAN_ROUND};
use crate::layers;
use crate::ledger::Ledger;
use crate::{check, Args, DEFAULT_SEED};

/// Mixes planned per second by the two workers on the host the benchmark
/// was sized on (2 vCPUs of a shared 2.1 GHz Xeon): turns `--seconds`
/// into a fixed op count.
const OPS_PER_S: f64 = 3.5;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 2;

/// The generator pool plus every stock board's characterization (the
/// registry a planner consults), measured two boards at a time.
struct Planner {
    pool: AppPool,
    boards: Vec<DeviceProfile>,
    characterizations: Vec<DeviceCharacterization>,
}

impl Planner {
    fn new(seed: u64) -> Planner {
        let boards = DeviceProfile::extended_boards();
        let characterizations = std::thread::scope(|s| {
            let handles: Vec<_> = boards
                .chunks(boards.len().div_ceil(2))
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(quick_characterize_device)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("characterization thread panicked"))
                .collect()
        });
        Planner {
            pool: plan_pool(seed),
            boards,
            characterizations,
        }
    }

    fn plan(
        &self,
        input: &PlanInput,
        ledger: &mut Ledger,
    ) -> Result<(JointAssignment, Vec<CommModelKind>), String> {
        layers::plan(
            &self.boards[input.board],
            &self.characterizations[input.board],
            &input.tenants,
            input.cap,
            ledger,
        )
    }
}

/// Output checks of one mix: capped assignments fit their cap, and an
/// uncapped joint assignment is never worse than per-app greedy.
fn check_mix(
    m: usize,
    device: &DeviceProfile,
    input: &PlanInput,
    joint: &JointAssignment,
    oracle: &[CommModelKind],
) -> Option<String> {
    match input.cap {
        Some(cap) => {
            let models = candidate_models(device);
            let oracle_fp: u64 = oracle
                .iter()
                .zip(footprints(device, &input.tenants))
                .map(|(m, fp)| {
                    models
                        .iter()
                        .position(|x| x == m)
                        .map_or(u64::MAX, |k| fp[k])
                })
                .sum();
            (joint.footprint > cap || oracle_fp > cap.as_u64())
                .then(|| format!("mix {m}: an assignment exceeds its cap"))
        }
        None => (joint.joint_total > joint.greedy_total)
            .then(|| format!("mix {m}: joint assignment worse than greedy")),
    }
}

fn digest(joint: &JointAssignment, oracle: &[CommModelKind]) -> u64 {
    let mut d = Digest::default();
    layers::digest_plan(&mut d, joint, oracle);
    d.value()
}

pub fn run(args: &Args, process_start: Instant) -> Result<(ClosedRun, f64), String> {
    let planner = Planner::new(args.seed);
    let first_setup_s = process_start.elapsed().as_secs_f64();
    let (mut run, mixes) = closed::run(args, "plan", OPS_PER_S, PLAN_ROUND, |m, ledger| {
        let input = plan_input(args.seed, m, &planner.pool);
        let started = Instant::now();
        ledger.enter("plan.mix");
        let planned = planner.plan(&input, ledger);
        ledger.exit();
        let took = started.elapsed();
        let (joint, oracle) = planned?;
        let device = &planner.boards[input.board];
        if ledger.enabled() {
            // Outside the op's time: re-does the mix piece by piece.
            let mut rng = Rng::new(args.seed, 0x0b0a_5000 + m as u64);
            layers::decompose_plan(
                device,
                &planner.characterizations[input.board],
                &input.tenants,
                input.cap,
                &mut rng,
                ledger,
            );
        }
        let checked = check_mix(m, device, &input, &joint, &oracle);
        let agreed = joint.models() == oracle;
        Ok((took, digest(&joint, &oracle), (checked, agreed)))
    })?;
    let agree = mixes.iter().filter(|(_, (_, agreed))| *agreed).count();
    eprintln!(
        "plan: joint assignment matched the oracle on {agree} of {} mixes",
        mixes.len()
    );
    run.outcome
        .problems
        .extend(mixes.into_iter().filter_map(|(_, (checked, _))| checked));

    // Known answer: mix 0 of the default seed, planned again after the
    // measured phase.
    let input = plan_input(DEFAULT_SEED, 0, &plan_pool(DEFAULT_SEED));
    match planner.plan(&input, &mut Ledger::new(false)) {
        Ok((joint, oracle)) => check::digest(
            &mut run.outcome,
            &check::expected(),
            "known",
            "plan",
            DEFAULT_SEED,
            &format!("{:016x}", digest(&joint, &oracle)),
        ),
        Err(e) => run
            .outcome
            .problems
            .push(format!("plan: known mix failed: {e}")),
    }
    let setup_s = setup_median(first_setup_s, SETUP_REPS - 1, || {
        Ok(Planner::new(args.seed))
    })?;
    // Set-ups are the same kind of work as the ops, timed just before and
    // just after them, so they are reported at the same host speed.
    let speed = run.phases.0.host_speed();
    Ok((run, setup_s * speed))
}
