//! The seeded input generator. Every workload's inputs are a pure
//! function of `--seed`; the program under test only ever sees them.
//!
//! Structural choices (which board an op targets, how many tenants a mix
//! has and which apps they run, which serve key is how popular) cycle in
//! a fixed order, app variants come in fixed sizes, and the seed draws
//! everything else (power scales, page sizes, scenes, which variant each
//! op uses, current models, caps, request sequences).
//! A run of a few seconds therefore sees the same mix of heavy and light
//! ops on every seed, which keeps run-to-run spread low without repeating
//! inputs.

use icomm_apps::{LaneApp, OrbApp, ShwfsApp};
use icomm_core::CorunTenant;
use icomm_footprint::model_footprint;
use icomm_models::{candidate_models, CommModelKind, Workload};
use icomm_serve::catalog::{APP_NAMES, BOARD_NAMES};
use icomm_serve::TuneRequest;
use icomm_soc::units::ByteSize;
use icomm_soc::{DeviceProfile, PageSize};

use crate::common::{Rng, Strata};

/// The paper's three models: what an application may currently ship.
pub const SHIPPED: [CommModelKind; 3] = [
    CommModelKind::StandardCopy,
    CommModelKind::UnifiedMemory,
    CommModelKind::ZeroCopy,
];

/// App variants per app in a pool; ops pick among them.
pub const VARIANTS: usize = 12;

/// Catalog apps rebuilt at fixed sizes and seeded scenes. Variant `v` of
/// an app has its data size scaled by the middle of the `v`-th of
/// `VARIANTS` equal cells of `[lo, hi)`, whatever the seed. A seeded
/// shift of that grid moved every size of a run together: over ten
/// seeds, plan's median op time spread 11–17% with it and 7% without.
#[derive(Debug, Clone)]
pub struct AppPool {
    /// `apps[a][v]`: app `a` (catalog order) at variant `v`.
    pub apps: Vec<Vec<Workload>>,
}

impl AppPool {
    pub fn new(seed: u64, stream: u64, lo: f64, hi: f64) -> AppPool {
        let mut rng = Rng::new(seed, stream);
        let mut apps = Vec::new();
        for app in 0..APP_NAMES.len() {
            apps.push(
                (0..VARIANTS)
                    .map(|v| {
                        let scale = lo + (hi - lo) * (v as f64 + 0.5) / VARIANTS as f64;
                        scaled_app(app, scale, rng.next_u64())
                    })
                    .collect(),
            );
        }
        AppPool { apps }
    }
}

/// A catalog app with its data size (frame or image area, plus the host
/// work that scales with it) multiplied by `scale`.
fn scaled_app(app: usize, scale: f64, scene_seed: u64) -> Workload {
    let lin = scale.sqrt();
    let px = |base: u32| ((base as f64 * lin / 8.0).round() as u32).max(4) * 8;
    match app {
        0 => {
            let mut a = ShwfsApp::default();
            a.sensor.grid_x = ((a.sensor.grid_x as f64 * lin).round() as u32).max(4);
            a.sensor.grid_y = ((a.sensor.grid_y as f64 * lin).round() as u32).max(4);
            a.sensor.seed = scene_seed;
            a.workload()
        }
        1 => {
            let mut a = OrbApp::default();
            a.scene.width = px(a.scene.width);
            a.scene.height = px(a.scene.height);
            a.scene.rectangles = ((a.scene.rectangles as f64 * scale).round() as u32).max(8);
            a.scene.seed = scene_seed;
            a.matching_reads = (a.matching_reads as f64 * scale) as u64;
            a.host_ops = (a.host_ops as f64 * scale) as u64;
            a.workload()
        }
        _ => {
            let mut a = LaneApp::default();
            a.road.width = px(a.road.width);
            a.road.height = px(a.road.height);
            a.road.lane_half_width *= lin;
            a.road.seed = scene_seed;
            a.host_ops = (a.host_ops as f64 * scale) as u64;
            a.workload()
        }
    }
}

// ---------------------------------------------------------------- onboard

/// One new device to onboard: a stock board under a seeded power mode
/// and page size, plus the three apps it must tune.
#[derive(Debug, Clone)]
pub struct OnboardInput {
    pub device: DeviceProfile,
    /// `(app, variant, current model)` per catalog app.
    pub apps: [(usize, usize, CommModelKind); 3],
}

/// App sizes straddle the simulated GPU LLCs (256 KiB – 4 MiB).
const ONBOARD_SCALE: (f64, f64) = (0.5, 1.5);

pub fn onboard_pool(seed: u64) -> AppPool {
    AppPool::new(seed, 0x0b0a_0001, ONBOARD_SCALE.0, ONBOARD_SCALE.1)
}

/// Devices per round of the onboarding sequence: one of each stock
/// board, so every round carries the same mix of cheap and expensive
/// boards.
pub const ONBOARD_ROUND: usize = 6;

/// Device `i` of the onboarding sequence. The board cycles; power scales,
/// page size, app sizes and current models are seeded stratified draws,
/// so no two devices (and hence no two simulations) repeat.
pub fn onboard_input(seed: u64, i: usize) -> OnboardInput {
    let boards = DeviceProfile::extended_boards();
    let s = Strata::new(seed, 0x0b0a_1000);
    let scale = |d| s.range(d, i, 0.7, 1.3);
    let page = PageSize::ALL[s.below(3, i, PageSize::ALL.len())];
    let device = boards[i % boards.len()]
        .with_power_scale(scale(0), scale(1), scale(2))
        .with_page_size(page);
    let pick = |app: usize| {
        (
            app,
            s.below(4 + app, i, VARIANTS),
            SHIPPED[s.below(7 + app, i, SHIPPED.len())],
        )
    };
    OnboardInput {
        device,
        apps: [pick(0), pick(1), pick(2)],
    }
}

// ------------------------------------------------------------------- plan

/// One co-run planning request.
#[derive(Debug, Clone)]
pub struct PlanInput {
    /// Index into `DeviceProfile::extended_boards()`.
    pub board: usize,
    pub tenants: Vec<CorunTenant>,
    pub cap: Option<ByteSize>,
}

const PLAN_SCALE: (f64, f64) = (0.06, 0.18);
const PLAN_MIN_TENANTS: usize = 2;
const PLAN_MAX_TENANTS: usize = 8;

pub fn plan_pool(seed: u64) -> AppPool {
    AppPool::new(seed, 0x0b0a_0002, PLAN_SCALE.0, PLAN_SCALE.1)
}

/// Mixes per round of the planning sequence: one of each tenant count.
pub const PLAN_ROUND: usize = PLAN_MAX_TENANTS - PLAN_MIN_TENANTS + 1;

fn tenants_in(m: usize) -> usize {
    PLAN_MIN_TENANTS + m % PLAN_ROUND
}

/// Mix `m`: position `k = m % PLAN_ROUND` in its round fixes the
/// tenant count (N = 2 + k), the stock board (the largest mix lands on a
/// coherent board, where the search space is 4^8) and whether it is
/// capped (odd k: a cap strictly between the mix's cheapest and largest
/// summed footprint, so always feasible and always excluding something).
/// Tenant apps cycle over the running tenant index, so a mix holds about
/// N/3 of each app and every round the same share of each; sizes and
/// current models are seeded stratified draws over that index, which
/// spread evenly within each app as well.
pub fn plan_input(seed: u64, m: usize, pool: &AppPool) -> PlanInput {
    let boards = DeviceProfile::extended_boards();
    let k = m % PLAN_ROUND;
    let board = (k + 4) % boards.len();
    let s = Strata::new(seed, 0x0b0a_2000);
    let first: usize = (0..m).map(tenants_in).sum();
    let tenants: Vec<CorunTenant> = (first..first + tenants_in(m))
        .map(|g| {
            let app = g % APP_NAMES.len();
            CorunTenant {
                name: format!("{}-{}", APP_NAMES[app], g - first),
                workload: pool.apps[app][s.below(1, g, VARIANTS)].clone(),
                current: SHIPPED[s.below(2, g, SHIPPED.len())],
            }
        })
        .collect();
    let cap = (k % 2 == 1).then(|| {
        let (cheapest, largest) = footprint_bounds(&boards[board], &tenants);
        ByteSize(cheapest + ((largest - cheapest) as f64 * s.range(3, m, 0.15, 0.6)) as u64)
    });
    PlanInput {
        board,
        tenants,
        cap,
    }
}

/// Footprint of every tenant under every candidate model,
/// `[tenant][model]`, in candidate order.
pub fn footprints(device: &DeviceProfile, tenants: &[CorunTenant]) -> Vec<Vec<u64>> {
    let models = candidate_models(device);
    tenants
        .iter()
        .map(|t| {
            models
                .iter()
                .map(|&m| model_footprint(m, &t.workload, device).as_u64())
                .collect()
        })
        .collect()
}

/// `(Σ cheapest, Σ largest)` footprint over the mix.
pub fn footprint_bounds(device: &DeviceProfile, tenants: &[CorunTenant]) -> (u64, u64) {
    footprints(device, tenants)
        .iter()
        .fold((0, 0), |(lo, hi), fp| {
            (
                lo + fp.iter().min().copied().unwrap_or(0),
                hi + fp.iter().max().copied().unwrap_or(0),
            )
        })
}

/// `(all combinations, combinations within the cap)` of a mix.
pub fn combo_counts(fps: &[Vec<u64>], cap: Option<u64>) -> (u64, u64) {
    let base = fps.first().map_or(1, Vec::len).max(1);
    let total = (base as u64).pow(fps.len() as u32);
    let Some(cap) = cap else {
        return (total, total);
    };
    let mut within = 0;
    for combo in 0..total {
        let mut rest = combo as usize;
        let mut sum = 0;
        for fp in fps {
            sum += fp[rest % base];
            rest /= base;
        }
        if sum <= cap {
            within += 1;
        }
    }
    (total, within)
}

// ------------------------------------------------------------------ serve

/// `current` values a serve key may carry (`None` = the default, SC).
const SERVE_CURRENTS: [Option<&str>; 3] = [None, Some("um"), Some("zc")];
pub const SERVE_KEYS: usize = BOARD_NAMES.len() * APP_NAMES.len() * SERVE_CURRENTS.len();
const ZIPF_S: f64 = 1.1;

/// Key `k` as `(board, app, current)` indices.
fn key_indices(k: usize) -> (usize, usize, usize) {
    let per_board = APP_NAMES.len() * SERVE_CURRENTS.len();
    (
        k / per_board,
        (k / SERVE_CURRENTS.len()) % APP_NAMES.len(),
        k % SERVE_CURRENTS.len(),
    )
}

/// Key `k` as `(board, app, current)`.
pub fn serve_key(k: usize) -> (&'static str, &'static str, Option<&'static str>) {
    let (board, app, current) = key_indices(k);
    (BOARD_NAMES[board], APP_NAMES[app], SERVE_CURRENTS[current])
}

pub fn serve_key_name(k: usize) -> String {
    let (board, app, current) = serve_key(k);
    format!("{board}/{app}/{}", current.unwrap_or("none"))
}

pub fn tune_request(id: u64, k: usize) -> TuneRequest {
    let (board, app, current) = serve_key(k);
    let request = TuneRequest::new(id, board, app);
    match current {
        Some(model) => request.with_current(model),
        None => request,
    }
}

/// Popularity rank `r` (0 = hottest) maps to key `(r * 23) % 54`: a fixed
/// permutation that spreads boards, apps and current models across the
/// ranks, so the hot set is not one board's keys.
fn key_of_rank(rank: usize) -> usize {
    (rank * 23) % SERVE_KEYS
}

/// `len` keys drawn from Zipf(`ZIPF_S`) over the key ranks, for client
/// connection `conn`, by stratified draws. The keys' intervals of the
/// cumulative distribution are laid out by app, then current model, then
/// board: the app and whether a current model is given (a second profile
/// run) set what a request costs, so stratified draws keep each one's
/// share steady in any window of requests, and a run's cost with it.
pub fn serve_sequence(seed: u64, conn: usize, len: usize) -> Vec<u8> {
    let mut probability = [0.0; SERVE_KEYS];
    for rank in 0..SERVE_KEYS {
        probability[key_of_rank(rank)] = 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
    }
    let total: f64 = probability.iter().sum();
    let mut layout: Vec<usize> = (0..SERVE_KEYS).collect();
    layout.sort_by_key(|&k| {
        let (board, app, current) = key_indices(k);
        (app, current, board)
    });
    let mut cdf = Vec::with_capacity(SERVE_KEYS);
    let mut acc = 0.0;
    for &k in &layout {
        acc += probability[k] / total;
        cdf.push(acc);
    }
    let s = Strata::new(seed, 0x0b0a_3000 + conn as u64);
    (0..len)
        .map(|i| {
            let u = s.unit(0, i);
            layout[cdf.partition_point(|&c| c < u).min(SERVE_KEYS - 1)] as u8
        })
        .collect()
}

/// Positions whose key already appeared earlier in the sequence.
pub fn repeats(sequence: &[u8]) -> usize {
    let mut seen = [false; 256];
    sequence
        .iter()
        .filter(|&&k| std::mem::replace(&mut seen[k as usize], true))
        .count()
}

/// [`repeats`] as a share of the sequence, percent.
pub fn repeat_share_pct(sequence: &[u8]) -> f64 {
    100.0 * repeats(sequence) as f64 / sequence.len().max(1) as f64
}
