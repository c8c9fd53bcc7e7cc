//! # icomm — optimizing CPU-iGPU communication on embedded platforms
//!
//! A from-scratch Rust reproduction of *"A Framework for Optimizing
//! CPU-iGPU Communication on Embedded Platforms"* (DAC 2021): a decision
//! framework that, given an application and an embedded shared-memory SoC,
//! predicts which CPU-iGPU communication model — **standard copy (SC)**,
//! **unified memory (UM)** or **zero copy (ZC)** — is fastest, and by how
//! much.
//!
//! Because the paper's artifact requires NVIDIA Jetson hardware, this
//! workspace substitutes a deterministic transaction-level SoC simulator
//! calibrated to the paper's measured device characteristics. See
//! `DESIGN.md` for the substitution argument and `EXPERIMENTS.md` for the
//! paper-vs-measured comparison of every table and figure.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Role |
//! |-----------|-------|------|
//! | [`soc`] | `icomm-soc` | SoC simulator substrate (caches, DRAM, CPU, GPU, devices) |
//! | [`trace`] | `icomm-trace` | memory-access patterns and tracing |
//! | [`models`] | `icomm-models` | SC / UM / ZC + the tiled zero-copy pattern |
//! | [`profile`] | `icomm-profile` | profiler emulation |
//! | [`microbench`] | `icomm-microbench` | the paper's three micro-benchmarks |
//! | [`footprint`] | `icomm-footprint` | memory-footprint models, per-board budgets, charge/release ledger |
//! | [`core`] | `icomm-core` | performance model (Eqns. 1–4) + decision flow (Fig. 2) |
//! | [`apps`] | `icomm-apps` | Shack–Hartmann, ORB and lane-detection case studies |
//! | [`persist`] | `icomm-persist` | JSON persistence for characterizations and reports |
//! | [`serve`] | `icomm-serve` | concurrent tuning service: sharded registry, worker pool, request/response protocol |
//! | [`adapt`] | `icomm-adapt` | online phase-aware adaptation: drift detector + switch controller |
//! | [`chaos`] | `icomm-chaos` | deterministic fault injection across the profile→adapt→serve→persist stack |
//! | [`fleet`] | `icomm-fleet` | fleet-scale load generation, federated characterization transfer, admission-control validation |
//! | [`sched`] | `icomm-sched` | multi-tenant co-run scheduler: joint model assignment, interference-aware virtual-time engine, bandwidth budgets |
//! | [`synth`] | `icomm-synth` | auto-synthesized algebraic decision rules distilled from simulator sweeps |
//!
//! ## Quickstart
//!
//! ```no_run
//! use icomm::apps::ShwfsApp;
//! use icomm::core::Tuner;
//! use icomm::models::CommModelKind;
//! use icomm::soc::DeviceProfile;
//!
//! // Characterize the board (runs the three micro-benchmarks)...
//! let tuner = Tuner::new(DeviceProfile::jetson_agx_xavier());
//! // ...profile an application under its current model...
//! let workload = ShwfsApp::default().workload();
//! let outcome = tuner.recommend(&workload, CommModelKind::StandardCopy);
//! // ...and read the verdict.
//! println!("{}", outcome.recommendation.rationale);
//! ```

#![warn(missing_docs)]

pub use icomm_adapt as adapt;
pub use icomm_apps as apps;
pub use icomm_chaos as chaos;
pub use icomm_core as core;
pub use icomm_fleet as fleet;
pub use icomm_footprint as footprint;
pub use icomm_microbench as microbench;
pub use icomm_models as models;
pub use icomm_net as net;
pub use icomm_persist as persist;
pub use icomm_profile as profile;
pub use icomm_resilience as resilience;
pub use icomm_sched as sched;
pub use icomm_serve as serve;
pub use icomm_soc as soc;
pub use icomm_synth as synth;
pub use icomm_trace as trace;
