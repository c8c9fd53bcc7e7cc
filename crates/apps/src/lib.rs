//! # icomm-apps — the paper's two edge-computing case studies
//!
//! Real Rust implementations of the applications the paper tunes, each
//! paired with a workload descriptor for the `icomm` simulator:
//!
//! - [`shwfs`]: **Shack–Hartmann wavefront sensing** — synthetic sensor
//!   frames, thresholded centre-of-gravity centroid extraction (the GPU
//!   kernel), and wavefront-slope computation (the CPU routine).
//! - [`orb`]: an **ORB feature-extraction front-end** — FAST-9 corner
//!   detection with non-maximum suppression, intensity-centroid
//!   orientation and rotated-BRIEF descriptors, plus the tracker-side
//!   access pattern that makes zero copy collapse on non-I/O-coherent
//!   devices.
//! - [`lane`]: a **lane-detection ADAS pipeline** (Sobel + restricted
//!   Hough) — the streaming application class the paper's introduction
//!   motivates the framework with.
//!
//! The algorithms compute validated numbers (see their unit tests) and
//! are instrumented with [`icomm_trace::Tracer`] so the workload
//! descriptors are sized from *traced* shared-buffer traffic rather than
//! hand-waved estimates.
//!
//! Each app also offers a three-phase [`phased`] variant
//! (`phased_workload`) whose regimes flip the optimal communication
//! model — the test inputs of the online adaptation layer
//! (`icomm-adapt`) — and the apps combine into named co-run tenant
//! mixes ([`corun`]), the inputs of the multi-tenant scheduler
//! (`icomm-sched`). The [`catalog`] resolves the board, application and
//! model names every surface accepts.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
pub mod corun;
pub mod image;
pub mod lane;
pub mod orb;
pub mod phased;
pub mod shwfs;

pub use corun::{mix_by_name, TenantSpec, MIX_NAMES};
pub use image::Image;
pub use lane::LaneApp;
pub use orb::OrbApp;
pub use shwfs::ShwfsApp;
