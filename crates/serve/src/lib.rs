//! # icomm-serve — concurrent tuning as a service
//!
//! The framework's decision flow is cheap; the per-device
//! characterization is not. This crate turns the tuner into a service
//! that amortizes the expensive part across every caller:
//!
//! - [`registry`] — a single-flight cache of
//!   [`icomm_microbench::DeviceCharacterization`]s keyed by the device
//!   fingerprint: one map under one lock (a deployment sees a handful of
//!   boards, each characterized once), with the transfer-or-measure miss
//!   path and JSON persistence for warm starts.
//! - [`engine`] — a fixed worker pool over one shared queue, with
//!   per-job deadlines, bounded in-place retry, and panic isolation.
//! - [`service`] — the in-process API: submit [`TuneRequest`] batches,
//!   get [`TuneResponse`]s, read [`metrics`].
//! - [`protocol`] — the request, response and stats types both wires
//!   carry; the TCP listener that speaks them is `icomm-net`'s.
//! - [`catalog`] — the board, app and model names requests may use
//!   (defined in `icomm-apps`, shared with every other surface).
//!
//! A batch of a hundred requests spanning the four built-in boards costs
//! four characterization sweeps — every other request is a registry hit
//! or coalesces onto an in-flight sweep.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod engine;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod service;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, RequestClass, ShedReason, TokenBucket,
};
pub use engine::{BatchHandle, Engine, EngineConfig, JobError, JobOutcome};
/// Name resolution for the serving protocol; the table lives in
/// [`icomm_apps::catalog`] so every surface shares it.
pub use icomm_apps::catalog;
pub use metrics::{Metrics, MetricsSnapshot};
pub use protocol::{StatsQuery, StatsReport, TuneRequest, TuneResponse};
pub use registry::{EntryMeta, LookupOutcome, Registry, RegistrySnapshot};
pub use service::{CharacterizerFn, ServiceBatch, ServiceConfig, TuningService};
