//! # icomm-serve — concurrent tuning as a service
//!
//! The framework's decision flow is cheap; the per-device
//! characterization is not. This crate turns the tuner into a service
//! that amortizes the expensive part across every caller:
//!
//! - [`registry`] — a sharded, single-flight cache of
//!   [`icomm_microbench::DeviceCharacterization`]s keyed by the device
//!   fingerprint, with JSON persistence for warm starts.
//! - [`engine`] — a work-stealing worker pool with per-job deadlines,
//!   bounded retry, and panic isolation.
//! - [`service`] — the in-process API: submit [`TuneRequest`] batches,
//!   get [`TuneResponse`]s, read [`metrics`].
//! - [`protocol`] — the request, response and stats types both wires
//!   carry; the TCP listener that speaks them is `icomm-net`'s.
//!
//! A batch of a hundred requests spanning the four built-in boards costs
//! four characterization sweeps — every other request is a registry hit
//! or coalesces onto an in-flight sweep.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod catalog;
pub mod engine;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod service;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, RequestClass, ShedReason, TokenBucket,
};
pub use engine::{BatchHandle, Engine, EngineConfig, JobError, JobOutcome};
pub use metrics::{Metrics, MetricsSnapshot};
pub use protocol::{StatsQuery, StatsReport, TuneRequest, TuneResponse};
pub use registry::{EntryMeta, LookupOutcome, Registry, RegistrySnapshot};
pub use service::{CharacterizerFn, ServiceBatch, ServiceConfig, TuningService};
