//! # icomm-soc — transaction-level heterogeneous SoC simulator
//!
//! A deterministic simulator of an embedded system-on-chip in which a CPU
//! cluster and an integrated GPU (iGPU) share one LPDDR system memory, in
//! the style of the NVIDIA Jetson family. It is the hardware substrate for
//! the `icomm` framework, which reproduces *“A Framework for Optimizing
//! CPU-iGPU Communication on Embedded Platforms”* (DAC 2021).
//!
//! The simulator models exactly the signals the framework's performance
//! model consumes:
//!
//! - set-associative write-back caches with flush/invalidate maintenance
//!   and per-level hit/miss/writeback counters ([`cache`]),
//! - per-(space, kind) cost tallies of each task's traffic, with repeated
//!   passes charged without replay once they reach a fixed point
//!   ([`traffic`]),
//! - a shared DRAM controller with bandwidth and latency bounds ([`dram`]),
//! - per-device **zero-copy rules**: pinned allocations bypass the GPU
//!   caches everywhere, bypass the CPU caches on Nano/TX2-class parts, and
//!   ride hardware I/O coherence (GPU snoops the CPU LLC) on AGX
//!   Xavier-class parts ([`hierarchy`]),
//! - throughput-bound CPU/GPU execution models ([`cpu`], [`gpu`]), a DMA
//!   copy engine ([`copy_engine`]), and a first-order energy model
//!   ([`energy`]),
//! - ready-made [`device::DeviceProfile`] presets for the Jetson Nano, TX2
//!   and AGX Xavier, calibrated against the paper's measured device
//!   characteristics.
//!
//! # Example
//!
//! ```
//! use icomm_soc::device::DeviceProfile;
//! use icomm_soc::hierarchy::MemSpace;
//! use icomm_soc::request::MemRequest;
//! use icomm_soc::soc::Soc;
//!
//! // Stream 1 MiB through the GPU on a simulated TX2, first via the cached
//! // path, then via the pinned zero-copy path.
//! let mut soc = Soc::new(DeviceProfile::jetson_tx2());
//! let stream = |space| (0..16_384u64).map(move |i| MemRequest::read(i * 64, 64, space));
//! let cached = soc.run_kernel(0, stream(MemSpace::Cached));
//! let pinned = soc.run_kernel(0, stream(MemSpace::Pinned));
//! assert!(pinned.time > cached.time); // zero-copy bypasses the caches
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod copy_engine;
pub mod cpu;
pub mod device;
pub mod dram;
pub mod energy;
pub mod gpu;
pub mod hierarchy;
pub mod request;
pub mod soc;
pub mod stats;
pub mod traffic;

pub use icomm_mem::units;

pub use device::DeviceProfile;
pub use icomm_mem::topology::{
    Interconnect, MemAgent, MemTopology, NumaNode, PageSize, PlacementPolicy, TlbConfig,
};
pub use soc::Soc;
