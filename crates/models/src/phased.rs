//! Phased workloads and the windowed execution harness.
//!
//! The paper's framework tunes a *stationary* application once, offline.
//! Real pipelines are phased: the same process alternates between
//! cache-light ingest, reuse-heavy matching and balanced phases, and the
//! best communication model changes with it. This module provides the
//! execution substrate the online-adaptation layer (`icomm-adapt`) runs
//! on:
//!
//! - [`PhasedWorkload`]: a sequence of [`WorkloadPhase`]s, each holding a
//!   full [`Workload`] for a number of profiler *windows* (one window =
//!   one execution of the phase workload on a fresh SoC).
//! - [`WindowPolicy`]: the controller interface — after every window the
//!   harness shows the policy that window's [`RunReport`] and asks which
//!   model the *next* window should run under.
//! - [`run_phased`]: drives a policy over a phased workload, charging an
//!   explicit [`switch_cost`] whenever the policy changes model.
//! - [`oracle_phased`]: the clairvoyant per-phase baseline for regret
//!   accounting — it knows every phase boundary in advance and picks the
//!   fastest model per phase (still paying switch costs).
//!
//! Windows run on fresh SoCs (cold caches), matching the fairness rule of
//! [`crate::model::run_model`]. Because the simulator is deterministic,
//! every window of one phase is identical under a given model — which is
//! what lets [`static_phased`] and [`oracle_phased`] memoize one run per
//! (phase, model) pair instead of simulating every window.

use serde::{Deserialize, Serialize};

use icomm_soc::units::{Bandwidth, ByteSize, Picos};
use icomm_soc::{DeviceProfile, Soc};

use crate::model::{model_for, CommModelKind};
use crate::report::RunReport;
use crate::workload::Workload;

/// One phase of a phased workload: a stationary workload held for a
/// number of windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPhase {
    /// Phase name (shows up in reports and switch logs).
    pub name: String,
    /// Windows the phase lasts; each window executes `workload` once.
    pub windows: u32,
    /// The stationary workload active during this phase.
    pub workload: Workload,
}

/// A phased application: a schedule of stationary workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasedWorkload {
    /// Application name.
    pub name: String,
    /// Phases in execution order.
    pub phases: Vec<WorkloadPhase>,
}

impl PhasedWorkload {
    /// Creates a phased workload from explicit phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase lasts zero windows — a
    /// schedule that cannot run is a construction bug, not a runtime
    /// condition.
    pub fn new(name: impl Into<String>, phases: Vec<WorkloadPhase>) -> Self {
        assert!(!phases.is_empty(), "a phased workload needs phases");
        assert!(
            phases.iter().all(|p| p.windows > 0),
            "every phase must last at least one window"
        );
        PhasedWorkload {
            name: name.into(),
            phases,
        }
    }

    /// Total windows across all phases.
    pub fn total_windows(&self) -> u64 {
        self.phases.iter().map(|p| p.windows as u64).sum()
    }

    /// Index of the phase active at `window`, or `None` past the end.
    pub fn phase_index_at(&self, window: u64) -> Option<usize> {
        let mut consumed = 0u64;
        for (index, phase) in self.phases.iter().enumerate() {
            consumed += phase.windows as u64;
            if window < consumed {
                return Some(index);
            }
        }
        None
    }

    /// Window indices where a new phase begins (excluding window 0).
    pub fn boundaries(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut consumed = 0u64;
        for phase in &self.phases {
            consumed += phase.windows as u64;
            out.push(consumed);
        }
        out.pop();
        out
    }
}

/// The cost of switching communication models mid-run.
///
/// Switching is not free: moving between a pageable allocation (SC/UM)
/// and a pinned one (ZC) re-allocates the shared buffers and copies the
/// live payload across; every switch also drains in-flight work and
/// flushes dirty lines so the new model starts coherent. The charge is
/// derived from the device's copy engine:
///
/// - *drain/flush*: one copy-engine setup (the `cudaDeviceSynchronize` +
///   cache-maintenance walk every switch pays);
/// - *re-allocation*: for pageable↔pinned moves only, a second setup plus
///   the payload bytes at the effective copy bandwidth (DRAM-to-DRAM, so
///   bounded by half the DRAM peak, as in
///   [`icomm_soc::copy_engine`]).
///
/// SC↔UM switches keep the allocation kind and pay only the drain.
pub fn switch_cost(
    device: &DeviceProfile,
    workload: &Workload,
    from: CommModelKind,
    to: CommModelKind,
) -> Picos {
    switch_cost_for_payload(device, workload.bytes_exchanged(), from, to)
}

/// [`switch_cost`] for an explicit payload size — what an online
/// controller uses to price a prospective switch when it only knows the
/// shared-buffer size, not the full workload.
pub fn switch_cost_for_payload(
    device: &DeviceProfile,
    payload: ByteSize,
    from: CommModelKind,
    to: CommModelKind,
) -> Picos {
    if from == to {
        return Picos::ZERO;
    }
    let drain = device.copy_engine.setup;
    let pinned = |kind: CommModelKind| kind == CommModelKind::ZeroCopy;
    if pinned(from) == pinned(to) {
        return drain;
    }
    let dram_half = device.dram.peak_bandwidth.as_bytes_per_sec() / 2;
    let effective = Bandwidth(
        device
            .copy_engine
            .bandwidth
            .as_bytes_per_sec()
            .min(dram_half)
            .max(1),
    );
    let realloc = if payload == ByteSize::ZERO {
        Picos::ZERO
    } else {
        device.copy_engine.setup + effective.transfer_time(payload)
    };
    drain + realloc
}

/// Controller interface for windowed execution: [`run_phased`] calls
/// [`WindowPolicy::next_model`] after every window.
pub trait WindowPolicy {
    /// Policy name, recorded in the [`PhasedRunReport`].
    fn name(&self) -> String;

    /// Model the first window runs under.
    fn initial_model(&self) -> CommModelKind;

    /// Observes window `window`'s run (executed under `run.model`) and
    /// returns the model for the next window. Returning a different kind
    /// makes the harness charge [`switch_cost`] before that window.
    fn next_model(&mut self, window: u64, run: &RunReport) -> CommModelKind;
}

/// The trivial policy: one model for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticPolicy(pub CommModelKind);

impl WindowPolicy for StaticPolicy {
    fn name(&self) -> String {
        format!("static-{}", self.0.abbrev())
    }

    fn initial_model(&self) -> CommModelKind {
        self.0
    }

    fn next_model(&mut self, _window: u64, _run: &RunReport) -> CommModelKind {
        self.0
    }
}

/// One executed window of a phased run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowOutcome {
    /// Window index (0-based).
    pub window: u64,
    /// Phase index the window belongs to.
    pub phase: usize,
    /// Model the window ran under.
    pub model: CommModelKind,
    /// The window's run report.
    pub run: RunReport,
    /// Switch cost charged *before* this window (zero when the model was
    /// kept).
    pub switch_cost: Picos,
}

/// Result of driving a policy over a phased workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasedRunReport {
    /// Phased workload name.
    pub workload: String,
    /// Policy name ([`WindowPolicy::name`]).
    pub policy: String,
    /// Every executed window, in order.
    pub windows: Vec<WindowOutcome>,
    /// Number of model switches.
    pub switches: u32,
    /// Total time charged to switching.
    pub switch_time: Picos,
    /// End-to-end time: window runtimes plus switch costs.
    pub total_time: Picos,
}

impl PhasedRunReport {
    /// The model sequence, one entry per window.
    pub fn model_sequence(&self) -> Vec<CommModelKind> {
        self.windows.iter().map(|w| w.model).collect()
    }

    /// The switch sequence: `(window, from, to)` for every model change.
    /// Two runs are replays of each other iff these are equal.
    pub fn switch_sequence(&self) -> Vec<(u64, CommModelKind, CommModelKind)> {
        let mut out = Vec::new();
        for pair in self.windows.windows(2) {
            if pair[1].model != pair[0].model {
                out.push((pair[1].window, pair[0].model, pair[1].model));
            }
        }
        out
    }
}

/// Runs `phased` on `device` under `policy`, one fresh-SoC execution per
/// window, charging [`switch_cost`] at every model change.
pub fn run_phased(
    device: &DeviceProfile,
    phased: &PhasedWorkload,
    policy: &mut dyn WindowPolicy,
) -> PhasedRunReport {
    let total_windows = phased.total_windows();
    let mut windows = Vec::with_capacity(total_windows as usize);
    let mut active = policy.initial_model();
    let mut pending_switch = Picos::ZERO;
    let mut switches = 0u32;
    let mut switch_time = Picos::ZERO;
    let mut total_time = Picos::ZERO;
    let mut window = 0u64;
    for (phase_index, phase) in phased.phases.iter().enumerate() {
        for _ in 0..phase.windows {
            let mut soc = Soc::new(device.clone());
            let run = model_for(active).run(&mut soc, &phase.workload);
            total_time += run.total_time + pending_switch;
            let outcome = WindowOutcome {
                window,
                phase: phase_index,
                model: active,
                run,
                switch_cost: pending_switch,
            };
            pending_switch = Picos::ZERO;
            let next = policy.next_model(window, &outcome.run);
            windows.push(outcome);
            // A switch requested after the final window has nothing left
            // to run under the new model, so it is not charged.
            if next != active && window + 1 < total_windows {
                let cost = switch_cost(device, &phase.workload, active, next);
                pending_switch = cost;
                switch_time += cost;
                switches += 1;
                active = next;
            }
            window += 1;
        }
    }
    PhasedRunReport {
        workload: phased.name.clone(),
        policy: policy.name(),
        windows,
        switches,
        switch_time,
        total_time,
    }
}

/// Measures one window of `workload` under `kind` on a fresh SoC.
fn run_window(device: &DeviceProfile, workload: &Workload, kind: CommModelKind) -> RunReport {
    let mut soc = Soc::new(device.clone());
    model_for(kind).run(&mut soc, workload)
}

/// Synthesizes a [`PhasedRunReport`] from a per-phase model choice,
/// simulating each (phase, model) pair once and replicating the result
/// across the phase's windows — exact because windows are fresh-SoC
/// deterministic replicas.
fn synthesize(
    device: &DeviceProfile,
    phased: &PhasedWorkload,
    policy_name: String,
    choice: &[CommModelKind],
) -> PhasedRunReport {
    assert_eq!(choice.len(), phased.phases.len());
    let mut windows = Vec::with_capacity(phased.total_windows() as usize);
    let mut switches = 0u32;
    let mut switch_time = Picos::ZERO;
    let mut total_time = Picos::ZERO;
    let mut window = 0u64;
    let mut previous: Option<CommModelKind> = None;
    for (phase_index, (phase, &kind)) in phased.phases.iter().zip(choice).enumerate() {
        let run = run_window(device, &phase.workload, kind);
        for offset in 0..phase.windows {
            let cost = match previous {
                Some(prev) if prev != kind && offset == 0 => {
                    switches += 1;
                    switch_cost(device, &phase.workload, prev, kind)
                }
                _ => Picos::ZERO,
            };
            switch_time += cost;
            total_time += run.total_time + cost;
            windows.push(WindowOutcome {
                window,
                phase: phase_index,
                model: kind,
                run: run.clone(),
                switch_cost: cost,
            });
            window += 1;
        }
        previous = Some(kind);
    }
    PhasedRunReport {
        workload: phased.name.clone(),
        policy: policy_name,
        windows,
        switches,
        switch_time,
        total_time,
    }
}

/// The static baseline: every window under `kind`. Equivalent to
/// [`run_phased`] with [`StaticPolicy`] but simulates each phase once.
pub fn static_phased(
    device: &DeviceProfile,
    phased: &PhasedWorkload,
    kind: CommModelKind,
) -> PhasedRunReport {
    let choice = vec![kind; phased.phases.len()];
    synthesize(device, phased, StaticPolicy(kind).name(), &choice)
}

/// The per-phase oracle: for every phase, measures every candidate model
/// for the device (the paper's three, plus coherent unified memory on
/// hardware-coherent boards) and keeps the fastest — clairvoyant about
/// phase boundaries, yet still charged [`switch_cost`] at each boundary
/// where its choice changes. The regret baseline for adaptive controllers.
pub fn oracle_phased(device: &DeviceProfile, phased: &PhasedWorkload) -> PhasedRunReport {
    let candidates = crate::model::candidate_models(device);
    let choice: Vec<CommModelKind> = phased
        .phases
        .iter()
        .map(|phase| {
            candidates
                .iter()
                .copied()
                .min_by_key(|&kind| run_window(device, &phase.workload, kind).total_time)
                // `candidate_models` always returns at least the paper's
                // three models; fall back to SC rather than panic.
                .unwrap_or(CommModelKind::StandardCopy)
        })
        .collect();
    synthesize(device, phased, "oracle".to_string(), &choice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::GpuPhase;
    use icomm_soc::cache::AccessKind;
    use icomm_trace::Pattern;

    fn workload(bytes: u64, passes: u32) -> Workload {
        let body = Pattern::Linear {
            start: 0,
            bytes,
            txn_bytes: 64,
            kind: AccessKind::Read,
        };
        Workload::builder("t")
            .bytes_to_gpu(ByteSize(bytes))
            .gpu(GpuPhase {
                compute_work: 1 << 14,
                shared_accesses: Pattern::Repeat {
                    body: Box::new(body),
                    times: passes,
                },
                private_accesses: None,
            })
            .build()
    }

    fn phased() -> PhasedWorkload {
        PhasedWorkload::new(
            "phased-t",
            vec![
                WorkloadPhase {
                    name: "light".into(),
                    windows: 3,
                    workload: workload(64 * 1024, 1),
                },
                WorkloadPhase {
                    name: "heavy".into(),
                    windows: 2,
                    workload: workload(128 * 1024, 8),
                },
            ],
        )
    }

    #[test]
    fn window_accounting() {
        let p = phased();
        assert_eq!(p.total_windows(), 5);
        assert_eq!(p.phase_index_at(0), Some(0));
        assert_eq!(p.phase_index_at(3), Some(1));
        assert_eq!(p.phase_index_at(5), None);
        assert_eq!(p.boundaries(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn zero_window_phase_rejected() {
        let mut phases = phased().phases;
        phases[0].windows = 0;
        let _ = PhasedWorkload::new("bad", phases);
    }

    #[test]
    fn switch_cost_is_zero_for_no_change_and_charges_realloc_for_pinned_moves() {
        let device = DeviceProfile::jetson_tx2();
        let w = workload(1 << 20, 1);
        let same = switch_cost(
            &device,
            &w,
            CommModelKind::StandardCopy,
            CommModelKind::StandardCopy,
        );
        assert_eq!(same, Picos::ZERO);
        let drain_only = switch_cost(
            &device,
            &w,
            CommModelKind::StandardCopy,
            CommModelKind::UnifiedMemory,
        );
        let realloc = switch_cost(
            &device,
            &w,
            CommModelKind::StandardCopy,
            CommModelKind::ZeroCopy,
        );
        assert_eq!(drain_only, device.copy_engine.setup);
        assert!(realloc > drain_only, "{realloc} vs {drain_only}");
        // Symmetric in the pinnedness change.
        assert_eq!(
            realloc,
            switch_cost(
                &device,
                &w,
                CommModelKind::ZeroCopy,
                CommModelKind::UnifiedMemory
            )
        );
    }

    #[test]
    fn static_policy_never_switches_and_matches_memoized_runner() {
        let device = DeviceProfile::jetson_tx2();
        let p = phased();
        let mut policy = StaticPolicy(CommModelKind::StandardCopy);
        let driven = run_phased(&device, &p, &mut policy);
        assert_eq!(driven.switches, 0);
        assert_eq!(driven.switch_time, Picos::ZERO);
        assert_eq!(driven.windows.len(), 5);
        let memoized = static_phased(&device, &p, CommModelKind::StandardCopy);
        assert_eq!(driven.total_time, memoized.total_time);
        assert_eq!(driven.model_sequence(), memoized.model_sequence());
    }

    #[test]
    fn oracle_never_loses_to_any_static_choice() {
        let device = DeviceProfile::jetson_tx2();
        let p = phased();
        let oracle = oracle_phased(&device, &p);
        for kind in CommModelKind::ALL {
            let fixed = static_phased(&device, &p, kind);
            assert!(
                oracle.total_time <= fixed.total_time,
                "oracle {} vs static-{} {}",
                oracle.total_time,
                kind.abbrev(),
                fixed.total_time
            );
        }
        assert!((oracle.switches as usize) < p.phases.len());
    }

    #[test]
    fn switching_policy_is_charged() {
        // A policy that flips model after every window pays a switch cost
        // per flip, visible in the total.
        struct Flip;
        impl WindowPolicy for Flip {
            fn name(&self) -> String {
                "flip".into()
            }
            fn initial_model(&self) -> CommModelKind {
                CommModelKind::StandardCopy
            }
            fn next_model(&mut self, _w: u64, run: &RunReport) -> CommModelKind {
                match run.model {
                    CommModelKind::StandardCopy => CommModelKind::ZeroCopy,
                    _ => CommModelKind::StandardCopy,
                }
            }
        }
        let device = DeviceProfile::jetson_tx2();
        let p = phased();
        let report = run_phased(&device, &p, &mut Flip);
        assert_eq!(report.switches, 4, "a flip after every non-final window");
        assert!(report.switch_time > Picos::ZERO);
        let sum: Picos = report.windows.iter().map(|w| w.run.total_time).sum();
        assert_eq!(report.total_time, sum + report.switch_time);
        assert_eq!(report.switch_sequence().len(), 4);
    }
}
