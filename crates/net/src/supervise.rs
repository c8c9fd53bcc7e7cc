//! Shard supervision: liveness board, health reporting, and
//! deterministic panic injection.
//!
//! Every shard event loop runs under a supervisor (see
//! [`crate::Server`]) that catches panics, reconciles the
//! connections the dead shard orphaned, and restarts the loop under a
//! bounded-backoff [`icomm_resilience::RestartPolicy`]. The shared
//! [`HealthBoard`] is the supervision tree's observable state: one cell
//! per shard with a liveness flag, a restart counter, and the shard's
//! open-connection count. Clients read it through the `Health` opcode
//! as a JSON [`HealthReport`].
//!
//! [`PanicInjector`] is the chaos hook: a deterministic frame-countdown
//! that panics a shard mid-serve every `after_frames` served frames, up
//! to a fixed budget — the fleet harness uses it to prove the
//! supervisor restarts shards without losing responses on surviving
//! connections.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

/// Per-shard supervision state, shared between the shard thread, its
/// supervisor, and the acceptor.
#[derive(Debug)]
pub struct ShardHealthCell {
    /// Whether the shard's event loop is currently running.
    alive: AtomicBool,
    /// Times the supervisor restarted this shard after a panic.
    restarts: AtomicU64,
    /// Connections currently adopted by this shard. The supervisor
    /// swaps this to zero after a panic to reconcile the global
    /// open-connection count (the panicked loop never ran `close`).
    open: AtomicUsize,
}

impl ShardHealthCell {
    fn new() -> Self {
        ShardHealthCell {
            alive: AtomicBool::new(false),
            restarts: AtomicU64::new(0),
            open: AtomicUsize::new(0),
        }
    }

    /// Whether the shard's event loop is currently running.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Marks the shard alive (entering its event loop) or dead.
    pub fn set_alive(&self, alive: bool) {
        self.alive.store(alive, Ordering::Release);
    }

    /// Times the supervisor restarted this shard.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Records one supervisor restart.
    pub fn record_restart(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections currently adopted by the shard.
    pub fn open_conns(&self) -> usize {
        self.open.load(Ordering::Acquire)
    }

    /// The shard adopted a connection.
    pub fn conn_adopted(&self) {
        self.open.fetch_add(1, Ordering::AcqRel);
    }

    /// The shard closed (or failed to set up) an adopted connection.
    pub fn conn_closed(&self) {
        self.open.fetch_sub(1, Ordering::AcqRel);
    }

    /// Takes the orphan count after a panic: connections the dead loop
    /// still held. Resets the per-shard count to zero.
    pub fn take_orphans(&self) -> usize {
        self.open.swap(0, Ordering::AcqRel)
    }
}

/// Shared liveness/restart board: one [`ShardHealthCell`] per shard.
#[derive(Debug)]
pub struct HealthBoard {
    shards: Vec<ShardHealthCell>,
}

impl HealthBoard {
    /// Board for `shards` supervised event loops, all initially dead
    /// (each supervisor marks its shard alive on entry).
    pub fn new(shards: usize) -> Self {
        HealthBoard {
            shards: (0..shards.max(1)).map(|_| ShardHealthCell::new()).collect(),
        }
    }

    /// Number of shards on the board.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Boards are never empty ([`HealthBoard::new`] clamps to 1).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The cell for `shard` (panics on an out-of-range id — shard ids
    /// are assigned by the server that sized the board).
    pub fn cell(&self, shard: usize) -> &ShardHealthCell {
        &self.shards[shard]
    }

    /// Shards currently alive.
    pub fn alive_count(&self) -> usize {
        self.shards.iter().filter(|c| c.is_alive()).count()
    }

    /// Point-in-time health report for the `Health` opcode.
    pub fn report(&self) -> HealthReport {
        let shards: Vec<ShardHealth> = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, cell)| ShardHealth {
                shard,
                alive: cell.is_alive(),
                restarts: cell.restarts(),
                open_conns: cell.open_conns() as u64,
            })
            .collect();
        let alive = shards.iter().filter(|s| s.alive).count();
        let restarts_total = shards.iter().map(|s| s.restarts).sum();
        HealthReport {
            shards,
            alive,
            restarts_total,
        }
    }
}

/// Liveness and restart state of one shard, as reported on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardHealth {
    /// Shard id (its index in the server's shard list).
    pub shard: usize,
    /// Whether the shard's event loop is currently running.
    pub alive: bool,
    /// Times the supervisor restarted this shard after a panic.
    pub restarts: u64,
    /// Connections currently adopted by this shard.
    pub open_conns: u64,
}

/// JSON payload of a `HealthReply` frame: the supervision tree's view
/// of every shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Per-shard liveness, restart, and connection counts.
    pub shards: Vec<ShardHealth>,
    /// Shards currently alive.
    pub alive: usize,
    /// Supervisor restarts summed across shards.
    pub restarts_total: u64,
}

/// Chaos-injection plan: panic a shard event loop every `after_frames`
/// served frames, `panics` times total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicPlan {
    /// Served frames between injected panics (clamped to at least 1).
    pub after_frames: u64,
    /// Total panics to inject before the injector goes quiet.
    pub panics: u32,
}

/// Deterministic shard-panic injector shared by every shard.
///
/// A global frame countdown: the shard serving the frame that drives
/// the countdown to zero panics on the spot (before any reply is
/// queued), re-arming the countdown until the panic budget is spent.
/// Deterministic in the *count* of panics per run; which shard takes
/// each hit follows the frame interleaving.
#[derive(Debug)]
pub struct PanicInjector {
    countdown: AtomicI64,
    interval: i64,
    remaining: AtomicI64,
    fired: AtomicU64,
}

impl PanicInjector {
    /// Injector from a plan.
    pub fn new(plan: PanicPlan) -> Self {
        let interval = plan.after_frames.max(1) as i64;
        PanicInjector {
            countdown: AtomicI64::new(interval),
            interval,
            remaining: AtomicI64::new(i64::from(plan.panics)),
            fired: AtomicU64::new(0),
        }
    }

    /// Panics injected so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Called once per served frame; panics when the countdown fires
    /// and the panic budget is not yet spent.
    pub fn check(&self) {
        if self.remaining.load(Ordering::Relaxed) <= 0 {
            return;
        }
        if self.countdown.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        // Countdown hit zero on this frame: re-arm for the next shot
        // and spend one panic from the budget.
        self.countdown.store(self.interval, Ordering::Release);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) > 0 {
            self.fired.fetch_add(1, Ordering::Relaxed);
            panic!("injected shard panic (chaos)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_tracks_liveness_and_restarts() {
        let board = HealthBoard::new(3);
        assert_eq!(board.len(), 3);
        assert_eq!(board.alive_count(), 0);
        board.cell(0).set_alive(true);
        board.cell(2).set_alive(true);
        board.cell(2).record_restart();
        board.cell(2).conn_adopted();
        board.cell(2).conn_adopted();
        let report = board.report();
        assert_eq!(report.alive, 2);
        assert_eq!(report.restarts_total, 1);
        assert!(report.shards[0].alive && !report.shards[1].alive);
        assert_eq!(report.shards[2].open_conns, 2);
    }

    #[test]
    fn orphan_takeover_resets_the_count() {
        let cell = ShardHealthCell::new();
        cell.conn_adopted();
        cell.conn_adopted();
        cell.conn_closed();
        assert_eq!(cell.take_orphans(), 1);
        assert_eq!(cell.open_conns(), 0);
    }

    #[test]
    fn injector_fires_exactly_its_budget() {
        let injector = PanicInjector::new(PanicPlan {
            after_frames: 3,
            panics: 2,
        });
        let mut panics = 0;
        for _ in 0..20 {
            if std::panic::catch_unwind(|| injector.check()).is_err() {
                panics += 1;
            }
        }
        assert_eq!(panics, 2);
        assert_eq!(injector.fired(), 2);
    }

    #[test]
    fn health_report_round_trips_through_json() {
        let board = HealthBoard::new(2);
        board.cell(1).set_alive(true);
        let report = board.report();
        let json = icomm_persist::to_string(&report).expect("serialize");
        let back: HealthReport = icomm_persist::from_str(&json).expect("parse");
        assert_eq!(back, report);
    }
}
