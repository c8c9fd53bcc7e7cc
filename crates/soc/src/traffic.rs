//! Playing an agent's memory traffic through the hierarchy.
//!
//! A CPU task or GPU kernel issues its requests through a [`Port`], which
//! presents each one to the [`MemorySystem`] and folds its cost into an
//! additive [`Tally`] kept per (space, kind); the execution models then
//! finish their timing from the tally alone. Because the tally is a sum,
//! a stream that repeats can be charged without replaying every pass:
//! [`Port::repeat`] plays passes until one leaves the hierarchy exactly
//! as it found it, after which every further pass would replay the same
//! outcomes, and adds that pass's tally and counter deltas once per pass
//! still owed.

use std::cell::Cell;

use crate::cache::AccessKind;
use crate::hierarchy::{AccessCost, Agent, MemSpace, MemorySystem};
use crate::request::MemRequest;
use crate::units::Picos;

/// The summed cost of a group of requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TallyCell {
    /// Sum of the latencies each request saw.
    pub latency: Picos,
    /// Sum of the issuing agent's LLC data-array occupancies.
    pub llc_occupancy: Picos,
    /// Sum of the DRAM channel occupancies.
    pub dram_occupancy: Picos,
    /// Bytes moved on the DRAM channel.
    pub dram_bytes: u64,
    /// Requests issued.
    pub transactions: u64,
    /// Bytes requested.
    pub bytes: u64,
}

impl TallyCell {
    fn add(&mut self, other: &TallyCell) {
        self.latency += other.latency;
        self.llc_occupancy += other.llc_occupancy;
        self.dram_occupancy += other.dram_occupancy;
        self.dram_bytes += other.dram_bytes;
        self.transactions += other.transactions;
        self.bytes += other.bytes;
    }

    fn add_scaled(&mut self, delta: &TallyCell, times: u64) {
        self.latency += delta.latency * times;
        self.llc_occupancy += delta.llc_occupancy * times;
        self.dram_occupancy += delta.dram_occupancy * times;
        self.dram_bytes += delta.dram_bytes * times;
        self.transactions += delta.transactions * times;
        self.bytes += delta.bytes * times;
    }

    fn since(&self, earlier: &TallyCell) -> TallyCell {
        TallyCell {
            latency: self.latency - earlier.latency,
            llc_occupancy: self.llc_occupancy - earlier.llc_occupancy,
            dram_occupancy: self.dram_occupancy - earlier.dram_occupancy,
            dram_bytes: self.dram_bytes - earlier.dram_bytes,
            transactions: self.transactions - earlier.transactions,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

const SPACES: [MemSpace; 3] = [MemSpace::Cached, MemSpace::Pinned, MemSpace::Upm];
const KINDS: [AccessKind; 2] = [AccessKind::Read, AccessKind::Write];

fn space_index(space: MemSpace) -> usize {
    match space {
        MemSpace::Cached => 0,
        MemSpace::Pinned => 1,
        MemSpace::Upm => 2,
    }
}

fn kind_index(kind: AccessKind) -> usize {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

/// Additive cost of the requests one task or kernel issued, one
/// [`TallyCell`] per (space, kind).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    cells: [[TallyCell; 2]; 3],
}

impl Tally {
    fn cell(&self, space: MemSpace, kind: AccessKind) -> &TallyCell {
        &self.cells[space_index(space)][kind_index(kind)]
    }

    /// The sum over every (space, kind) that `select` accepts.
    pub fn sum(&self, select: impl Fn(MemSpace, AccessKind) -> bool) -> TallyCell {
        let mut total = TallyCell::default();
        for space in SPACES {
            for kind in KINDS {
                if select(space, kind) {
                    total.add(self.cell(space, kind));
                }
            }
        }
        total
    }

    fn add(&mut self, req: &MemRequest, cost: AccessCost) {
        let cell = &mut self.cells[space_index(req.space)][kind_index(req.kind)];
        cell.latency += cost.latency;
        cell.llc_occupancy += cost.llc_occupancy;
        cell.dram_occupancy += cost.dram_occupancy;
        cell.dram_bytes += cost.dram_bytes;
        cell.transactions += 1;
        cell.bytes += req.bytes as u64;
    }

    fn since(&self, earlier: &Tally) -> Tally {
        let mut delta = Tally::default();
        for (s, row) in delta.cells.iter_mut().enumerate() {
            for (k, cell) in row.iter_mut().enumerate() {
                *cell = self.cells[s][k].since(&earlier.cells[s][k]);
            }
        }
        delta
    }

    fn add_scaled(&mut self, delta: &Tally, times: u64) {
        for (row, delta_row) in self.cells.iter_mut().zip(&delta.cells) {
            for (cell, delta_cell) in row.iter_mut().zip(delta_row) {
                cell.add_scaled(delta_cell, times);
            }
        }
    }
}

/// Requests that this thread's tasks and kernels accounted for, and how
/// many of them were played through the hierarchy; the difference was
/// charged by [`Port::repeat`] without replaying it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Requests charged to tasks and kernels.
    pub accounted: u64,
    /// Requests presented to the hierarchy one by one.
    pub simulated: u64,
}

thread_local! {
    static REPLAY_COUNTS: Cell<ReplayCounts> = const {
        Cell::new(ReplayCounts { accounted: 0, simulated: 0 })
    };
}

/// The running [`ReplayCounts`] of the calling thread.
pub fn replay_counts() -> ReplayCounts {
    REPLAY_COUNTS.with(Cell::get)
}

/// Where one agent's task or kernel issues its requests.
#[derive(Debug)]
pub struct Port<'a> {
    mem: &'a mut MemorySystem,
    agent: Agent,
    tally: Tally,
    simulated: u64,
}

impl Port<'_> {
    /// Presents one request to the hierarchy and tallies its cost.
    pub fn issue(&mut self, req: MemRequest) {
        let cost = self
            .mem
            .access(self.agent, req.space, req.addr, req.kind, req.bytes);
        self.tally.add(&req, cost);
        self.simulated += 1;
    }

    /// Charges `passes` back-to-back passes of the requests `pass` issues,
    /// which must be the same requests on every call.
    ///
    /// Passes are played until one leaves the hierarchy's state as it
    /// found it: for every set of every cache the pass touched, the same
    /// resident lines with the same dirty bits in the same LRU order. A
    /// pass that fills no line at any level qualifies without a compare
    /// (it only hits or bypasses, so every later pass sees the same
    /// residents). From such a pass on, each pass replays the same
    /// outcomes, so the remaining passes add that pass's tally and cache
    /// and DRAM counter deltas instead of being played. The compare runs
    /// on passes 2, 3, 5, 9, 17, … only (an LLC settles a pass after the
    /// L1 in front of it), so a stream that never settles plays a
    /// logarithmic number of compared passes.
    pub fn repeat(&mut self, passes: u64, mut pass: impl FnMut(&mut Self)) {
        let mut compare_at = 2;
        for played in 1..=passes {
            let remaining = passes - played;
            let compare = played == compare_at && remaining > 0;
            let tally_before = self.tally;
            let counters_before = self.mem.counters();
            if compare {
                self.mem.begin_watch();
            }
            pass(self);
            let unchanged = compare && self.mem.end_watch();
            if remaining == 0 {
                return;
            }
            let counters = self.mem.counters().since(&counters_before);
            if unchanged || counters.fills() == 0 {
                let delta = self.tally.since(&tally_before);
                self.tally.add_scaled(&delta, remaining);
                self.mem.add_counters(&counters, remaining);
                return;
            }
            if compare {
                compare_at = 2 * compare_at - 1;
            }
        }
    }
}

impl MemorySystem {
    /// Plays the requests `traffic` issues from `agent` and returns their
    /// tally.
    pub fn play(&mut self, agent: Agent, traffic: impl FnOnce(&mut Port<'_>)) -> Tally {
        let mut port = Port {
            mem: self,
            agent,
            tally: Tally::default(),
            simulated: 0,
        };
        traffic(&mut port);
        let accounted = port.tally.sum(|_, _| true).transactions;
        let simulated = port.simulated;
        REPLAY_COUNTS.with(|counts| {
            let mut c = counts.get();
            c.accounted += accounted;
            c.simulated += simulated;
            counts.set(c);
        });
        port.tally
    }
}
