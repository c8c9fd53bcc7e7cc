//! Set-associative cache model with true-LRU replacement.
//!
//! The cache is a *functional* model: it tracks which lines are resident and
//! dirty so that hit/miss counters, writeback traffic and flush costs are
//! exact for a given access stream. Timing is attributed by the memory
//! hierarchy (see [`crate::hierarchy`]), not by the cache itself.
//!
//! Two features exist specifically for the CPU-iGPU communication models:
//!
//! - [`Cache::flush_dirty`] / [`Cache::invalidate_all`] implement the
//!   flush-based coherence that the *standard copy* model performs around
//!   every kernel launch.
//! - [`Cache::set_enabled`] models devices that disable a cache for pinned
//!   *zero-copy* allocations (e.g. the GPU LLC on every Jetson, and the CPU
//!   LLC on Nano/TX2-class parts).

use serde::{Deserialize, Serialize};

use crate::stats::CacheStats;
use crate::units::ByteSize;

/// Geometry of a set-associative cache.
///
/// # Examples
///
/// ```
/// use icomm_soc::cache::CacheGeometry;
/// use icomm_soc::units::ByteSize;
///
/// let geo = CacheGeometry::new(ByteSize::kib(512), 64, 8);
/// assert_eq!(geo.num_sets(), 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size: ByteSize,
    /// Line (block) size in bytes; must be a power of two.
    pub line_bytes: u32,
    /// Number of ways per set.
    pub associativity: u32,
}

impl CacheGeometry {
    /// Creates a new geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, if `line_bytes` is not a power of
    /// two, or if the capacity is not divisible into an integer number of
    /// sets.
    pub fn new(size: ByteSize, line_bytes: u32, associativity: u32) -> Self {
        assert!(size.as_u64() > 0, "cache size must be non-zero");
        assert!(
            line_bytes > 0 && line_bytes.is_power_of_two(),
            "line size must be a non-zero power of two"
        );
        assert!(associativity > 0, "associativity must be non-zero");
        let way_bytes = line_bytes as u64 * associativity as u64;
        assert!(
            size.as_u64().is_multiple_of(way_bytes),
            "capacity {} not divisible by line_bytes * associativity = {}",
            size.as_u64(),
            way_bytes
        );
        CacheGeometry {
            size,
            line_bytes,
            associativity,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.size.as_u64() / (self.line_bytes as u64 * self.associativity as u64)
    }

    /// Total number of lines the cache can hold.
    pub fn num_lines(&self) -> u64 {
        self.size.as_u64() / self.line_bytes as u64
    }

    /// Maps an address to its line-aligned tag address.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes as u64 - 1)
    }
}

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Result of presenting one access to a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was resident.
    Hit,
    /// The line was not resident; it has been filled. `victim_writeback`
    /// reports whether a dirty victim had to be written back to the next
    /// level.
    Miss {
        /// A dirty line was evicted and must be written downstream.
        victim_writeback: bool,
    },
    /// The cache is disabled; the access passes through untouched.
    Bypass,
}

impl CacheOutcome {
    /// Whether this outcome is a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }

    /// Whether this outcome is a miss.
    pub fn is_miss(self) -> bool {
        matches!(self, CacheOutcome::Miss { .. })
    }
}

/// A set-associative, write-back, write-allocate cache with true LRU.
///
/// Lines live in flat per-way arrays (`set * ways + way`): a tag (the
/// line number), an LRU stamp and the stamp of the line's last write.
/// Every access takes a fresh stamp, so within a set a larger stamp is
/// more recently used. Two floors make whole-cache maintenance O(1):
/// a way whose stamp is at or below `valid_floor` holds no line, and a
/// line whose last write is at or below `clean_floor` is clean. Resident
/// and dirty lines are counted as they change. Stamps are 32-bit, which
/// halves the bytes an LRU scan reads; when they run out, every set's
/// lines are renumbered by recency, which no outcome depends on.
///
/// # Examples
///
/// ```
/// use icomm_soc::cache::{AccessKind, Cache, CacheGeometry};
/// use icomm_soc::units::ByteSize;
///
/// let mut c = Cache::new(CacheGeometry::new(ByteSize::kib(32), 64, 4));
/// assert!(c.access(0x1000, AccessKind::Read).is_miss());
/// assert!(c.access(0x1000, AccessKind::Read).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    ways: usize,
    line_shift: u32,
    num_sets: u64,
    set_index: SetIndex,
    tags: Vec<u64>,
    stamps: Vec<u32>,
    written: Vec<u32>,
    next_stamp: u32,
    valid_floor: u32,
    clean_floor: u32,
    resident: u64,
    dirty: u64,
    enabled: bool,
    stats: CacheStats,
    watch: Watch,
}

impl Cache {
    /// Creates an empty, enabled cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let num_sets = geometry.num_sets();
        let lines = geometry.num_lines() as usize;
        Cache {
            geometry,
            ways: geometry.associativity as usize,
            line_shift: geometry.line_bytes.trailing_zeros(),
            num_sets,
            set_index: SetIndex::new(num_sets),
            tags: vec![0; lines],
            stamps: vec![0; lines],
            written: vec![0; lines],
            next_stamp: 0,
            valid_floor: 0,
            clean_floor: 0,
            resident: 0,
            dirty: 0,
            enabled: true,
            stats: CacheStats::default(),
            watch: Watch::default(),
        }
    }

    /// Returns the cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Whether the cache currently services accesses.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables the cache. A disabled cache answers every access
    /// with [`CacheOutcome::Bypass`] and retains its contents (real devices
    /// flush before disabling; callers model that cost explicitly via
    /// [`Cache::flush_dirty`]).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Accumulated hit/miss/writeback counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics counters (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Adds `times` copies of `delta` to the counters: the bookkeeping of
    /// accesses whose outcomes are known without replaying them.
    pub(crate) fn add_stats(&mut self, delta: &CacheStats, times: u64) {
        self.stats.add_scaled(delta, times);
    }

    /// Presents a single access (of any size up to a line) at `addr`.
    ///
    /// Accesses larger than one line must be split by the caller; the memory
    /// hierarchy does this when translating transactions.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> CacheOutcome {
        if !self.enabled {
            self.stats.bypasses += 1;
            return CacheOutcome::Bypass;
        }
        let line = addr >> self.line_shift;
        let set = self.set_index.of(line);
        if !self.watch.frames.is_empty() {
            self.watch_touch(set);
        }
        if self.next_stamp == u32::MAX {
            self.renumber();
        }
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        let write = kind == AccessKind::Write;
        let ways = set * self.ways..(set + 1) * self.ways;
        let tags = &mut self.tags[ways.clone()];
        let stamps = &mut self.stamps[ways.clone()];
        let written = &mut self.written[ways];

        // One scan finds the hit or, failing that, the LRU way. Empty ways
        // carry stamps at or below the floor, so they are always chosen
        // before a resident line is evicted.
        let mut victim = 0;
        for way in 0..tags.len() {
            if stamps[way] > self.valid_floor && tags[way] == line {
                stamps[way] = stamp;
                if write {
                    if written[way] <= self.clean_floor {
                        self.dirty += 1;
                    }
                    written[way] = stamp;
                }
                self.stats.hits += 1;
                return CacheOutcome::Hit;
            }
            if stamps[way] < stamps[victim] {
                victim = way;
            }
        }

        // Miss: fill, evicting LRU if needed (write-allocate for stores).
        self.stats.misses += 1;
        self.stats.fills += 1;
        let victim_writeback = if stamps[victim] > self.valid_floor {
            let was_dirty = written[victim] > self.clean_floor;
            if was_dirty {
                self.dirty -= 1;
                self.stats.writebacks += 1;
            }
            was_dirty
        } else {
            self.resident += 1;
            false
        };
        tags[victim] = line;
        stamps[victim] = stamp;
        written[victim] = if write {
            self.dirty += 1;
            stamp
        } else {
            0
        };
        CacheOutcome::Miss { victim_writeback }
    }

    /// Returns whether the line containing `addr` is resident (no counter or
    /// LRU side effects). Useful for snoop modelling.
    pub fn probe(&self, addr: u64) -> bool {
        if !self.enabled {
            return false;
        }
        let line = addr >> self.line_shift;
        let set = self.set_index.of(line);
        let ways = set * self.ways..(set + 1) * self.ways;
        self.tags[ways.clone()]
            .iter()
            .zip(&self.stamps[ways])
            .any(|(&tag, &stamp)| stamp > self.valid_floor && tag == line)
    }

    /// Writes back every dirty line (marking it clean) and returns the
    /// number of lines written back. Lines stay resident. This is the
    /// pre-kernel `flush` of the standard-copy coherence protocol.
    pub fn flush_dirty(&mut self) -> u64 {
        let written = self.dirty;
        self.dirty = 0;
        self.clean_floor = self.next_stamp;
        self.stats.writebacks += written;
        self.stats.flushes += 1;
        written
    }

    /// Invalidates every line, writing back dirty ones first; returns the
    /// number of dirty lines written back. This is the post-kernel
    /// `flush + invalidate` of the standard-copy coherence protocol.
    pub fn invalidate_all(&mut self) -> u64 {
        let written = self.dirty;
        self.dirty = 0;
        self.resident = 0;
        self.valid_floor = self.next_stamp;
        self.stats.writebacks += written;
        self.stats.flushes += 1;
        written
    }

    /// Number of currently resident lines.
    pub fn resident_lines(&self) -> u64 {
        self.resident
    }

    /// Number of currently dirty lines.
    pub fn dirty_lines(&self) -> u64 {
        self.dirty
    }

    /// The resident lines of every set, least recently used first, as
    /// `(line address, dirty)`: the state that decides every future
    /// outcome, free of stamp values and way positions.
    pub fn contents(&self) -> Vec<Vec<(u64, bool)>> {
        let mut lines = Vec::new();
        (0..self.num_sets as usize)
            .map(|set| {
                self.set_lines(set, &mut lines);
                lines
                    .iter()
                    .map(|&(_, tag, dirty)| (tag << self.line_shift, dirty))
                    .collect()
            })
            .collect()
    }

    /// Restarts the stamps: each set's resident lines get stamps 1, 2, …
    /// in recency order (a dirty line's last write takes its new stamp),
    /// empty ways get 0, and both floors drop to 0. LRU order, residency
    /// and dirtiness — everything an outcome depends on — are unchanged.
    #[cold]
    fn renumber(&mut self) {
        let mut lines = Vec::with_capacity(self.ways);
        let mut newest = 0;
        for set in 0..self.num_sets as usize {
            self.set_lines(set, &mut lines);
            let ways = set * self.ways..(set + 1) * self.ways;
            self.stamps[ways.clone()].fill(0);
            self.written[ways.clone()].fill(0);
            for (way, &(_, tag, dirty)) in ways.zip(&lines) {
                let stamp = (way % self.ways) as u32 + 1;
                self.tags[way] = tag;
                self.stamps[way] = stamp;
                self.written[way] = if dirty { stamp } else { 0 };
                newest = newest.max(stamp);
            }
        }
        self.valid_floor = 0;
        self.clean_floor = 0;
        self.next_stamp = newest;
    }

    /// Replaces `out` with the resident lines of `set` as
    /// `(stamp, tag, dirty)`, least recently used first.
    fn set_lines(&self, set: usize, out: &mut Vec<(u32, u64, bool)>) {
        let ways = set * self.ways..(set + 1) * self.ways;
        out.clear();
        out.extend(
            self.tags[ways.clone()]
                .iter()
                .zip(&self.stamps[ways.clone()])
                .zip(&self.written[ways])
                .filter(|&((_, &stamp), _)| stamp > self.valid_floor)
                .map(|((&tag, &stamp), &written)| (stamp, tag, written > self.clean_floor)),
        );
        out.sort_unstable_by_key(|&(stamp, _, _)| stamp);
    }

    /// Opens a watch: from now on, the first access to each set logs the
    /// set's contents, so [`Cache::end_watch`] can tell whether the
    /// accesses in between left the cache as they found it. Watches nest.
    pub(crate) fn begin_watch(&mut self) {
        if self.watch.logged_by.is_empty() {
            self.watch.logged_by = vec![0; self.num_sets as usize];
            self.watch.checked = vec![0; self.num_sets as usize];
        }
        self.watch.next_id += 1;
        self.watch
            .frames
            .push((self.watch.next_id, self.watch.entries.len()));
    }

    #[cold]
    fn watch_touch(&mut self, set: usize) {
        let Some(&(id, _)) = self.watch.frames.last() else {
            return;
        };
        // Logged since the innermost watch opened: the set's state at
        // that moment is already on record for every open watch.
        if self.watch.logged_by[set] >= id {
            return;
        }
        self.watch.logged_by[set] = id;
        let mut now = std::mem::take(&mut self.watch.scratch);
        self.set_lines(set, &mut now);
        let offset = self.watch.lines.len();
        let logged = now.iter().map(|&(_, tag, dirty)| logged_line(tag, dirty));
        self.watch.lines.extend(logged);
        self.watch.entries.push((set, offset, now.len()));
        self.watch.scratch = now;
    }

    /// Closes the innermost watch and returns whether every set touched
    /// since it opened holds the same lines, with the same dirty bits, in
    /// the same LRU order as when it opened.
    ///
    /// # Panics
    ///
    /// Panics if no watch is open.
    pub(crate) fn end_watch(&mut self) -> bool {
        let (_, start) = self
            .watch
            .frames
            .pop()
            .expect("end_watch without begin_watch");
        self.watch.compares += 1;
        let epoch = self.watch.compares;
        let mut now = std::mem::take(&mut self.watch.scratch);
        let mut unchanged = true;
        for index in start..self.watch.entries.len() {
            let (set, offset, len) = self.watch.entries[index];
            // A set logged again by a nested watch: the first entry holds
            // its state when this watch opened.
            if self.watch.checked[set] == epoch {
                continue;
            }
            self.watch.checked[set] = epoch;
            self.set_lines(set, &mut now);
            let logged = &self.watch.lines[offset..offset + len];
            let same = now.len() == len
                && now
                    .iter()
                    .zip(logged)
                    .all(|(&(_, tag, dirty), &line)| logged_line(tag, dirty) == line);
            if !same {
                unchanged = false;
                break;
            }
        }
        self.watch.scratch = now;
        if self.watch.frames.is_empty() {
            self.watch.entries.clear();
            self.watch.lines.clear();
        }
        unchanged
    }
}

/// A resident line as a watch logs it: the tag (a line number, so its
/// top bit is free) and the dirty bit in one word.
fn logged_line(tag: u64, dirty: bool) -> u64 {
    tag << 1 | dirty as u64
}

/// Maps a line number to its set without a division on the hot path.
#[derive(Debug, Clone, Copy)]
enum SetIndex {
    /// Power-of-two set count: the low bits of the line number.
    Mask(u64),
    /// Any other count (TX2's 48 KiB 4-way GPU L1 has 192 sets): the
    /// remainder, computed for 32-bit line numbers by Lemire, Kaser and
    /// Kurz's multiply-only method ("Faster remainder by direct
    /// computation", 2019) with `magic = ceil(2^64 / sets)`.
    Remainder { sets: u64, magic: u64 },
}

impl SetIndex {
    fn new(sets: u64) -> Self {
        if sets.is_power_of_two() {
            SetIndex::Mask(sets - 1)
        } else {
            SetIndex::Remainder {
                sets,
                magic: (u64::MAX / sets).wrapping_add(1),
            }
        }
    }

    fn of(self, line: u64) -> usize {
        match self {
            SetIndex::Mask(mask) => (line & mask) as usize,
            // Exact for every 32-bit line number and set count.
            SetIndex::Remainder { sets, magic } if line >> 32 == 0 && sets >> 32 == 0 => {
                let fraction = magic.wrapping_mul(line);
                ((fraction as u128 * sets as u128) >> 64) as usize
            }
            SetIndex::Remainder { sets, .. } => (line % sets) as usize,
        }
    }
}

/// Set contents logged by open watches (see [`Cache::begin_watch`]).
#[derive(Debug, Clone, Default)]
struct Watch {
    /// Open watches, innermost last: `(id, first entry)`.
    frames: Vec<(u64, usize)>,
    next_id: u64,
    /// Per set: id of the newest watch that logged it.
    logged_by: Vec<u64>,
    /// Per set: the last [`Cache::end_watch`] that compared it.
    checked: Vec<u64>,
    compares: u64,
    /// Logged sets: `(set, offset into lines, line count)`.
    entries: Vec<(usize, usize, usize)>,
    /// Logged set contents (see [`logged_line`]), LRU first per entry.
    lines: Vec<u64>,
    scratch: Vec<(u32, u64, bool)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        Cache::new(CacheGeometry::new(ByteSize(512), 64, 2))
    }

    #[test]
    fn geometry_derived_quantities() {
        let geo = CacheGeometry::new(ByteSize::kib(32), 64, 4);
        assert_eq!(geo.num_sets(), 128);
        assert_eq!(geo.num_lines(), 512);
        assert_eq!(geo.line_addr(0x12345), 0x12340);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_non_pow2_line() {
        let _ = CacheGeometry::new(ByteSize::kib(32), 48, 4);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn geometry_rejects_non_divisible_capacity() {
        let _ = CacheGeometry::new(ByteSize(1000), 64, 4);
    }

    #[test]
    fn set_index_matches_the_remainder() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let sets_list = [
            1u64,
            2,
            3,
            7,
            64,
            192,
            768,
            1000,
            4096,
            12_289,
            4_294_967_291,
            (1 << 33) + 5,
        ];
        for sets in sets_list {
            let index = SetIndex::new(sets);
            let edges = [
                0,
                1,
                sets - 1,
                sets,
                sets + 1,
                u32::MAX as u64,
                1 << 32,
                u64::MAX,
            ];
            for line in edges {
                assert_eq!(index.of(line) as u64, line % sets, "{line} % {sets}");
            }
            for _ in 0..10_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = x >> (24 + x % 40);
                assert_eq!(index.of(line) as u64, line % sets, "{line} % {sets}");
            }
        }
    }

    #[test]
    fn running_out_of_stamps_changes_no_outcome() {
        // Two caches see the same stream; one starts a few accesses short
        // of the last stamp, so it renumbers many times along the way
        // (every flush and invalidate raises a floor to the stamp).
        let geometry = CacheGeometry::new(ByteSize(768), 64, 4); // 3 sets
        let mut fresh = Cache::new(geometry);
        let mut worn = Cache::new(geometry);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..20_000 {
            if step % 4_000 == 0 {
                worn.next_stamp = u32::MAX - 37;
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 64 {
                0 => assert_eq!(fresh.flush_dirty(), worn.flush_dirty()),
                1 => assert_eq!(fresh.invalidate_all(), worn.invalidate_all()),
                _ => {
                    let addr = (x >> 8) % 4096;
                    let kind = if x & 64 == 0 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    assert_eq!(
                        fresh.access(addr, kind),
                        worn.access(addr, kind),
                        "step {step}"
                    );
                }
            }
            assert_eq!(fresh.contents(), worn.contents(), "step {step}");
        }
        assert_eq!(fresh.stats(), worn.stats());
        assert_eq!(fresh.dirty_lines(), worn.dirty_lines());
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = small_cache();
        assert!(c.access(0x0, AccessKind::Read).is_miss());
        assert!(c.access(0x3f, AccessKind::Read).is_hit()); // same line
        assert!(c.access(0x40, AccessKind::Read).is_miss()); // next line
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache();
        // Set 0 holds lines whose (addr/64) % 4 == 0: 0x000, 0x400, 0x800...
        c.access(0x000, AccessKind::Read);
        c.access(0x100, AccessKind::Read); // set 0? 0x100/64=4, 4%4=0 -> set 0
                                           // Touch 0x000 so that 0x100 is LRU.
        c.access(0x000, AccessKind::Read);
        // Fill a third line in set 0: evicts 0x100.
        c.access(0x200, AccessKind::Read);
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn dirty_victim_triggers_writeback() {
        let mut c = small_cache();
        c.access(0x000, AccessKind::Write);
        c.access(0x100, AccessKind::Read);
        // Evict 0x000 (LRU, dirty) by filling two more lines in set 0.
        let out = c.access(0x200, AccessKind::Read);
        assert_eq!(
            out,
            CacheOutcome::Miss {
                victim_writeback: true
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_victim_no_writeback() {
        let mut c = small_cache();
        c.access(0x000, AccessKind::Read);
        c.access(0x100, AccessKind::Read);
        let out = c.access(0x200, AccessKind::Read);
        assert_eq!(
            out,
            CacheOutcome::Miss {
                victim_writeback: false
            }
        );
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn disabled_cache_bypasses() {
        let mut c = small_cache();
        c.access(0x0, AccessKind::Read);
        c.set_enabled(false);
        assert_eq!(c.access(0x0, AccessKind::Read), CacheOutcome::Bypass);
        assert!(!c.probe(0x0));
        assert_eq!(c.stats().bypasses, 1);
        c.set_enabled(true);
        // Contents survive the disable window.
        assert!(c.access(0x0, AccessKind::Read).is_hit());
    }

    #[test]
    fn flush_dirty_writes_back_and_keeps_lines() {
        let mut c = small_cache();
        c.access(0x000, AccessKind::Write);
        c.access(0x040, AccessKind::Write);
        c.access(0x080, AccessKind::Read);
        assert_eq!(c.dirty_lines(), 2);
        assert_eq!(c.flush_dirty(), 2);
        assert_eq!(c.dirty_lines(), 0);
        assert_eq!(c.resident_lines(), 3);
        // Second flush has nothing to do.
        assert_eq!(c.flush_dirty(), 0);
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = small_cache();
        c.access(0x000, AccessKind::Write);
        c.access(0x040, AccessKind::Read);
        assert_eq!(c.invalidate_all(), 1);
        assert_eq!(c.resident_lines(), 0);
        assert!(c.access(0x000, AccessKind::Read).is_miss());
    }

    #[test]
    fn write_allocates_dirty_line() {
        let mut c = small_cache();
        c.access(0x000, AccessKind::Write);
        assert_eq!(c.dirty_lines(), 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = small_cache();
        for i in 0..1000u64 {
            c.access(i * 64, AccessKind::Write);
        }
        assert!(c.resident_lines() <= c.geometry().num_lines());
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut c = small_cache();
        c.access(0x0, AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats().hits + c.stats().misses, 0);
    }
}
