//! Property-based tests of the simulator substrate.
//!
//! The cache is checked against an independently written reference model
//! (a naive `Vec`-of-sets LRU), and the hierarchy against conservation
//! and monotonicity invariants, under arbitrary access streams.

use proptest::prelude::*;

use icomm_soc::cache::{AccessKind, Cache, CacheGeometry, CacheOutcome};
use icomm_soc::hierarchy::MemSpace;
use icomm_soc::request::MemRequest;
use icomm_soc::units::ByteSize;
use icomm_soc::{DeviceProfile, Soc};

/// A deliberately naive reference cache: same geometry semantics,
/// different implementation (linear scans, explicit recency lists, and
/// maintenance that walks every line).
struct ReferenceCache {
    line_bytes: u64,
    num_sets: u64,
    ways: usize,
    /// Per set: (line address, dirty), most recently used last.
    sets: Vec<Vec<(u64, bool)>>,
    enabled: bool,
}

impl ReferenceCache {
    fn new(geometry: CacheGeometry) -> Self {
        ReferenceCache {
            line_bytes: geometry.line_bytes as u64,
            num_sets: geometry.num_sets(),
            ways: geometry.associativity as usize,
            sets: vec![Vec::new(); geometry.num_sets() as usize],
            enabled: true,
        }
    }

    /// Returns (hit, victim_was_dirty), or `None` when disabled.
    fn access(&mut self, addr: u64, write: bool) -> Option<(bool, bool)> {
        if !self.enabled {
            return None;
        }
        let line = addr & !(self.line_bytes - 1);
        let set_idx = ((line / self.line_bytes) % self.num_sets) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&(tag, _)| tag == line) {
            let (tag, dirty) = set.remove(pos);
            set.push((tag, dirty || write));
            return Some((true, false));
        }
        let mut victim_dirty = false;
        if set.len() == self.ways {
            let (_, dirty) = set.remove(0);
            victim_dirty = dirty;
        }
        set.push((line, write));
        Some((false, victim_dirty))
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr & !(self.line_bytes - 1);
        self.enabled && self.sets.iter().flatten().any(|&(tag, _)| tag == line)
    }

    fn flush_dirty(&mut self) -> u64 {
        let mut written = 0;
        for (_, dirty) in self.sets.iter_mut().flatten() {
            written += *dirty as u64;
            *dirty = false;
        }
        written
    }

    fn invalidate_all(&mut self) -> u64 {
        let written = self.dirty_lines();
        self.sets.iter_mut().for_each(Vec::clear);
        written
    }

    fn resident_lines(&self) -> u64 {
        self.sets.iter().map(|set| set.len() as u64).sum()
    }

    fn dirty_lines(&self) -> u64 {
        self.sets
            .iter()
            .flatten()
            .filter(|(_, dirty)| *dirty)
            .count() as u64
    }
}

/// Replays `ops` — `(selector, address, is_write)` — against the cache and
/// the reference: selectors 0..=15 access, 16 flushes, 17 invalidates,
/// 18 toggles the enable bit and 19 probes. After every op the outcomes,
/// counters and resident/dirty line counts must agree, and at the end the
/// full contents (lines, dirty bits and LRU order of every set).
fn check_against_reference(geometry: CacheGeometry, ops: &[(u8, u64, bool)]) {
    let mut cache = Cache::new(geometry);
    let mut reference = ReferenceCache::new(geometry);
    let mut ref_stats = icomm_soc::stats::CacheStats::default();
    for &(op, addr, is_write) in ops {
        match op {
            0..=15 => {
                let kind = if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let outcome = cache.access(addr, kind);
                match reference.access(addr, is_write) {
                    None => {
                        ref_stats.bypasses += 1;
                        assert_eq!(outcome, CacheOutcome::Bypass, "@{addr:#x}");
                    }
                    Some((true, _)) => {
                        ref_stats.hits += 1;
                        assert_eq!(outcome, CacheOutcome::Hit, "@{addr:#x}");
                    }
                    Some((false, victim_writeback)) => {
                        ref_stats.misses += 1;
                        ref_stats.fills += 1;
                        ref_stats.writebacks += victim_writeback as u64;
                        assert_eq!(
                            outcome,
                            CacheOutcome::Miss { victim_writeback },
                            "@{addr:#x}"
                        );
                    }
                }
            }
            16 => {
                let written = reference.flush_dirty();
                ref_stats.writebacks += written;
                ref_stats.flushes += 1;
                assert_eq!(cache.flush_dirty(), written);
            }
            17 => {
                let written = reference.invalidate_all();
                ref_stats.writebacks += written;
                ref_stats.flushes += 1;
                assert_eq!(cache.invalidate_all(), written);
            }
            18 => {
                reference.enabled = !reference.enabled;
                cache.set_enabled(reference.enabled);
            }
            _ => assert_eq!(cache.probe(addr), reference.probe(addr), "probe @{addr:#x}"),
        }
        assert_eq!(*cache.stats(), ref_stats);
        assert_eq!(cache.resident_lines(), reference.resident_lines());
        assert_eq!(cache.dirty_lines(), reference.dirty_lines());
        assert_eq!(cache.is_enabled(), reference.enabled);
    }
    assert_eq!(cache.contents(), reference.sets);
}

fn maintenance_stream(region: u64) -> impl Strategy<Value = Vec<(u8, u64, bool)>> {
    prop::collection::vec((0u8..20, 0..region, prop::bool::ANY), 1..1500)
}

fn access_stream() -> impl Strategy<Value = Vec<(u64, bool)>> {
    // Addresses drawn from a small region so sets collide and evict.
    prop::collection::vec((0u64..32 * 1024, prop::bool::ANY), 1..600)
}

proptest! {
    #[test]
    fn cache_matches_reference_model(stream in access_stream()) {
        let geometry = CacheGeometry::new(ByteSize(4096), 64, 4);
        let mut cache = Cache::new(geometry);
        let mut reference = ReferenceCache::new(geometry);
        for (addr, is_write) in stream {
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let outcome = cache.access(addr, kind);
            let (ref_hit, ref_victim_dirty) =
                reference.access(addr, is_write).expect("reference cache is enabled");
            match outcome {
                CacheOutcome::Hit => prop_assert!(ref_hit, "cache hit, reference missed @{addr:#x}"),
                CacheOutcome::Miss { victim_writeback } => {
                    prop_assert!(!ref_hit, "cache missed, reference hit @{addr:#x}");
                    prop_assert_eq!(
                        victim_writeback,
                        ref_victim_dirty,
                        "writeback divergence @{:#x}",
                        addr
                    );
                }
                CacheOutcome::Bypass => prop_assert!(false, "enabled cache bypassed"),
            }
        }
    }

    #[test]
    fn cache_with_maintenance_matches_reference_on_power_of_two_sets(
        ops in maintenance_stream(32 * 1024),
    ) {
        // 16 sets: the set index is a mask.
        check_against_reference(CacheGeometry::new(ByteSize(4096), 64, 4), &ops);
    }

    #[test]
    fn cache_with_maintenance_matches_reference_on_tx2_gpu_l1(
        ops in maintenance_stream(256 * 1024),
    ) {
        // TX2's 48 KiB 4-way GPU L1 has 192 sets: the set index is a
        // remainder.
        let geometry = DeviceProfile::jetson_tx2().layout.gpu_l1;
        prop_assert_eq!(geometry.num_sets(), 192);
        check_against_reference(geometry, &ops);
    }

    #[test]
    fn cache_counter_conservation(stream in access_stream()) {
        let geometry = CacheGeometry::new(ByteSize(4096), 64, 4);
        let mut cache = Cache::new(geometry);
        for (addr, is_write) in &stream {
            let kind = if *is_write { AccessKind::Write } else { AccessKind::Read };
            cache.access(*addr, kind);
        }
        let stats = *cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, stream.len() as u64);
        prop_assert_eq!(stats.fills, stats.misses);
        // Lines cannot exceed capacity; dirty lines cannot exceed resident.
        prop_assert!(cache.resident_lines() <= geometry.num_lines());
        prop_assert!(cache.dirty_lines() <= cache.resident_lines());
        // Every dirty line will eventually write back: flush proves it.
        let dirty_before = cache.dirty_lines();
        let flushed = cache.flush_dirty();
        prop_assert_eq!(flushed, dirty_before); // flush returns the count
        prop_assert_eq!(cache.dirty_lines(), 0);
    }

    #[test]
    fn hierarchy_dram_traffic_is_line_quantized(
        addrs in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let device = DeviceProfile::jetson_tx2();
        let mut soc = Soc::new(device);
        for addr in &addrs {
            soc.run_cpu_task(
                &[],
                std::iter::once(MemRequest::read(*addr, 4, MemSpace::Cached)),
            );
        }
        let snap = soc.snapshot();
        // All DRAM traffic moves whole 64 B lines.
        prop_assert_eq!(snap.dram.bytes_read % 64, 0);
        prop_assert_eq!(snap.dram.bytes_written % 64, 0);
        // Reads from DRAM correspond to LLC fills.
        prop_assert_eq!(snap.dram.bytes_read / 64, snap.cpu_llc.fills);
    }

    #[test]
    fn pinned_accesses_never_touch_gpu_caches(
        addrs in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let device = DeviceProfile::jetson_agx_xavier();
        let mut soc = Soc::new(device);
        let reqs: Vec<_> = addrs
            .iter()
            .map(|&a| MemRequest::read(a, 32, MemSpace::Pinned))
            .collect();
        soc.run_kernel(0, reqs.into_iter());
        let snap = soc.snapshot();
        prop_assert_eq!(snap.gpu_l1.accesses(), 0);
        prop_assert_eq!(snap.gpu_llc.accesses(), 0);
    }

    #[test]
    fn kernel_time_monotone_in_request_count(extra in 1usize..300) {
        let device = DeviceProfile::jetson_tx2();
        let base: Vec<_> = (0..100u64)
            .map(|i| MemRequest::read(i * 4096, 64, MemSpace::Cached))
            .collect();
        let longer: Vec<_> = (0..100 + extra as u64)
            .map(|i| MemRequest::read(i * 4096, 64, MemSpace::Cached))
            .collect();
        let mut soc_a = Soc::new(device.clone());
        let t_base = soc_a.run_kernel(0, base.into_iter()).time;
        let mut soc_b = Soc::new(device);
        let t_longer = soc_b.run_kernel(0, longer.into_iter()).time;
        prop_assert!(t_longer >= t_base);
    }

    #[test]
    fn copy_time_monotone_in_size(a in 1u64..10_000_000, b in 1u64..10_000_000) {
        let (small, large) = (a.min(b), a.max(b));
        let device = DeviceProfile::jetson_nano();
        let mut soc = Soc::new(device);
        let t_small = soc.copy(ByteSize(small)).time;
        let t_large = soc.copy(ByteSize(large)).time;
        prop_assert!(t_large >= t_small);
    }

    #[test]
    fn energy_monotone_under_additional_work(work in 1u64..(1 << 24)) {
        let device = DeviceProfile::jetson_agx_xavier();
        let mut soc = Soc::new(device);
        let before = soc.snapshot().energy;
        soc.run_kernel(work, std::iter::empty());
        let after = soc.snapshot().energy;
        prop_assert!(after >= before);
    }
}
