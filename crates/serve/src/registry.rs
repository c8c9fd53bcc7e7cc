//! Concurrent characterization registry.
//!
//! Characterizing a device is the expensive step of the framework — three
//! micro-benchmark sweeps — so the serving layer must run it **at most once
//! per device** no matter how many requests arrive concurrently. The
//! registry is one map from the [`DeviceKey`] fingerprint to an entry —
//! the characterization together with its optional provenance
//! [`EntryMeta`] — behind one lock, plus **single-flight**: the first
//! thread to miss on a key claims an in-flight slot and runs the
//! characterization; every other thread that misses the same key blocks
//! on the registry condvar and is handed the finished `Arc` instead of
//! duplicating the work.
//!
//! A registry miss is resolved by [`Registry::transfer_or_measure`] when
//! federated transfer is on: interpolate from measured neighbors, or
//! measure.
//!
//! The whole registry serializes to a [`RegistrySnapshot`] (via
//! `icomm-persist`) so a service restart warm-starts from disk instead of
//! re-running the sweeps.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};
use serde::{Deserialize, Serialize};

use icomm_microbench::{
    fingerprint, fingerprint_features, robust_transfer_characterization, DeviceCharacterization,
    DeviceKey, NeighborSample, TransferPolicy,
};
use icomm_soc::DeviceProfile;

/// Provenance attached to a registry entry: where it sits in
/// fingerprint-feature space and how much it is trusted.
///
/// Entries produced by actually running the micro-benchmarks carry
/// confidence `1.0`; entries produced by federated transfer carry the
/// transfer confidence (strictly below 1). Only fully-measured entries
/// are offered as interpolation sources by [`Registry::measured_neighbors`],
/// so transferred values never chain — each transfer is anchored to real
/// measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryMeta {
    /// Fingerprint feature vector of the device
    /// ([`icomm_microbench::fingerprint_features`]).
    pub features: Vec<f64>,
    /// Trust in the entry: `1.0` for measured, the transfer confidence
    /// (< 1) for interpolated entries.
    pub confidence: f64,
}

impl EntryMeta {
    /// Meta for an entry backed by real micro-benchmark runs.
    pub fn measured(features: Vec<f64>) -> Self {
        EntryMeta {
            features,
            confidence: 1.0,
        }
    }

    /// Meta for an entry backed by a synthesized rule set rather than
    /// measurements. Confidence is clamped strictly below `1.0` so
    /// rules-backed entries are never offered as measured interpolation
    /// sources by [`Registry::measured_neighbors`].
    pub fn rules(features: Vec<f64>, confidence: f64) -> Self {
        EntryMeta {
            features,
            confidence: confidence.min(0.999),
        }
    }
}

/// How a [`Registry::get_or_characterize`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The characterization was already cached.
    Hit,
    /// This call ran the characterization.
    Computed,
    /// Another thread was already characterizing this device; this call
    /// blocked and received its result.
    Coalesced,
}

impl LookupOutcome {
    /// Whether the call was served without running a characterization of
    /// its own (cache hit or coalesced onto another thread's run).
    pub fn served_from_cache(self) -> bool {
        self != LookupOutcome::Computed
    }
}

/// How [`Registry::transfer_or_measure`] resolved a registry miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissResolution {
    /// Interpolated from measured neighbors.
    Transferred,
    /// Ran the micro-benchmarks. `had_neighbors` tells a transfer that
    /// fell below the confidence floor from a registry with no measured
    /// neighbor to transfer from.
    Measured {
        /// Whether measured neighbors existed (transfer was attempted).
        had_neighbors: bool,
    },
}

/// What [`Registry::transfer_or_measure`] produced for one miss.
#[derive(Debug, Clone)]
pub struct Miss {
    /// The characterization to publish.
    pub characterization: DeviceCharacterization,
    /// Its provenance: the transfer confidence, or measured.
    pub meta: EntryMeta,
    /// How the miss was resolved.
    pub resolution: MissResolution,
    /// Sources this miss quarantined for the first time.
    pub newly_quarantined: Vec<u64>,
}

/// One cached characterization with its provenance, published together
/// so a reader that sees the entry also sees its meta.
struct Entry {
    characterization: Arc<DeviceCharacterization>,
    meta: Option<EntryMeta>,
}

/// Removes the in-flight claim when the owning computation finishes — or
/// panics — so waiters are never stranded.
struct InflightClaim<'a> {
    registry: &'a Registry,
    key: u64,
}

impl Drop for InflightClaim<'_> {
    fn drop(&mut self) {
        self.registry.inflight.lock().remove(&self.key);
        self.registry.cond.notify_all();
    }
}

/// Single-flight cache of [`DeviceCharacterization`]s.
pub struct Registry {
    entries: RwLock<HashMap<u64, Entry>>,
    inflight: Mutex<HashSet<u64>>,
    cond: Condvar,
    runs: AtomicU64,
    /// Device keys whose characterizations failed the board-physics
    /// plausibility screen during a robust transfer. Quarantined
    /// entries stay cached (they may still serve their own device) but
    /// are never offered as transfer neighbors again.
    quarantined: RwLock<HashSet<u64>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("entries", &self.len())
            .field("runs", &self.characterization_runs())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry {
            entries: RwLock::new(HashMap::new()),
            inflight: Mutex::new(HashSet::new()),
            cond: Condvar::new(),
            runs: AtomicU64::new(0),
            quarantined: RwLock::new(HashSet::new()),
        }
    }

    /// Marks a characterization source as poisoned: it is dropped from
    /// [`Registry::measured_neighbors`] from now on (its cache entry
    /// survives — the device can still serve itself). Returns `true`
    /// the first time the key is quarantined.
    pub fn quarantine_source(&self, key: u64) -> bool {
        self.quarantined.write().insert(key)
    }

    /// The quarantine list, sorted for deterministic reporting.
    pub fn quarantined_sources(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.quarantined.read().iter().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Evicts `device`'s entry (cache, meta, quarantine) — the churn
    /// path: a device that crashed and lost local state re-joins the
    /// fleet as a stranger. Returns whether an entry existed.
    pub fn remove(&self, device: &DeviceProfile) -> bool {
        let key = fingerprint(device).0;
        self.quarantined.write().remove(&key);
        self.entries.write().remove(&key).is_some()
    }

    /// Number of cached characterizations.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many characterizations this registry has executed (not counting
    /// entries inserted directly or loaded from a snapshot).
    pub fn characterization_runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Cached characterization for `device`, if present.
    pub fn get(&self, device: &DeviceProfile) -> Option<Arc<DeviceCharacterization>> {
        self.cached(fingerprint(device).0)
    }

    fn cached(&self, key: u64) -> Option<Arc<DeviceCharacterization>> {
        let entries = self.entries.read();
        entries.get(&key).map(|e| e.characterization.clone())
    }

    /// Publishes an entry, returning the characterization it replaced.
    fn publish(
        &self,
        key: u64,
        characterization: Arc<DeviceCharacterization>,
        meta: Option<EntryMeta>,
    ) -> Option<Arc<DeviceCharacterization>> {
        let entry = Entry {
            characterization,
            meta,
        };
        let previous = self.entries.write().insert(key, entry);
        previous.map(|e| e.characterization)
    }

    /// Inserts a characterization directly (used by warm starts and
    /// tests). Returns the previous entry, if any.
    ///
    /// Entries inserted this way carry no [`EntryMeta`] and are therefore
    /// never offered as transfer neighbors; use [`Registry::insert_with_meta`]
    /// when the entry should participate in federated transfer.
    pub fn insert(
        &self,
        device: &DeviceProfile,
        characterization: DeviceCharacterization,
    ) -> Option<Arc<DeviceCharacterization>> {
        self.publish(fingerprint(device).0, Arc::new(characterization), None)
    }

    /// Inserts a characterization together with its provenance meta.
    /// Returns the previous entry, if any.
    pub fn insert_with_meta(
        &self,
        device: &DeviceProfile,
        characterization: DeviceCharacterization,
        meta: EntryMeta,
    ) -> Option<Arc<DeviceCharacterization>> {
        self.publish(
            fingerprint(device).0,
            Arc::new(characterization),
            Some(meta),
        )
    }

    /// Provenance meta for `device`'s entry, if the entry has any.
    pub fn meta(&self, device: &DeviceProfile) -> Option<EntryMeta> {
        let entries = self.entries.read();
        entries.get(&fingerprint(device).0)?.meta.clone()
    }

    /// All fully-measured entries (confidence `1.0`, see [`EntryMeta`])
    /// as interpolation sources, sorted by device key so the result is
    /// deterministic regardless of hash-map iteration order.
    ///
    /// Transferred entries (confidence < 1) and entries inserted without
    /// meta are excluded, so transfer is always anchored to real
    /// micro-benchmark runs and never chains.
    pub fn measured_neighbors(&self) -> Vec<NeighborSample> {
        let entries = self.entries.read();
        let quarantined = self.quarantined.read();
        let mut neighbors: Vec<NeighborSample> = entries
            .iter()
            .filter(|(key, _)| !quarantined.contains(key))
            .filter_map(|(key, entry)| {
                let meta = entry.meta.as_ref().filter(|m| m.confidence >= 1.0)?;
                Some(NeighborSample {
                    source: *key,
                    features: meta.features.clone(),
                    characterization: (*entry.characterization).clone(),
                })
            })
            .collect();
        neighbors.sort_by_key(|n| n.source);
        neighbors
    }

    /// Resolves a registry miss for `device`: interpolate from the
    /// measured neighbors when transfer is confident, otherwise run
    /// `measure`. The returned meta carries the transfer confidence
    /// (`< 1`) or marks the entry as measured (`1.0`), which controls
    /// whether it may serve as a future neighbor.
    ///
    /// Interpolation runs through the Byzantine-robust path
    /// ([`robust_transfer_characterization`]): sources whose values
    /// violate board physics are quarantined here on the spot, and up to
    /// f of 2f + 1 plausible-but-lying neighbors cannot move any
    /// transferred field outside the honest range.
    ///
    /// Call it from inside a [`Registry::get_or_characterize_with`]
    /// closure, which runs without any registry lock held.
    pub fn transfer_or_measure(
        &self,
        device: &DeviceProfile,
        policy: &TransferPolicy,
        measure: impl FnOnce(&DeviceProfile) -> DeviceCharacterization,
    ) -> Miss {
        let features = fingerprint_features(device);
        let neighbors = self.measured_neighbors();
        let had_neighbors = !neighbors.is_empty();
        let outcome = robust_transfer_characterization(&device.name, &features, &neighbors, policy);
        let newly_quarantined: Vec<u64> = outcome
            .rejected_sources
            .into_iter()
            .filter(|source| self.quarantine_source(*source))
            .collect();
        match outcome.transferred {
            Some(transferred) => Miss {
                characterization: transferred.characterization,
                meta: EntryMeta {
                    features,
                    confidence: transferred.confidence,
                },
                resolution: MissResolution::Transferred,
                newly_quarantined,
            },
            None => Miss {
                characterization: measure(device),
                meta: EntryMeta::measured(features),
                resolution: MissResolution::Measured { had_neighbors },
                newly_quarantined,
            },
        }
    }

    /// Returns the characterization for `device`, running `characterize`
    /// at most once per device across all threads.
    ///
    /// Concurrent callers for the same device coalesce: one runs the
    /// closure, the rest block on the registry condvar and share the
    /// result.
    /// If the running closure panics, the claim is released and a waiter
    /// takes over, so a poisoned attempt never wedges the key.
    pub fn get_or_characterize<F>(
        &self,
        device: &DeviceProfile,
        characterize: F,
    ) -> (Arc<DeviceCharacterization>, LookupOutcome)
    where
        F: FnOnce(&DeviceProfile) -> DeviceCharacterization,
    {
        self.get_or_characterize_with(device, |d| (characterize(d), None))
    }

    /// Like [`Registry::get_or_characterize`], but the closure also
    /// returns optional provenance [`EntryMeta`] to store alongside the
    /// entry (feature vector + confidence, consumed by
    /// [`Registry::measured_neighbors`] and the fleet transfer path).
    ///
    /// The closure runs without any registry lock held, so it may itself
    /// query the registry — e.g. [`Registry::transfer_or_measure`] —
    /// without deadlocking. The entry and its meta are published
    /// together, so any reader that can see the entry also sees its
    /// provenance.
    pub fn get_or_characterize_with<F>(
        &self,
        device: &DeviceProfile,
        characterize: F,
    ) -> (Arc<DeviceCharacterization>, LookupOutcome)
    where
        F: FnOnce(&DeviceProfile) -> (DeviceCharacterization, Option<EntryMeta>),
    {
        let key = fingerprint(device).0;
        if let Some(hit) = self.cached(key) {
            return (hit, LookupOutcome::Hit);
        }

        let mut waited = false;
        loop {
            let mut inflight = self.inflight.lock();
            if let Some(hit) = self.cached(key) {
                let outcome = if waited {
                    LookupOutcome::Coalesced
                } else {
                    LookupOutcome::Hit
                };
                return (hit, outcome);
            }
            if inflight.insert(key) {
                drop(inflight);
                let claim = InflightClaim {
                    registry: self,
                    key,
                };
                let (characterization, meta) = characterize(device);
                let characterization = Arc::new(characterization);
                self.runs.fetch_add(1, Ordering::Relaxed);
                self.publish(key, characterization.clone(), meta);
                drop(claim);
                return (characterization, LookupOutcome::Computed);
            }
            // Someone else is characterizing this device: wait for them to
            // either publish the result or abandon the claim.
            self.cond.wait(&mut inflight);
            waited = true;
        }
    }

    /// Serializable copy of every cached entry (with provenance meta
    /// where the entry has any).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut entries: Vec<RegistryEntry> = self
            .entries
            .read()
            .iter()
            .map(|(key, entry)| RegistryEntry {
                key: DeviceKey(*key),
                characterization: (*entry.characterization).clone(),
                features: entry.meta.as_ref().map(|m| m.features.clone()),
                confidence: entry.meta.as_ref().map(|m| m.confidence),
            })
            .collect();
        entries.sort_by_key(|e| e.key);
        let quarantined = {
            let mut keys: Vec<DeviceKey> = self
                .quarantined
                .read()
                .iter()
                .map(|k| DeviceKey(*k))
                .collect();
            keys.sort();
            // `None` when unused keeps the snapshot bytes identical to
            // the pre-quarantine format.
            if keys.is_empty() {
                None
            } else {
                Some(keys)
            }
        };
        RegistrySnapshot {
            entries,
            quarantined,
        }
    }

    /// Merges a snapshot into the registry (existing entries win; the
    /// quarantine lists union).
    pub fn load_snapshot(&self, snapshot: RegistrySnapshot) {
        if let Some(quarantined) = snapshot.quarantined {
            let mut set = self.quarantined.write();
            set.extend(quarantined.into_iter().map(|k| k.0));
        }
        let mut entries = self.entries.write();
        for entry in snapshot.entries {
            let meta = match (entry.features, entry.confidence) {
                (Some(features), Some(confidence)) => Some(EntryMeta {
                    features,
                    confidence,
                }),
                _ => None,
            };
            entries.entry(entry.key.0).or_insert_with(|| Entry {
                characterization: Arc::new(entry.characterization),
                meta,
            });
        }
    }

    /// Persists the registry to `path` as a checksummed, versioned
    /// snapshot ([`icomm_persist::snapshot`]), written atomically: a
    /// crash mid-save leaves the previous snapshot intact, never a torn
    /// file.
    ///
    /// # Errors
    ///
    /// Returns a message on serialization or I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let json = icomm_persist::to_string(&self.snapshot())
            .map_err(|e| format!("serializing registry: {e:?}"))?;
        icomm_persist::write_atomic(path, &json)
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Loads a registry snapshot from `path` and merges it in. Returns the
    /// number of entries in the snapshot.
    ///
    /// Framed snapshots are verified (length, checksum, version) before
    /// parsing; legacy bare-JSON files from before the framing are still
    /// accepted.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure, framing violation (truncation,
    /// bit corruption, trailing garbage), or parse failure.
    pub fn load(&self, path: &Path) -> Result<usize, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let json = if icomm_persist::snapshot::is_snapshot(&bytes) {
            icomm_persist::snapshot::decode(&bytes)
                .map_err(|e| format!("verifying {}: {e}", path.display()))?
                .to_owned()
        } else {
            String::from_utf8(bytes).map_err(|_| format!("{} is not UTF-8", path.display()))?
        };
        let snapshot: RegistrySnapshot = icomm_persist::from_str(&json)
            .map_err(|e| format!("parsing {}: {e:?}", path.display()))?;
        let n = snapshot.entries.len();
        self.load_snapshot(snapshot);
        Ok(n)
    }
}

/// One persisted registry entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistryEntry {
    /// Device fingerprint the entry is keyed by.
    pub key: DeviceKey,
    /// The cached characterization.
    pub characterization: DeviceCharacterization,
    /// Fingerprint feature vector, when the entry carries provenance
    /// meta. `None` on entries from snapshots predating federated
    /// transfer — they stay usable as cache entries but are not offered
    /// as transfer neighbors.
    pub features: Option<Vec<f64>>,
    /// Entry confidence (`1.0` measured, `< 1` transferred), when the
    /// entry carries provenance meta.
    pub confidence: Option<f64>,
}

/// Serializable point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// All cached entries, sorted by key.
    pub entries: Vec<RegistryEntry>,
    /// Quarantined source keys, sorted; `None` (and absent from older
    /// snapshots, which still load) when nothing is quarantined.
    pub quarantined: Option<Vec<DeviceKey>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use icomm_microbench::quick_characterize_device;

    fn sample(device: &DeviceProfile) -> DeviceCharacterization {
        DeviceCharacterization {
            device: device.name.clone(),
            gpu_cache_max_throughput: 1.0,
            gpu_zc_throughput: 1.0,
            gpu_um_throughput: 1.0,
            gpu_cache_threshold_pct: 5.0,
            gpu_cache_zone2_pct: None,
            cpu_cache_threshold_pct: 100.0,
            sc_zc_max_speedup: 1.0,
            zc_sc_max_speedup: 1.0,
            upm_supported: false,
            gpu_upm_throughput: 0.0,
            upm_kernel_penalty: 1.0,
            um_upm_max_speedup: 1.0,
        }
    }

    #[test]
    fn first_lookup_computes_second_hits() {
        let registry = Registry::default();
        let tx2 = DeviceProfile::jetson_tx2();
        let (_, outcome) = registry.get_or_characterize(&tx2, sample);
        assert_eq!(outcome, LookupOutcome::Computed);
        let (_, outcome) = registry.get_or_characterize(&tx2, sample);
        assert_eq!(outcome, LookupOutcome::Hit);
        assert_eq!(registry.characterization_runs(), 1);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn distinct_devices_get_distinct_entries() {
        let registry = Registry::new();
        for device in [
            DeviceProfile::jetson_nano(),
            DeviceProfile::jetson_tx2(),
            DeviceProfile::jetson_agx_xavier(),
            DeviceProfile::orin_like(),
        ] {
            registry.get_or_characterize(&device, sample);
        }
        assert_eq!(registry.len(), 4);
        assert_eq!(registry.characterization_runs(), 4);
    }

    #[test]
    fn panicking_characterization_releases_the_claim() {
        let registry = Registry::default();
        let nano = DeviceProfile::jetson_nano();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.get_or_characterize(&nano, |_| panic!("sweep exploded"));
        }));
        assert!(attempt.is_err());
        // The key is not wedged: a retry succeeds.
        let (_, outcome) = registry.get_or_characterize(&nano, sample);
        assert_eq!(outcome, LookupOutcome::Computed);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let registry = Registry::default();
        let tx2 = DeviceProfile::jetson_tx2();
        registry.insert(&tx2, quick_characterize_device(&tx2));
        let json = icomm_persist::to_string(&registry.snapshot()).unwrap();
        let back: RegistrySnapshot = icomm_persist::from_str(&json).unwrap();
        let restored = Registry::default();
        restored.load_snapshot(back);
        assert_eq!(
            registry.get(&tx2).unwrap().as_ref(),
            restored.get(&tx2).unwrap().as_ref()
        );
        // Loaded entries do not count as runs.
        assert_eq!(restored.characterization_runs(), 0);
    }

    #[test]
    fn save_load_round_trips_with_verification() {
        let dir = std::env::temp_dir().join(format!("icomm-reg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("registry.snap");
        let registry = Registry::default();
        let tx2 = DeviceProfile::jetson_tx2();
        registry.insert(&tx2, sample(&tx2));
        registry.save(&path).unwrap();

        let restored = Registry::default();
        assert_eq!(restored.load(&path).unwrap(), 1);
        assert_eq!(
            restored.get(&tx2).unwrap().as_ref(),
            registry.get(&tx2).unwrap().as_ref()
        );

        // A flipped byte in the payload fails verification loudly.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = Registry::default().load(&path).unwrap_err();
        assert!(err.contains("checksum"), "unexpected error: {err}");

        // A truncated snapshot likewise.
        let bytes = std::fs::read(&path).map(|mut b| {
            b[last] ^= 0x10; // restore
            b.truncate(b.len() - 5);
            b
        });
        std::fs::write(&path, bytes.unwrap()).unwrap();
        let err = Registry::default().load(&path).unwrap_err();
        assert!(err.contains("truncated"), "unexpected error: {err}");

        // Legacy bare-JSON files still load.
        let json = icomm_persist::to_string(&registry.snapshot()).unwrap();
        std::fs::write(&path, json).unwrap();
        assert_eq!(Registry::default().load(&path).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_round_trips_and_gates_neighbors() {
        let registry = Registry::default();
        let tx2 = DeviceProfile::jetson_tx2();
        let nano = DeviceProfile::jetson_nano();
        let xavier = DeviceProfile::jetson_agx_xavier();
        registry.insert_with_meta(&tx2, sample(&tx2), EntryMeta::measured(vec![1.0, 2.0]));
        registry.insert_with_meta(
            &nano,
            sample(&nano),
            EntryMeta {
                features: vec![3.0, 4.0],
                confidence: 0.8,
            },
        );
        registry.insert(&xavier, sample(&xavier));

        // Only the measured entry is offered as a neighbor: the
        // transferred one (confidence < 1) and the meta-less one are out.
        let neighbors = registry.measured_neighbors();
        assert_eq!(neighbors.len(), 1);
        assert_eq!(neighbors[0].features, vec![1.0, 2.0]);

        // Meta survives a snapshot round trip.
        let restored = Registry::default();
        restored.load_snapshot(registry.snapshot());
        assert_eq!(restored.meta(&tx2).unwrap().confidence, 1.0);
        assert_eq!(restored.meta(&nano).unwrap().confidence, 0.8);
        assert!(restored.meta(&xavier).is_none());
        assert_eq!(restored.measured_neighbors().len(), 1);
    }

    #[test]
    fn characterize_with_publishes_meta() {
        let registry = Registry::default();
        let tx2 = DeviceProfile::jetson_tx2();
        let (_, outcome) = registry
            .get_or_characterize_with(&tx2, |d| (sample(d), Some(EntryMeta::measured(vec![7.0]))));
        assert_eq!(outcome, LookupOutcome::Computed);
        assert_eq!(registry.meta(&tx2).unwrap().features, vec![7.0]);
        assert_eq!(registry.measured_neighbors().len(), 1);
    }

    #[test]
    fn load_snapshot_keeps_existing_entries() {
        let registry = Registry::default();
        let tx2 = DeviceProfile::jetson_tx2();
        let mut ours = sample(&tx2);
        ours.gpu_cache_max_throughput = 42.0;
        registry.insert(&tx2, ours.clone());
        let other = Registry::default();
        other.insert(&tx2, sample(&tx2));
        registry.load_snapshot(other.snapshot());
        assert_eq!(registry.get(&tx2).unwrap().gpu_cache_max_throughput, 42.0);
    }
}
