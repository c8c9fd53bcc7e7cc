//! The in-process tuning service: registry + engine + metrics behind one
//! handle.
//!
//! [`TuningService`] is what both the TCP server and embedded callers use.
//! Submitting a request resolves its names, obtains the device
//! characterization through the single-flight [`Registry`], runs the
//! recommendation flow, and returns a [`TuneResponse`] — all on the worker
//! pool, so a hundred requests for four boards cost four characterization
//! sweeps, not a hundred.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use icomm_core::recommend_for_device;
use icomm_microbench::{
    characterize_device, quick_characterize_device, DeviceCharacterization, TransferPolicy,
};
use icomm_models::CommModelKind;
use icomm_soc::DeviceProfile;

use crate::admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, RequestClass, ShedReason,
};
use crate::catalog;
use crate::engine::{BatchHandle, Engine, EngineConfig};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::protocol::{TuneRequest, TuneResponse};
use crate::registry::{EntryMeta, LookupOutcome, MissResolution, Registry};

/// The characterization strategy the service runs on a registry miss.
pub type CharacterizerFn = Arc<dyn Fn(&DeviceProfile) -> DeviceCharacterization + Send + Sync>;

/// Service construction options.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker-pool sizing and per-job policy.
    pub engine: EngineConfig,
    /// Characterization to run on a registry miss. Defaults to the full
    /// micro-benchmark sweep ([`characterize_device`]).
    pub characterizer: CharacterizerFn,
    /// When set, the registry warm-starts from this file (if it exists)
    /// and is persisted back on [`TuningService::shutdown`].
    pub registry_path: Option<PathBuf>,
    /// When set, requests pass admission control before queuing: shed
    /// requests get an immediate explicit `overloaded` response instead
    /// of waiting out a timeout. `None` (the default) admits everything.
    pub admission: Option<AdmissionConfig>,
    /// When set, registry misses first try federated transfer —
    /// interpolating from measured neighbors already in the registry —
    /// and only run the micro-benchmarks when transfer confidence lands
    /// below the policy floor. `None` (the default) always measures.
    pub transfer: Option<TransferPolicy>,
}

impl fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("engine", &self.engine)
            .field("registry_path", &self.registry_path)
            .field("admission", &self.admission)
            .field("transfer", &self.transfer)
            .finish()
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            engine: EngineConfig::default(),
            characterizer: Arc::new(characterize_device),
            registry_path: None,
            admission: None,
            transfer: None,
        }
    }
}

impl ServiceConfig {
    /// Config using the trimmed characterization sweep
    /// ([`quick_characterize_device`]) — a few percent of accuracy for a
    /// fraction of the latency. The right default for interactive serving.
    pub fn quick() -> Self {
        ServiceConfig {
            characterizer: Arc::new(quick_characterize_device),
            ..ServiceConfig::default()
        }
    }

    /// Sets the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.engine.workers = workers;
        self
    }

    /// Sets the registry persistence path.
    #[must_use]
    pub fn with_registry_path(mut self, path: PathBuf) -> Self {
        self.registry_path = Some(path);
        self
    }

    /// Enables admission control with the given configuration.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Enables federated characterization transfer with the given policy.
    #[must_use]
    pub fn with_transfer(mut self, transfer: TransferPolicy) -> Self {
        self.transfer = Some(transfer);
        self
    }
}

/// Awaitable handle to a batch submitted to the service.
#[derive(Debug)]
pub struct ServiceBatch {
    inner: BatchHandle<TuneRequest, TuneResponse>,
    /// Responses produced before queuing (admission rejections): already
    /// final, merged into the result at [`ServiceBatch::wait`].
    shed: Vec<TuneResponse>,
}

impl ServiceBatch {
    /// Number of responses this handle will deliver.
    pub fn expected(&self) -> usize {
        self.inner.expected() + self.shed.len()
    }

    /// Blocks until every request resolves; responses are sorted by
    /// request id. Engine-level failures (timeout, panic) surface as
    /// failure responses; admission rejections surface as `overloaded`
    /// responses.
    pub fn wait(self) -> Vec<TuneResponse> {
        let mut responses: Vec<TuneResponse> = self
            .inner
            .wait()
            .into_iter()
            .map(|outcome| match outcome.result {
                Ok(response) => response,
                Err(err) => TuneResponse::failure(outcome.job.id, err.to_string()),
            })
            .collect();
        responses.extend(self.shed);
        responses.sort_by_key(|r| r.id);
        responses
    }
}

/// Concurrent tuning service: accepts [`TuneRequest`] batches, memoizes
/// device characterizations, and answers with [`TuneResponse`]s.
pub struct TuningService {
    engine: Engine<TuneRequest, TuneResponse>,
    registry: Arc<Registry>,
    metrics: Arc<Metrics>,
    registry_path: Option<PathBuf>,
    admission: Option<AdmissionController>,
    /// Epoch for admission-control timestamps: the token bucket sees
    /// microseconds since service start.
    started: Instant,
    /// The miss-path characterizer, kept so out-of-band callers (the
    /// binary `characterize` opcode) resolve through the same strategy
    /// and single-flight registry as tune requests.
    characterizer: CharacterizerFn,
    /// Federated-transfer policy for those same out-of-band lookups.
    transfer: Option<TransferPolicy>,
}

impl fmt::Debug for TuningService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TuningService")
            .field("registry", &self.registry)
            .field("registry_path", &self.registry_path)
            .finish()
    }
}

impl TuningService {
    /// Starts the worker pool; warm-starts the registry when the config
    /// names an existing snapshot file.
    pub fn start(config: ServiceConfig) -> Self {
        let metrics = Arc::new(Metrics::new());
        let registry = Arc::new(Registry::new());
        if let Some(path) = &config.registry_path {
            if path.exists() {
                // A corrupt snapshot only costs the warm start: count it
                // and rebuild characterizations from scratch.
                if registry.load(path).is_err() {
                    metrics.snapshot_corruptions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let handler = {
            let registry = registry.clone();
            let metrics = metrics.clone();
            let characterizer = config.characterizer.clone();
            let transfer = config.transfer.clone();
            Arc::new(move |request: &TuneRequest| {
                handle_request(
                    request,
                    &registry,
                    &metrics,
                    &characterizer,
                    transfer.as_ref(),
                )
            }) as Arc<dyn Fn(&TuneRequest) -> TuneResponse + Send + Sync>
        };
        let engine = Engine::new(config.engine.clone(), metrics.clone(), handler);
        TuningService {
            engine,
            registry,
            metrics,
            registry_path: config.registry_path,
            admission: config.admission.map(AdmissionController::new),
            started: Instant::now(),
            characterizer: config.characterizer,
            transfer: config.transfer,
        }
    }

    /// The shared characterization registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Point-in-time copy of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The live counters, for components (like the TCP server or a load
    /// harness) that record events on behalf of the service.
    pub fn metrics_handle(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Resolves the characterization for a board name through the same
    /// registry / transfer / characterizer path a tune request takes,
    /// with the same metric accounting. Backs the binary `characterize`
    /// opcode; embedded callers can use it to inspect what the service
    /// would decide from.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown board name.
    pub fn characterize_board(
        &self,
        board: &str,
    ) -> Result<Arc<icomm_microbench::DeviceCharacterization>, String> {
        let device = catalog::board_by_name(board)?;
        let (characterization, _) = characterization_for(
            &device,
            &self.registry,
            &self.metrics,
            &self.characterizer,
            self.transfer.as_ref(),
        );
        Ok(characterization)
    }

    /// Serves one request synchronously (through the worker pool).
    pub fn handle(&self, request: TuneRequest) -> TuneResponse {
        let id = request.id;
        self.submit_batch(vec![request])
            .wait()
            .pop()
            .unwrap_or_else(|| TuneResponse::failure(id, "engine returned no response".to_string()))
    }

    /// Enqueues a batch of requests on the worker pool.
    ///
    /// With admission control configured, each request is checked before
    /// queuing; shed requests get an immediate `overloaded` response in
    /// the batch result and never touch the worker pool.
    pub fn submit_batch(&self, requests: Vec<TuneRequest>) -> ServiceBatch {
        self.metrics
            .requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        let mut shed = Vec::new();
        let admitted: Vec<TuneRequest> = match &self.admission {
            None => requests,
            Some(controller) => requests
                .into_iter()
                .filter_map(|request| {
                    let class = request
                        .class
                        .as_deref()
                        .map(RequestClass::parse)
                        .unwrap_or(RequestClass::Interactive);
                    let depth = self.metrics.queue_depth.load(Ordering::Relaxed) as usize;
                    let now_us = self.started.elapsed().as_micros() as u64;
                    match controller.admit(class, depth, now_us) {
                        AdmissionDecision::Admit => Some(request),
                        AdmissionDecision::Shed(reason) => {
                            match reason {
                                ShedReason::Queue => {
                                    self.metrics.shed_queue.fetch_add(1, Ordering::Relaxed)
                                }
                                ShedReason::Rate => {
                                    self.metrics.shed_rate.fetch_add(1, Ordering::Relaxed)
                                }
                            };
                            shed.push(TuneResponse::overloaded(request.id, reason.as_str()));
                            None
                        }
                    }
                })
                .collect(),
        };
        ServiceBatch {
            inner: self.engine.submit_batch(admitted),
            shed,
        }
    }

    /// Drains every queued request, stops the workers, and — when the
    /// config named a registry path — persists the registry for the next
    /// start.
    ///
    /// # Errors
    ///
    /// Returns a message if the registry snapshot cannot be written.
    pub fn shutdown(self) -> Result<(), String> {
        let TuningService {
            engine,
            registry,
            metrics: _,
            registry_path,
            admission: _,
            started: _,
            characterizer: _,
            transfer: _,
        } = self;
        engine.shutdown();
        if let Some(path) = registry_path {
            registry.save(&path)?;
        }
        Ok(())
    }
}

/// On a registry miss with transfer enabled: resolve it through
/// [`Registry::transfer_or_measure`] and count how it went — transfer
/// hits, fallbacks to measurement, runs, and newly quarantined sources.
fn characterize_or_transfer(
    device: &DeviceProfile,
    registry: &Registry,
    metrics: &Metrics,
    characterizer: &CharacterizerFn,
    policy: &TransferPolicy,
) -> (DeviceCharacterization, Option<EntryMeta>) {
    let miss = registry.transfer_or_measure(device, policy, |device| {
        metrics.characterizations.fetch_add(1, Ordering::Relaxed);
        characterizer(device)
    });
    metrics
        .transfer_quarantined
        .fetch_add(miss.newly_quarantined.len() as u64, Ordering::Relaxed);
    match miss.resolution {
        MissResolution::Transferred => metrics.transfer_hits.fetch_add(1, Ordering::Relaxed),
        MissResolution::Measured { had_neighbors } => metrics
            .transfer_fallbacks
            .fetch_add(u64::from(had_neighbors), Ordering::Relaxed),
    };
    (miss.characterization, Some(miss.meta))
}

/// Fetches `device`'s characterization through the single-flight
/// registry — transferring or measuring on a miss — and counts the
/// lookup as a registry hit or miss. Tune requests and the binary
/// `characterize` opcode both resolve here.
fn characterization_for(
    device: &DeviceProfile,
    registry: &Registry,
    metrics: &Metrics,
    characterizer: &CharacterizerFn,
    transfer: Option<&TransferPolicy>,
) -> (Arc<DeviceCharacterization>, LookupOutcome) {
    let (characterization, lookup) =
        registry.get_or_characterize_with(device, |device| match transfer {
            Some(policy) => {
                characterize_or_transfer(device, registry, metrics, characterizer, policy)
            }
            None => {
                metrics.characterizations.fetch_add(1, Ordering::Relaxed);
                (characterizer(device), None)
            }
        });
    if lookup.served_from_cache() {
        metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    }
    (characterization, lookup)
}

/// The per-request pipeline every worker runs: resolve names, fetch or
/// compute the characterization, recommend.
fn handle_request(
    request: &TuneRequest,
    registry: &Registry,
    metrics: &Metrics,
    characterizer: &CharacterizerFn,
    transfer: Option<&TransferPolicy>,
) -> TuneResponse {
    let started = Instant::now();
    let fail = |message: String| {
        metrics.failed.fetch_add(1, Ordering::Relaxed);
        TuneResponse::failure(request.id, message)
    };

    let device = match catalog::board_by_name(&request.board) {
        Ok(device) => device,
        Err(message) => return fail(message),
    };
    let workload = match catalog::workload_by_name(&request.app) {
        Ok(workload) => workload,
        Err(message) => return fail(message),
    };
    let current = match &request.current {
        Some(name) => match catalog::model_by_name(name) {
            Ok(model) => model,
            Err(message) => return fail(message),
        },
        None => CommModelKind::StandardCopy,
    };

    let characterize_started = Instant::now();
    let (characterization, lookup) =
        characterization_for(&device, registry, metrics, characterizer, transfer);
    metrics
        .characterize_latency
        .record(characterize_started.elapsed().as_micros() as u64);

    let recommend_started = Instant::now();
    let outcome = recommend_for_device(&device, &characterization, &workload, current);
    metrics
        .recommend_latency
        .record(recommend_started.elapsed().as_micros() as u64);

    // Price the recommended model's memory footprint so operators can
    // see what a tuning decision costs in resident bytes, not just time.
    let footprint =
        icomm_footprint::model_footprint(outcome.recommendation.recommended, &workload, &device);
    metrics
        .footprint_evaluations
        .fetch_add(1, Ordering::Relaxed);
    metrics
        .footprint_bytes_total
        .fetch_add(footprint.as_u64(), Ordering::Relaxed);

    metrics.completed.fetch_add(1, Ordering::Relaxed);
    let latency_us = started.elapsed().as_micros() as u64;
    metrics.total_latency.record(latency_us);
    TuneResponse::success(
        request.id,
        &request.board,
        &request.app,
        &outcome,
        lookup.served_from_cache(),
        latency_us,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_service() -> TuningService {
        TuningService::start(ServiceConfig::quick().with_workers(2))
    }

    #[test]
    fn serves_a_single_request() {
        let service = quick_service();
        let response = service.handle(TuneRequest::new(1, "xavier", "shwfs"));
        assert!(response.ok, "{:?}", response.error);
        assert_eq!(response.id, 1);
        assert_eq!(response.current.as_deref(), Some("SC"));
        assert_eq!(response.recommended.as_deref(), Some("ZC"));
        assert_eq!(response.switch_suggested, Some(true));
        assert_eq!(response.cache_hit, Some(false));
        service.shutdown().unwrap();
    }

    #[test]
    fn second_request_for_same_board_hits_the_registry() {
        let service = quick_service();
        service.handle(TuneRequest::new(1, "tx2", "orb"));
        let response = service.handle(TuneRequest::new(2, "tx2", "lane"));
        assert_eq!(response.cache_hit, Some(true));
        let snapshot = service.metrics();
        assert_eq!(snapshot.characterizations, 1);
        assert_eq!(snapshot.cache_hits, 1);
        assert_eq!(snapshot.cache_misses, 1);
        service.shutdown().unwrap();
    }

    #[test]
    fn bad_names_fail_without_characterizing() {
        let service = quick_service();
        let response = service.handle(TuneRequest::new(1, "pi5", "shwfs"));
        assert!(!response.ok);
        assert!(response.error.as_deref().unwrap().contains("unknown board"));
        let response = service.handle(TuneRequest::new(2, "nano", "quake"));
        assert!(!response.ok);
        assert!(response.error.as_deref().unwrap().contains("unknown app"));
        let response = service.handle(TuneRequest::new(3, "nano", "orb").with_current("warp"));
        assert!(!response.ok);
        assert!(response.error.as_deref().unwrap().contains("unknown model"));
        let snapshot = service.metrics();
        assert_eq!(snapshot.characterizations, 0);
        assert_eq!(snapshot.failed, 3);
        service.shutdown().unwrap();
    }

    #[test]
    fn batch_responses_come_back_sorted_by_id() {
        let service = quick_service();
        let requests: Vec<TuneRequest> = (0..16)
            .map(|i| TuneRequest::new(i, "nano", "shwfs"))
            .collect();
        let responses = service.submit_batch(requests).wait();
        assert_eq!(responses.len(), 16);
        for (i, response) in responses.iter().enumerate() {
            assert_eq!(response.id, i as u64);
            assert!(response.ok);
        }
        assert_eq!(service.metrics().characterizations, 1);
        service.shutdown().unwrap();
    }

    #[test]
    fn admission_sheds_with_explicit_overloaded_responses() {
        let service = TuningService::start(ServiceConfig::quick().with_workers(2).with_admission(
            AdmissionConfig {
                rate_per_sec: 0.0,
                burst: 2.0,
                queue_bound: 1_000,
                bulk_queue_fraction: 0.5,
            },
        ));
        let requests: Vec<TuneRequest> = (0..6)
            .map(|i| TuneRequest::new(i, "nano", "lane"))
            .collect();
        let responses = service.submit_batch(requests).wait();
        assert_eq!(responses.len(), 6, "shed requests still answer");
        let served = responses.iter().filter(|r| r.ok).count();
        let shed: Vec<&TuneResponse> = responses.iter().filter(|r| r.is_overloaded()).collect();
        assert_eq!(served, 2, "burst of 2 admitted");
        assert_eq!(shed.len(), 4);
        assert!(shed.iter().all(|r| r.overloaded.as_deref() == Some("rate")));
        // Responses stay sorted by id even with the shed merge.
        let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        let snapshot = service.metrics();
        assert_eq!(snapshot.shed_rate, 4);
        assert_eq!(snapshot.shed_total(), 4);
        service.shutdown().unwrap();
    }

    #[test]
    fn bulk_class_sheds_on_queue_pressure_first() {
        let service = TuningService::start(ServiceConfig::quick().with_workers(1).with_admission(
            AdmissionConfig {
                rate_per_sec: 1e9,
                burst: 1e9,
                queue_bound: 1_000,
                // Bulk bound of zero: any queued work sheds bulk.
                bulk_queue_fraction: 0.0,
            },
        ));
        let response = service.handle(TuneRequest::new(1, "nano", "shwfs").with_class("bulk"));
        assert!(response.is_overloaded());
        assert_eq!(response.overloaded.as_deref(), Some("queue"));
        assert_eq!(service.metrics().shed_queue, 1);
        // Interactive traffic still flows.
        let response = service.handle(TuneRequest::new(2, "nano", "shwfs"));
        assert!(response.ok, "{:?}", response.error);
        service.shutdown().unwrap();
    }

    #[test]
    fn transfer_serves_drifted_variants_without_remeasuring() {
        use icomm_microbench::fingerprint;
        let service = TuningService::start(
            ServiceConfig::quick()
                .with_workers(2)
                .with_transfer(TransferPolicy::default()),
        );
        let tx2 = catalog::board_by_name("tx2").unwrap();
        // Seed one measured entry through the normal path.
        let seeded = service.handle(TuneRequest::new(1, "tx2", "orb"));
        assert!(seeded.ok, "{:?}", seeded.error);

        // A 2% clock-drifted variant transfers instead of re-running.
        let drifted = tx2.with_power_scale(0.98, 0.98, 0.98);
        let registry = service.registry().clone();
        assert_ne!(fingerprint(&tx2), fingerprint(&drifted));
        let metrics = service.metrics_handle().clone();
        let characterizer: CharacterizerFn = Arc::new(quick_characterize_device);
        let (c, lookup) = registry.get_or_characterize_with(&drifted, |d| {
            characterize_or_transfer(
                d,
                &registry,
                &metrics,
                &characterizer,
                &TransferPolicy::default(),
            )
        });
        assert_eq!(lookup, crate::registry::LookupOutcome::Computed);
        assert_eq!(c.device, drifted.name);
        let snapshot = service.metrics();
        assert_eq!(snapshot.transfer_hits, 1);
        assert_eq!(snapshot.characterizations, 1, "only the seed measured");
        // The transferred entry must not become a neighbor itself.
        let meta = registry.meta(&drifted).expect("transferred entry has meta");
        assert!(meta.confidence < 1.0);
        assert_eq!(registry.measured_neighbors().len(), 1);
        service.shutdown().unwrap();
    }

    #[test]
    fn transfer_falls_back_to_measurement_across_boards() {
        let service = TuningService::start(
            ServiceConfig::quick()
                .with_workers(2)
                .with_transfer(TransferPolicy::default()),
        );
        service.handle(TuneRequest::new(1, "tx2", "orb"));
        // Xavier is far from TX2 in feature space: transfer must decline
        // and a real run must happen.
        let response = service.handle(TuneRequest::new(2, "xavier", "shwfs"));
        assert!(response.ok, "{:?}", response.error);
        assert_eq!(response.recommended.as_deref(), Some("ZC"));
        let snapshot = service.metrics();
        assert_eq!(snapshot.characterizations, 2);
        assert_eq!(snapshot.transfer_hits, 0);
        assert_eq!(snapshot.transfer_fallbacks, 1);
        service.shutdown().unwrap();
    }

    #[test]
    fn characterize_board_shares_the_registry() {
        let service = quick_service();
        let c = service.characterize_board("tx2").expect("characterize");
        assert_eq!(c.device, "Jetson TX2");
        // A tune request for the same board is a registry hit.
        let response = service.handle(TuneRequest::new(1, "tx2", "orb"));
        assert_eq!(response.cache_hit, Some(true));
        let snapshot = service.metrics();
        assert_eq!(snapshot.characterizations, 1);
        assert!(service.characterize_board("pi5").is_err());
        service.shutdown().unwrap();
    }

    #[test]
    fn matches_the_sequential_tuner() {
        use icomm_core::Tuner;
        let service = quick_service();
        let response = service.handle(TuneRequest::new(1, "tx2", "orb").with_current("zc"));
        let device = catalog::board_by_name("tx2").unwrap();
        let tuner =
            Tuner::with_characterization(device.clone(), quick_characterize_device(&device));
        let workload = catalog::workload_by_name("orb").unwrap();
        let outcome = tuner.recommend(&workload, CommModelKind::ZeroCopy);
        assert_eq!(
            response.recommended.as_deref(),
            Some(outcome.recommendation.recommended.abbrev())
        );
        assert_eq!(
            response.rationale.as_deref(),
            Some(outcome.recommendation.rationale.as_str())
        );
        service.shutdown().unwrap();
    }
}
