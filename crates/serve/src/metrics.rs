//! Service counters and latency histograms.
//!
//! Everything is lock-free (`AtomicU64`) so the hot path never contends on
//! the metrics. Latencies land in log2 buckets — the resolution a serving
//! dashboard needs, at the cost of one `fetch_add`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 latency buckets: bucket `i` covers `[2^i, 2^(i+1))` µs,
/// with the last bucket catching everything slower.
pub const LATENCY_BUCKETS: usize = 24;

/// Log2-bucketed latency histogram (microsecond samples).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    total_us: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        LatencyHistogram {
            buckets: [ZERO; LATENCY_BUCKETS],
            total_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, us: u64) {
        let idx = (64 - us.max(1).leading_zeros() as usize - 1).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            total_us: self.total_us.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sample count per log2 bucket.
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Sum of all samples, microseconds.
    pub total_us: u64,
    /// Number of samples.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }

    /// Approximate quantile (0.0–1.0) from the bucket layout: returns the
    /// upper bound of the bucket containing the q-th sample.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << LATENCY_BUCKETS
    }
}

/// Aggregate counters for the service.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests accepted (enqueued).
    pub requests: AtomicU64,
    /// Requests completed successfully.
    pub completed: AtomicU64,
    /// Requests that failed (bad names, timeouts, panics).
    pub failed: AtomicU64,
    /// Characterization lookups answered from the registry.
    pub cache_hits: AtomicU64,
    /// Characterization lookups that had to run the micro-benchmarks.
    pub cache_misses: AtomicU64,
    /// Characterization runs actually executed (single-flight means this
    /// can be below `cache_misses` under contention).
    pub characterizations: AtomicU64,
    /// Jobs re-enqueued after a failure.
    pub retries: AtomicU64,
    /// Jobs abandoned past their deadline.
    pub timeouts: AtomicU64,
    /// Jobs currently queued or running.
    pub queue_depth: AtomicU64,
    /// Latency of the characterization stage, µs.
    pub characterize_latency: LatencyHistogram,
    /// Latency of the profile+recommend stage, µs.
    pub recommend_latency: LatencyHistogram,
    /// End-to-end request latency, µs.
    pub total_latency: LatencyHistogram,
    /// TCP connections accepted by the server.
    pub conn_accepted: AtomicU64,
    /// TCP connections refused because the server was at its connection
    /// cap.
    pub conn_rejected: AtomicU64,
    /// Connections dropped for stalling mid-request past the read
    /// deadline, or for leaving their replies unread that long.
    pub read_timeouts: AtomicU64,
    /// JSON request lines refused for exceeding the line-length bound.
    pub oversized_lines: AtomicU64,
    /// JSON request lines that were not valid request JSON.
    pub malformed_requests: AtomicU64,
    /// Registry snapshots that failed verification on load and were
    /// discarded (the registry rebuilds from scratch).
    pub snapshot_corruptions: AtomicU64,
    /// Characterizations answered by federated transfer (interpolated
    /// from measured neighbors instead of running the micro-benchmarks).
    pub transfer_hits: AtomicU64,
    /// Transfer attempts that fell below the confidence floor and fell
    /// back to a full micro-benchmark run.
    pub transfer_fallbacks: AtomicU64,
    /// Requests shed with an explicit overload response because the
    /// queue was at (or, for bulk traffic, near) its bound.
    pub shed_queue: AtomicU64,
    /// Requests shed with an explicit overload response because the
    /// token bucket was empty.
    pub shed_rate: AtomicU64,
    /// Binary frames rejected for a CRC32 trailer mismatch.
    pub frame_crc_errors: AtomicU64,
    /// Binary frames rejected for a length field beyond the frame bound.
    pub frame_oversized: AtomicU64,
    /// Binary frames rejected for a bad version, unknown opcode, or an
    /// undecodable body.
    pub frame_malformed: AtomicU64,
    /// Connections closed with a partial frame still buffered (client
    /// hung up or stalled mid-frame past the read deadline).
    pub frame_truncated: AtomicU64,
    /// Requests answered from a shard-local decision cache without
    /// touching the job engine.
    pub decision_cache_hits: AtomicU64,
    /// Request batches the event-driven shards submitted to the engine
    /// (each batch is one worker-pool hop for many requests).
    pub batches_submitted: AtomicU64,
    /// Requests carried by those batches.
    pub batched_requests: AtomicU64,
    /// Connections dropped on a transport error (nonblocking setup,
    /// reactor registration, a failed read or write).
    pub conn_errors: AtomicU64,
    /// Shard event loops resurrected by the supervisor after a panic.
    pub shard_restarts: AtomicU64,
    /// Shard event-loop panics caught by the supervisor (restarted or
    /// not — a panic past the restart budget still counts here).
    pub shard_panics: AtomicU64,
    /// Connections that died with a shard: their sockets closed with a
    /// clean EOF when the event loop panicked, before any goodbye frame
    /// could be written.
    pub conns_orphaned: AtomicU64,
    /// Characterization sources quarantined by the Byzantine-robust
    /// transfer path after failing the board-physics plausibility
    /// screen.
    pub transfer_quarantined: AtomicU64,
    /// Recommendations whose memory footprint was priced by the
    /// closed-form `icomm-footprint` model.
    pub footprint_evaluations: AtomicU64,
    /// Summed footprint bytes of the recommended models, over all
    /// priced recommendations.
    pub footprint_bytes_total: AtomicU64,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub const fn new() -> Self {
        Metrics {
            requests: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            characterizations: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            characterize_latency: LatencyHistogram::new(),
            recommend_latency: LatencyHistogram::new(),
            total_latency: LatencyHistogram::new(),
            conn_accepted: AtomicU64::new(0),
            conn_rejected: AtomicU64::new(0),
            read_timeouts: AtomicU64::new(0),
            oversized_lines: AtomicU64::new(0),
            malformed_requests: AtomicU64::new(0),
            snapshot_corruptions: AtomicU64::new(0),
            transfer_hits: AtomicU64::new(0),
            transfer_fallbacks: AtomicU64::new(0),
            shed_queue: AtomicU64::new(0),
            shed_rate: AtomicU64::new(0),
            frame_crc_errors: AtomicU64::new(0),
            frame_oversized: AtomicU64::new(0),
            frame_malformed: AtomicU64::new(0),
            frame_truncated: AtomicU64::new(0),
            decision_cache_hits: AtomicU64::new(0),
            batches_submitted: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            conn_errors: AtomicU64::new(0),
            shard_restarts: AtomicU64::new(0),
            shard_panics: AtomicU64::new(0),
            conns_orphaned: AtomicU64::new(0),
            transfer_quarantined: AtomicU64::new(0),
            footprint_evaluations: AtomicU64::new(0),
            footprint_bytes_total: AtomicU64::new(0),
        }
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            characterizations: self.characterizations.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            characterize_latency: self.characterize_latency.snapshot(),
            recommend_latency: self.recommend_latency.snapshot(),
            total_latency: self.total_latency.snapshot(),
            conn_accepted: self.conn_accepted.load(Ordering::Relaxed),
            conn_rejected: self.conn_rejected.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
            oversized_lines: self.oversized_lines.load(Ordering::Relaxed),
            malformed_requests: self.malformed_requests.load(Ordering::Relaxed),
            snapshot_corruptions: self.snapshot_corruptions.load(Ordering::Relaxed),
            transfer_hits: self.transfer_hits.load(Ordering::Relaxed),
            transfer_fallbacks: self.transfer_fallbacks.load(Ordering::Relaxed),
            shed_queue: self.shed_queue.load(Ordering::Relaxed),
            shed_rate: self.shed_rate.load(Ordering::Relaxed),
            frame_crc_errors: self.frame_crc_errors.load(Ordering::Relaxed),
            frame_oversized: self.frame_oversized.load(Ordering::Relaxed),
            frame_malformed: self.frame_malformed.load(Ordering::Relaxed),
            frame_truncated: self.frame_truncated.load(Ordering::Relaxed),
            decision_cache_hits: self.decision_cache_hits.load(Ordering::Relaxed),
            batches_submitted: self.batches_submitted.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            conn_errors: self.conn_errors.load(Ordering::Relaxed),
            shard_restarts: self.shard_restarts.load(Ordering::Relaxed),
            shard_panics: self.shard_panics.load(Ordering::Relaxed),
            conns_orphaned: self.conns_orphaned.load(Ordering::Relaxed),
            transfer_quarantined: self.transfer_quarantined.load(Ordering::Relaxed),
            footprint_evaluations: self.footprint_evaluations.load(Ordering::Relaxed),
            footprint_bytes_total: self.footprint_bytes_total.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`Metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted.
    pub requests: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests failed.
    pub failed: u64,
    /// Registry cache hits.
    pub cache_hits: u64,
    /// Registry cache misses.
    pub cache_misses: u64,
    /// Characterization runs executed.
    pub characterizations: u64,
    /// Jobs retried.
    pub retries: u64,
    /// Jobs timed out.
    pub timeouts: u64,
    /// Jobs queued or running at snapshot time.
    pub queue_depth: u64,
    /// Characterization-stage latency.
    pub characterize_latency: HistogramSnapshot,
    /// Recommendation-stage latency.
    pub recommend_latency: HistogramSnapshot,
    /// End-to-end latency.
    pub total_latency: HistogramSnapshot,
    /// Connections accepted.
    pub conn_accepted: u64,
    /// Connections refused at the cap.
    pub conn_rejected: u64,
    /// Connections closed on a read deadline.
    pub read_timeouts: u64,
    /// Oversized request lines discarded.
    pub oversized_lines: u64,
    /// Malformed request lines answered with an error.
    pub malformed_requests: u64,
    /// Corrupt registry snapshots discarded on load.
    pub snapshot_corruptions: u64,
    /// Characterizations answered by federated transfer.
    pub transfer_hits: u64,
    /// Transfer attempts that fell back to a full run.
    pub transfer_fallbacks: u64,
    /// Requests shed on queue pressure.
    pub shed_queue: u64,
    /// Requests shed on rate-limit pressure.
    pub shed_rate: u64,
    /// Binary frames rejected on a CRC32 mismatch.
    pub frame_crc_errors: u64,
    /// Binary frames rejected on an oversized length field.
    pub frame_oversized: u64,
    /// Binary frames rejected as malformed (version/opcode/body).
    pub frame_malformed: u64,
    /// Connections closed mid-frame (truncation or stall).
    pub frame_truncated: u64,
    /// Requests answered from a shard-local decision cache.
    pub decision_cache_hits: u64,
    /// Request batches submitted by the event-driven shards.
    pub batches_submitted: u64,
    /// Requests carried by those batches.
    pub batched_requests: u64,
    /// Connections dropped on transport-setup errors.
    pub conn_errors: u64,
    /// Shard event loops restarted by the supervisor.
    pub shard_restarts: u64,
    /// Shard event-loop panics caught by the supervisor.
    pub shard_panics: u64,
    /// Connections orphaned by a shard panic (clean EOF, no reply).
    pub conns_orphaned: u64,
    /// Characterization sources quarantined as implausible.
    pub transfer_quarantined: u64,
    /// Recommendations priced by the closed-form footprint model.
    pub footprint_evaluations: u64,
    /// Summed footprint bytes over those recommendations.
    pub footprint_bytes_total: u64,
}

impl MetricsSnapshot {
    /// Registry hit rate in [0, 1]; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Sum of the transport/persistence fault counters — nonzero means
    /// the server saw degraded input.
    pub fn fault_total(&self) -> u64 {
        self.conn_rejected
            + self.read_timeouts
            + self.oversized_lines
            + self.malformed_requests
            + self.snapshot_corruptions
            + self.frame_faults()
            + self.conn_errors
    }

    /// Sum of the binary-wire fault counters: frames rejected for CRC,
    /// length, or format violations, plus mid-frame truncations.
    pub fn frame_faults(&self) -> u64 {
        self.frame_crc_errors + self.frame_oversized + self.frame_malformed + self.frame_truncated
    }

    /// Fraction of characterization misses answered by federated
    /// transfer rather than a micro-benchmark run, in [0, 1]; 0 when no
    /// transfer was attempted.
    pub fn transfer_hit_rate(&self) -> f64 {
        let attempts = self.transfer_hits + self.transfer_fallbacks;
        if attempts == 0 {
            0.0
        } else {
            self.transfer_hits as f64 / attempts as f64
        }
    }

    /// Fraction of characterization lookups served without a full
    /// micro-benchmark run — cache hits plus transfer hits — in [0, 1].
    /// The fleet warm-start metric.
    pub fn warm_start_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            (self.cache_hits + self.transfer_hits) as f64 / lookups as f64
        }
    }

    /// Total requests shed by admission control.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue + self.shed_rate
    }

    /// Mean footprint of a recommended model, bytes; 0 before any
    /// recommendation was priced.
    pub fn mean_footprint_bytes(&self) -> u64 {
        self.footprint_bytes_total
            .checked_div(self.footprint_evaluations)
            .unwrap_or(0)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests          {:>8}  (completed {}, failed {})",
            self.requests, self.completed, self.failed
        )?;
        writeln!(
            f,
            "registry          {:>7.1}% hit rate  ({} hits / {} misses, {} characterization runs)",
            self.hit_rate() * 100.0,
            self.cache_hits,
            self.cache_misses,
            self.characterizations
        )?;
        writeln!(
            f,
            "queue             {:>8} in flight  ({} retries, {} timeouts)",
            self.queue_depth, self.retries, self.timeouts
        )?;
        for (name, h) in [
            ("characterize", &self.characterize_latency),
            ("recommend", &self.recommend_latency),
            ("total", &self.total_latency),
        ] {
            writeln!(
                f,
                "latency/{name:<12} mean {:>9.0} us   p50 {:>8} us   p99 {:>8} us   ({} samples)",
                h.mean_us(),
                h.quantile_us(0.50),
                h.quantile_us(0.99),
                h.count
            )?;
        }
        if self.transfer_hits + self.transfer_fallbacks > 0 {
            writeln!(
                f,
                "transfer          {:>7.1}% hit rate  ({} transferred, {} fell back to full runs, warm start {:.1}%)",
                self.transfer_hit_rate() * 100.0,
                self.transfer_hits,
                self.transfer_fallbacks,
                self.warm_start_rate() * 100.0
            )?;
        }
        if self.shed_total() > 0 {
            writeln!(
                f,
                "admission         {:>8} shed  ({} on queue pressure, {} on rate limit)",
                self.shed_total(),
                self.shed_queue,
                self.shed_rate
            )?;
        }
        if self.conn_accepted > 0 || self.fault_total() > 0 {
            writeln!(
                f,
                "transport         {:>8} conns  ({} rejected, {} read timeouts, {} oversized, {} malformed, {} corrupt snapshots, {} conn errors)",
                self.conn_accepted,
                self.conn_rejected,
                self.read_timeouts,
                self.oversized_lines,
                self.malformed_requests,
                self.snapshot_corruptions,
                self.conn_errors
            )?;
        }
        if self.batches_submitted > 0 || self.decision_cache_hits > 0 || self.frame_faults() > 0 {
            writeln!(
                f,
                "wire              {:>8} batches  ({} batched requests, {} decision-cache hits, {} crc, {} oversized, {} malformed, {} truncated frames)",
                self.batches_submitted,
                self.batched_requests,
                self.decision_cache_hits,
                self.frame_crc_errors,
                self.frame_oversized,
                self.frame_malformed,
                self.frame_truncated
            )?;
        }
        if self.footprint_evaluations > 0 {
            writeln!(
                f,
                "footprint         {:>8} priced  (mean {} per recommendation)",
                self.footprint_evaluations,
                icomm_footprint::human_bytes(self.mean_footprint_bytes())
            )?;
        }
        if self.shard_panics > 0 || self.conns_orphaned > 0 || self.transfer_quarantined > 0 {
            writeln!(
                f,
                "resilience        {:>8} shard panics  ({} restarts, {} conns orphaned, {} sources quarantined)",
                self.shard_panics,
                self.shard_restarts,
                self.conns_orphaned,
                self.transfer_quarantined
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = LatencyHistogram::new();
        h.record(1); // bucket 0
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_us, 1028);
    }

    #[test]
    fn zero_sample_lands_in_first_bucket() {
        let h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.snapshot().buckets[0], 1);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(10); // bucket 3: [8, 16)
        }
        h.record(100_000); // bucket 16
        let s = h.snapshot();
        assert_eq!(s.quantile_us(0.5), 16);
        assert_eq!(s.quantile_us(1.0), 1 << 17);
    }

    #[test]
    fn fault_counters_accumulate_and_render() {
        let m = Metrics::new();
        assert!(!m.snapshot().to_string().contains("transport"));
        m.conn_accepted.fetch_add(3, Ordering::Relaxed);
        m.read_timeouts.fetch_add(1, Ordering::Relaxed);
        m.oversized_lines.fetch_add(2, Ordering::Relaxed);
        m.snapshot_corruptions.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.fault_total(), 4);
        let text = s.to_string();
        assert!(text.contains("transport"));
        assert!(text.contains("1 read timeouts"));
        assert!(text.contains("2 oversized"));
        assert!(text.contains("1 corrupt snapshots"));
    }

    #[test]
    fn transfer_and_admission_counters_render() {
        let m = Metrics::new();
        let quiet = m.snapshot().to_string();
        assert!(!quiet.contains("transfer"));
        assert!(!quiet.contains("admission"));
        m.cache_hits.store(80, Ordering::Relaxed);
        m.cache_misses.store(20, Ordering::Relaxed);
        m.transfer_hits.store(15, Ordering::Relaxed);
        m.transfer_fallbacks.store(5, Ordering::Relaxed);
        m.shed_queue.store(3, Ordering::Relaxed);
        m.shed_rate.store(1, Ordering::Relaxed);
        let s = m.snapshot();
        assert!((s.transfer_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.warm_start_rate() - 0.95).abs() < 1e-12);
        assert_eq!(s.shed_total(), 4);
        let text = s.to_string();
        assert!(text.contains("transfer"));
        assert!(text.contains("warm start 95.0%"));
        assert!(text.contains("3 on queue pressure, 1 on rate limit"));
    }

    #[test]
    fn wire_counters_accumulate_and_render() {
        let m = Metrics::new();
        assert!(!m.snapshot().to_string().contains("wire"));
        m.batches_submitted.fetch_add(2, Ordering::Relaxed);
        m.batched_requests.fetch_add(96, Ordering::Relaxed);
        m.decision_cache_hits.fetch_add(80, Ordering::Relaxed);
        m.frame_crc_errors.fetch_add(1, Ordering::Relaxed);
        m.frame_oversized.fetch_add(2, Ordering::Relaxed);
        m.frame_malformed.fetch_add(3, Ordering::Relaxed);
        m.frame_truncated.fetch_add(4, Ordering::Relaxed);
        m.conn_errors.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.frame_faults(), 10);
        assert_eq!(s.fault_total(), 11);
        let text = s.to_string();
        assert!(text.contains("wire"));
        assert!(text.contains("96 batched requests"));
        assert!(text.contains("80 decision-cache hits"));
        assert!(text.contains("1 crc"));
        assert!(text.contains("4 truncated frames"));
    }

    #[test]
    fn resilience_counters_accumulate_and_render() {
        let m = Metrics::new();
        assert!(!m.snapshot().to_string().contains("resilience"));
        m.shard_panics.fetch_add(2, Ordering::Relaxed);
        m.shard_restarts.fetch_add(2, Ordering::Relaxed);
        m.conns_orphaned.fetch_add(3, Ordering::Relaxed);
        m.transfer_quarantined.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.shard_panics, 2);
        assert_eq!(s.shard_restarts, 2);
        assert_eq!(s.conns_orphaned, 3);
        assert_eq!(s.transfer_quarantined, 1);
        let text = s.to_string();
        assert!(text.contains("resilience"));
        assert!(text.contains("2 restarts"));
        assert!(text.contains("3 conns orphaned"));
        assert!(text.contains("1 sources quarantined"));
    }

    #[test]
    fn hit_rate_counts_only_lookups() {
        let m = Metrics::new();
        m.cache_hits.store(96, Ordering::Relaxed);
        m.cache_misses.store(4, Ordering::Relaxed);
        let s = m.snapshot();
        assert!((s.hit_rate() - 0.96).abs() < 1e-12);
        assert!(s.to_string().contains("96.0% hit rate"));
    }
}
