//! The traced ledger: spans recorded in memory around calls into each
//! layer, summarized per name (count, total, self time) and written out
//! when the run ends.
//!
//! Spans are opened and closed by the benchmark's own code, around calls
//! to public functions of the layer crates, so the program under test is
//! unchanged. A disabled ledger records nothing; every method is then a
//! single branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// Individual span records kept for the trace file; aggregates keep
/// counting past this cap.
const MAX_RECORDS: usize = 50_000;

#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Spans recorded under these spans, themselves included.
    pub spans: u64,
}

#[derive(Debug)]
struct Record {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    descendants: u64,
    record: Option<usize>,
}

#[derive(Debug)]
pub struct Ledger {
    enabled: bool,
    origin: Instant,
    op: u64,
    stack: Vec<Open>,
    records: Vec<Record>,
    dropped: u64,
    totals: BTreeMap<&'static str, Total>,
    counters: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    pub fn new(enabled: bool) -> Ledger {
        Ledger {
            enabled,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            records: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
            counters: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags subsequent spans with an op id.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = Instant::now();
        let record = if self.records.len() < MAX_RECORDS {
            self.records.push(Record {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().and_then(|o| o.record),
                op: self.op,
            });
            Some(self.records.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open {
            name,
            start,
            child_ns: 0,
            descendants: 0,
            record,
        });
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let open = self
            .stack
            .pop()
            .expect("ledger exit without a matching enter");
        let end = Instant::now();
        let dur = (end - open.start).as_nanos() as u64;
        if let Some(i) = open.record {
            self.records[i].end_ns = (end - self.origin).as_nanos() as u64;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
            parent.descendants += 1 + open.descendants;
        }
        let total = self.totals.entry(open.name).or_default();
        total.count += 1;
        total.total_ns += dur;
        total.self_ns += dur.saturating_sub(open.child_ns);
        total.spans += 1 + open.descendants;
    }

    /// Measured cost of recording one span (an enter/exit pair), ns.
    pub fn span_cost_ns() -> f64 {
        const PAIRS: u32 = 100_000;
        let mut probe = Ledger::new(true);
        let began = Instant::now();
        for _ in 0..PAIRS {
            probe.enter("trace.calibration");
            probe.exit();
        }
        began.elapsed().as_nanos() as f64 / PAIRS as f64
    }

    /// Times `f` as one leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Adds to a named count measured at a layer boundary.
    pub fn add(&mut self, counter: &'static str, value: f64) {
        if self.enabled {
            *self.counters.entry(counter).or_default() += value;
        }
    }

    /// Keeps one observation of a named distribution.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(name).or_default().push(value);
        }
    }

    pub fn total(&self, name: &str) -> Option<Total> {
        self.totals.get(name).copied().filter(|t| t.count > 0)
    }

    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.get(name).copied()
    }

    pub fn samples(&self, name: &str) -> Option<&[f64]> {
        self.samples
            .get(name)
            .map(Vec::as_slice)
            .filter(|s| !s.is_empty())
    }

    /// Folds another thread's ledger into this one.
    pub fn merge(&mut self, other: Ledger) {
        let offset = self.records.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        for mut r in other.records {
            if self.records.len() >= MAX_RECORDS {
                self.dropped += 1;
                continue;
            }
            r.parent = r.parent.map(|p| p + offset);
            r.start_ns += shift;
            r.end_ns += shift;
            self.records.push(r);
        }
        self.dropped += other.dropped;
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
            mine.spans += t.spans;
        }
        for (name, v) in other.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for (name, v) in other.samples {
            self.samples.entry(name).or_default().extend(v);
        }
    }

    /// The trace file: every kept span plus the per-name summary.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 80);
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped_spans\":{},\"summary\":[",
            self.dropped
        ));
        for (i, (name, t)) in self.totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        out.push_str("],\"spans\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                r.name, r.start_ns, r.end_ns, r.op
            ));
        }
        out.push_str("]}");
        out
    }

    /// Human-readable per-name summary lines.
    pub fn summary_lines(&self) -> Vec<String> {
        self.totals
            .iter()
            .map(|(name, t)| {
                format!(
                    "  {name:<28} count {:>8}  total {:>10.3} ms  self {:>10.3} ms",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                )
            })
            .collect()
    }
}
