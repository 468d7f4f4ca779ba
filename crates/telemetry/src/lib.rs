//! Unified telemetry for the RTeAAL serving stack.
//!
//! One [`MetricsRegistry`] per process collects three kinds of
//! instruments plus a per-job event timeline:
//!
//! * [`Counter`] — monotone atomic `u64` (jobs submitted, shards rejoined).
//! * [`Gauge`] — signed atomic level (queue depth, worker occupancy).
//! * [`Histogram`] — log2-bucketed latency distribution with the same
//!   nearest-rank quantile definition the open-loop benchmark uses.
//! * [`EventLog`] — a fixed-capacity ring of typed [`JobEvent`]s
//!   recording each job's submitted → queued → admitted → halted →
//!   published → delivered trail with worker/lane/shard attribution.
//!
//! Instruments are created on first use and shared by name, so two
//! layers incrementing `"sched.admitted"` update one counter. Handles
//! are `Arc`s: look up once, then the hot path is a single relaxed
//! atomic op. [`MetricsRegistry::snapshot`] freezes everything into a
//! serializable [`MetricsSnapshot`] (the `metrics` verb payload), which
//! also renders a Prometheus-style text exposition.

pub mod events;
pub mod hist;

pub use events::{EventLog, JobEvent, JobStage, ALL_STAGES};
pub use hist::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, NUM_BUCKETS};

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotone atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` (saturating — counters never wrap backwards past zero).
    /// Adding zero touches nothing.
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            })
            .ok();
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default event-ring capacity: 8192 events ≈ 1300 complete six-stage
/// job timelines before the oldest age out.
pub(crate) const DEFAULT_EVENT_CAPACITY: usize = 8192;

/// The process-wide instrument registry. Cheap to share (`Arc`), cheap
/// to update (relaxed atomics), cheap to ignore (no background thread).
#[derive(Debug)]
pub struct MetricsRegistry {
    epoch: Instant,
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
    events: EventLog,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A registry whose event ring holds at most `capacity` events.
    fn with_event_capacity(capacity: usize) -> MetricsRegistry {
        MetricsRegistry {
            epoch: Instant::now(),
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
            events: EventLog::new(capacity),
        }
    }

    /// Microseconds since this registry was created (monotonic clock).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Milliseconds since this registry was created.
    pub(crate) fn uptime_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Get-or-create a counter by name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::intern(&self.counters, name)
    }

    /// Get-or-create a gauge by name.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::intern(&self.gauges, name)
    }

    /// Get-or-create a histogram by name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::intern(&self.histograms, name)
    }

    fn intern<T: Default>(table: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
        let mut table = table.lock().unwrap();
        if let Some((_, v)) = table.iter().find(|(k, _)| k == name) {
            return Arc::clone(v);
        }
        let v = Arc::new(T::default());
        table.push((name.to_string(), Arc::clone(&v)));
        v
    }

    /// Records a job lifecycle event, stamped with [`Self::now_us`].
    pub fn record_event(
        &self,
        job: u64,
        stage: JobStage,
        worker: Option<u64>,
        lane: Option<u64>,
        shard: Option<u64>,
    ) {
        self.events.record(JobEvent {
            job,
            stage,
            at_us: self.now_us(),
            worker,
            lane,
            shard,
        });
    }

    /// One job's retained timeline, oldest event first.
    pub fn timeline(&self, job: u64) -> Vec<JobEvent> {
        self.events.timeline(job)
    }

    /// Freezes every instrument into a serializable snapshot, sorted by
    /// name for deterministic output.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<NamedValue> = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| NamedValue {
                name: k.clone(),
                value: v.get(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<NamedLevel> = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| NamedLevel {
                name: k.clone(),
                value: v.get(),
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<NamedHistogram> = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| {
                let snap = v.snapshot();
                NamedHistogram {
                    name: k.clone(),
                    p50: snap.quantile(0.50),
                    p99: snap.quantile(0.99),
                    hist: snap,
                }
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot {
            uptime_ms: self.uptime_ms(),
            events_recorded: self.events.recorded(),
            counters,
            gauges,
            histograms,
        }
    }
}

/// A named counter value in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedValue {
    pub name: String,
    pub value: u64,
}

/// A named gauge level in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedLevel {
    pub name: String,
    pub value: i64,
}

/// A named histogram in a snapshot, with precomputed headline quantiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedHistogram {
    pub name: String,
    /// Nearest-rank median (bucket upper bound).
    pub p50: u64,
    /// Nearest-rank 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Full bucket state, mergeable across processes.
    pub hist: HistogramSnapshot,
}

/// Point-in-time copy of a whole registry: the `metrics` verb payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Milliseconds since the registry epoch.
    pub uptime_ms: u64,
    /// Total events ever recorded in the event ring.
    pub events_recorded: u64,
    pub counters: Vec<NamedValue>,
    pub gauges: Vec<NamedLevel>,
    pub histograms: Vec<NamedHistogram>,
}

impl MetricsSnapshot {
    /// Value of a counter by name, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Value of a gauge by name, 0 if absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map_or(0, |g| g.value)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&NamedHistogram> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Prometheus-style text exposition: `# TYPE` comments, sanitized
    /// metric names, cumulative `_bucket{le="..."}` series per histogram.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE rteaal_uptime_ms gauge\n");
        out.push_str(&format!("rteaal_uptime_ms {}\n", self.uptime_ms));
        for c in &self.counters {
            let n = sanitize(&c.name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {}\n", c.value));
        }
        for g in &self.gauges {
            let n = sanitize(&g.name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", g.value));
        }
        for h in &self.histograms {
            let n = sanitize(&h.name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (i, &c) in h.hist.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum = cum.saturating_add(c);
                out.push_str(&format!(
                    "{n}_bucket{{le=\"{}\"}} {cum}\n",
                    bucket_bounds(i).1
                ));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.hist.count));
            out.push_str(&format!("{n}_sum {}\n", h.hist.sum));
            out.push_str(&format!("{n}_count {}\n", h.hist.count));
        }
        out
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; map everything else
/// to `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name() {
        let r = MetricsRegistry::new();
        r.counter("jobs.submitted").add(3);
        r.counter("jobs.submitted").inc();
        assert_eq!(r.counter("jobs.submitted").get(), 4);
        r.gauge("queue.depth").add(5);
        r.gauge("queue.depth").sub(2);
        assert_eq!(r.gauge("queue.depth").get(), 3);
    }

    #[test]
    fn snapshot_sorts_and_reads_back() {
        let r = MetricsRegistry::new();
        r.counter("b").inc();
        r.counter("a").add(2);
        r.histogram("lat").record(100);
        let s = r.snapshot();
        assert_eq!(s.counters[0].name, "a");
        assert_eq!(s.counter("a"), 2);
        assert_eq!(s.counter("b"), 1);
        assert_eq!(s.counter("missing"), 0);
        let h = s.histogram("lat").unwrap();
        assert_eq!(h.hist.count, 1);
        assert!(h.p99 >= 100);
    }

    #[test]
    fn event_timestamps_are_monotonic() {
        let r = MetricsRegistry::new();
        for stage in ALL_STAGES {
            r.record_event(7, stage, Some(0), None, None);
        }
        let t = r.timeline(7);
        assert_eq!(t.len(), 6);
        assert!(t.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert_eq!(t[0].stage, JobStage::Submitted);
        assert_eq!(t[5].stage, JobStage::Delivered);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = MetricsRegistry::new();
        r.counter("sched.admitted").add(2);
        r.gauge("sched.queue_depth.w0").set(1);
        r.histogram("serve.dispatch_latency_us").record(5);
        r.histogram("serve.dispatch_latency_us").record(300);
        let text = r.snapshot().prometheus();
        assert!(text.contains("# TYPE sched_admitted counter"));
        assert!(text.contains("sched_admitted 2"));
        assert!(text.contains("sched_queue_depth_w0 1"));
        assert!(text.contains("serve_dispatch_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("serve_dispatch_latency_us_count 2"));
        // Cumulative buckets: the le=511 bucket includes the earlier 5.
        assert!(text.contains("serve_dispatch_latency_us_bucket{le=\"511\"} 2"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = MetricsRegistry::new();
        r.counter("x").inc();
        r.histogram("h").record(9);
        r.gauge("g").set(-4);
        let s = r.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
