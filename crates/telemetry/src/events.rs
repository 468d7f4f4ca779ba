//! Per-job event timelines in a fixed-capacity ring buffer.
//!
//! Every job flowing through the serving stack leaves a typed breadcrumb
//! trail: submitted → queued → admitted → halted → published → delivered.
//! Events carry a monotonic microsecond timestamp (relative to the
//! registry's epoch) and worker/lane/shard attribution where the layer
//! knows it. The ring is bounded, so a long-lived fleet keeps the most
//! recent window and old timelines age out — observability, not an audit
//! log.

use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// The six lifecycle stages of a served job, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum JobStage {
    /// Accepted by the front end and assigned a global id.
    Submitted,
    /// Enqueued on a worker's scheduler queue.
    Queued,
    /// Granted a lane; simulation begins.
    Admitted,
    /// Left the engine: halt fired, budget exhausted, or evicted.
    Halted,
    /// Result published to the results table.
    Published,
    /// Result claimed by the submitting client.
    Delivered,
}

/// All stages in pipeline order (the completeness gate iterates this).
pub const ALL_STAGES: [JobStage; 6] = [
    JobStage::Submitted,
    JobStage::Queued,
    JobStage::Admitted,
    JobStage::Halted,
    JobStage::Published,
    JobStage::Delivered,
];

impl JobStage {
    /// Position in the pipeline, 0-based.
    #[cfg(test)]
    pub(crate) fn index(self) -> usize {
        ALL_STAGES.iter().position(|&s| s == self).unwrap()
    }
}

/// One breadcrumb on a job's timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEvent {
    /// Global job id (pool-global server-side, router-global client-side).
    pub job: u64,
    /// Lifecycle stage.
    pub stage: JobStage,
    /// Microseconds since the registry epoch (monotonic clock).
    pub at_us: u64,
    /// Worker index, where known.
    pub worker: Option<u64>,
    /// Lane index, where known.
    pub lane: Option<u64>,
    /// Shard index, where known (router-side events).
    pub shard: Option<u64>,
}

/// Fixed-capacity ring buffer of [`JobEvent`]s.
///
/// Recording takes one short mutex section; the lock also serializes
/// timestamping, so events read back in non-decreasing `at_us` order.
#[derive(Debug)]
pub(crate) struct EventLog {
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    buf: Vec<JobEvent>,
    /// Next write position once the buffer is full.
    head: usize,
    capacity: usize,
    recorded: u64,
}

impl EventLog {
    /// A ring holding at most `capacity` events.
    pub(crate) fn new(capacity: usize) -> EventLog {
        EventLog {
            inner: Mutex::new(Ring {
                buf: Vec::new(),
                head: 0,
                capacity: capacity.max(1),
                recorded: 0,
            }),
        }
    }

    /// Appends an event, evicting the oldest once at capacity.
    pub(crate) fn record(&self, event: JobEvent) {
        let mut ring = self.inner.lock().unwrap();
        if ring.buf.len() < ring.capacity {
            ring.buf.push(event);
        } else {
            let head = ring.head;
            ring.buf[head] = event;
            ring.head = (head + 1) % ring.capacity;
        }
        ring.recorded += 1;
    }

    /// Total events ever recorded (including aged-out ones).
    pub(crate) fn recorded(&self) -> u64 {
        self.inner.lock().unwrap().recorded
    }

    /// Events currently retained, oldest first.
    pub(crate) fn all(&self) -> Vec<JobEvent> {
        let ring = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.head..]);
        out.extend_from_slice(&ring.buf[..ring.head]);
        out
    }

    /// One job's retained events, in recording (= time) order.
    pub(crate) fn timeline(&self, job: u64) -> Vec<JobEvent> {
        self.all().into_iter().filter(|e| e.job == job).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(job: u64, stage: JobStage, at_us: u64) -> JobEvent {
        JobEvent {
            job,
            stage,
            at_us,
            worker: None,
            lane: None,
            shard: None,
        }
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let log = EventLog::new(3);
        for i in 0..5 {
            log.record(ev(i, JobStage::Submitted, i));
        }
        let all = log.all();
        assert_eq!(all.iter().map(|e| e.job).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(log.recorded(), 5);
    }

    #[test]
    fn timeline_filters_and_preserves_order() {
        let log = EventLog::new(16);
        log.record(ev(1, JobStage::Submitted, 10));
        log.record(ev(2, JobStage::Submitted, 11));
        log.record(ev(1, JobStage::Queued, 12));
        log.record(ev(1, JobStage::Admitted, 13));
        let t = log.timeline(1);
        assert_eq!(t.len(), 3);
        assert!(t.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(t
            .windows(2)
            .all(|w| w[0].stage.index() < w[1].stage.index()));
    }

    #[test]
    fn stages_enumerate_in_pipeline_order() {
        for (i, s) in ALL_STAGES.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
