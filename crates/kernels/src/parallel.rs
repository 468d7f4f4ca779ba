//! Dividing a batched walk among worker threads: the segment schedule over
//! a phase list, a worker's chunk of a phase, and the barrier they meet at.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A sense-reversing spin barrier.
///
/// The layer barrier fires `layers × cycles` times per run, so its
/// latency *is* the parallelization overhead; `std::sync::Barrier`'s
/// mutex+condvar rendezvous costs ~10µs, which dwarfs the work of a
/// typical layer. Spinning (with a yield fallback for oversubscribed
/// hosts) brings the crossing down to the cache-coherence cost.
pub(crate) struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
    /// Spin iterations before falling back to `yield_now`. Zero when the
    /// host has fewer cores than barrier participants: spinning there
    /// steals the CPU the late arrivers need.
    spin_limit: u32,
}

impl SpinBarrier {
    pub(crate) fn new(total: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        let spin_limit = if total <= cores { 1 << 14 } else { 0 };
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
            spin_limit,
        }
    }

    /// Blocks until all `total` threads have arrived.
    ///
    /// Each arriver's prior writes are published through the release
    /// sequence on `arrived`; the last arriver flips `generation` with a
    /// release store, and every waiter's acquire load of it therefore
    /// observes all pre-barrier writes of all threads.
    #[inline]
    pub(crate) fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if spins < self.spin_limit {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// One entry of the threaded execution schedule, over phase indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Segment {
    /// A phase wide enough to split across workers.
    Parallel(usize),
    /// A run `[from, to)` of narrow phases worker 0 executes alone —
    /// splitting them would cost more in barrier crossings than the
    /// division of work saves, and merging adjacent ones removes their
    /// interior barriers entirely. A serial walk is one such run.
    Serial(usize, usize),
}

/// Minimum instruction×lane work units in a phase before splitting it
/// pays.
const PAR_MIN_WORK: usize = 1024;

/// Builds the threaded segment schedule of a phase list (given as each
/// phase's instruction count) for a lane count.
pub(crate) fn schedule(phase_lens: impl Iterator<Item = usize>, lanes: usize) -> Vec<Segment> {
    let mut segments: Vec<Segment> = Vec::new();
    for (k, len) in phase_lens.enumerate() {
        if len * lanes >= PAR_MIN_WORK {
            segments.push(Segment::Parallel(k));
        } else if let Some(Segment::Serial(_, to)) = segments.last_mut() {
            *to = k + 1;
        } else {
            segments.push(Segment::Serial(k, k + 1));
        }
    }
    segments
}

/// The contiguous instruction range worker `w` of `t` owns in a phase of
/// `n` instructions.
#[inline]
pub(crate) fn chunk(n: usize, w: usize, t: usize) -> Range<usize> {
    n * w / t..n * (w + 1) / t
}
