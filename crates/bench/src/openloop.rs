//! Open-loop traffic generation for serving experiments.
//!
//! A *closed-loop* driver (submit, wait, repeat) hides queueing: a slow
//! server slows the driver down, so measured latency flattens exactly
//! when the system is struggling — the coordinated-omission trap. An
//! *open-loop* driver fixes arrivals in advance (here: Poisson, the
//! memoryless arrival process of independent clients), so the offered
//! load never bends to the fleet's state: a leg that loses a shard
//! faces exactly the arrivals the healthy leg faced.
//!
//! The pieces:
//!
//! - `SplitMix64` — a tiny deterministic RNG (the vendored `rand` has
//!   no distributions; we only need uniform draws and `-ln(u)/λ`
//!   exponentials, which is three lines).
//! - `ArrivalPlan` — Poisson arrival offsets with optional *bursty
//!   phases* (rate multipliers over sub-intervals, the SPEC-style mixed
//!   load shape), plus a per-arrival draw from a mixed design/length
//!   corpus.

use std::time::Duration;

/// `splitmix64`: 64 bits of well-mixed state per draw, seedable,
/// `Copy`, and three lines — exactly enough RNG for arrival times and
/// corpus draws, with no dependency.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded deterministically.
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — open at zero so `ln` is always finite.
    pub(crate) fn next_unit(&mut self) -> f64 {
        // 53 mantissa bits, then nudge off exact zero.
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if u == 0.0 {
            f64::MIN_POSITIVE
        } else {
            u
        }
    }

    /// Uniform in `0..bound` (`bound` ≥ 1).
    fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// An exponential inter-arrival gap for rate `per_sec` (the inverse
    /// CDF: `-ln(u)/λ`). Poisson arrivals are gaps of exactly this
    /// shape.
    fn next_exp_gap(&mut self, per_sec: f64) -> Duration {
        let gap = -self.next_unit().ln() / per_sec.max(1e-9);
        Duration::from_secs_f64(gap.min(10.0)) // clamp pathological tails
    }
}

/// One phase of an open-loop run: a span of arrivals at a rate
/// multiplier. `1.0` is the base rate; a burst phase might run at
/// `3.0`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Phase {
    /// How many arrivals this phase contributes.
    pub arrivals: usize,
    /// Rate multiplier over the plan's base rate.
    pub rate_multiplier: f64,
}

/// One scheduled arrival: when (offset from the run's start) and what
/// (an index into the caller's job corpus).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    /// Offset from the run's start at which the job is *due*.
    pub at: Duration,
    /// Index into the caller's corpus of job variants.
    pub corpus_index: usize,
}

/// A fully materialized open-loop schedule: Poisson arrivals through
/// bursty phases, each tagged with a corpus draw. Deterministic in the
/// seed, so two legs of an experiment (healthy vs fault) can replay
/// the *identical* offered load.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalPlan {
    /// The arrivals, in nondecreasing `at` order.
    pub arrivals: Vec<Arrival>,
}

impl ArrivalPlan {
    /// Draws a Poisson schedule: `phases` in order, each contributing
    /// its arrivals at `base_rate_per_sec × rate_multiplier`, with
    /// corpus indices uniform in `0..corpus_len`.
    pub(crate) fn poisson(
        seed: u64,
        base_rate_per_sec: f64,
        corpus_len: usize,
        phases: &[Phase],
    ) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut at = Duration::ZERO;
        let mut arrivals = Vec::new();
        for phase in phases {
            let rate = base_rate_per_sec * phase.rate_multiplier;
            for _ in 0..phase.arrivals {
                at += rng.next_exp_gap(rate);
                arrivals.push(Arrival {
                    at,
                    corpus_index: rng.next_below(corpus_len as u64) as usize,
                });
            }
        }
        ArrivalPlan { arrivals }
    }

    /// Total arrivals across all phases.
    pub(crate) fn len(&self) -> usize {
        self.arrivals.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_unit_draws_are_in_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let u = rng.next_unit();
            assert!(u > 0.0 && u <= 1.0, "{u}");
            assert!(rng.next_below(10) < 10);
        }
    }

    #[test]
    fn poisson_plan_is_deterministic_monotonic_and_rate_scaled() {
        let phases = [
            Phase {
                arrivals: 200,
                rate_multiplier: 1.0,
            },
            Phase {
                arrivals: 200,
                rate_multiplier: 4.0,
            },
        ];
        let plan = ArrivalPlan::poisson(0xfeed, 1000.0, 5, &phases);
        let again = ArrivalPlan::poisson(0xfeed, 1000.0, 5, &phases);
        assert_eq!(plan.len(), 400);
        for (a, b) in plan.arrivals.iter().zip(&again.arrivals) {
            assert_eq!(a.at, b.at);
            assert_eq!(a.corpus_index, b.corpus_index);
            assert!(a.corpus_index < 5);
        }
        for pair in plan.arrivals.windows(2) {
            assert!(pair[0].at <= pair[1].at, "arrivals must be sorted");
        }
        // The burst phase packs its arrivals ~4x tighter (generously
        // bounded: 400 draws is a small sample).
        let base_span = plan.arrivals[199].at;
        let burst_span = plan.arrivals[plan.len() - 1].at - base_span;
        assert!(
            burst_span < base_span,
            "burst phase must be denser: base {base_span:?} vs burst {burst_span:?}"
        );
    }
}
