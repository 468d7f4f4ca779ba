//! Every input the benchmark feeds the program, as a pure function of
//! the `--seed` argument. The program itself never sees the seed, only
//! the values generated here.

use rteaal_designs::Workload;

/// `splitmix64`: a seedable generator with no dependency.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    state: u64,
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        finalize(self.state)
    }

    /// Uniform in `(0, 1]`, so that `ln` is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// A stateless draw addressed by up to three coordinates: what lets a
/// golden model replay any one lane of any one segment on its own.
pub fn draw(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = finalize(seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
    for coord in [a, b, c] {
        z = finalize(z ^ coord.wrapping_mul(0xd6e8_feb8_6659_fd93));
    }
    z
}

/// Loop bound of `rv32i_steady`'s testbench in one segment: every lane
/// runs `3k + 5` cycles, about 4.5 k, all live until the last one.
pub fn steady_k(seed: u64, segment: u64) -> u64 {
    1400 + draw(seed, 1, segment, 0) % 201
}

/// `chip_stim`'s 32-bit stimulus for one lane in one cycle.
pub fn chip_stim(seed: u64, segment: u64, lane: u64, cycle: u64) -> u64 {
    draw(seed, segment, lane, cycle) & 0xffff_ffff
}

/// The job corpus of one service segment: short loops (`k` in 1..=8)
/// interleaved with long ones (24..=63).
pub fn corpus(seed: u64, segment: u64, n: usize) -> Vec<u64> {
    Workload::corpus_params(n, draw(seed, 2, segment, 0))
}

/// Scheduled arrival offsets (ns from the segment's start) of a Poisson
/// process of `rate` arrivals per second.
pub fn poisson_offsets_ns(seed: u64, segment: u64, rate: f64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(draw(seed, 3, segment, rate.to_bits()));
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -rng.next_unit().ln() / rate * 1e9;
            at as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_pure_functions_of_the_seed() {
        assert_eq!(corpus(7, 3, 64), corpus(7, 3, 64));
        assert_ne!(corpus(7, 3, 64), corpus(8, 3, 64));
        assert_ne!(corpus(7, 3, 64), corpus(7, 4, 64));
        assert_eq!(
            poisson_offsets_ns(7, 1, 4000.0, 400),
            poisson_offsets_ns(7, 1, 4000.0, 400)
        );
        assert_ne!(
            poisson_offsets_ns(7, 1, 4000.0, 400),
            poisson_offsets_ns(9, 1, 4000.0, 400)
        );
        assert_eq!(steady_k(5, 11), steady_k(5, 11));
        assert_eq!(chip_stim(5, 1, 2, 3), chip_stim(5, 1, 2, 3));
        assert_ne!(chip_stim(5, 1, 2, 3), chip_stim(5, 1, 3, 2));
    }

    #[test]
    fn draws_stay_in_range() {
        for seg in 0..500 {
            assert!((1400..=1600).contains(&steady_k(42, seg)));
            assert!(chip_stim(42, seg, seg % 64, seg) <= 0xffff_ffff);
        }
        let ks = corpus(1, 0, 100);
        assert!(ks.iter().step_by(2).all(|k| (1..=8).contains(k)));
        assert!(ks.iter().skip(1).step_by(2).all(|k| (24..=63).contains(k)));
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_is_ordered() {
        let offsets = poisson_offsets_ns(3, 0, 12_000.0, 20_000);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap_ns = *offsets.last().unwrap() as f64 / offsets.len() as f64;
        assert!((mean_gap_ns - 1e9 / 12_000.0).abs() < 0.03 * 1e9 / 12_000.0);
    }
}
