//! Order statistics and the quiet-host estimator.
//!
//! The reference host is small and shared: interference (cache
//! eviction, frequency changes, a neighbour's burst) only ever
//! *subtracts* performance, and it moves a run's median by tens of
//! percent while the run's best segments barely move. Every gated
//! value is therefore a **quiet-host estimate**: the run is cut into
//! equal-work segments, one statistic is taken per segment, and the
//! reported value is the most favourable order statistic that still has
//! at least `max(10, 1 % of n)` samples beyond it. The across-segment
//! median and quartiles are kept beside it, ungated, so a stall the
//! program itself causes stays visible.

/// Which direction of a metric is the good one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A reported value with the ungated shape of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported (gated) value.
    pub value: f64,
    /// Across-sample median.
    pub median: f64,
    /// Across-sample lower quartile.
    pub q1: f64,
    /// Across-sample upper quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// A value that is not an order statistic of samples (a count, a
    /// ratio of two summaries).
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The same shape in another unit or per another base.
    pub fn map(self, f: impl Fn(f64) -> f64) -> Summary {
        Summary {
            value: f(self.value),
            median: f(self.median),
            q1: f(self.q1),
            q3: f(self.q3),
            n: self.n,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolation quantile of an ascending slice (`q` in 0..=1).
/// Returns NaN for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn shape(sorted: &[f64], value: f64) -> Summary {
    Summary {
        value,
        median: quantile_sorted(sorted, 0.5),
        q1: quantile_sorted(sorted, 0.25),
        q3: quantile_sorted(sorted, 0.75),
        n: sorted.len(),
    }
}

/// The across-sample median, with its quartiles.
pub fn median(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let value = quantile_sorted(&s, 0.5);
    shape(&s, value)
}

/// How many samples must lie beyond the quiet-host estimate.
pub fn quiet_margin(n: usize) -> usize {
    let one_percent = n.div_ceil(100);
    // Below 40 samples ten cannot lie beyond anything useful: fall
    // towards the quartile instead of reporting an extreme.
    one_percent.max(10).min(n / 4)
}

/// The quiet-host estimate of per-segment samples: the 99th percentile
/// of rates (1st of times) when there are 1000 or more segments, and
/// with fewer the most favourable order statistic that keeps ten samples
/// beyond it.
pub fn quiet(samples: &[f64], better: Better) -> Summary {
    let s = sorted(samples);
    if s.is_empty() {
        return shape(&s, f64::NAN);
    }
    let margin = quiet_margin(s.len());
    let value = match better {
        Better::Higher => s[s.len() - 1 - margin],
        Better::Lower => s[margin],
    };
    shape(&s, value)
}

/// FNV-1a over 64-bit words, folded to 48 bits so the digest survives a
/// round trip through a JSON double.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        (self.0 ^ (self.0 >> 48)) & 0xffff_ffff_ffff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::SplitMix64;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0], 0.75), 1.75);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert_eq!(median(&[5.0, 1.0, 3.0]).value, 3.0);
    }

    #[test]
    fn margin_keeps_ten_beyond_and_degrades_to_the_quartile() {
        assert_eq!(quiet_margin(200), 10);
        assert_eq!(quiet_margin(1000), 10);
        assert_eq!(quiet_margin(5000), 50);
        assert_eq!(quiet_margin(100), 10);
        assert_eq!(quiet_margin(24), 6);
        assert_eq!(quiet_margin(3), 0);
    }

    /// The estimator's reason to exist: a true rate of 100 seen through
    /// one-sided interference that slows a varying share of segments by
    /// up to 40 %. The median follows the interference; the quiet-host
    /// estimate does not.
    #[test]
    fn quiet_estimate_ignores_one_sided_noise() {
        let run = |seed: u64, disturbed_share: f64| {
            let mut rng = SplitMix64::new(seed);
            let samples: Vec<f64> = (0..240)
                .map(|_| {
                    let jitter = 1.0 - 0.01 * rng.next_unit();
                    if rng.next_unit() < disturbed_share {
                        100.0 * jitter * (1.0 - 0.4 * rng.next_unit())
                    } else {
                        100.0 * jitter
                    }
                })
                .collect();
            quiet(&samples, Better::Higher)
        };
        let calm = run(1, 0.2);
        let busy = run(2, 0.8);
        assert!((calm.value - busy.value).abs() / calm.value < 0.01);
        assert!(calm.value > 99.0 && calm.value <= 100.0);
        assert!((calm.median - busy.median) / calm.median > 0.05);
        // Times: the mirror image.
        let times: Vec<f64> = (0..240).map(|i| 10.0 + (i % 7) as f64).collect();
        let t = quiet(&times, Better::Lower);
        assert_eq!(t.value, 10.0);
        assert_eq!(t.n, 240);
    }

    #[test]
    fn digest_is_order_sensitive_and_fits_a_double() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.push(1);
        a.push(2);
        b.push(2);
        b.push(1);
        assert_ne!(a.finish(), b.finish());
        assert!(a.finish() < (1 << 48));
        assert_eq!(a.finish() as f64 as u64, a.finish());
    }
}
