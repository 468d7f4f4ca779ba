//! Set-associative cache simulation.
//!
//! The paper's evaluation is dominated by cache behavior: I-cache pressure
//! from unrolled kernels (Tables 5–6), D-cache traffic from the `OIM`
//! arrays, and LLC capacity effects (Figure 21). This module provides an
//! LRU set-associative `Cache` and a three-level [`MemSim`] hierarchy
//! (split L1I/L1D, unified L2, unified LLC) that the instrumented
//! simulators feed with their actual instruction-fetch and data reference
//! streams — miss counts are *measured*, only latencies are modeled.

use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// A config with 64-byte lines.
    pub(crate) const fn new(size_bytes: usize, ways: usize) -> Self {
        CacheConfig {
            size_bytes,
            line_bytes: 64,
            ways,
        }
    }

    /// Number of sets.
    pub(crate) fn sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses (fills from the next level).
    pub misses: u64,
}

impl CacheStats {
    /// Misses per kilo-*events* (callers supply the event count, e.g.
    /// dynamic instructions for MPKI).
    pub(crate) fn mpk(&self, events: u64) -> f64 {
        if events == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / events as f64
        }
    }
}

/// An LRU set-associative cache over 64-bit byte addresses.
#[derive(Debug, Clone)]
pub(crate) struct Cache {
    cfg: CacheConfig,
    /// Per-set tag stacks, most-recently-used first. 0 = invalid.
    sets: Vec<Vec<u64>>,
    set_mask: u64,
    line_shift: u32,
    /// Counters.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two.
    pub(crate) fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = cfg.sets();
        Cache {
            cfg,
            sets: vec![Vec::with_capacity(cfg.ways); sets],
            set_mask: sets as u64 - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub(crate) fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accesses `addr`; returns `true` on hit. Misses install the line
    /// (the caller forwards the miss to the next level).
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        // Sets are a power of two in every real config; a non-power-of-two
        // count degrades to modulo.
        let set_idx = if (self.set_mask + 1).is_power_of_two() {
            (line & self.set_mask) as usize
        } else {
            (line % (self.set_mask + 1)) as usize
        };
        let tag = line + 1; // +1 so 0 stays "invalid"
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = set.remove(pos);
            set.insert(0, t);
            true
        } else {
            self.stats.misses += 1;
            if set.len() == self.cfg.ways {
                set.pop();
            }
            set.insert(0, tag);
            false
        }
    }
}

/// Reference-stream statistics accumulated by [`MemSim`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Instruction fetch accesses/misses (L1I).
    pub l1i: CacheStats,
    /// Data accesses/misses (L1D).
    pub l1d: CacheStats,
    /// Unified L2.
    pub l2: CacheStats,
    /// Unified LLC.
    pub llc: CacheStats,
    /// Fills that went all the way to DRAM.
    pub mem_fills: u64,
}

/// A split-L1, unified-L2/LLC hierarchy fed with fetch/load/store streams.
///
/// Data-side misses trigger a next-line prefetch (degree 2) into the L1D,
/// modeling the stride prefetcher the paper credits for the mostly
/// sequential `OIM` array traffic (§7.2: "The OIM accesses are mostly
/// sequential, allowing them to be efficiently handled by the stride
/// prefetcher"). Instruction fetches are *not* prefetched past the demand
/// stream — fetch latency is precisely the frontend bottleneck the paper
/// measures.
#[derive(Debug, Clone)]
pub struct MemSim {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    mem_fills: u64,
    /// D-side next-line prefetch degree (0 disables).
    pub prefetch_degree: u32,
}

impl MemSim {
    /// Builds the hierarchy from per-level configs.
    pub(crate) fn new(
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        llc: CacheConfig,
    ) -> Self {
        MemSim {
            l1i: Cache::new(l1i),
            l1d: Cache::new(l1d),
            l2: Cache::new(l2),
            llc: Cache::new(llc),
            mem_fills: 0,
            prefetch_degree: 2,
        }
    }

    /// An instruction fetch at `addr`.
    pub fn fetch(&mut self, addr: u64) {
        if !self.l1i.access(addr) {
            self.fill(addr);
        }
    }

    /// A data load at `addr`.
    pub fn load(&mut self, addr: u64) {
        if !self.l1d.access(addr) {
            self.fill(addr);
            // Next-line prefetches install lines without counting as
            // demand misses (they overlap with the demand fill).
            let line = self.l1d.config().line_bytes as u64;
            for k in 1..=self.prefetch_degree as u64 {
                let pf = addr + k * line;
                let hit = self.l1d.access(pf);
                self.l1d.stats.accesses -= 1;
                if !hit {
                    self.l1d.stats.misses -= 1;
                    self.l2.access(pf);
                    self.l2.stats.accesses -= 1;
                }
            }
        }
    }

    /// A data store at `addr` (write-allocate).
    pub fn store(&mut self, addr: u64) {
        self.load(addr);
    }

    fn fill(&mut self, addr: u64) {
        if !self.l2.access(addr) && !self.llc.access(addr) {
            self.mem_fills += 1;
        }
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1i: self.l1i.stats,
            l1d: self.l1d.stats,
            l2: self.l2.stats,
            llc: self.llc.stats,
            mem_fills: self.mem_fills,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheConfig::new(1024, 2));
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert!(c.access(0x7f)); // same 64B line
        assert!(!c.access(0x80)); // next line
        assert_eq!(c.stats.accesses, 4);
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way, enough lines to conflict in one set: set count =
        // 1024/64/2 = 8 sets; lines 0, 8, 16 (in units of 64B) map to set 0.
        let mut c = Cache::new(CacheConfig::new(1024, 2));
        let line = |k: u64| k * 8 * 64; // stride of 8 lines = same set
        assert!(!c.access(line(0)));
        assert!(!c.access(line(1)));
        assert!(!c.access(line(2))); // evicts line(0)
        assert!(!c.access(line(0))); // line(0) gone
        assert!(c.access(line(2))); // still resident
    }

    #[test]
    fn lru_touch_refreshes() {
        let mut c = Cache::new(CacheConfig::new(1024, 2));
        let line = |k: u64| k * 8 * 64;
        c.access(line(0));
        c.access(line(1));
        c.access(line(0)); // refresh 0: now 1 is LRU
        c.access(line(2)); // evicts 1
        assert!(c.access(line(0)));
        assert!(!c.access(line(1)));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let cfg = CacheConfig::new(4096, 4);
        let mut c = Cache::new(cfg);
        // Stream over 4x the capacity twice: second pass still misses.
        let lines = 4 * cfg.size_bytes / cfg.line_bytes;
        for _ in 0..2 {
            for k in 0..lines {
                c.access((k * cfg.line_bytes) as u64);
            }
        }
        assert!(c.stats.misses * 10 > c.stats.accesses * 9);
    }

    #[test]
    fn working_set_fitting_in_cache_hits() {
        let cfg = CacheConfig::new(4096, 4);
        let mut c = Cache::new(cfg);
        let lines = cfg.size_bytes / cfg.line_bytes / 2;
        for _ in 0..10 {
            for k in 0..lines {
                c.access((k * cfg.line_bytes) as u64);
            }
        }
        // Only the first pass misses.
        assert_eq!(c.stats.misses as usize, lines);
    }

    #[test]
    fn hierarchy_forwards_misses() {
        let mut m = MemSim::new(
            CacheConfig::new(512, 2),
            CacheConfig::new(512, 2),
            CacheConfig::new(2048, 4),
            CacheConfig::new(8192, 8),
        );
        m.prefetch_degree = 0;
        m.load(0x1000);
        let s = m.stats();
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.llc.misses, 1);
        assert_eq!(s.mem_fills, 1);
        // Second access hits in L1D, nothing propagates.
        m.load(0x1000);
        let s = m.stats();
        assert_eq!(s.l1d.accesses, 2);
        assert_eq!(s.l2.accesses, 1);
    }

    #[test]
    fn split_l1_shares_l2() {
        let mut m = MemSim::new(
            CacheConfig::new(512, 2),
            CacheConfig::new(512, 2),
            CacheConfig::new(4096, 4),
            CacheConfig::new(8192, 8),
        );
        m.prefetch_degree = 0;
        m.fetch(0x2000);
        m.load(0x2000); // misses L1D but hits L2 (filled by the fetch)
        let s = m.stats();
        assert_eq!(s.l1i.misses, 1);
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l2.accesses, 2);
        assert_eq!(s.l2.misses, 1);
    }

    #[test]
    fn prefetcher_hides_sequential_misses() {
        let cfg = CacheConfig::new(1024, 2);
        let mut with = MemSim::new(
            cfg,
            cfg,
            CacheConfig::new(8192, 4),
            CacheConfig::new(65536, 8),
        );
        let mut without = with.clone();
        without.prefetch_degree = 0;
        // A long sequential stream (the OIM traversal pattern).
        for k in 0..4096u64 {
            with.load(0x1000_0000 + k * 4);
            without.load(0x1000_0000 + k * 4);
        }
        let (w, wo) = (with.stats(), without.stats());
        assert!(
            w.l1d.misses * 2 <= wo.l1d.misses,
            "{} vs {}",
            w.l1d.misses,
            wo.l1d.misses
        );
        // Random pointer chasing gets no benefit.
        let mut with_r = MemSim::new(
            cfg,
            cfg,
            CacheConfig::new(8192, 4),
            CacheConfig::new(65536, 8),
        );
        let mut x = 1u64;
        let mut misses0 = 0;
        for _ in 0..4096 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            with_r.load(0x2000_0000 + (x % (1 << 22)));
            misses0 += 1;
        }
        assert!(with_r.stats().l1d.misses > misses0 / 2);
    }

    #[test]
    fn mpki_helper() {
        let s = CacheStats {
            accesses: 10_000,
            misses: 80,
        };
        assert!((s.mpk(1_000_000) - 0.08).abs() < 1e-12);
    }
}
