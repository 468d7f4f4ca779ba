//! Host machine models (paper §7.1, Table 2).
//!
//! Four machines spanning two ISAs (x86, Arm), three vendors, and desktop/
//! server platforms. Cache geometries come straight from Table 2; the
//! latency/penalty parameters encode the microarchitectural contrasts the
//! paper leans on:
//!
//! - the Intel Xeon's last-level-cache latency is "roughly twice that of
//!   the Intel Core" (§7.2), which is why highly unrolled kernels go
//!   80% frontend-bound on the Xeon but only 15–25% on the Core;
//! - the AWS Graviton 4 resolves branches much better on Verilator-style
//!   branchy code (§7.5: 22% → 0.22% misprediction), modeled as a lower
//!   effective branch penalty;
//! - the AMD part's small 8 MB LLC is what lets compact rolled kernels
//!   beat straight-line code on 8-core SmallBOOM (§7.5, Figure 21).

use crate::cache::{CacheConfig, MemSim};
use serde::{Deserialize, Serialize};

/// One host machine: cache geometry plus pipeline parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Display name.
    pub name: String,
    /// Short id used in tables (`core`, `xeon`, `amd`, `aws`).
    pub id: String,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified per-core L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Issue width (pipeline slots per cycle for top-down accounting).
    pub width: u32,
    /// L2 hit latency (cycles).
    pub l2_latency: u32,
    /// LLC hit latency (cycles) — the Core/Xeon contrast lives here.
    pub llc_latency: u32,
    /// DRAM latency (cycles).
    pub mem_latency: u32,
    /// Branch misprediction penalty (cycles).
    pub branch_penalty: f64,
    /// Predictor quality factor: multiplies a workload's intrinsic
    /// misprediction rate (Graviton 4 resolves Verilator-style branchy
    /// code ~100x better, §7.5: 22% -> 0.22%).
    pub predictor_factor: f64,
    /// Nominal clock in GHz (wall-clock conversions for reports).
    pub ghz: f64,
}

impl Machine {
    /// Intel Core i9-13900K (desktop, x86).
    pub fn intel_core() -> Self {
        Machine {
            name: "Intel Core i9-13900K".into(),
            id: "core".into(),
            l1i: CacheConfig::new(32 * 1024, 8),
            l1d: CacheConfig::new(48 * 1024, 12),
            l2: CacheConfig::new(2 * 1024 * 1024, 16),
            llc: CacheConfig::new(36 * 1024 * 1024, 12),
            width: 6,
            l2_latency: 15,
            llc_latency: 33,
            mem_latency: 220,
            branch_penalty: 17.0,
            predictor_factor: 1.0,
            ghz: 5.8,
        }
    }

    /// Intel Xeon Gold 5512U (server, x86). LLC latency ~2x the Core's
    /// (§7.2, [chipsandcheese 2025]).
    pub fn intel_xeon() -> Self {
        Machine {
            name: "Intel Xeon Gold 5512U".into(),
            id: "xeon".into(),
            l1i: CacheConfig::new(32 * 1024, 8),
            l1d: CacheConfig::new(48 * 1024, 12),
            l2: CacheConfig::new(2 * 1024 * 1024, 16),
            llc: CacheConfig::new(52 * 1024 * 1024 + 512 * 1024, 12), // 52.5 MB
            width: 6,
            l2_latency: 16,
            llc_latency: 70,
            mem_latency: 280,
            branch_penalty: 17.0,
            predictor_factor: 1.0,
            ghz: 3.7,
        }
    }

    /// AMD Ryzen 7 4800HS (laptop, x86). Small 8 MB LLC.
    pub fn amd_ryzen() -> Self {
        Machine {
            name: "AMD Ryzen 7 4800HS".into(),
            id: "amd".into(),
            l1i: CacheConfig::new(32 * 1024, 8),
            l1d: CacheConfig::new(32 * 1024, 8),
            l2: CacheConfig::new(512 * 1024, 8),
            llc: CacheConfig::new(8 * 1024 * 1024, 16),
            width: 5,
            l2_latency: 12,
            llc_latency: 38,
            mem_latency: 260,
            branch_penalty: 18.0,
            predictor_factor: 0.9,
            ghz: 4.2,
        }
    }

    /// AWS Graviton 4 (server, Arm). Large L1s; branchy code mispredicts
    /// far less here (§7.5).
    pub fn aws_graviton4() -> Self {
        Machine {
            name: "AWS Graviton 4".into(),
            id: "aws".into(),
            l1i: CacheConfig::new(64 * 1024, 8),
            l1d: CacheConfig::new(64 * 1024, 8),
            l2: CacheConfig::new(2 * 1024 * 1024, 16),
            llc: CacheConfig::new(36 * 1024 * 1024, 12),
            width: 8,
            l2_latency: 13,
            llc_latency: 40,
            mem_latency: 240,
            branch_penalty: 16.0,
            predictor_factor: 0.01,
            ghz: 2.8,
        }
    }

    /// All four evaluation machines, in the paper's column order.
    pub fn all() -> Vec<Machine> {
        vec![
            Machine::intel_core(),
            Machine::intel_xeon(),
            Machine::amd_ryzen(),
            Machine::aws_graviton4(),
        ]
    }

    /// A copy with the LLC restricted to `bytes` (the Intel CAT analog
    /// used by Figure 21).
    pub fn with_llc_capacity(&self, bytes: usize) -> Machine {
        let mut m = self.clone();
        m.llc.size_bytes = bytes;
        m.name = format!(
            "{} (LLC {} MB)",
            self.name,
            bytes as f64 / (1024.0 * 1024.0)
        );
        m
    }

    /// A cache hierarchy simulator with this machine's geometry.
    pub fn mem_sim(&self) -> MemSim {
        MemSim::new(self.l1i, self.l1d, self.l2, self.llc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_2_geometries() {
        let core = Machine::intel_core();
        assert_eq!(core.l1i.size_bytes, 32 * 1024);
        assert_eq!(core.l1d.size_bytes, 48 * 1024);
        assert_eq!(core.llc.size_bytes, 36 * 1024 * 1024);
        let xeon = Machine::intel_xeon();
        assert_eq!(xeon.llc.size_bytes, 52 * 1024 * 1024 + 512 * 1024);
        let amd = Machine::amd_ryzen();
        assert_eq!(amd.l2.size_bytes, 512 * 1024);
        assert_eq!(amd.llc.size_bytes, 8 * 1024 * 1024);
        let aws = Machine::aws_graviton4();
        assert_eq!(aws.l1i.size_bytes, 64 * 1024);
    }

    #[test]
    fn xeon_llc_latency_roughly_double_core() {
        let ratio =
            Machine::intel_xeon().llc_latency as f64 / Machine::intel_core().llc_latency as f64;
        assert!(ratio > 1.8 && ratio < 2.5, "ratio = {ratio}");
    }

    #[test]
    fn graviton_predicts_branchy_code_well() {
        // 22% on Xeon vs 0.22% on Graviton for the same workload (§7.5).
        let xeon = Machine::intel_xeon().predictor_factor;
        let aws = Machine::aws_graviton4().predictor_factor;
        assert!((xeon / aws - 100.0).abs() < 1.0);
    }

    #[test]
    fn by_id_and_all() {
        assert_eq!(Machine::all().len(), 4);
        let by_id = |id: &str| Machine::all().into_iter().find(|m| m.id == id);
        assert_eq!(by_id("amd").unwrap().name, "AMD Ryzen 7 4800HS");
        assert!(by_id("m1").is_none());
    }

    #[test]
    fn llc_restriction() {
        let m = Machine::intel_xeon().with_llc_capacity(3 * 1024 * 1024 + 512 * 1024);
        assert_eq!(m.llc.size_bytes, 3 * 1024 * 1024 + 512 * 1024);
        assert!(m.name.contains("3.5 MB"));
    }
}
