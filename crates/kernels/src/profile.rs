//! Execution instrumentation: the probe interface and the address-space
//! model.
//!
//! Every kernel executor is generic over a [`Probe`]. The zero-sized
//! [`NoProbe`] compiles to nothing (the fast path used for wall-clock
//! benchmarks); [`MemProbe`] drives a [`MemSim`] cache hierarchy with the
//! kernel's actual reference streams and counts dynamic instructions,
//! producing the inputs of the top-down model (Tables 5–6, Figures 7/16).
//!
//! ## Address-space model
//!
//! | region | base | contents |
//! |--------|------|----------|
//! | `LI`   | `LI_BASE`   | the signal slot array, 8 B/slot |
//! | OIM    | `OIM_BASE`… | coordinate/payload/side-table arrays |
//! | code   | [`CODE_BASE`] | rolled: interpreter + per-op handlers; unrolled: one 16-B instruction block per operation |
//!
//! Rolled kernels execute from a small fixed code region (high reuse);
//! SU/TI walk a code region proportional to the design — precisely the
//! I-cache/D-cache pressure trade-off of §5.2 and Table 6.

use rteaal_perfmodel::cache::MemSim;
use serde::{Deserialize, Serialize};

/// Base of the `LI` slot array (8 bytes per slot).
pub(crate) const LI_BASE: u64 = 0x1000_0000;
/// Base of the OIM coordinate/payload arrays; each array gets a
/// [`OIM_ARRAY_STRIDE`]-spaced region.
pub(crate) const OIM_BASE: u64 = 0x2000_0000;
/// Spacing between OIM array regions.
pub(crate) const OIM_ARRAY_STRIDE: u64 = 0x0100_0000;
/// Base of the code region.
pub const CODE_BASE: u64 = 0x4000_0000;
/// Bytes per modeled machine instruction.
pub(crate) const INSTR_BYTES: u64 = 4;
/// Code bytes reserved per opcode handler in rolled kernels.
pub(crate) const HANDLER_BYTES: u64 = 256;

/// Index of an OIM array region (for address computation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OimArray {
    /// `I`-rank payloads (ops per layer).
    IPayloads = 0,
    /// `S`-rank coordinates (output slots).
    SCoords = 1,
    /// `N`-rank coordinates (opcodes).
    NCoords = 2,
    /// `R`-rank coordinates (operand slots).
    RCoords = 3,
    /// Swizzled `N`-rank payloads (per-type counts).
    NPayloads = 4,
    /// Per-op side table (params / width).
    Meta = 5,
}

/// Address of element `idx` (of `elem_bytes` each) in an OIM array.
#[inline]
pub(crate) fn oim_addr(array: OimArray, idx: usize, elem_bytes: u64) -> u64 {
    OIM_BASE + array as u64 * OIM_ARRAY_STRIDE + idx as u64 * elem_bytes
}

/// Address of `LI` slot `s`.
#[inline]
pub(crate) fn li_addr(slot: u32) -> u64 {
    LI_BASE + slot as u64 * 8
}

/// Dynamic-event counters accumulated by [`MemProbe`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Dynamic instructions.
    pub instructions: u64,
    /// Dynamic branches (loop back-edges, dispatch jumps).
    pub branches: u64,
    /// Data loads issued.
    pub loads: u64,
    /// Data stores issued.
    pub stores: u64,
}

/// The instrumentation interface. All methods default to nothing so the
/// fast path monomorphizes to straight code.
pub trait Probe {
    /// `count` machine instructions executed starting at code address
    /// `addr` (fetch stream).
    #[inline(always)]
    fn exec(&mut self, addr: u64, count: u32) {
        let _ = (addr, count);
    }

    /// A data load from `addr`.
    #[inline(always)]
    fn load(&mut self, addr: u64) {
        let _ = addr;
    }

    /// A data store to `addr`.
    #[inline(always)]
    fn store(&mut self, addr: u64) {
        let _ = addr;
    }

    /// A dynamic branch instruction (also counts as one instruction at
    /// `addr`).
    #[inline(always)]
    fn branch(&mut self, addr: u64) {
        let _ = addr;
    }
}

/// The no-op probe: the fast execution path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {}

/// A probe that feeds a cache hierarchy and counts events.
#[derive(Debug)]
pub struct MemProbe<'a> {
    /// The machine's cache hierarchy.
    pub mem: &'a mut MemSim,
    /// Event counters.
    pub counters: Counters,
}

impl<'a> MemProbe<'a> {
    /// Wraps a hierarchy.
    pub fn new(mem: &'a mut MemSim) -> Self {
        MemProbe {
            mem,
            counters: Counters::default(),
        }
    }
}

impl Probe for MemProbe<'_> {
    #[inline]
    fn exec(&mut self, addr: u64, count: u32) {
        self.counters.instructions += count as u64;
        // Fetch at instruction granularity; the cache dedupes by line.
        // To bound cost we touch each 16-byte fetch block once.
        let bytes = count as u64 * INSTR_BYTES;
        let mut a = addr;
        while a < addr + bytes {
            self.mem.fetch(a);
            a += 16;
        }
    }

    #[inline]
    fn load(&mut self, addr: u64) {
        self.counters.loads += 1;
        self.counters.instructions += 1;
        self.mem.load(addr);
    }

    #[inline]
    fn store(&mut self, addr: u64) {
        self.counters.stores += 1;
        self.counters.instructions += 1;
        self.mem.store(addr);
    }

    #[inline]
    fn branch(&mut self, addr: u64) {
        self.counters.branches += 1;
        self.exec(addr, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rteaal_perfmodel::Machine;

    #[test]
    fn address_regions_do_not_overlap() {
        assert!(li_addr(1 << 24) < OIM_BASE);
        assert!(oim_addr(OimArray::Meta, 1 << 20, 8) < CODE_BASE);
    }

    #[test]
    fn mem_probe_counts_and_feeds_caches() {
        let mut mem = Machine::intel_core().mem_sim();
        let mut p = MemProbe::new(&mut mem);
        p.exec(CODE_BASE, 8);
        p.load(li_addr(3));
        p.store(li_addr(3));
        p.branch(CODE_BASE + 32);
        assert_eq!(p.counters.instructions, 8 + 1 + 1 + 1);
        assert_eq!(p.counters.loads, 1);
        assert_eq!(p.counters.stores, 1);
        assert_eq!(p.counters.branches, 1);
        let stats = mem.stats();
        assert!(stats.l1i.accesses >= 2);
        assert_eq!(stats.l1d.accesses, 2);
        assert_eq!(stats.l1d.misses, 1); // load misses, store hits
    }

    #[test]
    fn no_probe_is_free() {
        // Just exercises the default impls.
        let mut p = NoProbe;
        p.exec(0, 100);
        p.load(0);
        p.store(0);
        p.branch(0);
    }
}
