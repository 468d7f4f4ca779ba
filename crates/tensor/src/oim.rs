//! Concrete encodings of the `OIM` (operation input mask) tensor.
//!
//! The `OIM` is the paper's central data structure (§4, §5.1): a 5-rank
//! sparse binary tensor over `[I, S, N, O, R]` — layer, operation, op type,
//! operand order, operand slot. This module lowers a
//! [`SimPlan`] onto the three concrete formats of
//! Figure 12:
//!
//! - [`OimUnoptimized`] — format (a): every rank keeps explicit payloads.
//! - [`OimOptimized`] — format (b): one-hot and mask payloads eliminated
//!   (`pbits = 0` for `S`, `N`, `O`, `R`), rank order `[I, S, N, O, R]`.
//! - [`OimSwizzled`] — format (c): the `S`/`N` swizzle of §5.2 (NU kernel),
//!   rank order `[I, N, S, O, R]` with an uncompressed `N` rank whose
//!   payloads count the operations per type, and the `I` payloads
//!   eliminated.
//!
//! Each encoding also carries an *operation side table* ([`OpMeta`]):
//! static parameters, result width/signedness, and arity. The paper's
//! formulation holds these inside the user-defined `op_*[n]` operators;
//! keeping them in a table aligned with traversal order preserves the
//! format sizes reported by the size accounting (they are payload-like
//! data, counted explicitly).

use crate::format::{bits_for_max, FormatSpec, RankOccupancy, RankSpec};
use rteaal_dfg::op::{DfgOp, NUM_OPCODES};
use rteaal_dfg::SimPlan;
use serde::{Deserialize, Serialize};

/// Per-operation side data (the contents of the paper's `op_*[n]` operator
/// tables), aligned with each encoding's traversal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpMeta {
    /// Static parameters (bit indices, widths, shift amounts).
    pub params: [u64; 2],
    /// Result width for canonicalization.
    pub width: u8,
    /// Result signedness.
    pub signed: bool,
    /// Operand count (only consulted for variable-arity ops).
    pub arity: u16,
}

impl OpMeta {
    fn from_inst(op: &rteaal_dfg::OpInst) -> Self {
        let mut params = [0u64; 2];
        for (k, &p) in op.params.iter().take(2).enumerate() {
            params[k] = p;
        }
        OpMeta {
            params,
            width: op.width,
            signed: op.signed,
            arity: op.ins.len() as u16,
        }
    }
}

/// One operation as seen by a traversal: borrowed views into the arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRef<'a> {
    /// `N`-rank coordinate (opcode).
    pub n: u16,
    /// `S`-rank coordinate (output slot).
    pub s: u32,
    /// `R`-rank coordinates (operand slots in `O` order).
    pub rs: &'a [u32],
    /// Side data.
    pub meta: &'a OpMeta,
}

impl OpRef<'_> {
    /// Decodes the opcode.
    pub fn op(&self) -> DfgOp {
        DfgOp::from_n_coord(self.n).expect("valid opcode")
    }

    /// The static parameters, truncated to the op's real parameter count.
    pub fn params(&self) -> &[u64] {
        &self.meta.params
    }
}

/// Format (b) of Figure 12: the optimized `[I, S, N, O, R]` encoding.
///
/// Payload arrays for one-hot ranks (`N`, `R`), the mask rank (`R`
/// values), and per-op occupancy (`S`, `O`) are eliminated; only layer
/// payloads (`I`) plus the `S`/`N`/`R` coordinate arrays remain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OimOptimized {
    /// Design name.
    pub name: String,
    /// Ops per layer (`I`-rank payloads: occupancy of each `S` fiber).
    pub i_payloads: Vec<u32>,
    /// Output slot per op (`S`-rank coordinates, concatenated by layer).
    pub s_coords: Vec<u32>,
    /// Opcode per op (`N`-rank coordinates).
    pub n_coords: Vec<u16>,
    /// Operand slots (`R`-rank coordinates, concatenated in `O` order).
    pub r_coords: Vec<u32>,
    /// Start of each op's operand run in `r_coords` (derived; lets random
    /// access coexist with the sequential `.next()`-style traversal).
    pub r_offsets: Vec<u32>,
    /// Per-op side data.
    pub meta: Vec<OpMeta>,
    /// Number of `LI` slots (shape of `S` and `R`).
    pub num_slots: usize,
}

impl OimOptimized {
    /// Lowers a plan onto format (b).
    pub fn from_plan(plan: &SimPlan) -> Self {
        let total: usize = plan.total_ops();
        let mut oim = OimOptimized {
            name: plan.name.clone(),
            i_payloads: Vec::with_capacity(plan.layers.len()),
            s_coords: Vec::with_capacity(total),
            n_coords: Vec::with_capacity(total),
            r_coords: Vec::new(),
            r_offsets: Vec::with_capacity(total + 1),
            meta: Vec::with_capacity(total),
            num_slots: plan.num_slots,
        };
        for layer in &plan.layers {
            oim.i_payloads.push(layer.len() as u32);
            for op in layer {
                oim.r_offsets.push(oim.r_coords.len() as u32);
                oim.s_coords.push(op.out);
                oim.n_coords.push(op.n);
                oim.r_coords.extend_from_slice(&op.ins);
                oim.meta.push(OpMeta::from_inst(op));
            }
        }
        oim.r_offsets.push(oim.r_coords.len() as u32);
        oim
    }

    /// Number of layers (`I`-rank shape).
    pub fn num_layers(&self) -> usize {
        self.i_payloads.len()
    }

    /// Total operation count.
    pub fn num_ops(&self) -> usize {
        self.s_coords.len()
    }

    /// Iterates the ops of layer `i` in `S` order.
    pub fn layer(&self, i: usize) -> impl Iterator<Item = OpRef<'_>> {
        let start: usize = self.i_payloads[..i].iter().map(|&c| c as usize).sum();
        let len = self.i_payloads[i] as usize;
        (start..start + len).map(move |k| self.op_at(k))
    }

    /// Random access to op `k` in global traversal order.
    pub fn op_at(&self, k: usize) -> OpRef<'_> {
        let (lo, hi) = (self.r_offsets[k] as usize, self.r_offsets[k + 1] as usize);
        OpRef {
            n: self.n_coords[k],
            s: self.s_coords[k],
            rs: &self.r_coords[lo..hi],
            meta: &self.meta[k],
        }
    }

    /// The TeAAL format specification (Figure 12b) with bitwidths derived
    /// from the actual coordinate/payload value ranges.
    pub fn format_spec(&self) -> FormatSpec {
        let slot_bits = bits_for_max(self.num_slots.saturating_sub(1) as u64);
        let i_pbits = bits_for_max(self.i_payloads.iter().copied().max().unwrap_or(0) as u64);
        FormatSpec::new(
            "OIM",
            [
                RankSpec::uncompressed("I", i_pbits),
                RankSpec::compressed("S", slot_bits, 0),
                RankSpec::compressed("N", bits_for_max(NUM_OPCODES as u64 - 1), 0),
                RankSpec::uncompressed("O", 0),
                RankSpec::compressed("R", slot_bits, 0),
            ],
        )
    }

    /// Bit-packed storage per the format spec (the "format size" used by
    /// the compression ablation).
    pub fn packed_bytes(&self) -> usize {
        self.format_spec()
            .size_bits(&self.rank_occupancies())
            .div_ceil(8)
    }

    fn rank_occupancies(&self) -> [RankOccupancy; 5] {
        [
            (0, self.i_payloads.len()).into(),
            (self.s_coords.len(), 0).into(),
            (self.n_coords.len(), 0).into(),
            (0, 0).into(),
            (self.r_coords.len(), 0).into(),
        ]
    }

    /// Actual in-memory bytes of the coordinate/payload arrays (what the
    /// D-cache sees in the rolled kernels).
    pub fn memory_bytes(&self) -> usize {
        self.i_payloads.len() * 4
            + self.s_coords.len() * 4
            + self.n_coords.len() * 2
            + self.r_coords.len() * 4
            + self.r_offsets.len() * 4
            + self.meta.len() * std::mem::size_of::<OpMeta>()
    }

    /// Density of the logical 5-rank mask: nonzeros over the full
    /// `I*S*N*O*R` iteration-space volume (paper §5.1: between 1e-7 and
    /// 1e-9 for real designs).
    pub fn density(&self) -> f64 {
        let nnz = self.r_coords.len() as f64;
        let max_arity = self
            .meta
            .iter()
            .map(|m| m.arity as usize)
            .max()
            .unwrap_or(1)
            .max(1);
        let volume = self.num_layers() as f64
            * self.num_slots as f64 // S shape
            * NUM_OPCODES as f64
            * max_arity as f64
            * self.num_slots as f64; // R shape
        if volume == 0.0 {
            0.0
        } else {
            nnz / volume
        }
    }
}

/// Format (a) of Figure 12: the unoptimized encoding, with explicit payload
/// arrays for every rank. Kept for the format-compression ablation
/// (`tables -- ablation-format`): its payload arrays carry exactly the
/// one-hot/mask/occupancy structure §5.1 proves redundant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OimUnoptimized {
    /// The coordinate arrays (identical to format (b)).
    pub base: OimOptimized,
    /// `S`-rank payloads: occupancy of each op's `N` fiber (always 1).
    pub s_payloads: Vec<u32>,
    /// `N`-rank payloads: operand count of each op.
    pub n_payloads: Vec<u32>,
    /// `O`-rank payloads: occupancy of each operand's `R` fiber (always 1).
    pub o_payloads: Vec<u32>,
    /// `R`-rank payloads: the mask values (always 1).
    pub r_payloads: Vec<u32>,
}

impl OimUnoptimized {
    /// Lowers a plan onto format (a).
    pub fn from_plan(plan: &SimPlan) -> Self {
        let base = OimOptimized::from_plan(plan);
        let n_payloads: Vec<u32> = base.meta.iter().map(|m| m.arity as u32).collect();
        let num_ops = base.num_ops();
        let num_operands = base.r_coords.len();
        OimUnoptimized {
            s_payloads: vec![1; num_ops],
            n_payloads,
            o_payloads: vec![1; num_operands],
            r_payloads: vec![1; num_operands],
            base,
        }
    }

    /// The TeAAL format specification (Figure 12a).
    pub fn format_spec(&self) -> FormatSpec {
        let slot_bits = bits_for_max(self.base.num_slots.saturating_sub(1) as u64);
        let i_pbits = bits_for_max(self.base.i_payloads.iter().copied().max().unwrap_or(0) as u64);
        let arity_bits = bits_for_max(self.n_payloads.iter().copied().max().unwrap_or(1) as u64);
        FormatSpec::new(
            "OIM",
            [
                RankSpec::uncompressed("I", i_pbits),
                RankSpec::compressed("S", slot_bits, 1),
                RankSpec::compressed("N", bits_for_max(NUM_OPCODES as u64 - 1), arity_bits),
                RankSpec::uncompressed("O", 1),
                RankSpec::compressed("R", slot_bits, 1),
            ],
        )
    }

    /// Bit-packed storage per the format spec.
    pub fn packed_bytes(&self) -> usize {
        let occ: [RankOccupancy; 5] = [
            (0, self.base.i_payloads.len()).into(),
            (self.base.s_coords.len(), self.s_payloads.len()).into(),
            (self.base.n_coords.len(), self.n_payloads.len()).into(),
            (0, self.o_payloads.len()).into(),
            (self.base.r_coords.len(), self.r_payloads.len()).into(),
        ];
        self.format_spec().size_bits(&occ).div_ceil(8)
    }

    /// Actual in-memory bytes.
    pub fn memory_bytes(&self) -> usize {
        self.base.memory_bytes()
            + (self.s_payloads.len()
                + self.n_payloads.len()
                + self.o_payloads.len()
                + self.r_payloads.len())
                * 4
    }
}

/// Format (c) of Figure 12: the `S`/`N`-swizzled `[I, N, S, O, R]`
/// encoding used by the NU kernel and above (§5.2). Groups the operations
/// of each layer by type so each op type gets its own inner `S` loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OimSwizzled {
    /// Design name.
    pub name: String,
    /// Ops per `(layer, opcode)` — the uncompressed `N`-rank payloads,
    /// laid out `layer * NUM_OPCODES + opcode`.
    pub n_payloads: Vec<u32>,
    /// Output slots grouped by `(layer, opcode)`.
    pub s_coords: Vec<u32>,
    /// Operand slots in the same grouping.
    pub r_coords: Vec<u32>,
    /// Start of each op's operand run in `r_coords`.
    pub r_offsets: Vec<u32>,
    /// Per-op side data, in grouped traversal order.
    pub meta: Vec<OpMeta>,
    /// Start of each `(layer, opcode)` group in `s_coords`/`meta`.
    pub group_offsets: Vec<u32>,
    /// Number of layers.
    pub num_layers: usize,
    /// Number of `LI` slots.
    pub num_slots: usize,
}

impl OimSwizzled {
    /// Lowers a plan onto format (c), grouping each layer's ops by type.
    pub fn from_plan(plan: &SimPlan) -> Self {
        let total = plan.total_ops();
        let num_layers = plan.layers.len();
        let mut oim = OimSwizzled {
            name: plan.name.clone(),
            n_payloads: vec![0; num_layers * NUM_OPCODES],
            s_coords: Vec::with_capacity(total),
            r_coords: Vec::new(),
            r_offsets: Vec::with_capacity(total + 1),
            meta: Vec::with_capacity(total),
            group_offsets: Vec::with_capacity(num_layers * NUM_OPCODES + 1),
            num_layers,
            num_slots: plan.num_slots,
        };
        for (i, layer) in plan.layers.iter().enumerate() {
            // Stable grouping by opcode preserves intra-type order (which
            // already respects dependencies; ops in a layer never depend on
            // each other).
            let mut by_type: Vec<Vec<&rteaal_dfg::OpInst>> = vec![Vec::new(); NUM_OPCODES];
            for op in layer {
                by_type[op.n as usize].push(op);
            }
            for (n, group) in by_type.iter().enumerate() {
                oim.group_offsets.push(oim.s_coords.len() as u32);
                oim.n_payloads[i * NUM_OPCODES + n] = group.len() as u32;
                for op in group {
                    oim.r_offsets.push(oim.r_coords.len() as u32);
                    oim.s_coords.push(op.out);
                    oim.r_coords.extend_from_slice(&op.ins);
                    oim.meta.push(OpMeta::from_inst(op));
                }
            }
        }
        oim.group_offsets.push(oim.s_coords.len() as u32);
        oim.r_offsets.push(oim.r_coords.len() as u32);
        oim
    }

    /// Total operation count.
    pub fn num_ops(&self) -> usize {
        self.s_coords.len()
    }

    /// The `(layer, opcode)` group as index bounds into
    /// `s_coords`/`meta` (and, via `r_offsets`, `r_coords`).
    pub fn group(&self, layer: usize, n: u16) -> std::ops::Range<usize> {
        let g = layer * NUM_OPCODES + n as usize;
        self.group_offsets[g] as usize..self.group_offsets[g + 1] as usize
    }

    /// Random access to op `k` in grouped traversal order.
    pub fn op_at(&self, k: usize) -> (u32, &[u32], &OpMeta) {
        let (lo, hi) = (self.r_offsets[k] as usize, self.r_offsets[k + 1] as usize);
        (self.s_coords[k], &self.r_coords[lo..hi], &self.meta[k])
    }

    /// The TeAAL format specification (Figure 12c).
    pub fn format_spec(&self) -> FormatSpec {
        let slot_bits = bits_for_max(self.num_slots.saturating_sub(1) as u64);
        let n_pbits = bits_for_max(self.n_payloads.iter().copied().max().unwrap_or(0) as u64);
        FormatSpec::new(
            "OIM",
            [
                RankSpec::uncompressed("I", 0),
                RankSpec::uncompressed("N", n_pbits),
                RankSpec::compressed("S", slot_bits, 0),
                RankSpec::uncompressed("O", 0),
                RankSpec::compressed("R", slot_bits, 0),
            ],
        )
    }

    /// Bit-packed storage per the format spec.
    pub fn packed_bytes(&self) -> usize {
        let occ: [RankOccupancy; 5] = [
            (0, 0).into(),
            (0, self.n_payloads.len()).into(),
            (self.s_coords.len(), 0).into(),
            (0, 0).into(),
            (self.r_coords.len(), 0).into(),
        ];
        self.format_spec().size_bits(&occ).div_ceil(8)
    }

    /// Actual in-memory bytes.
    pub fn memory_bytes(&self) -> usize {
        self.n_payloads.len() * 4
            + self.s_coords.len() * 4
            + self.r_coords.len() * 4
            + self.r_offsets.len() * 4
            + self.group_offsets.len() * 4
            + self.meta.len() * std::mem::size_of::<OpMeta>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rteaal_dfg::{build, plan::plan};
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    fn plan_of(src: &str) -> SimPlan {
        plan(&build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap())
    }

    const MIXED: &str = "\
circuit Mixed :
  module Mixed :
    input clock : Clock
    input x : UInt<8>
    input sel : UInt<1>
    output out : UInt<8>
    reg acc : UInt<8>, clock
    node nx = tail(add(acc, x), 1)
    node alt = xor(acc, x)
    acc <= mux(sel, nx, alt)
    out <= acc
";

    #[test]
    fn optimized_roundtrips_plan_content() {
        let p = plan_of(MIXED);
        let oim = OimOptimized::from_plan(&p);
        assert_eq!(oim.num_layers(), p.layers.len());
        assert_eq!(oim.num_ops(), p.total_ops());
        // Every op visible through the traversal matches the plan.
        let mut k = 0;
        for (i, layer) in p.layers.iter().enumerate() {
            for (op, got) in layer.iter().zip(oim.layer(i)) {
                assert_eq!(got.n, op.n);
                assert_eq!(got.s, op.out);
                assert_eq!(got.rs, op.ins.as_slice());
                assert_eq!(got.meta.width, op.width);
                k += 1;
            }
        }
        assert_eq!(k, oim.num_ops());
    }

    #[test]
    fn swizzled_groups_by_opcode() {
        let p = plan_of(MIXED);
        let oim = OimSwizzled::from_plan(&p);
        assert_eq!(oim.num_ops(), p.total_ops());
        // Group sizes per layer sum to layer sizes, and every group holds
        // only its own opcode.
        for (i, layer) in p.layers.iter().enumerate() {
            let mut total = 0;
            for n in 0..NUM_OPCODES as u16 {
                let range = oim.group(i, n);
                assert_eq!(
                    range.len(),
                    oim.n_payloads[i * NUM_OPCODES + n as usize] as usize
                );
                total += range.len();
            }
            assert_eq!(total, layer.len());
        }
    }

    #[test]
    fn unoptimized_payloads_are_structural() {
        let p = plan_of(MIXED);
        let oim = OimUnoptimized::from_plan(&p);
        assert!(oim.s_payloads.iter().all(|&v| v == 1));
        assert!(oim.r_payloads.iter().all(|&v| v == 1));
        assert_eq!(oim.n_payloads.len(), oim.base.num_ops());
        // Arity payloads match opcode arity (muxes have 3 operands).
        for (k, &arity) in oim.n_payloads.iter().enumerate() {
            let op = oim.base.op_at(k);
            assert_eq!(arity as usize, op.rs.len());
        }
    }

    #[test]
    fn compression_shrinks_monotonically() {
        let p = plan_of(MIXED);
        let a = OimUnoptimized::from_plan(&p);
        let b = OimOptimized::from_plan(&p);
        let c = OimSwizzled::from_plan(&p);
        // (a) -> (b) strictly shrinks (payload arrays eliminated).
        assert!(b.packed_bytes() < a.packed_bytes());
        // (c) trades I payloads for dense N payloads; on tiny designs the
        // dense N rank can dominate, so just check it is sane.
        assert!(c.packed_bytes() > 0);
    }

    #[test]
    fn density_is_tiny_for_nontrivial_designs() {
        // A modestly sized design already lands far below 1e-3.
        let mut src = String::from(
            "\
circuit D :
  module D :
    input clock : Clock
    input x : UInt<8>
    output out : UInt<8>
",
        );
        for i in 0..50 {
            src.push_str(&format!("    reg r{i} : UInt<8>, clock\n"));
        }
        src.push_str("    r0 <= tail(add(r49, x), 1)\n");
        for i in 1..50 {
            src.push_str(&format!("    r{i} <= xor(r{}, x)\n", i - 1));
        }
        src.push_str("    out <= r49\n");
        let p = plan_of(&src);
        let oim = OimOptimized::from_plan(&p);
        assert!(oim.density() < 1e-3, "density = {}", oim.density());
    }

    #[test]
    fn format_specs_match_figure_12() {
        let p = plan_of(MIXED);
        let b = OimOptimized::from_plan(&p).format_spec();
        assert_eq!(b.rank_order(), ["I", "S", "N", "O", "R"]);
        assert_eq!(b.ranks[0].cbits, 0); // I uncompressed
        assert!(b.ranks[0].pbits > 0); // I payloads kept
        assert_eq!(b.ranks[1].pbits, 0); // S payloads eliminated
        assert_eq!(b.ranks[4].pbits, 0); // R payloads eliminated

        let c = OimSwizzled::from_plan(&p).format_spec();
        assert_eq!(c.rank_order(), ["I", "N", "S", "O", "R"]);
        assert_eq!(c.ranks[0].pbits, 0); // I payloads eliminated
        assert!(c.ranks[1].pbits > 0); // N payloads kept (op counts)
    }

    #[test]
    fn json_roundtrip() {
        let p = plan_of(MIXED);
        let oim = OimOptimized::from_plan(&p);
        let json = serde_json::to_string(&oim).unwrap();
        let back: OimOptimized = serde_json::from_str(&json).unwrap();
        assert_eq!(oim, back);
        let sw = OimSwizzled::from_plan(&p);
        let json = serde_json::to_string(&sw).unwrap();
        let back: OimSwizzled = serde_json::from_str(&json).unwrap();
        assert_eq!(sw, back);
    }

    #[test]
    fn r_offsets_are_consistent() {
        let p = plan_of(MIXED);
        let oim = OimOptimized::from_plan(&p);
        assert_eq!(oim.r_offsets.len(), oim.num_ops() + 1);
        assert_eq!(*oim.r_offsets.last().unwrap() as usize, oim.r_coords.len());
        for k in 0..oim.num_ops() {
            assert!(oim.r_offsets[k] <= oim.r_offsets[k + 1]);
        }
    }
}
