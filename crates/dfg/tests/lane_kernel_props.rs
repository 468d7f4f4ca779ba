//! Property-based differential test of the kernel-compilation stage:
//! for every opcode × arity × random width/signedness, the compiled lane
//! kernel of **every table the host supports** — each instruction set ×
//! both lane types — must produce an output row bit-identical to the
//! interpreted `eval_raw` + `canonicalize` per lane — on operand lanes
//! drawn from the classes that decide an op's outcome (a zero condition,
//! equal operands, a zero divisor, an in-range shift), on aliased operand
//! rows, on lane counts either side of every chunk boundary, and on
//! partial (early-exit) lane windows. For `u32` rows "identical" means
//! the truncation of the 64-bit result, operands are canonical for
//! randomly typed slots (every signedness combination, bit 31 in use one
//! time in three), and the kernel exists exactly where `narrow_exact`
//! admits the shape. Each op's two entries — whole-chunk windows only,
//! and any window — are run apart on whole and ragged windows of a wider
//! row, whose lanes past the window must keep their values. And a kernel
//! takes a run: one call over `k` ops that share it must leave what `k`
//! one-op calls leave, in order — a later op reading an earlier one's
//! output, and mux chains of different lengths in one run.

use proptest::prelude::*;
use rteaal_dfg::lane_kernel::{
    narrow_exact, CompiledOp, Entry, Lane, LaneIsa, LaneWindow, Narrow, SlotType,
};
use rteaal_dfg::op::{canonicalize, eval_raw, DfgOp, ALL_OPS};
use rteaal_dfg::OpInst;

/// Every opcode the plan can schedule into a layer (sources excluded).
fn evaluable_ops() -> Vec<DfgOp> {
    ALL_OPS
        .iter()
        .copied()
        .filter(|op| !matches!(op, DfgOp::Input | DfgOp::RegState))
        .collect()
}

/// Lane counts: every tail length below a chunk, then one lane either
/// side of two, four and eight 8-lane chunks.
fn lane_counts() -> Vec<usize> {
    (1..=12).chain([15, 16, 17, 31, 32, 33, 64, 65]).collect()
}

/// Windows both entries run, in rows of [`ENTRY_STRIDE`] lanes: whole
/// chunks, then ragged ones either side of a chunk boundary.
fn entry_windows() -> Vec<usize> {
    vec![8, 16, 24, 64, 1, 5, 7, 9, 63]
}

/// Lanes per row under [`entry_windows`]: past the widest one.
const ENTRY_STRIDE: usize = 67;

/// The entries that may run `w`: both on whole chunks, else `Any`.
fn entries(w: LaneWindow) -> Vec<Entry> {
    match Entry::of(w) {
        Entry::Whole => vec![Entry::Whole, Entry::Any],
        Entry::Any => vec![Entry::Any],
    }
}

/// splitmix64 — dependent random values derived from one generated seed.
fn mix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Valid-by-construction arity and parameters for one opcode, randomized
/// within the op's own constraints (shift guards deliberately straddle
/// 64 to hit the out-of-range paths).
fn arity_and_params(op: DfgOp, seed: &mut u64) -> (usize, Vec<u64>) {
    match op {
        DfgOp::Const => (0, vec![mix(seed)]),
        DfgOp::Andr | DfgOp::Orr | DfgOp::Xorr => (1, vec![1 + mix(seed) % 64]),
        DfgOp::Shl | DfgOp::Shr => (1, vec![mix(seed) % 80]),
        DfgOp::Bits => {
            let lo = mix(seed) % 63;
            let hi = lo + mix(seed) % (63 - lo + 1);
            (1, vec![hi, lo])
        }
        DfgOp::Head => {
            let wa = 1 + mix(seed) % 64;
            let n = 1 + mix(seed) % wa;
            (1, vec![n, wa])
        }
        DfgOp::Cat => (2, vec![1 + mix(seed) % 64, 1 + mix(seed) % 70]),
        DfgOp::MuxChain => (1 + 2 * (mix(seed) % 17) as usize, vec![]),
        _ => (op.arity().expect("fixed arity"), vec![]),
    }
}

/// Operand slots `1..=arity` — one time in four with an operand row
/// aliased to another (`add(a, a)`, `mux(c, x, x)`, a chain whose
/// condition row is also a value row).
fn operand_slots(arity: usize, seed: &mut u64) -> Vec<u32> {
    let alias = mix(seed).is_multiple_of(4);
    (1..=arity as u32)
        .map(|slot| match mix(seed) % 3 {
            0 if alias => 1 + (mix(seed) % arity as u64) as u32,
            _ => slot,
        })
        .collect()
}

/// One op over [`operand_slots`] (output in slot 0) and a stimulus
/// matrix whose every lane is drawn from {0, 1, all-ones, < 70, the
/// same lane of the row above, uniform}.
fn case(op: DfgOp, width: u32, signed: bool, lanes: usize, seed: &mut u64) -> (OpInst, Vec<u64>) {
    let (arity, params) = arity_and_params(op, seed);
    let inst = OpInst {
        n: op.n_coord(),
        out: 0,
        ins: operand_slots(arity, seed),
        params,
        width: width as u8,
        signed,
    };
    let mut li = Vec::with_capacity((arity + 1) * lanes);
    for i in 0..(arity + 1) * lanes {
        li.push(match mix(seed) % 6 {
            0 => 0,
            1 => 1,
            2 => u64::MAX,
            3 => mix(seed) % 70,
            4 if i >= lanes => li[i - lanes],
            _ => mix(seed),
        });
    }
    (inst, li)
}

/// The golden row: `eval_raw` + `canonicalize` per active lane.
fn interpret(inst: &OpInst, li: &mut [u64], w: LaneWindow) {
    let mut ins = Vec::with_capacity(inst.ins.len());
    for lane in 0..w.active {
        ins.clear();
        ins.extend(inst.ins.iter().map(|&r| li[r as usize * w.stride + lane]));
        let raw = eval_raw(inst.op(), &inst.params, &ins);
        li[inst.out as usize * w.stride + lane] = canonicalize(raw, inst.width as u32, inst.signed);
    }
}

/// The golden `u32` rows: `eval_raw` on the operands widened by their
/// slots' signedness, canonicalized, truncated, on every lane of `w`.
fn interpret_narrow(inst: &OpInst, types: &[SlotType], li: &[u32], w: LaneWindow) -> Vec<u32> {
    let mut want = li.to_vec();
    for lane in 0..w.active {
        let ins: Vec<u64> = (inst.ins.iter())
            .map(|&r| li[r as usize * w.stride + lane].widen(types[r as usize].1))
            .collect();
        let raw = eval_raw(inst.op(), &inst.params, &ins);
        want[inst.out as usize * w.stride + lane] =
            canonicalize(raw, inst.width as u32, inst.signed) as u32;
    }
    want
}

/// Widths narrow slots are drawn from: 1 bit, small, mid, one under and
/// at the row's width.
const NARROW_WIDTHS: [u8; 6] = [1, 2, 8, 12, 31, 32];

/// A narrow-row case: `op` at a result type over operand slots of random
/// narrow types (`types[0]` is the output slot's), parameters taken from
/// the operand types where the op's own say so (reductions, `head`,
/// `cat`) and straddling 32 where they are free (shifts, `bits`), and a
/// `u32` matrix canonical for those types — one element in three with its
/// type's top bit forced on.
fn narrow_case(
    op: DfgOp,
    out: SlotType,
    lanes: usize,
    seed: &mut u64,
) -> (OpInst, Vec<SlotType>, Vec<u32>) {
    let arity = match op {
        DfgOp::MuxChain => 1 + 2 * (mix(seed) % 9) as usize,
        _ => op.arity().expect("fixed arity"),
    };
    let mut types = vec![out];
    types.extend((0..arity).map(|_| {
        let w = NARROW_WIDTHS[(mix(seed) % 6) as usize];
        (w, mix(seed).is_multiple_of(2))
    }));
    let wa = types.get(1).map_or(1, |t| t.0 as u64);
    let params = match op {
        DfgOp::Const => vec![mix(seed)],
        DfgOp::Andr | DfgOp::Orr | DfgOp::Xorr => vec![wa],
        DfgOp::Shl | DfgOp::Shr => vec![mix(seed) % 70],
        DfgOp::Bits => {
            let lo = mix(seed) % 34;
            vec![lo + mix(seed) % (34 - lo), lo]
        }
        DfgOp::Head => vec![1 + mix(seed) % wa, wa],
        DfgOp::Cat => vec![wa, types[2].0 as u64],
        _ => vec![],
    };
    let inst = OpInst {
        n: op.n_coord(),
        out: 0,
        ins: operand_slots(arity, seed),
        params,
        width: out.0,
        signed: out.1,
    };
    let mut li: Vec<u32> = Vec::with_capacity(types.len() * lanes);
    for (s, &(w, signed)) in types.iter().enumerate() {
        for _ in 0..lanes {
            let v = match mix(seed) % 6 {
                0 => 0,
                1 => 1,
                2 => u64::MAX,
                3 => mix(seed) % 40,
                4 if s > 0 => li[li.len() - lanes].widen(types[s - 1].1),
                _ => mix(seed),
            };
            let top = if mix(seed).is_multiple_of(3) {
                1 << (w - 1)
            } else {
                0
            };
            li.push(canonicalize(v | top, w as u32, signed) as u32);
        }
    }
    (inst, types, li)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    #[test]
    fn narrow_kernels_match_the_interpreter_truncated(
        op in prop::sample::select(evaluable_ops()),
        width in prop::sample::select(NARROW_WIDTHS.to_vec()),
        signed in any::<bool>(),
        lanes in prop::sample::select(lane_counts()),
        seed in any::<u64>(),
    ) {
        let mut seed = seed;
        let (inst, types, li) = narrow_case(op, (width, signed), lanes, &mut seed);
        let operands: Vec<SlotType> = inst.ins.iter().map(|&r| types[r as usize]).collect();
        let admitted = narrow_exact(op, &operands, &inst.params) != Narrow::Inexact;
        for active in [lanes, 1 + (mix(&mut seed) as usize) % lanes] {
            let w = LaneWindow { stride: lanes, active };
            // The golden row: `eval_raw` on the operands widened by
            // their slots' signedness, canonicalized, truncated.
            let mut want = li.clone();
            for lane in 0..active {
                let ins: Vec<u64> = inst
                    .ins
                    .iter()
                    .map(|&r| li[r as usize * lanes + lane].widen(types[r as usize].1))
                    .collect();
                let raw = eval_raw(op, &inst.params, &ins);
                want[lane] = canonicalize(raw, width as u32, signed) as u32;
            }
            for isa in LaneIsa::supported() {
                let compiled = CompiledOp::compile_narrow_for(&inst, isa, &operands);
                prop_assert_eq!(compiled.is_some(), admitted);
                let Some(compiled) = compiled else { continue };
                let mut got = li.clone();
                compiled.eval_lanes(&mut got, w);
                prop_assert_eq!(
                    &got,
                    &want,
                    "{:?} op {} ins {:?} on {:?} params {:?} -> {:?} lanes {} active {}",
                    isa, op, &inst.ins, &operands, &inst.params, (width, signed), lanes, active
                );
            }
        }
    }

    #[test]
    fn compiled_kernels_match_the_interpreter(
        op in prop::sample::select(evaluable_ops()),
        width in 1u32..65,
        signed in any::<bool>(),
        lanes in prop::sample::select(lane_counts()),
        seed in any::<u64>(),
    ) {
        let mut seed = seed;
        let (inst, li) = case(op, width, signed, lanes, &mut seed);
        // Full window and a ragged (early-exit) window.
        for active in [lanes, 1 + (mix(&mut seed) as usize) % lanes] {
            let w = LaneWindow { stride: lanes, active };
            let mut want = li.clone();
            interpret(&inst, &mut want, w);
            for isa in LaneIsa::supported() {
                let compiled = CompiledOp::compile_for(&inst, isa);
                prop_assert_eq!(compiled.out_slot(), 0);
                let mut got = li.clone();
                compiled.eval_lanes(&mut got, w);
                prop_assert_eq!(
                    &got,
                    &want,
                    "{:?} op {} ins {:?} width {} signed {} lanes {} active {}",
                    isa, op, &inst.ins, width, signed, lanes, active
                );
            }
        }
    }

    #[test]
    fn compiled_kernels_match_the_interpreted_lane_walk(
        op in prop::sample::select(evaluable_ops()),
        width in 1u32..65,
        signed in any::<bool>(),
        lanes in prop::sample::select(lane_counts()),
        seed in any::<u64>(),
    ) {
        // Same property, phrased against `OpInst::eval_lanes` (the
        // interpreted walk the batch golden model actually runs) and the
        // table `CompiledOp::compile` picks, so the two execution paths
        // can never drift apart unnoticed.
        let mut seed = seed;
        let (inst, li) = case(op, width, signed, lanes, &mut seed);
        let w = LaneWindow::full(lanes);
        let mut got = li.clone();
        CompiledOp::compile(&inst).eval_lanes(&mut got, w);
        let mut want = li;
        inst.eval_lanes(&mut want, w, &mut Vec::new());
        prop_assert_eq!(&got, &want, "op {} ins {:?}", op, &inst.ins);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    #[test]
    fn both_entries_match_the_interpreter(
        op in prop::sample::select(evaluable_ops()),
        width in 1u32..65,
        signed in any::<bool>(),
        active in prop::sample::select(entry_windows()),
        seed in any::<u64>(),
    ) {
        let mut seed = seed;
        let w = LaneWindow { stride: ENTRY_STRIDE, active };
        let (inst, li) = case(op, width, signed, ENTRY_STRIDE, &mut seed);
        let mut want = li.clone();
        interpret(&inst, &mut want, w);
        for isa in LaneIsa::supported() {
            let compiled = CompiledOp::compile_for(&inst, isa);
            for entry in entries(w) {
                let mut got = li.clone();
                compiled.eval_lanes_as(entry, &mut got, w);
                prop_assert_eq!(
                    &got,
                    &want,
                    "{:?} {:?} op {} ins {:?} width {} signed {} active {}",
                    isa, entry, op, &inst.ins, width, signed, active
                );
            }
        }
        // The same window over `u32` rows, where the shape is admitted.
        let out = (NARROW_WIDTHS[(width % 6) as usize], signed);
        let (inst, types, li) = narrow_case(op, out, ENTRY_STRIDE, &mut seed);
        let operands: Vec<SlotType> = inst.ins.iter().map(|&r| types[r as usize]).collect();
        let want = interpret_narrow(&inst, &types, &li, w);
        for isa in LaneIsa::supported() {
            let Some(compiled) = CompiledOp::compile_narrow_for(&inst, isa, &operands) else {
                continue;
            };
            for entry in entries(w) {
                let mut got = li.clone();
                compiled.eval_lanes_as(entry, &mut got, w);
                prop_assert_eq!(
                    &got,
                    &want,
                    "{:?} {:?} narrow op {} ins {:?} on {:?} -> {:?} active {}",
                    isa, entry, op, &inst.ins, &operands, out, active
                );
            }
        }
    }
}

/// Mux chains of 0..=16 pairs under every outcome the cascade has — no
/// condition true (the default), only the first, only the last, and
/// several at once (the lowest must win) — one pattern per lane, the
/// pattern order rotating with the lane so that every one lands in a
/// chunk and in the tail; conditions are any nonzero value, not just 1.
#[test]
fn mux_chains_select_the_lowest_true_pair() {
    let mut seed = 0xc4a1;
    for pairs in 0..=16usize {
        for lanes in lane_counts() {
            let arity = 2 * pairs + 1;
            let mut li: Vec<u64> = (0..(arity + 1) * lanes).map(|_| mix(&mut seed)).collect();
            for lane in 0..lanes {
                for k in 0..pairs {
                    let hot = match (lane + pairs) % 4 {
                        0 => false,
                        1 => k == 0,
                        2 => k == pairs - 1,
                        _ => mix(&mut seed).is_multiple_of(2),
                    };
                    let cond = &mut li[(1 + 2 * k) * lanes + lane];
                    *cond = if hot { *cond | 1 << (lane % 64) } else { 0 };
                }
            }
            let inst = OpInst {
                n: DfgOp::MuxChain.n_coord(),
                out: 0,
                ins: (1..=arity as u32).collect(),
                params: vec![],
                width: 64,
                signed: false,
            };
            for active in [lanes, lanes - lanes / 3] {
                let w = LaneWindow {
                    stride: lanes,
                    active,
                };
                let mut want = li.clone();
                interpret(&inst, &mut want, w);
                for isa in LaneIsa::supported() {
                    let mut got = li.clone();
                    CompiledOp::compile_for(&inst, isa).eval_lanes(&mut got, w);
                    assert_eq!(
                        got, want,
                        "{isa:?} pairs {pairs} lanes {lanes} active {active}"
                    );
                }
            }
        }
    }
}

/// A run of `k` ops of one opcode that share a kernel — one signedness,
/// widths and parameters per op — over slots `0..k` (op `j` writes slot
/// `j`) and `k + 3` operand rows. Every op after the first reads the one
/// before it as its first operand; the rest of its operands are any row
/// but its own output, earlier and later ops' included. Mux chains draw
/// a length per op. `u64` rows, as [`case`] draws them.
fn run_case(op: DfgOp, signed: bool, k: usize, seed: &mut u64) -> (Vec<OpInst>, Vec<u64>) {
    let slots = 2 * k + 3;
    let ops: Vec<OpInst> = (0..k)
        .map(|j| {
            let (arity, params) = arity_and_params(op, seed);
            let ins = (0..arity)
                .map(|o| match (o, j) {
                    (0, 1..) => j as u32 - 1,
                    _ => (j as u64 + 1 + mix(seed) % (slots as u64 - 1)) as u32 % slots as u32,
                })
                .collect();
            OpInst {
                n: op.n_coord(),
                out: j as u32,
                ins,
                params,
                width: (1 + mix(seed) % 64) as u8,
                signed,
            }
        })
        .collect();
    let mut li = Vec::with_capacity(slots * ENTRY_STRIDE);
    for i in 0..slots * ENTRY_STRIDE {
        li.push(match mix(seed) % 6 {
            0 => 0,
            1 => 1,
            2 => u64::MAX,
            3 => mix(seed) % 70,
            4 if i >= ENTRY_STRIDE => li[i - ENTRY_STRIDE],
            _ => mix(seed),
        });
    }
    (ops, li)
}

/// [`run_case`] in `u32` rows: every slot of one narrow type `ty`, so
/// that the ops a narrow table admits share a kernel, and the matrix
/// canonical for it, one element in three with the type's top bit on.
fn narrow_run_case(op: DfgOp, ty: SlotType, k: usize, seed: &mut u64) -> (Vec<OpInst>, Vec<u32>) {
    let (mut ops, wide) = run_case(op, ty.1, k, seed);
    let w = u64::from(ty.0);
    for inst in &mut ops {
        inst.width = ty.0;
        inst.params = match op {
            DfgOp::Andr | DfgOp::Orr | DfgOp::Xorr => vec![w],
            DfgOp::Shl | DfgOp::Shr => vec![mix(seed) % 70],
            DfgOp::Bits => {
                let lo = mix(seed) % 34;
                vec![lo + mix(seed) % (34 - lo), lo]
            }
            DfgOp::Head => vec![1 + mix(seed) % w, w],
            DfgOp::Cat => vec![w, w],
            _ => std::mem::take(&mut inst.params),
        };
    }
    let li = (wide.iter().enumerate())
        .map(|(i, &v)| {
            let top = if i % 3 == 0 { 1 << (ty.0 - 1) } else { 0 };
            canonicalize(v | top, ty.0 as u32, ty.1) as u32
        })
        .collect();
    (ops, li)
}

/// Asserts that, through every entry that may run `w`, one call over `run`
/// leaves `li` as one call per op, in order, leaves it.
fn assert_one_call_per_run<T: Lane>(run: &[CompiledOp], li: &[T], w: LaneWindow, what: &str) {
    for entry in entries(w) {
        let mut one_by_one = li.to_vec();
        for op in run {
            op.eval_lanes_as(entry, &mut one_by_one, w);
        }
        let mut got = li.to_vec();
        CompiledOp::eval_run_as(run, entry, &mut got, w);
        assert_eq!(got, one_by_one, "{what} {entry:?} active {}", w.active);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    #[test]
    fn one_call_over_a_run_equals_one_call_per_op(
        op in prop::sample::select(evaluable_ops()),
        signed in any::<bool>(),
        k in 2usize..7,
        active in prop::sample::select(entry_windows()),
        seed in any::<u64>(),
    ) {
        let mut seed = seed;
        let w = LaneWindow { stride: ENTRY_STRIDE, active };
        let (ops, li) = run_case(op, signed, k, &mut seed);
        // The run is also the interpreter's ops one after the other.
        let mut want = li.clone();
        for inst in &ops {
            interpret(inst, &mut want, w);
        }
        for isa in LaneIsa::supported() {
            let run: Vec<CompiledOp> = ops.iter().map(|i| CompiledOp::compile_for(i, isa)).collect();
            let what = format!("{isa:?} {op} ops {ops:?}");
            assert_one_call_per_run(&run, &li, w, &what);
            let mut got = li.clone();
            CompiledOp::eval_run_as(&run, Entry::of(w), &mut got, w);
            prop_assert_eq!(&got, &want, "{} against the interpreter", what);
        }
        // The same in `u32` rows: the ops a narrow table admits.
        let ty = (NARROW_WIDTHS[(mix(&mut seed) % 6) as usize], signed);
        let (ops, li) = narrow_run_case(op, ty, k, &mut seed);
        for isa in LaneIsa::supported() {
            let run: Vec<CompiledOp> = (ops.iter())
                .filter_map(|i| CompiledOp::compile_narrow_for(i, isa, &vec![ty; i.ins.len()]))
                .collect();
            let what = format!("{isa:?} narrow {op} on {ty:?} ops {ops:?}");
            assert_one_call_per_run(&run, &li, w, &what);
        }
    }
}

/// One run of mux chains of every length from 1 to 17 operands, each
/// after the first taking the previous chain's output as its first
/// condition: one call over the run leaves what one call per chain
/// leaves, on both entries, both lane types, both signednesses and every
/// table.
#[test]
fn a_run_of_mux_chains_of_different_lengths_is_one_call() {
    let mut seed = 0x5eed;
    let wide: Vec<u64> = (0..29 * ENTRY_STRIDE)
        .map(|_| match mix(&mut seed) % 3 {
            0 => 0,
            _ => mix(&mut seed) & 0xffff_ffff,
        })
        .collect();
    let narrow: Vec<u32> = wide.iter().map(|&v| v as u32).collect();
    for signed in [false, true] {
        let chains: Vec<OpInst> = (0..9u32)
            .map(|j| OpInst {
                n: DfgOp::MuxChain.n_coord(),
                out: j,
                ins: (0..2 * j + 1)
                    .map(|o| match (o, j) {
                        (0, 1..) => j - 1,
                        _ => 9 + (mix(&mut seed) % 20) as u32,
                    })
                    .collect(),
                params: vec![],
                width: 32,
                signed,
            })
            .collect();
        for isa in LaneIsa::supported() {
            let run: Vec<CompiledOp> = (chains.iter())
                .map(|c| CompiledOp::compile_for(c, isa))
                .collect();
            let narrow_run: Vec<CompiledOp> = (chains.iter())
                .map(|c| {
                    let types = vec![(32, false); c.ins.len()];
                    CompiledOp::compile_narrow_for(c, isa, &types).expect("a chain is exact")
                })
                .collect();
            for active in entry_windows() {
                let w = LaneWindow {
                    stride: ENTRY_STRIDE,
                    active,
                };
                let what = format!("{isa:?} chains signed {signed}");
                assert_one_call_per_run(&run, &wide, w, &format!("{what}, u64 rows"));
                assert_one_call_per_run(&narrow_run, &narrow, w, &format!("{what}, u32 rows"));
            }
        }
    }
}
