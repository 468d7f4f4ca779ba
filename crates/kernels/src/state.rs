//! Shared runtime state for all kernels: the `LI` slot array, input
//! binding, register commit, and output reads — plus the two helpers
//! the scalar executors evaluate an operation through: operand staging
//! ([`eval_staged`]: RU/OU, SU/TI and both baselines; the grouped walk of
//! NU/PSU/IU reads operands straight from `LI`) and result
//! canonicalization ([`Canon`], or its mask alone where the executor
//! knows at compile time that the shift pair is a no-op).

use crate::profile::{li_addr, Probe, CODE_BASE};
use rteaal_dfg::op::{canonicalize, eval_raw, DfgOp};
use rteaal_dfg::SimPlan;
use rteaal_firrtl::ty::mask;

/// Canonicalization of one result type as a `(mask, shift)` pair:
/// [`canonicalize`] without its branches on width and signedness, built
/// once per op at kernel compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Canon {
    pub(crate) mask: u64,
    /// `64 - width` for a signed type narrower than 64 bits, else 0.
    pub(crate) shift: u32,
}

impl Canon {
    /// The pair for a `width`-bit result of the given signedness.
    pub fn new(width: u32, signed: bool) -> Self {
        Canon {
            mask: mask(width),
            shift: if signed && (1..64).contains(&width) {
                64 - width
            } else {
                0
            },
        }
    }

    /// `canonicalize(raw, width, signed)`: mask, then sign-extend by a
    /// shift pair (a no-op at shift 0).
    #[inline(always)]
    pub fn apply(self, raw: u64) -> u64 {
        (((raw & self.mask) << self.shift) as i64 >> self.shift) as u64
    }

    /// Whether [`Canon::apply`] is the mask alone (shift 0: an unsigned
    /// or a 64-bit type), so an executor can pick [`Canon::apply_mask`]
    /// for the op when it compiles it.
    pub fn is_mask_only(self) -> bool {
        self.shift == 0
    }

    /// [`Canon::apply`] for a pair whose shift is 0: the mask alone.
    #[inline(always)]
    pub fn apply_mask(self, raw: u64) -> u64 {
        raw & self.mask
    }
}

/// Largest operand count of a fixed-arity op (`mux`).
pub(crate) const MAX_FIXED_ARITY: usize = 3;

/// Gathers `arity` operands through `fetch` and evaluates `op` on them.
/// Fixed-arity ops stage on the stack; only a longer mux chain uses the
/// caller's `scratch` (which must hold `arity` values), so no step path
/// allocates. [`eval_raw`] stays the one definition of op semantics.
#[inline(always)]
pub fn eval_staged(
    op: DfgOp,
    params: &[u64],
    arity: usize,
    scratch: &mut [u64],
    mut fetch: impl FnMut(usize) -> u64,
) -> u64 {
    let mut stack = [0u64; MAX_FIXED_ARITY];
    let ins = if arity <= MAX_FIXED_ARITY {
        &mut stack[..arity]
    } else {
        &mut scratch[..arity]
    };
    for (o, v) in ins.iter_mut().enumerate() {
        *v = fetch(o);
    }
    eval_raw(op, params, ins)
}

/// The mutable simulation state a kernel executes against.
#[derive(Debug, Clone)]
pub struct LiState {
    /// The `LI` slot array (canonical values).
    pub li: Vec<u64>,
    init: Vec<u64>,
    input_slots: Vec<u32>,
    input_types: Vec<(u8, bool)>,
    output_slots: Vec<(String, u32)>,
    commits: Vec<(u32, u32)>,
    /// One past the highest slot `commits` names: `commit` asserts `li`
    /// holds that many, then reads and writes it unchecked.
    commit_span: usize,
    commit_buf: Vec<u64>,
    /// Operand staging for variable-arity ops (sized to the plan's
    /// widest op, so `step` never allocates).
    pub(crate) scratch: Vec<u64>,
    cycle: u64,
}

impl LiState {
    /// Initializes state from a plan (registers at power-on values,
    /// constants materialized).
    pub fn new(plan: &SimPlan) -> Self {
        let ops = plan.layers.iter().flatten();
        let widest_op = ops.map(|op| op.ins.len()).max().unwrap_or(0);
        LiState {
            li: plan.init_values.clone(),
            init: plan.init_values.clone(),
            input_slots: plan.input_slots.clone(),
            input_types: plan.input_types.clone(),
            output_slots: plan.output_slots.clone(),
            commits: plan.commits.clone(),
            commit_span: plan
                .commits
                .iter()
                .map(|&(dst, src)| dst.max(src) as usize + 1)
                .max()
                .unwrap_or(0),
            commit_buf: vec![0; plan.commits.len()],
            scratch: vec![0; widest_op],
            cycle: 0,
        }
    }

    /// Resets registers and constants to their initial values.
    pub(crate) fn reset(&mut self) {
        self.li.copy_from_slice(&self.init);
        self.cycle = 0;
    }

    /// Drives input port `idx` (canonicalized to the port type).
    pub(crate) fn set_input(&mut self, idx: usize, value: u64) {
        let (w, signed) = self.input_types[idx];
        self.li[self.input_slots[idx] as usize] = canonicalize(value, w as u32, signed);
    }

    /// Output value by port index.
    pub(crate) fn output(&self, idx: usize) -> u64 {
        self.li[self.output_slots[idx].1 as usize]
    }

    /// The slot of the output port `name`.
    pub(crate) fn output_slot(&self, name: &str) -> Option<u32> {
        self.output_slots
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    /// Reads an arbitrary slot (probe / waveform path).
    pub(crate) fn slot(&self, s: u32) -> u64 {
        self.li[s as usize]
    }

    /// Writes a register slot directly (DMI poke). Slots carry no type:
    /// `value` must already be canonical for the signal, which the
    /// `rteaal-core` front doors ensure.
    pub(crate) fn poke_slot(&mut self, s: u32, value: u64) {
        self.li[s as usize] = value;
    }

    /// Cycles completed.
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Two-phase register commit — the final `LI_{i+1}` Einsum of
    /// Cascade 1, i.e. the "write LO back to LI" loop of Algorithm 3.
    ///
    /// `unroll` amortizes the loop-overhead accounting (PSU unrolls this
    /// loop 24×, §5.2); `code_addr` locates the loop in the code-space
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if `li` was shortened below a slot the plan commits.
    #[inline]
    pub(crate) fn commit<P: Probe>(&mut self, probe: &mut P, unroll: usize, code_addr: u64) {
        assert!(
            self.li.len() >= self.commit_span,
            "`li` holds {} slots; the commit list addresses {}",
            self.li.len(),
            self.commit_span
        );
        let unroll = unroll.max(1);
        let pairs = self.commit_buf.iter_mut().zip(&self.commits);
        for (k, (buf, &(_, src))) in pairs.enumerate() {
            probe.load(li_addr(src));
            // SAFETY: `src` is below `commit_span`, and `li` holds that
            // many slots (asserted above).
            *buf = unsafe { *self.li.get_unchecked(src as usize) };
            if k % unroll == 0 {
                probe.branch(code_addr);
            }
        }
        for (k, (&v, &(dst, _))) in self.commit_buf.iter().zip(&self.commits).enumerate() {
            probe.store(li_addr(dst));
            // SAFETY: as for the sources: `dst` is below `commit_span`.
            unsafe { *self.li.get_unchecked_mut(dst as usize) = v };
            if k % unroll == 0 {
                probe.branch(code_addr + 64);
            }
        }
        self.cycle += 1;
    }

    /// Default commit code address (shared loop in the interpreter region).
    pub(crate) fn commit_code_addr() -> u64 {
        CODE_BASE + 0x200
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::NoProbe;
    use rteaal_dfg::plan::plan;
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    fn state_of(src: &str) -> (SimPlan, LiState) {
        let g = rteaal_dfg::build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap();
        let p = plan(&g);
        let s = LiState::new(&p);
        (p, s)
    }

    const SWAP: &str = "\
circuit S :
  module S :
    input clock : Clock
    output oa : UInt<4>
    output ob : UInt<4>
    reg a : UInt<4>, clock
    reg b : UInt<4>, clock
    a <= b
    b <= a
    oa <= a
    ob <= b
";

    #[test]
    fn commit_is_two_phase() {
        let (p, mut st) = state_of(SWAP);
        // Registers occupy the first slots; poke them directly.
        st.poke_slot(p.commits[0].0, 3);
        st.poke_slot(p.commits[1].0, 9);
        st.commit(&mut NoProbe, 1, LiState::commit_code_addr());
        let output = |name: &str| st.output_slot(name).map(|s| st.slot(s));
        assert_eq!(output("oa"), Some(9));
        assert_eq!(output("ob"), Some(3));
        assert_eq!(st.output_slot("ghost"), None);
        assert_eq!(st.cycle(), 1);
    }

    #[test]
    #[should_panic(expected = "`li` holds 1 slots; the commit list addresses 2")]
    fn commit_refuses_a_truncated_li() {
        let (_, mut st) = state_of(SWAP);
        st.li.truncate(1);
        st.commit(&mut NoProbe, 1, LiState::commit_code_addr());
    }

    #[test]
    fn inputs_canonicalized() {
        let (_, mut st) = state_of(
            "\
circuit I :
  module I :
    input x : UInt<4>
    output o : UInt<4>
    o <= x
",
        );
        st.set_input(0, 0xfff);
        // Input and output share the slot here (pure wire).
        assert_eq!(st.output(0), 0xf);
    }

    #[test]
    fn canon_pair_is_canonicalize() {
        for width in 0..=70u32 {
            for signed in [false, true] {
                let canon = Canon::new(width, signed);
                for raw in [
                    0,
                    1,
                    0x5a5a_5a5a_5a5a_5a5a,
                    u64::MAX,
                    1 << 63,
                    (1 << 31) - 1,
                ] {
                    for raw in [raw, raw >> (64 - width.clamp(1, 64)), !raw] {
                        assert_eq!(
                            canon.apply(raw),
                            canonicalize(raw, width, signed),
                            "width {width} signed {signed} raw {raw:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reset_restores_registers() {
        let (p, mut st) = state_of(SWAP);
        st.poke_slot(p.commits[0].0, 7);
        st.reset();
        assert_eq!(st.slot(p.commits[0].0), 0);
        assert_eq!(st.cycle(), 0);
    }
}
