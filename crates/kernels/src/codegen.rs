//! C++ kernel source emission.
//!
//! The paper's compiler generates a C++ simulation kernel and compiles it
//! with clang (Figure 14). This module emits the equivalent C++ source
//! text for each kernel configuration so the repository has a concrete
//! artifact for "generated code": rolled kernels emit a fixed interpreter
//! whose size is independent of the design; SU/TI emit one statement per
//! operation, growing linearly — the Table 4 contrast in source form.

use crate::config::{KernelConfig, KernelKind};
use rteaal_dfg::op::{DfgOp, NUM_OPCODES};
use rteaal_dfg::SimPlan;
use std::fmt::Write as _;

/// Emits the C++ source for a kernel configuration over a plan.
pub fn emit_cpp(plan: &SimPlan, config: KernelConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// RTeAAL Sim generated kernel: {} for design {}",
        config, plan.name
    );
    let _ = writeln!(out, "#include <cstdint>");
    let _ = writeln!(out, "extern uint64_t LI[{}];", plan.num_slots);
    if config.kind.is_unrolled() {
        emit_unrolled(&mut out, plan, config);
    } else {
        emit_rolled(&mut out, plan, config);
    }
    out
}

fn cpp_expr(op: DfgOp, args: &[String], params: &[u64]) -> String {
    use DfgOp::*;
    match op {
        Add => format!("{} + {}", args[0], args[1]),
        Sub => format!("{} - {}", args[0], args[1]),
        Mul => format!("{} * {}", args[0], args[1]),
        Divu | Divs => format!("{} ? {} / {} : 0", args[1], args[0], args[1]),
        Remu | Rems => format!("{} ? {} % {} : 0", args[1], args[0], args[1]),
        And => format!("{} & {}", args[0], args[1]),
        Or => format!("{} | {}", args[0], args[1]),
        Xor => format!("{} ^ {}", args[0], args[1]),
        Ltu | Lts => format!("{} < {}", args[0], args[1]),
        Leu | Les => format!("{} <= {}", args[0], args[1]),
        Gtu | Gts => format!("{} > {}", args[0], args[1]),
        Geu | Ges => format!("{} >= {}", args[0], args[1]),
        Eq => format!("{} == {}", args[0], args[1]),
        Neq => format!("{} != {}", args[0], args[1]),
        Dshl => format!("{} << {}", args[0], args[1]),
        Dshr => format!("{} >> {}", args[0], args[1]),
        Cat => format!("({} << {}) | {}", args[0], params[1], args[1]),
        Not => format!("~{}", args[0]),
        Neg => format!("-{}", args[0]),
        Andr => format!(
            "{} == 0x{:x}",
            args[0],
            rteaal_firrtl::ty::mask(params[0] as u32)
        ),
        Orr => format!("{} != 0", args[0]),
        Xorr => format!("__builtin_parityll({})", args[0]),
        Shl => format!("{} << {}", args[0], params[0]),
        Shr => format!("{} >> {}", args[0], params[0]),
        Bits => format!(
            "({} >> {}) & 0x{:x}",
            args[0],
            params[1],
            rteaal_firrtl::ty::mask((params[0] - params[1] + 1) as u32)
        ),
        Head => format!("{} >> {}", args[0], params[1] - params[0]),
        Resize | Identity => args[0].clone(),
        Mux => format!("{} ? {} : {}", args[0], args[1], args[2]),
        ValidIf => format!("{} ? {} : 0", args[0], args[1]),
        MuxChain => {
            let mut s = String::new();
            let pairs = (args.len() - 1) / 2;
            for k in 0..pairs {
                let _ = write!(s, "{} ? {} : ", args[2 * k], args[2 * k + 1]);
            }
            s + &args[args.len() - 1]
        }
        Input | RegState | Const => unreachable!("sources are not emitted"),
    }
}

fn emit_rolled(out: &mut String, _plan: &SimPlan, config: KernelConfig) {
    let swizzled = config.kind.is_swizzled();
    let _ = writeln!(
        out,
        "// rolled kernel: traverses the OIM arrays loaded from JSON"
    );
    let _ = writeln!(
        out,
        "extern const uint32_t OIM_S[]; extern const uint16_t OIM_N[];"
    );
    let _ = writeln!(
        out,
        "extern const uint32_t OIM_R[]; extern const uint32_t OIM_CNT[];"
    );
    let _ = writeln!(out, "void cycle() {{");
    if swizzled {
        // One specialized loop per op type (Algorithm 4).
        let _ = writeln!(
            out,
            "  const uint32_t* s = OIM_S; const uint32_t* r = OIM_R;"
        );
        let _ = writeln!(out, "  for (int i = 0; i < NUM_LAYERS; i++) {{");
        for n in 0..NUM_OPCODES as u16 {
            let op = DfgOp::from_n_coord(n).expect("every n below NUM_OPCODES is an opcode");
            if matches!(op, DfgOp::Input | DfgOp::RegState | DfgOp::Const) {
                continue;
            }
            let arity = op.arity().unwrap_or(3);
            let args: Vec<String> = (0..arity).map(|o| format!("LI[r[{o}]]")).collect();
            let params = [1u64, 1u64];
            let _ = writeln!(
                out,
                "    for (uint32_t k = 0; k < OIM_CNT[i*{NUM_OPCODES}+{n}]; k++) {{ LI[*s++] = {}; r += {arity}; }} // {op}",
                cpp_expr(op, &args, &params)
            );
        }
        let _ = writeln!(out, "  }}");
    } else {
        // Algorithm 3: one case statement (here elided to a dispatch stub).
        let _ = writeln!(
            out,
            "  // [I, S, N, O, R] traversal with op_r[n]/op_u[n] dispatch"
        );
        let _ = writeln!(out, "  for (int i = 0; i < NUM_LAYERS; i++)");
        let _ = writeln!(out, "    for (uint32_t k = 0; k < OIM_CNT[i]; k++)");
        let _ = writeln!(out, "      dispatch(OIM_N[k], OIM_S, OIM_R);");
        for n in 0..NUM_OPCODES as u16 {
            let op = DfgOp::from_n_coord(n).expect("every n below NUM_OPCODES is an opcode");
            if matches!(op, DfgOp::Input | DfgOp::RegState | DfgOp::Const) {
                continue;
            }
            let arity = op.arity().unwrap_or(3);
            let args: Vec<String> = (0..arity).map(|o| format!("in{o}")).collect();
            let _ = writeln!(
                out,
                "  // case {n}: {op}: out = {};",
                cpp_expr(op, &args, &[1, 1])
            );
        }
    }
    let _ = writeln!(out, "}}");
}

fn emit_unrolled(out: &mut String, plan: &SimPlan, config: KernelConfig) {
    let _ = writeln!(out, "// straight-line kernel: the OIM is the code");
    let _ = writeln!(out, "void cycle() {{");
    let use_vars = config.kind == KernelKind::Ti;
    for layer in &plan.layers {
        for op in layer {
            let args: Vec<String> = op
                .ins
                .iter()
                .map(|&r| {
                    let (c_lo, c_hi) = plan.const_slots;
                    if use_vars && r >= c_lo && r < c_hi {
                        format!("0x{:x}ull", plan.init_values[r as usize])
                    } else if use_vars {
                        format!("v{r}")
                    } else {
                        format!("LI[{r}]")
                    }
                })
                .collect();
            let mut params = [0u64; 2];
            for (k, &p) in op.params.iter().take(2).enumerate() {
                params[k] = p;
            }
            let expr = cpp_expr(op.op(), &args, &params);
            let mask = rteaal_firrtl::ty::mask(op.width as u32);
            if use_vars {
                let _ = writeln!(out, "  uint64_t v{} = ({expr}) & 0x{mask:x};", op.out);
            } else {
                let _ = writeln!(out, "  LI[{}] = ({expr}) & 0x{mask:x};", op.out);
            }
        }
    }
    if use_vars {
        for &(dst, src) in &plan.commits {
            let _ = writeln!(out, "  LI[{dst}] = v{src};");
        }
    } else {
        for &(dst, src) in &plan.commits {
            let _ = writeln!(out, "  LI[{dst}] = LI[{src}];");
        }
    }
    let _ = writeln!(out, "}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rteaal_dfg::plan::plan;
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    fn plan_of(extra_regs: usize) -> SimPlan {
        let mut src = String::from(
            "\
circuit G :
  module G :
    input clock : Clock
    input x : UInt<8>
    output out : UInt<8>
",
        );
        for i in 0..extra_regs {
            src.push_str(&format!("    reg r{i} : UInt<8>, clock\n"));
        }
        src.push_str("    r0 <= tail(add(r0, xor(x, UInt<8>(3))), 1)\n");
        for i in 1..extra_regs {
            src.push_str(&format!("    r{i} <= xor(r{}, x)\n", i - 1));
        }
        src.push_str(&format!("    out <= r{}\n", extra_regs - 1));
        plan(&rteaal_dfg::build(&lower_typed(&parse(&src).unwrap()).unwrap()).unwrap())
    }

    #[test]
    fn rolled_source_is_design_independent() {
        let small = plan_of(4);
        let big = plan_of(64);
        let cfg = KernelConfig::new(KernelKind::Psu);
        assert_eq!(
            emit_cpp(&small, cfg).lines().count(),
            emit_cpp(&big, cfg).lines().count()
        );
    }

    #[test]
    fn unrolled_source_grows_with_design() {
        let small = plan_of(4);
        let big = plan_of(64);
        let cfg = KernelConfig::new(KernelKind::Su);
        let s = emit_cpp(&small, cfg);
        let b = emit_cpp(&big, cfg);
        assert!(b.len() > 4 * s.len());
        assert!(s.contains("LI["));
    }

    #[test]
    fn ti_source_uses_variables_and_immediates() {
        let p = plan_of(4);
        let src = emit_cpp(&p, KernelConfig::new(KernelKind::Ti));
        assert!(src.contains("uint64_t v"), "{src}");
        assert!(src.contains("ull"), "constants should inline:\n{src}");
    }

    #[test]
    fn swizzled_rolled_source_has_per_type_loops() {
        let p = plan_of(4);
        let src = emit_cpp(&p, KernelConfig::new(KernelKind::Nu));
        assert!(src.contains("// add"));
        assert!(src.contains("// xor"));
        assert!(src.contains("OIM_CNT"));
    }
}
