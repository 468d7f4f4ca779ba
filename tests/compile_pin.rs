//! The compiler's output, pinned. The front end (text → `Graph`) may get
//! faster; what it hands to the kernels may not move: node order, dead
//! constants (which `plan()` gives slots), probe names, `PassStats`.
//!
//! The constants below were recorded at 22e41eb, before the single-pass
//! parser, the moving lowering and the dense-id graph passes landed. A
//! failure here means the compiler's output changed — regenerate them only
//! in a PR whose purpose is to change the output, and say so there.

use rteaal_core::{Compiled, Compiler};
use rteaal_designs::{rocket, sha3, ChipConfig, Workload};
use rteaal_dfg::passes::PassStats;
use rteaal_dfg::plan::PlanStats;
use rteaal_firrtl::Circuit;
use rteaal_kernels::{KernelConfig, KernelKind};

/// 64-bit FNV-1a.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What one compile is pinned by.
#[derive(Debug, PartialEq)]
struct Pin {
    /// Digest of `Compiled::oim_json()`.
    oim: u64,
    /// Digest of the whole plan as JSON: the OIM leaves out the probe
    /// names, the initial values and the constant slots.
    plan: u64,
    passes: PassStats,
    stats: PlanStats,
}

fn compiler() -> Compiler {
    Compiler::new(KernelConfig::new(KernelKind::Psu))
}

/// Compiles from text, the way the benchmark's set-up and a `register`
/// request do, so the parser is inside the pin.
fn pin_of(compiler: &Compiler, circuit: &Circuit) -> Pin {
    pin_of_text(compiler, &rteaal_firrtl::parser::emit(circuit))
}

fn pin_of_text(compiler: &Compiler, text: &str) -> Pin {
    let compiled: Compiled = compiler.compile_str(text).expect("pinned designs compile");
    Pin {
        oim: digest(&compiled.oim_json().expect("an OIM serializes")),
        plan: digest(&serde_json::to_string(&compiled.plan).expect("a plan serializes")),
        passes: compiled.pass_stats,
        stats: compiled.plan_stats(),
    }
}

#[test]
fn the_rv32i_core_compiles_to_the_recorded_plan() {
    assert_eq!(
        pin_of(&compiler(), &Workload::param_sum_circuit()),
        Pin {
            oim: 10705396467304356397,
            plan: 5547253117596266837,
            passes: PassStats {
                const_folded: 0,
                copies_propagated: 13,
                truncs_fused: 8,
                cse_merged: 0,
                dead_removed: 57,
                chains_fused: 12,
                muxes_absorbed: 36,
            },
            stats: PlanStats {
                effectual_ops: 274,
                identity_ops: 3585,
                layers: 22,
                slots: 389,
            },
        }
    );
}

#[test]
fn the_rv32i_core_under_waveforms_compiles_to_the_recorded_plan() {
    assert_eq!(
        pin_of(&compiler().with_waveforms(), &Workload::param_sum_circuit()),
        Pin {
            oim: 9047655866125730559,
            plan: 9493701668398735741,
            passes: PassStats::default(),
            stats: PlanStats {
                effectual_ops: 331,
                identity_ops: 4213,
                layers: 27,
                slots: 446,
            },
        }
    );
}

#[test]
fn sha3_compiles_to_the_recorded_plan() {
    assert_eq!(
        pin_of(&compiler(), &sha3()),
        Pin {
            oim: 17293282366700623841,
            plan: 13613396066816928609,
            passes: PassStats {
                const_folded: 0,
                copies_propagated: 0,
                truncs_fused: 1,
                cse_merged: 0,
                dead_removed: 9,
                chains_fused: 3,
                muxes_absorbed: 8,
            },
            stats: PlanStats {
                effectual_ops: 309,
                identity_ops: 1704,
                layers: 15,
                slots: 381,
            },
        }
    );
}

#[test]
fn the_benchmark_chip_compiles_to_the_recorded_plan() {
    assert_eq!(
        pin_of(&compiler(), &rocket(ChipConfig::new(4).with_scale(0.5))),
        Pin {
            oim: 12610889516509386593,
            plan: 11140837696304239881,
            passes: PassStats {
                const_folded: 0,
                copies_propagated: 2400,
                truncs_fused: 3605,
                cse_merged: 0,
                dead_removed: 9841,
                chains_fused: 1284,
                muxes_absorbed: 3836,
            },
            stats: PlanStats {
                effectual_ops: 19776,
                identity_ops: 13207041,
                layers: 1217,
                slots: 20586,
            },
        }
    );
}

/// What the corpus leaves out (its `const_folded` and `cse_merged` are 0
/// everywhere): folded constants and the dead ones they leave behind,
/// merged duplicates, a memory, two instances of one module, nested
/// `when`/`else`, conditionally driven wires, signed values.
const KITCHEN_SINK: &str = "\
circuit Sink :
  module Leaf :
    input x : UInt<8>
    input s : SInt<8>
    output y : UInt<8>
    output z : SInt<9>
    node k = tail(add(UInt<8>(3), UInt<8>(4)), 1)
    y <= tail(add(x, k), 1)
    z <= add(s, SInt<4>(-3))
  module Sink :
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    input c : UInt<1>
    input d : UInt<1>
    input sa : SInt<8>
    output o0 : UInt<8>
    output o1 : UInt<9>
    output o2 : UInt<9>
    output o3 : SInt<9>
    output o4 : UInt<8>
    output o5 : UInt<8>
    output o6 : UInt<8>
    output o7 : UInt<4>
    inst l0 of Leaf
    inst l1 of Leaf
    mem m : UInt<8>[3]
    regreset r : UInt<8>, clock, reset, UInt<8>(0x2a)
    reg q : UInt<8>, clock
    wire w : UInt<8>
    wire v : UInt<8>
    wire u : UInt<8>
    l0.x <= a
    l0.s <= sa
    l1.x <= l0.y
    l1.s <= asSInt(b)
    m.raddr <= bits(a, 1, 0)
    m.waddr <= bits(b, 1, 0)
    m.wdata <= r
    m.wen <= c
    w <= a
    when c :
      r <= tail(add(r, UInt<8>(1)), 1)
      v <= a
      when d :
        w <= b
      else :
        q <= l1.y
    else :
      r <= mux(UInt<1>(1), a, b)
      u <= not(b)
      skip
    o0 <= mux(c, a, mux(d, b, mux(reset, r, mux(eq(a, b), q, w))))
    o1 <= add(a, b)
    o2 <= add(a, pad(b, 8))
    o3 <= l1.z
    o4 <= m.rdata
    o5 <= validif(UInt<1>(0), a)
    o6 <= xor(v, u)
    o7 <= tail(mux(c, mul(a, UInt<8>(0)), shl(UInt<4>(5), 4)), 12)
";

#[test]
fn the_kitchen_sink_compiles_to_the_recorded_plan() {
    assert_eq!(
        pin_of_text(&compiler(), KITCHEN_SINK),
        Pin {
            oim: 4779463750662619013,
            plan: 8082335587774367146,
            passes: PassStats {
                const_folded: 5,
                copies_propagated: 1,
                truncs_fused: 4,
                cse_merged: 1,
                dead_removed: 12,
                chains_fused: 1,
                muxes_absorbed: 4,
            },
            stats: PlanStats {
                effectual_ops: 36,
                identity_ops: 84,
                layers: 4,
                slots: 62,
            },
        }
    );
    assert_eq!(
        pin_of_text(&compiler().with_waveforms(), KITCHEN_SINK),
        Pin {
            oim: 16600561336146961156,
            plan: 11704608108849583587,
            passes: PassStats::default(),
            stats: PlanStats {
                effectual_ops: 51,
                identity_ops: 166,
                layers: 8,
                slots: 74,
            },
        }
    );
}

/// A design whose one output is `expr` over its input `a`.
fn with_output(expr: &str) -> String {
    format!("circuit D :\n  module D :\n    input a : UInt<8>\n    output o : UInt<8>\n    o <= {expr}\n")
}

/// `o <= not(not(…a…))`, `depth` deep.
fn nested(depth: usize) -> String {
    with_output(&format!("{}a{}", "not(".repeat(depth), ")".repeat(depth)))
}

/// Compiles on a spawned thread with the default 2 MiB stack, as a
/// `register` request does on its connection thread: the parser, type
/// inference, lowering, graph construction and the drop of an expression
/// all recurse on nesting depth.
fn compile_on_a_default_stack(text: String) -> Result<Compiled, String> {
    std::thread::spawn(move || compiler().compile_str(&text).map_err(|e| e.to_string()))
        .join()
        .expect("a hostile source is an error, not a panic")
}

#[test]
fn nesting_is_bounded_where_a_default_stack_still_holds_it() {
    use rteaal_firrtl::parser::MAX_EXPR_DEPTH;
    let mut at_bound =
        compile_on_a_default_stack(nested(MAX_EXPR_DEPTH)).expect("at the bound compiles");
    at_bound.kernel.set_input(0, 0x5a);
    at_bound.kernel.step();
    assert_eq!(at_bound.kernel.output(0), 0x5a, "an even number of nots");
    for depth in [MAX_EXPR_DEPTH + 1, 100_000] {
        let err = compile_on_a_default_stack(nested(depth)).unwrap_err();
        assert!(err.contains("parse error at line 5"), "{err}");
        assert!(err.contains("nests deeper"), "{err}");
    }
}

#[test]
fn hostile_literals_and_parentheses_are_parse_errors() {
    for (expr, what) in [
        ("tail(UInt<200>(1), 56)", "width 200 out of range 1..=64"),
        ("or(a, UInt<0>(0))", "width 0 out of range 1..=64"),
        ("asUInt(SInt<65>(-1))", "width 65 out of range 1..=64"),
        (
            "or(a, UInt<8>(1))))))",
            "unexpected text after the expression at `))))`",
        ),
        ("or(a, UInt<8>(1)", "expected `)` at the end of the line"),
        ("or(a, UInt<8>(1", "literal: expected `)`"),
        ("or(a, a) a", "unexpected text after the expression at `a`"),
        ("or(a, )", "cannot parse expression: stopped at `)`"),
    ] {
        let err = compile_on_a_default_stack(with_output(expr)).unwrap_err();
        assert!(err.contains("parse error at line 5"), "{expr}: {err}");
        assert!(err.contains(what), "{expr}: {err}");
    }
}

/// `node n_k = not(n_{k-1})`, `length` lines, and `o <= n_{length-1}`:
/// a chain as deep as it is long, every link of it named.
fn chain(length: usize) -> String {
    let mut text = String::from("circuit C :\n  module C :\n    input a : UInt<8>\n    output o : UInt<8>\n    node n0 = not(a)\n");
    for k in 1..length {
        text += &format!("    node n{k} = not(n{})\n", k - 1);
    }
    text + &format!("    o <= n{}\n", length - 1)
}

#[test]
fn a_chain_of_named_nodes_compiles_on_a_default_stack() {
    // Each link is a statement of its own, so no parse nests; the graph
    // is built from the output down through every link.
    let mut compiled = compile_on_a_default_stack(chain(100_000)).expect("a deep chain compiles");
    assert_eq!(compiled.plan_stats().effectual_ops, 100_000);
    compiled.kernel.set_input(0, 0x5a);
    compiled.kernel.step();
    assert_eq!(compiled.kernel.output(0), 0x5a, "an even number of nots");
}
