//! Property-based tests over the compilation pipeline: random circuits
//! must survive parse→emit round trips, optimization must preserve
//! cycle-accurate behavior, every kernel must match the reference
//! interpreter, and the OIM encodings must round-trip through JSON. The
//! front end's own generator (two modules, instances, a memory, nested
//! `when`s, every primitive op) is compiled from text end to end.

// Only the generator's circuits are used here, not its respelling.
#[allow(dead_code)]
#[path = "../crates/firrtl/tests/gen/mod.rs"]
mod gen;

use proptest::prelude::*;
use rteaal_core::Compiler;
use rteaal_dfg::interp::Interpreter;
use rteaal_dfg::passes::{optimize, PassOptions};
use rteaal_dfg::plan::plan;
use rteaal_firrtl::ast::{Circuit, Expr, Stmt};
use rteaal_firrtl::builder::{CircuitBuilder, ModuleBuilder};
use rteaal_firrtl::lower::lower_typed;
use rteaal_firrtl::ops::PrimOp;
use rteaal_firrtl::parser;
use rteaal_firrtl::ty::Type;
use rteaal_kernels::{Kernel, KernelConfig, KernelKind, ALL_KERNELS};
use rteaal_tensor::oim::{OimOptimized, OimSwizzled};

/// One random combinational/sequential operation in the generated design.
#[derive(Debug, Clone)]
enum GenOp {
    Add,
    Sub,
    Xor,
    And,
    Or,
    Mux,
    Not,
    Shl(u32),
    Cat,
    Eq,
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        Just(GenOp::Add),
        Just(GenOp::Sub),
        Just(GenOp::Xor),
        Just(GenOp::And),
        Just(GenOp::Or),
        Just(GenOp::Mux),
        Just(GenOp::Not),
        (1u32..4).prop_map(GenOp::Shl),
        Just(GenOp::Cat),
        Just(GenOp::Eq),
    ]
}

/// Builds a random but well-typed synchronous circuit: a pool of 16-bit
/// signals grown by random ops, a few registers, one output.
fn random_circuit(ops: &[GenOp], reg_period: usize) -> Circuit {
    let w = 16u32;
    let mut b = ModuleBuilder::new("Rand");
    let clock = b.input("clock", Type::Clock);
    let mut pool: Vec<Expr> = vec![
        b.input("a", Type::uint(w)),
        b.input("b", Type::uint(w)),
        Expr::u(0x1234, w),
    ];
    let mut reg_names: Vec<String> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let x = pool[i % pool.len()].clone();
        let y = pool[(i * 7 + 1) % pool.len()].clone();
        let z = pool[(i * 13 + 2) % pool.len()].clone();
        let e = match op {
            GenOp::Add => Expr::prim_p(
                PrimOp::Tail,
                vec![Expr::prim(PrimOp::Add, vec![x, y])],
                vec![1],
            ),
            GenOp::Sub => Expr::prim_p(
                PrimOp::Tail,
                vec![Expr::prim(PrimOp::Sub, vec![x, y])],
                vec![1],
            ),
            GenOp::Xor => Expr::prim(PrimOp::Xor, vec![x, y]),
            GenOp::And => Expr::prim(PrimOp::And, vec![x, y]),
            GenOp::Or => Expr::prim(PrimOp::Or, vec![x, y]),
            GenOp::Mux => Expr::mux(Expr::prim(PrimOp::Orr, vec![z]), x, y),
            GenOp::Not => Expr::prim(PrimOp::Not, vec![x]),
            GenOp::Shl(n) => Expr::prim_p(
                PrimOp::Tail,
                vec![Expr::prim_p(PrimOp::Shl, vec![x], vec![*n as u64])],
                vec![*n as u64],
            ),
            GenOp::Cat => Expr::prim(
                PrimOp::Cat,
                vec![
                    Expr::prim_p(PrimOp::Bits, vec![x], vec![7, 0]),
                    Expr::prim_p(PrimOp::Bits, vec![y], vec![15, 8]),
                ],
            ),
            GenOp::Eq => Expr::prim_p(
                PrimOp::Pad,
                vec![Expr::prim(PrimOp::Eq, vec![x, y])],
                vec![w as u64],
            ),
        };
        let node = b.node(format!("n{i}"), e);
        if i % reg_period.max(1) == reg_period.max(1) - 1 {
            let name = format!("r{i}");
            b.reg(&name, Type::uint(w), clock.clone());
            b.connect(&name, node);
            pool.push(Expr::r(name.clone()));
            reg_names.push(name);
        } else {
            pool.push(node);
        }
    }
    let digest = pool
        .iter()
        .skip(3)
        .cloned()
        .reduce(|a, b| Expr::prim(PrimOp::Xor, vec![a, b]))
        .unwrap_or(Expr::u(0, w));
    b.output_expr("out", Type::uint(w), digest);
    let mut cb = CircuitBuilder::new("Rand");
    cb.add_module(b.finish());
    cb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Optimization never changes observable behavior.
    #[test]
    fn optimization_preserves_behavior(
        ops in prop::collection::vec(gen_op(), 4..40),
        reg_period in 2usize..6,
        stimulus in prop::collection::vec(any::<(u64, u64)>(), 20),
    ) {
        let circuit = random_circuit(&ops, reg_period);
        let raw = rteaal_dfg::build(&lower_typed(&circuit).unwrap()).unwrap();
        let (opt, _) = optimize(&raw, &PassOptions::default());
        let mut s1 = Interpreter::new(&raw);
        let mut s2 = Interpreter::new(&opt);
        for &(a, b) in &stimulus {
            s1.set_input(0, a);
            s1.set_input(1, b);
            s2.set_input(0, a);
            s2.set_input(1, b);
            s1.step();
            s2.step();
            prop_assert_eq!(s1.output(0), s2.output(0));
        }
    }

    /// Every kernel matches the reference interpreter on random designs.
    #[test]
    fn kernels_match_reference(
        ops in prop::collection::vec(gen_op(), 4..30),
        reg_period in 2usize..5,
        stimulus in prop::collection::vec(any::<(u64, u64)>(), 15),
        kind in prop::sample::select(ALL_KERNELS.to_vec()),
    ) {
        let circuit = random_circuit(&ops, reg_period);
        let raw = rteaal_dfg::build(&lower_typed(&circuit).unwrap()).unwrap();
        let sim_plan = plan(&raw);
        let mut golden = Interpreter::new(&raw);
        let mut kernel = Kernel::compile(&sim_plan, KernelConfig::new(kind));
        for &(a, b) in &stimulus {
            golden.set_input(0, a);
            golden.set_input(1, b);
            kernel.set_input(0, a);
            kernel.set_input(1, b);
            golden.step();
            kernel.step();
            prop_assert_eq!(golden.output(0), kernel.output(0));
        }
    }

    /// FIRRTL emit/parse round-trips structurally.
    #[test]
    fn parser_roundtrip(
        ops in prop::collection::vec(gen_op(), 1..20),
        reg_period in 2usize..5,
    ) {
        let circuit = random_circuit(&ops, reg_period);
        let text = parser::emit(&circuit);
        let back = parser::parse(&text).unwrap();
        prop_assert_eq!(circuit, back);
    }

    /// OIM encodings agree with each other and round-trip through JSON.
    #[test]
    fn oim_encodings_consistent(
        ops in prop::collection::vec(gen_op(), 4..30),
        reg_period in 2usize..5,
    ) {
        let circuit = random_circuit(&ops, reg_period);
        let raw = rteaal_dfg::build(&lower_typed(&circuit).unwrap()).unwrap();
        let sim_plan = plan(&raw);
        let b = OimOptimized::from_plan(&sim_plan);
        let c = OimSwizzled::from_plan(&sim_plan);
        prop_assert_eq!(b.num_ops(), c.num_ops());
        prop_assert_eq!(b.num_ops(), sim_plan.total_ops());
        // Same multiset of (n, s) pairs in both encodings.
        let mut pairs_b: Vec<(u16, u32)> =
            (0..b.num_ops()).map(|k| { let r = b.op_at(k); (r.n, r.s) }).collect();
        let mut pairs_c: Vec<(u16, u32)> = Vec::new();
        for i in 0..c.num_layers {
            for n in 0..rteaal_dfg::op::NUM_OPCODES as u16 {
                for k in c.group(i, n) {
                    pairs_c.push((n, c.op_at(k).0));
                }
            }
        }
        pairs_b.sort_unstable();
        pairs_c.sort_unstable();
        prop_assert_eq!(pairs_b, pairs_c);
        let json = serde_json::to_string(&b).unwrap();
        let back: OimOptimized = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(b, back);
    }

    /// Statement-level sanity: the random generator only produces
    /// well-formed circuits (lowering never fails).
    #[test]
    fn generated_circuits_always_lower(
        ops in prop::collection::vec(gen_op(), 1..50),
        reg_period in 1usize..8,
    ) {
        let circuit = random_circuit(&ops, reg_period);
        let flat = lower_typed(&circuit).unwrap();
        prop_assert!(flat.signal_count() > 0);
        // No statement kinds survive that the DFG builder cannot handle.
        for m in &circuit.modules {
            for s in &m.body {
                prop_assert!(!matches!(s, Stmt::Skip));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A generated circuit compiles from its text the way `register`
    /// compiles a design, and its kernel steps like the interpreter over
    /// the graph it was planned from. (Not the unoptimized graph: where copy
    /// propagation leaves an output reading a register, the output reads
    /// the committed value after a step, not the one the cycle started
    /// from.)
    #[test]
    fn generated_circuits_compile_end_to_end(
        seed in any::<u64>(),
        stimulus in prop::collection::vec(any::<u64>(), 16),
    ) {
        let circuit = gen::random_circuit(seed);
        let compiler = Compiler::new(KernelConfig::new(KernelKind::Psu));
        let compiled = compiler.compile_str(&parser::emit(&circuit));
        prop_assert!(compiled.is_ok(), "{:?}", compiled.err());
        let mut kernel = compiled.unwrap().kernel;
        let raw = rteaal_dfg::build(&lower_typed(&circuit).unwrap()).unwrap();
        let (graph, _) = optimize(&raw, &compiler.passes);
        let mut golden = Interpreter::new(&graph);
        for (cycle, &v) in stimulus.iter().enumerate() {
            for input in 0..graph.inputs.len() {
                let value = v.rotate_left(13 * input as u32) ^ cycle as u64;
                golden.set_input(input, value);
                kernel.set_input(input, value);
            }
            golden.step();
            kernel.step();
            for output in 0..graph.outputs.len() {
                prop_assert_eq!(golden.output(output), kernel.output(output), "cycle {}", cycle);
            }
        }
    }
}
