//! The parser against the emitter, with no second parser to compare to:
//! `parse(emit(c)) == c` on the design corpus — the benchmark's 1.1 MB chip
//! included, which is why CI runs this file in release — and on random
//! circuits, also respelled the ways `emit` never spells them.

mod gen;

use proptest::prelude::*;
use rteaal_designs::{rocket, sha3, ChipConfig, Workload};
use rteaal_firrtl::lower::lower_typed;
use rteaal_firrtl::ops::ALL_PRIM_OPS;
use rteaal_firrtl::parser::{emit, parse};

#[test]
fn the_corpus_round_trips_through_its_own_text() {
    for circuit in [
        Workload::param_sum_circuit(),
        sha3(),
        rocket(ChipConfig::new(4).with_scale(0.5)),
    ] {
        let text = emit(&circuit);
        assert!(parse(&text).unwrap() == circuit, "{}", circuit.name);
    }
}

#[test]
fn a_generated_circuit_has_every_op_and_lowers() {
    let circuit = gen::random_circuit(1);
    let text = emit(&circuit);
    for op in ALL_PRIM_OPS {
        assert!(text.contains(&format!("= {op}(")), "{op} missing");
    }
    for keyword in ["when ", "else :", "mem ", "inst ", "regreset ", "SInt<"] {
        assert!(
            (1..20).any(|seed| emit(&gen::random_circuit(seed)).contains(keyword)),
            "{keyword} missing"
        );
    }
    lower_typed(&circuit).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn generated_circuits_round_trip_however_spelled(seed in any::<u64>()) {
        let circuit = gen::random_circuit(seed);
        let text = emit(&circuit);
        prop_assert_eq!(&parse(&text).unwrap(), &circuit);
        let respelled = gen::respell(&text, seed);
        prop_assert_eq!(&parse(&respelled).unwrap(), &circuit);
        // Well-typed by construction: lowering is exercised with it.
        prop_assert!(lower_typed(&circuit).is_ok(), "{:?}", lower_typed(&circuit).err());
    }
}
