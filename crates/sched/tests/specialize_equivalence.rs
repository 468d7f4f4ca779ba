//! Property-based serving-equivalence proof for the specialization
//! tier: random rv32i corpora — mixed job lengths, DMI state pokes at
//! admission, halt-compaction and lane recycling in full swing — must
//! produce byte-identical results whether the engine runs the plan
//! as-compiled or specialized, at packing-eligible and -ineligible
//! lane counts, flat and RepCut-partitioned.

use proptest::prelude::*;
use rteaal_core::{Compiler, EngineConfig, Partitioning, Specialization};
use rteaal_designs::Workload;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_sched::{Job, JobResult, Scheduler};

const PROBES: [&str; 3] = ["a0", "pc_out", "halt"];

proptest! {
    // rv32i compiles are expensive; a few random corpora over three
    // engine shapes already cover the interplay the tier must preserve.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn specialization_is_invisible_to_a_scheduled_corpus(
        seed in any::<u64>(),
        jobs in 3usize..7,
    ) {
        let corpus = Workload::corpus(jobs, seed);
        let compiler = Compiler::new(KernelConfig::new(KernelKind::Psu));
        // One compile serves the whole corpus: the job length parameter
        // travels in the admission-time DMI poke, not in the ROM.
        let compiled = compiler.compile(&corpus[0].circuit).unwrap();

        let run = |lanes: usize, partitioning: Partitioning, spec: Specialization| {
            let config = EngineConfig {
                partitioning,
                specialization: spec,
                ..EngineConfig::new(lanes)
            };
            let mut sched = Scheduler::build(&compiled, config, "halt")
                .expect("halt signal exists and the plan verifies");
            for w in &corpus {
                sched.submit(Job::from_workload(w, &PROBES));
            }
            sched.run(1_000_000);
            let mut results = sched.take_results();
            results.sort_by_key(|r| r.id);
            results
        };

        // Three engine shapes: fewer lanes than jobs (recycling and
        // halt compaction exercised), a packing-eligible lane count
        // (>= 32 turns on bit-packed 1-bit slots under Auto), and the
        // RepCut-partitioned walk of the specialized plan.
        let shapes: [(usize, Partitioning); 3] = [
            (2, Partitioning::None),
            (33, Partitioning::None),
            (2, Partitioning::Fixed(2)),
        ];
        for (lanes, partitioning) in shapes {
            let plain = run(lanes, partitioning, Specialization::Off);
            let spec = run(lanes, partitioning, Specialization::Auto);
            prop_assert_eq!(plain.len(), corpus.len());
            prop_assert_eq!(plain.len(), spec.len());
            for (p, s) in plain.iter().zip(&spec) {
                let ctx = |r: &JobResult| {
                    format!("{} lanes={} {:?}", r.name, lanes, partitioning)
                };
                prop_assert_eq!(p.id, s.id, "{}", ctx(p));
                prop_assert_eq!(&p.name, &s.name, "{}", ctx(p));
                prop_assert_eq!(p.outcome, s.outcome, "{}", ctx(p));
                prop_assert_eq!(&p.outputs, &s.outputs, "{}", ctx(p));
                prop_assert_eq!(p.cycles, s.cycles, "{}", ctx(p));
                prop_assert!(p.completed(), "{}", ctx(p));
            }
        }
    }
}
