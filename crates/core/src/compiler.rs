//! The RTeAAL Sim compiler front door (paper Figure 14).
//!
//! Drives the full flow: FIRRTL input (text or AST) → dataflow-graph
//! construction → dataflow-graph optimization → layer formation →
//! coordinate assignment → `OIM` generation (JSON) → kernel generation.
//! Every stage's wall-clock time is recorded; the kernel's own compile
//! report (code/data footprint, peak memory) comes from
//! [`rteaal_kernels::Kernel::compile`].

use rteaal_dfg::analyze::{analyze_design, analyze_graph, AnalysisReport};
use rteaal_dfg::passes::{optimize, PassOptions, PassStats};
use rteaal_dfg::plan::{plan, PlanStats, SimPlan};
use rteaal_firrtl::ast::Circuit;
use rteaal_firrtl::lower::lower_typed;
use rteaal_firrtl::parser;
use rteaal_kernels::{CompileReport, Kernel, KernelConfig};
use std::time::Instant;

/// Errors from any stage of the flow.
#[derive(Debug)]
pub enum CompileError {
    /// Parse/type/lower failure in the FIRRTL front end.
    Firrtl(rteaal_firrtl::FirrtlError),
    /// Graph-construction failure (combinational cycle etc.).
    Dfg(rteaal_dfg::DfgError),
    /// The static plan verifier found Error-level diagnostics — the
    /// transformed graph or plan violates a structural invariant the
    /// execution engines assume.
    Verify(AnalysisReport),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Firrtl(e) => write!(f, "firrtl: {e}"),
            CompileError::Dfg(e) => write!(f, "dfg: {e}"),
            CompileError::Verify(report) => write!(f, "verify: {report}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<rteaal_firrtl::FirrtlError> for CompileError {
    fn from(e: rteaal_firrtl::FirrtlError) -> Self {
        CompileError::Firrtl(e)
    }
}

impl From<rteaal_dfg::DfgError> for CompileError {
    fn from(e: rteaal_dfg::DfgError) -> Self {
        CompileError::Dfg(e)
    }
}

/// Per-stage wall-clock timings (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Parsing the source text (0 when compiling from an AST).
    pub parse: f64,
    /// FIRRTL lowering (flatten, mem lowering, when resolution, typing).
    pub lower: f64,
    /// Dataflow-graph construction.
    pub graph: f64,
    /// Optimization passes.
    pub optimize: f64,
    /// Levelization + coordinate assignment + OIM generation.
    pub plan: f64,
    /// Static plan verification (schedule legality, kernel bounds, …).
    pub verify: f64,
    /// Kernel generation.
    pub kernel: f64,
}

impl StageTimings {}

/// The compiler: configuration + entry points.
#[derive(Debug, Clone)]
pub struct Compiler {
    /// Kernel configuration (loop order / format / unrolling, §6.1).
    pub kernel: KernelConfig,
    /// Dataflow-graph optimization options.
    pub passes: PassOptions,
}

impl Compiler {
    /// A compiler for the given kernel configuration with default passes.
    pub fn new(kernel: KernelConfig) -> Self {
        Compiler {
            kernel,
            passes: PassOptions::default(),
        }
    }

    /// Enables waveform mode: every named signal stays observable (§6.2
    /// disables signal-eliminating optimizations when waveforms are
    /// requested). Copy propagation and constant folding can remove
    /// named signals, so every pass is off.
    pub fn with_waveforms(mut self) -> Self {
        self.passes = PassOptions::none();
        self
    }

    /// Compiles FIRRTL source text.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] for parse, type, lower, or graph errors.
    pub fn compile_str(&self, src: &str) -> Result<Compiled, CompileError> {
        let t0 = Instant::now();
        let circuit = parser::parse(src)?;
        let parse = t0.elapsed().as_secs_f64();
        let mut compiled = self.compile(&circuit)?;
        compiled.timings.parse = parse;
        Ok(compiled)
    }

    /// Compiles a circuit AST.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] for type, lower, or graph errors.
    pub fn compile(&self, circuit: &Circuit) -> Result<Compiled, CompileError> {
        let mut t = StageTimings::default();
        let t0 = Instant::now();
        let flat = lower_typed(circuit)?;
        t.lower = t0.elapsed().as_secs_f64();

        // Each level of the flow is dropped as soon as the next one
        // exists: the peak is two levels, not all of them.
        let t0 = Instant::now();
        let raw = rteaal_dfg::build(&flat)?;
        drop(flat);
        t.graph = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let (graph, pass_stats) = optimize(&raw, &self.passes);
        drop(raw);
        t.optimize = t0.elapsed().as_secs_f64();

        // The builder already rejects combinational cycles, but a buggy
        // pass could reintroduce one and `topo_order` would panic deep in
        // levelization — verify before planning so corruption surfaces as
        // a typed diagnostic instead.
        let t0 = Instant::now();
        let graph_report = analyze_graph(&graph);
        if !graph_report.is_clean() {
            return Err(CompileError::Verify(graph_report));
        }

        let sim_plan = plan(&graph);
        drop(graph);
        t.plan = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let mut analysis = graph_report;
        analysis.merge(analyze_design(&sim_plan));
        if !analysis.is_clean() {
            return Err(CompileError::Verify(analysis));
        }
        t.verify = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let kernel = Kernel::compile(&sim_plan, self.kernel);
        t.kernel = t0.elapsed().as_secs_f64();

        Ok(Compiled {
            plan: sim_plan,
            kernel,
            timings: t,
            pass_stats,
            analysis,
        })
    }
}

/// The result of a compile: the plan (OIM content), the kernel, and
/// reports.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The coordinate-assigned plan (logical OIM).
    pub plan: SimPlan,
    /// The executable kernel.
    pub kernel: Kernel,
    /// Per-stage timings.
    pub timings: StageTimings,
    /// What the optimizer did.
    pub pass_stats: PassStats,
    /// The static verifier's report (clean by construction — a compile
    /// that produced Error-level diagnostics returns
    /// [`CompileError::Verify`] instead). Carries the dataflow stats
    /// (activity, dead ops, never-toggling signals) downstream.
    pub analysis: AnalysisReport,
}

impl Compiled {
    /// Plan-level statistics (ops, layers, slots, identity count).
    pub fn plan_stats(&self) -> PlanStats {
        self.plan.stats
    }

    /// The kernel's compile report (code/data bytes, generation time).
    pub fn kernel_report(&self) -> CompileReport {
        self.kernel.compile_report()
    }

    /// Serializes the OIM tensor to JSON (the Figure 14 artifact: "OIM
    /// tensors stored in JSON files, which are loaded at runtime").
    ///
    /// # Errors
    ///
    /// Returns a `serde_json` error if serialization fails (it cannot for
    /// this type, but the signature is honest).
    pub fn oim_json(&self) -> serde_json::Result<String> {
        let oim = rteaal_tensor::oim::OimOptimized::from_plan(&self.plan);
        serde_json::to_string(&oim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rteaal_kernels::KernelKind;

    const SRC: &str = "\
circuit T :
  module T :
    input clock : Clock
    input x : UInt<8>
    output out : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, x), 1)
    out <= r
";

    #[test]
    fn end_to_end_compile_and_run() {
        let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile_str(SRC)
            .unwrap();
        let mut k = compiled.kernel;
        k.set_input(0, 5);
        k.run(3);
        assert_eq!(k.output(0), 15);
        let t = compiled.timings;
        assert!(
            t.parse > 0.0 && t.lower + t.graph + t.optimize + t.plan + t.verify + t.kernel > 0.0
        );
    }

    #[test]
    fn oim_json_artifact() {
        let compiled = Compiler::new(KernelConfig::new(KernelKind::Ru))
            .compile_str(SRC)
            .unwrap();
        let json = compiled.oim_json().unwrap();
        assert!(json.contains("s_coords"));
        assert!(json.contains("\"name\":\"T\""));
    }

    #[test]
    fn waveform_mode_preserves_signals() {
        let plain = Compiler::new(KernelConfig::new(KernelKind::Nu));
        let wave = plain.clone().with_waveforms();
        let p1 = plain.compile_str(SRC).unwrap();
        let p2 = wave.compile_str(SRC).unwrap();
        assert!(p2.plan.probes.len() >= p1.plan.probes.len());
        // Waveform mode runs every pass off, so no signal is rewritten
        // away (`cse_merged`/`dead_removed` come from hash-consing and
        // the rebuild itself and may be nonzero regardless).
        let s = p2.pass_stats;
        assert_eq!(
            (
                s.const_folded,
                s.copies_propagated,
                s.chains_fused,
                s.muxes_absorbed
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn errors_are_reported() {
        let c = Compiler::new(KernelConfig::new(KernelKind::Su));
        assert!(matches!(
            c.compile_str("garbage"),
            Err(CompileError::Firrtl(_))
        ));
        // A second clock input is refused (paper §6.2: one clock domain).
        let two_clocks = "\
circuit M :
  module M :
    input clk_a : Clock
    input clk_b : Clock
    output o : UInt<1>
    reg a : UInt<1>, clk_a
    reg b : UInt<1>, clk_b
    a <= b
    b <= a
    o <= a
";
        let err = c.compile_str(two_clocks).unwrap_err();
        assert!(
            err.to_string().contains("2 clock inputs found"),
            "two clocks: {err}"
        );
    }
}
