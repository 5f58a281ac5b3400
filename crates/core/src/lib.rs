//! GSIM: an essential-signal compiled RTL simulator.
//!
//! Reproduction of *"GSIM: Accelerating RTL Simulation for Large-Scale
//! Designs"* (DAC 2025). GSIM reads FIRRTL, optimizes the circuit graph
//! at three granularities — supernode, node, and bit level — and
//! simulates only the *active* part of the design each cycle.
//!
//! This crate is the public facade tying the stack together:
//!
//! * [`Compiler`] — front end + optimization pipeline + engine
//!   selection in one builder. [`Compiler::build_session`] returns a
//!   backend-agnostic [`Session`] (`Box<dyn Session>`) for any
//!   [`EngineChoice`], including the persistent AoT server process.
//! * [`Preset`] — ready-made configurations standing in for every
//!   simulator in the paper's evaluation: Verilator (single- and
//!   multi-threaded), ESSENT, Arcilator, and GSIM itself.
//! * [`OptOptions`] — one switch per paper technique, so the Figure 8
//!   breakdown can apply them incrementally.
//! * [`Server`] / [`ClientSession`] (re-exported from `gsim_server`) —
//!   the multi-tenant simulation service: many concurrent remote
//!   sessions over one content-addressed compiled-artifact cache
//!   (CLI: `gsim serve` / `gsim client`).
//! * [`Scenario`] / [`Explorer`] (re-exported from `gsim_sim`) — the
//!   typed stimulus description shared by every backend and the
//!   snapshot-fork exploration engine that runs N divergent branches
//!   of it from one warmed state (CLI: `gsim explore`).
//! * [`Wave`] / [`VcdWriter`] / [`wave_diff`] (re-exported from
//!   `gsim_wave`) — change-driven waveform capture from every
//!   backend via [`Session::trace_start`], IEEE-1364 VCD in and out,
//!   and canonicalized cross-backend comparison (CLI: `gsim --vcd`,
//!   `gsim wavediff`).
//!
//! # Quickstart
//!
//! ```
//! use gsim::{Compiler, Preset};
//!
//! let graph = gsim_firrtl::compile(r#"
//! circuit Counter :
//!   module Counter :
//!     input clock : Clock
//!     input reset : UInt<1>
//!     output out : UInt<8>
//!     reg c : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
//!     c <= tail(add(c, UInt<8>(1)), 1)
//!     out <= c
//! "#).unwrap();
//!
//! let (mut sim, report) = Compiler::new(&graph).preset(Preset::Gsim).build().unwrap();
//! sim.run(100);
//! assert_eq!(sim.peek_u64("out"), Some(99));
//! assert!(report.nodes_after <= report.nodes_before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gsim_codegen::{AotRun, AotSession, AotSim, ArtifactCache, ArtifactKey};
pub use gsim_graph::Graph;
pub use gsim_passes::{PassOptions, PassStats};
pub use gsim_server::{ClientSession, Endpoint, Server, ServerConfig, ServiceStats};
pub use gsim_sim::{
    BranchResult, Counters, EngineKind, ExploreOptions, ExploreReport, Explorer, FaultPlan,
    FusionStats, GsimError, InputFrame, InputHandle, MemoryInfo, RecoveryStats, Scenario,
    SendSessionFactory, Session, SessionFactory, SessionFrame, SignalInfo, SimOptions, Simulator,
    SnapshotId, SuperviseOptions, SupervisedSession, Value,
};
pub use gsim_wave::{
    diff as wave_diff, first_difference, parse_vcd, MemSink, VcdWriter, Wave, WaveCell, WaveDiff,
    WaveSignal, WaveSink,
};

use gsim_partition::{Algorithm, PartitionOptions};
use std::time::{Duration, Instant};

/// Ready-made simulator configurations matching the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Verilator-like: sequential full-cycle evaluation of every node,
    /// light peephole optimization only (paper Listing 1).
    Verilator,
    /// Verilator `--threads N`: levelized parallel full-cycle.
    VerilatorMt(usize),
    /// ESSENT-like: essential-signal simulation, MFFC partitioning,
    /// per-flag active-bit checks, branchless activation, resets in the
    /// fast path.
    Essent,
    /// Arcilator-like: full-cycle with aggressive IR-level expression
    /// optimization.
    Arcilator,
    /// GSIM: everything in the paper's §III.
    Gsim,
    /// GSIM `--threads N`: the full GSIM configuration with the
    /// essential-signal sweep parallelized over the supernode
    /// dependency DAG's levels.
    GsimMt(usize),
    /// GSIM-JIT: the full GSIM configuration executed through the
    /// in-process threaded-code backend — compile-free AoT-class
    /// dispatch (CLI: `--backend jit`).
    GsimJit,
}

impl Preset {
    /// Display name used in reports.
    pub fn name(self) -> String {
        match self {
            Preset::Verilator => "Verilator".into(),
            Preset::VerilatorMt(n) => format!("Verilator-{n}T"),
            Preset::Essent => "ESSENT".into(),
            Preset::Arcilator => "Arcilator".into(),
            Preset::Gsim => "GSIM".into(),
            Preset::GsimMt(n) => format!("GSIM-{n}T"),
            Preset::GsimJit => "GSIM-JIT".into(),
        }
    }

    /// The option set this preset expands to.
    pub fn options(self) -> OptOptions {
        match self {
            Preset::Verilator => OptOptions {
                engine: EngineChoice::FullCycle,
                ..OptOptions::none()
            },
            Preset::VerilatorMt(n) => OptOptions {
                engine: EngineChoice::FullCycleMt(n),
                ..OptOptions::none()
            },
            Preset::Essent => OptOptions {
                engine: EngineChoice::Essential,
                redundant_elim: true,
                supernode: SupernodeChoice::Mffc,
                ..OptOptions::none()
            },
            Preset::Arcilator => OptOptions {
                engine: EngineChoice::FullCycle,
                expression_simplify: true,
                redundant_elim: true,
                node_inline: true,
                node_extract: true,
                ..OptOptions::none()
            },
            Preset::Gsim => OptOptions::all(),
            Preset::GsimMt(n) => OptOptions {
                engine: EngineChoice::EssentialMt(n),
                ..OptOptions::all()
            },
            Preset::GsimJit => OptOptions {
                engine: EngineChoice::Threaded,
                ..OptOptions::all()
            },
        }
    }
}

/// Engine family selector (subset of [`EngineKind`] used by options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Sequential full-cycle.
    FullCycle,
    /// Levelized multithreaded full-cycle.
    FullCycleMt(usize),
    /// Essential-signal (active bits).
    Essential,
    /// Essential-signal swept level-parallel across N threads.
    EssentialMt(usize),
    /// Essential-signal dispatched through the in-process threaded-code
    /// backend: the execution image is lowered once, at compile time,
    /// into pre-resolved handler records, so simulation starts in
    /// milliseconds but the hot loop does no decode (CLI: `--backend
    /// jit`).
    Threaded,
    /// Ahead-of-time compiled backend: emit a standalone Rust
    /// simulator, `rustc -O` it, and run the native binary. Built via
    /// [`Compiler::build_aot`] (not [`Compiler::build`], which returns
    /// an in-process interpreter).
    Aot,
}

/// Supernode construction selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupernodeChoice {
    /// One node per supernode (no grouping).
    None,
    /// Plain Kernighan sequential partition.
    Kernighan,
    /// ESSENT's MFFC zones.
    Mffc,
    /// GSIM's enhanced algorithm (pre-grouping + Kernighan).
    Gsim,
}

impl SupernodeChoice {
    fn algorithm(self) -> Algorithm {
        match self {
            SupernodeChoice::None => Algorithm::None,
            SupernodeChoice::Kernighan => Algorithm::Kernighan,
            SupernodeChoice::Mffc => Algorithm::MffcBased,
            SupernodeChoice::Gsim => Algorithm::Gsim,
        }
    }
}

/// One flag per paper technique (§III / Figure 8), plus engine and
/// partition knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct OptOptions {
    pub engine: EngineChoice,
    /// ① expression simplification.
    pub expression_simplify: bool,
    /// ② redundant node elimination.
    pub redundant_elim: bool,
    /// ③ node inline.
    pub node_inline: bool,
    /// ④ supernode construction algorithm.
    pub supernode: SupernodeChoice,
    /// ⑤ node extraction (CSE).
    pub node_extract: bool,
    /// ⑥ reset handling optimization (slow path).
    pub reset_slow_path: bool,
    /// ⑦ checking multiple active bits with a single condition.
    pub check_multiple_bits: bool,
    /// ⑧ activation overhead optimization (cost-model branchy vs
    /// branchless).
    pub activation_cost_model: bool,
    /// ⑨ node splitting at the bit level.
    pub bit_split: bool,
    /// ⑩ locality-aware state layout: segregate input / register /
    /// combinational slot spaces, numbering combinational slots in
    /// sweep order (substrate-level; bit-identical results).
    pub locality_layout: bool,
    /// ⑪ superinstruction fusion: collapse frequent adjacent
    /// instruction pairs in the execution image (substrate-level;
    /// bit-identical results — the `--no-fuse` ablation).
    pub superinstruction_fusion: bool,
    /// Maximum supernode size (the paper's command-line knob; Fig. 9).
    pub max_supernode_size: usize,
}

impl OptOptions {
    /// Everything off: the unoptimized essential-signal baseline of
    /// Figure 8 (per-node active bits, Listing 2).
    pub fn none() -> OptOptions {
        OptOptions {
            engine: EngineChoice::Essential,
            expression_simplify: false,
            redundant_elim: false,
            node_inline: false,
            supernode: SupernodeChoice::None,
            node_extract: false,
            reset_slow_path: false,
            check_multiple_bits: false,
            activation_cost_model: false,
            bit_split: false,
            locality_layout: false,
            superinstruction_fusion: false,
            max_supernode_size: PartitionOptions::DEFAULT_MAX_SIZE,
        }
    }

    /// The full GSIM configuration.
    pub fn all() -> OptOptions {
        OptOptions {
            engine: EngineChoice::Essential,
            expression_simplify: true,
            redundant_elim: true,
            node_inline: true,
            supernode: SupernodeChoice::Gsim,
            node_extract: true,
            reset_slow_path: true,
            check_multiple_bits: true,
            activation_cost_model: true,
            bit_split: true,
            locality_layout: true,
            superinstruction_fusion: true,
            max_supernode_size: PartitionOptions::DEFAULT_MAX_SIZE,
        }
    }

    /// The Figure 8 staircase: configurations applying the paper's nine
    /// techniques incrementally, starting from [`OptOptions::none`].
    /// Returns `(technique name, cumulative options)` pairs; entry 0 is
    /// the baseline.
    pub fn staircase() -> Vec<(&'static str, OptOptions)> {
        let mut cur = OptOptions::none();
        let mut out = vec![("baseline", cur)];
        cur.expression_simplify = true;
        out.push(("expression simplification", cur));
        cur.redundant_elim = true;
        out.push(("redundant node elimination", cur));
        cur.node_inline = true;
        out.push(("node inline", cur));
        cur.supernode = SupernodeChoice::Gsim;
        out.push(("supernode", cur));
        cur.node_extract = true;
        out.push(("node extraction", cur));
        cur.reset_slow_path = true;
        out.push(("reset handling optimization", cur));
        cur.check_multiple_bits = true;
        out.push(("checking multiple active bits", cur));
        cur.activation_cost_model = true;
        out.push(("activation overhead optimization", cur));
        cur.bit_split = true;
        out.push(("node splitting at bit level", cur));
        // Substrate-level steps beyond the paper's nine: the flat
        // execution image's ablatable switches, kept at the end so the
        // paper staircase stays comparable.
        cur.locality_layout = true;
        out.push(("locality-aware state layout", cur));
        cur.superinstruction_fusion = true;
        out.push(("superinstruction fusion", cur));
        out
    }

    /// The node/bit-level pass configuration these options expand to
    /// (shared by `build`, `build_aot`, and the CLI's emit paths so
    /// the mapping lives in exactly one place).
    pub fn pass_options(&self) -> PassOptions {
        PassOptions {
            expression_simplify: self.expression_simplify,
            redundant_elim: self.redundant_elim,
            node_inline: self.node_inline,
            node_extract: self.node_extract,
            bit_split: self.bit_split,
            reset_slow_path: self.reset_slow_path,
        }
    }

    /// The supernode partitioning these options expand to (shared
    /// with the CLI's emit paths).
    pub fn partition_options(&self) -> PartitionOptions {
        PartitionOptions {
            algorithm: self.supernode.algorithm(),
            max_size: self.max_supernode_size,
        }
    }

    fn sim_options(&self) -> Result<SimOptions, GsimError> {
        let engine = match self.engine {
            EngineChoice::FullCycle => EngineKind::FullCycle,
            EngineChoice::FullCycleMt(n) => EngineKind::FullCycleMt { threads: n },
            EngineChoice::Essential => EngineKind::Essential,
            EngineChoice::EssentialMt(n) => EngineKind::EssentialMt { threads: n },
            EngineChoice::Threaded => EngineKind::Threaded,
            EngineChoice::Aot => {
                return Err(GsimError::Config(
                    "the AoT backend compiles to a native binary; use Compiler::build_aot or \
                     Compiler::build_session (CLI: `gsim --backend aot`)"
                        .into(),
                ))
            }
        };
        Ok(SimOptions {
            engine,
            partition: self.partition_options(),
            check_multiple_bits: self.check_multiple_bits,
            activation_cost_model: self.activation_cost_model,
            reset_slow_path: self.reset_slow_path,
            superinstr_fusion: self.superinstruction_fusion,
            locality_layout: self.locality_layout,
        })
    }
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions::all()
    }
}

/// What compilation did (sizes, pass statistics, timings).
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// Nodes before optimization ("IR node", Table I).
    pub nodes_before: usize,
    /// Edges before optimization ("IR edge", Table I).
    pub edges_before: usize,
    /// Nodes after the pass pipeline.
    pub nodes_after: usize,
    /// Edges after the pass pipeline.
    pub edges_after: usize,
    /// Pass statistics.
    pub pass_stats: PassStats,
    /// Number of supernodes in the compiled schedule.
    pub supernodes: usize,
    /// Total compile (emission) time: passes + partition + bytecode.
    pub compile_time: Duration,
    /// Partitioning share of the compile time (Table III).
    pub partition_time: Duration,
    /// Compiled bytecode instruction count (code-size proxy; fused
    /// pairs count once).
    pub instrs: usize,
    /// 16-byte units in the flat execution image's code arena.
    pub image_units: usize,
    /// What the superinstruction fusion pass collapsed.
    pub fusion: FusionStats,
    /// Bytes of simulated state (Table IV data size).
    pub state_bytes: usize,
}

/// Builder: graph → optimization pipeline → compiled simulator.
#[derive(Debug)]
pub struct Compiler<'g> {
    graph: &'g Graph,
    opts: OptOptions,
}

impl<'g> Compiler<'g> {
    /// Starts a compilation of `graph` with full GSIM options.
    pub fn new(graph: &'g Graph) -> Compiler<'g> {
        Compiler {
            graph,
            opts: OptOptions::all(),
        }
    }

    /// Selects a simulator preset.
    pub fn preset(mut self, preset: Preset) -> Self {
        self.opts = preset.options();
        self
    }

    /// Sets explicit options.
    pub fn options(mut self, opts: OptOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Overrides the maximum supernode size (paper Figure 9's knob).
    pub fn max_supernode_size(mut self, n: usize) -> Self {
        self.opts.max_supernode_size = n;
        self
    }

    /// Runs the pass pipeline and compiles an engine.
    ///
    /// # Errors
    ///
    /// Returns [`GsimError`] for invalid graphs or configurations.
    pub fn build(self) -> Result<(Simulator, CompileReport), GsimError> {
        let start = Instant::now();
        let sim_opts = self.opts.sim_options()?;
        let nodes_before = self.graph.num_nodes();
        let edges_before = self.graph.num_edges();
        let (optimized, pass_stats) =
            gsim_passes::run(self.graph.clone(), &self.opts.pass_options());
        let nodes_after = optimized.num_nodes();
        let edges_after = optimized.num_edges();
        let sim = Simulator::compile(&optimized, &sim_opts)?;
        let report = CompileReport {
            nodes_before,
            edges_before,
            nodes_after,
            edges_after,
            pass_stats,
            supernodes: sim.num_supernodes(),
            compile_time: start.elapsed(),
            partition_time: sim.partition_time(),
            instrs: sim.num_instrs(),
            image_units: sim.image_units(),
            fusion: sim.fusion_stats(),
            state_bytes: sim.state_bytes(),
        };
        Ok((sim, report))
    }
}

/// What an ahead-of-time compilation did (sizes and timings for the
/// paper's Table IV shape: emission, host-compiler, binary).
#[derive(Debug, Clone)]
pub struct AotReport {
    /// Nodes before optimization.
    pub nodes_before: usize,
    /// Nodes after the pass pipeline.
    pub nodes_after: usize,
    /// Pass statistics.
    pub pass_stats: PassStats,
    /// Supernodes in the emitted schedule.
    pub supernodes: usize,
    /// Rust-source emission time.
    pub emit_time: Duration,
    /// `rustc -O` wall-clock time.
    pub rustc_time: Duration,
    /// Emitted source bytes ("code size").
    pub code_bytes: usize,
    /// Bytes of simulated state in the compiled struct ("data size").
    pub data_bytes: usize,
    /// Size of the native binary in bytes.
    pub binary_bytes: u64,
}

impl<'g> Compiler<'g> {
    /// Runs the pass pipeline, emits a standalone Rust simulator, and
    /// compiles it with the host `rustc` — the ahead-of-time backend
    /// ([`EngineChoice::Aot`]). The returned [`gsim_codegen::AotSim`]
    /// runs the native binary over stimulus streams (batch) or serves
    /// a persistent interactive [`AotSession`] via
    /// [`gsim_codegen::AotSim::session`].
    ///
    /// # Errors
    ///
    /// Returns emission or toolchain diagnostics as
    /// [`GsimError::Backend`].
    pub fn build_aot(self) -> Result<(gsim_codegen::AotSim, AotReport), GsimError> {
        let nodes_before = self.graph.num_nodes();
        let (optimized, pass_stats) =
            gsim_passes::run(self.graph.clone(), &self.opts.pass_options());
        let nodes_after = optimized.num_nodes();
        let aot_opts = gsim_codegen::AotOptions {
            partition: self.opts.partition_options(),
            keep_dir: false,
        };
        let sim = gsim_codegen::compile_aot(&optimized, &aot_opts)?;
        let report = AotReport {
            nodes_before,
            nodes_after,
            pass_stats,
            supernodes: sim.emit.supernodes,
            emit_time: sim.emit.emit_time,
            rustc_time: sim.rustc_time,
            code_bytes: sim.emit.code_bytes,
            data_bytes: sim.emit.data_bytes,
            binary_bytes: sim.binary_bytes,
        };
        Ok((sim, report))
    }
}

impl<'g> Compiler<'g> {
    /// Builds a backend-agnostic [`Session`] for the given engine:
    /// the one entry point behind which [`Compiler::build`] (the
    /// interpreter engines) and [`Compiler::build_aot`] (a persistent
    /// compiled process in server mode) converge. Testbenches written
    /// against `Box<dyn Session>` run identically on every backend.
    ///
    /// ```no_run
    /// use gsim::{Compiler, EngineChoice, Preset};
    ///
    /// let graph = gsim_firrtl::compile("...").unwrap();
    /// for engine in [EngineChoice::Essential, EngineChoice::Aot] {
    ///     let mut session = Compiler::new(&graph)
    ///         .preset(Preset::Gsim)
    ///         .build_session(engine)
    ///         .unwrap();
    ///     session.poke_u64("reset", 1).unwrap();
    ///     session.step(2).unwrap();
    ///     let out = session.peek("out").unwrap();
    ///     println!("{} says {out}", session.backend());
    /// }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GsimError`] for invalid graphs, configurations, or
    /// (on the AoT path) toolchain failures.
    pub fn build_session(mut self, engine: EngineChoice) -> Result<Box<dyn Session>, GsimError> {
        self.opts.engine = engine;
        match engine {
            EngineChoice::Aot => {
                let (sim, _) = self.build_aot()?;
                let session = sim.session().map_err(GsimError::from)?;
                // The session holds its own handle on the scratch
                // directory, so dropping `sim` here is safe: the
                // binary outlives the `AotSim`.
                Ok(Box::new(session))
            }
            _ => {
                let (sim, _) = self.build()?;
                Ok(Box::new(sim))
            }
        }
    }
}

/// Compiles FIRRTL source text directly into a simulator.
///
/// # Errors
///
/// Returns parse, lowering, or compilation diagnostics.
pub fn compile_firrtl(src: &str, preset: Preset) -> Result<(Simulator, CompileReport), GsimError> {
    let graph = gsim_firrtl::compile(src).map_err(GsimError::Parse)?;
    Compiler::new(&graph).preset(preset).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = r#"
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    output out : UInt<16>
    reg c : UInt<16>, clock with : (reset => (reset, UInt<16>(0)))
    c <= tail(add(c, UInt<16>(1)), 1)
    out <= c
"#;

    #[test]
    fn all_presets_simulate_identically() {
        let graph = gsim_firrtl::compile(COUNTER).unwrap();
        for preset in [
            Preset::Verilator,
            Preset::VerilatorMt(2),
            Preset::Essent,
            Preset::Arcilator,
            Preset::Gsim,
            Preset::GsimMt(2),
            Preset::GsimMt(4),
            Preset::GsimJit,
        ] {
            let (mut sim, _) = Compiler::new(&graph).preset(preset).build().unwrap();
            sim.run(500);
            assert_eq!(sim.peek_u64("out"), Some(499), "{}", preset.name());
        }
    }

    #[test]
    fn staircase_has_twelve_entries_and_runs() {
        let graph = gsim_firrtl::compile(COUNTER).unwrap();
        let stairs = OptOptions::staircase();
        // The paper's nine techniques plus baseline, then the two
        // substrate-level image switches (layout, fusion).
        assert_eq!(stairs.len(), 12);
        for (name, opts) in stairs {
            let (mut sim, _) = Compiler::new(&graph).options(opts).build().unwrap();
            sim.run(10);
            assert_eq!(sim.peek_u64("out"), Some(9), "staircase step {name}");
        }
    }

    #[test]
    fn report_reflects_optimization() {
        let graph = gsim_firrtl::compile(
            r#"
circuit R :
  module R :
    input a : UInt<8>
    output y : UInt<8>
    node dead = xor(a, UInt<8>(1))
    node t = and(a, UInt<8>(255))
    y <= t
"#,
        )
        .unwrap();
        let (_, report) = Compiler::new(&graph).preset(Preset::Gsim).build().unwrap();
        assert!(report.nodes_after < report.nodes_before);
        // the whole design folds to an alias: zero instructions is legal
        assert!(report.supernodes > 0);
        assert!(report.state_bytes > 0);
        let (_, raw) = Compiler::new(&graph)
            .preset(Preset::Verilator)
            .build()
            .unwrap();
        assert_eq!(raw.nodes_after, raw.nodes_before);
    }

    #[test]
    fn compile_firrtl_end_to_end() {
        let (mut sim, _) = compile_firrtl(COUNTER, Preset::Gsim).unwrap();
        sim.run(3);
        assert_eq!(sim.peek_u64("out"), Some(2));
        assert!(compile_firrtl("circuit X :", Preset::Gsim).is_err());
    }
}
