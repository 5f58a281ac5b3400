//! Simulation engines for the GSIM RTL simulator.
//!
//! The optimized circuit graph is compiled into a **flat execution
//! image**: one contiguous arena of fixed-size (16-byte) encoded
//! instructions laid out in supernode execution order, with tasks and
//! supernodes reduced to ranges into it, an optional superinstruction
//! fusion pass collapsing frequent adjacent instruction pairs, and a
//! locality-aware state-slot layout (inputs / register current+shadow
//! pairs / sweep-ordered combinational values segregated). All-narrow
//! tasks (every operand one word — the overwhelming majority) dispatch
//! through a fast loop that never re-checks operand widths; multi-word
//! instructions go through a side table. The image is executed by one
//! of four engine families, which together stand in for every
//! simulator the paper evaluates:
//!
//! * **Sequential full-cycle** ([`EngineKind::FullCycle`]) — evaluates
//!   every node every cycle in topological order: the Verilator /
//!   Arcilator model (paper Listing 1).
//! * **Multithreaded full-cycle** ([`EngineKind::FullCycleMt`]) —
//!   levelized evaluation with barriers between levels: the
//!   Verilator `--threads N` model.
//! * **Essential-signal** ([`EngineKind::Essential`]) — per-supernode
//!   active bits; only activated supernodes are evaluated (paper
//!   Listings 2–4). Runtime techniques are individually switchable to
//!   reproduce the Figure 8 breakdown:
//!   - `check_multiple_bits`: skip 64 active bits with one word
//!     comparison (Listing 4) instead of branching per flag;
//!   - `activation_cost_model`: choose branchy vs branchless successor
//!     activation per node by successor count (§III-B);
//!   - `reset_slow_path`: update registers speculatively and check each
//!     distinct reset signal once per cycle (Listing 6).
//! * **Parallel essential-signal** ([`EngineKind::EssentialMt`]) —
//!   activity-based skipping *and* multi-core execution. The supernode
//!   partition is condensed into a dependency DAG
//!   ([`gsim_partition::SupernodeDag`]) whose *levels* group mutually
//!   independent supernodes; each cycle the engine sweeps the levels in
//!   order with one barrier per level (a bulk-synchronous schedule, as
//!   in Manticore/Parendi). Within a level, every thread claims the
//!   activated supernodes of its static slice, skipping idle spans with
//!   the same `check_multiple_bits` word scans as the sequential
//!   engine; cross-thread activation is a relaxed atomic OR into the
//!   shared active-bit words, made visible by the next level barrier.
//!   Thread 0 runs the commit phase (registers, resets, memory write
//!   ports) between the last barrier of one cycle and the first of the
//!   next.
//! * **Threaded-code** ([`EngineKind::Threaded`]) — the essential
//!   engine's sweep with dispatch moved to compile time: every encoded
//!   unit is lowered once into a pre-resolved handler record (a
//!   monomorphized function pointer plus flat-arena operand offsets),
//!   so the hot loop is a bare indirect-call chain with no decode, no
//!   width re-checks, and no operand-space branching. Compile-free
//!   AoT-class dispatch — the CLI's `--backend jit`.
//!
//! All four families share one executor core (`executor`): the
//! eval/commit/activation routines are generic over plain-word vs
//! shared-atomic storage, so the sequential and parallel paths execute
//! the same code. All engines implement identical semantics, pinned by
//! the differential tests against [`gsim_graph::interp::RefInterp`].
//!
//! The crate also defines the backend-agnostic [`Session`] trait —
//! `poke`/`peek`/`load_mem`/`step`/`run_driven`/`counters`/
//! `snapshot`+`restore` behind one object-safe surface with the
//! unified [`GsimError`] — which [`Simulator`] implements for every
//! engine family and [`WireSession`] implements once for every
//! endpoint of the line protocol defined in [`wire`] (the AoT
//! backend's child process, the service's socket), so harnesses
//! written against `&mut dyn Session` run on every execution
//! substrate.
//!
//! # Example
//!
//! ```
//! use gsim_sim::{Simulator, SimOptions};
//!
//! let graph = gsim_firrtl::compile(r#"
//! circuit Counter :
//!   module Counter :
//!     input clock : Clock
//!     output out : UInt<8>
//!     reg c : UInt<8>, clock
//!     c <= tail(add(c, UInt<8>(1)), 1)
//!     out <= c
//! "#).unwrap();
//! let mut sim = Simulator::compile(&graph, &SimOptions::default()).unwrap();
//! sim.run(10);
//! assert_eq!(sim.peek_u64("out"), Some(9));
//! ```

// `deny`, not `forbid`: the threaded backend's two arena accessors
// carry the crate's only `#[allow(unsafe_code)]` — bounds checks whose
// invariants are asserted once at lowering time (see
// `threaded::TCtx::rd`). Everything else stays check-enforced.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod counters;
mod engine;
mod exec;
mod executor;
mod explore;
mod fault;
mod image;
mod scenario;
mod scenario_text;
mod session;
mod storage;
mod supervise;
mod threaded;
pub mod wire;
mod wire_session;

pub use compile::FusionStats;
pub use counters::Counters;
pub use engine::{InputFrame, InputHandle, Simulator};
pub use explore::{BranchResult, ExploreOptions, ExploreReport, Explorer, SendSessionFactory};
pub use fault::FaultPlan;
pub use scenario::Scenario;
pub use session::{GsimError, MemoryInfo, Session, SessionFrame, SignalInfo, SnapshotId};
pub use storage::MemArena;
// `Session::peek` and `BranchResult::peeks` speak `Value`; re-export
// it so downstream crates can name what they receive.
pub use gsim_value::Value;
pub use supervise::{RecoveryStats, SessionFactory, SuperviseOptions, SupervisedSession};
pub use wire_session::{Transport, WireClient, WireSession};

use gsim_partition::PartitionOptions;

/// Which engine executes the compiled design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Evaluate all nodes every cycle, single thread (Listing 1).
    FullCycle,
    /// Evaluate all nodes every cycle, levelized across N threads.
    FullCycleMt {
        /// Number of worker threads (≥ 1).
        threads: usize,
    },
    /// Essential-signal simulation with supernode active bits.
    Essential,
    /// Essential-signal simulation swept level-parallel across N
    /// threads (one barrier per supernode-DAG level).
    EssentialMt {
        /// Number of worker threads (≥ 1).
        threads: usize,
    },
    /// Essential-signal simulation dispatched through the in-process
    /// threaded-code backend: each task's encoded units are lowered
    /// once, at compile time, into a dense stream of pre-resolved
    /// handler records (monomorphized per op × width class × operand
    /// shape, with all operand offsets resolved into one flat arena),
    /// so the hot loop does no decode, no width re-checks, and no
    /// operand-space branching. The CLI calls this backend `jit`.
    Threaded,
}

/// Compilation and runtime options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Engine family.
    pub engine: EngineKind,
    /// Supernode partitioning (essential engine only).
    pub partition: PartitionOptions,
    /// Listing 4: check a word of active bits with a single condition.
    pub check_multiple_bits: bool,
    /// §III-B activation-overhead cost model: pick branchy activation
    /// for nodes with many successors, branchless for few. When `false`
    /// every node activates branchlessly (the ESSENT baseline).
    pub activation_cost_model: bool,
    /// Listing 6: speculative register update with per-signal reset
    /// checks at end of cycle. Requires the graph to carry `RegReset`
    /// metadata (i.e. the reset-lowering pass was *not* run).
    pub reset_slow_path: bool,
    /// Superinstruction fusion: collapse frequent adjacent instruction
    /// pairs (op→masking-copy, compare→mux, cat-of-const, register
    /// shadow copies) into single fused opcodes in the execution image.
    /// Purely a substrate optimization — results are bit-identical
    /// either way.
    pub superinstr_fusion: bool,
    /// Locality-aware state layout: segregate input / register /
    /// combinational slot spaces and number combinational slots in
    /// sweep order. Off reproduces the legacy interleaved numbering.
    pub locality_layout: bool,
}

impl Default for SimOptions {
    /// Full GSIM configuration.
    fn default() -> Self {
        SimOptions {
            engine: EngineKind::Essential,
            partition: PartitionOptions::default(),
            check_multiple_bits: true,
            activation_cost_model: true,
            reset_slow_path: true,
            superinstr_fusion: true,
            locality_layout: true,
        }
    }
}

impl SimOptions {
    /// Verilator-like: sequential full-cycle.
    pub fn full_cycle() -> SimOptions {
        SimOptions {
            engine: EngineKind::FullCycle,
            ..SimOptions::default()
        }
    }

    /// Verilator-NT-like: levelized multithreaded full-cycle.
    pub fn full_cycle_mt(threads: usize) -> SimOptions {
        SimOptions {
            engine: EngineKind::FullCycleMt { threads },
            ..SimOptions::default()
        }
    }

    /// ESSENT-like: essential-signal engine without GSIM's runtime
    /// refinements (per-flag checks, always-branchless activation,
    /// resets in the fast path), with MFFC partitioning, and without
    /// the substrate-level image optimizations (fusion, locality
    /// layout) so the baseline stays honest.
    pub fn essent_like() -> SimOptions {
        SimOptions {
            engine: EngineKind::Essential,
            partition: PartitionOptions {
                algorithm: gsim_partition::Algorithm::MffcBased,
                max_size: PartitionOptions::DEFAULT_MAX_SIZE,
            },
            check_multiple_bits: false,
            activation_cost_model: false,
            reset_slow_path: false,
            superinstr_fusion: false,
            locality_layout: false,
        }
    }

    /// GSIM-JIT: the full GSIM configuration executed through the
    /// in-process threaded-code backend ([`EngineKind::Threaded`]).
    pub fn threaded() -> SimOptions {
        SimOptions {
            engine: EngineKind::Threaded,
            ..SimOptions::default()
        }
    }

    /// GSIM-MT: the full GSIM configuration with the essential-signal
    /// sweep parallelized level by level across `threads` threads.
    pub fn essential_mt(threads: usize) -> SimOptions {
        SimOptions {
            engine: EngineKind::EssentialMt { threads },
            ..SimOptions::default()
        }
    }
}

/// Error produced when compiling a graph for simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The graph failed validation.
    InvalidGraph(String),
    /// Thread count of zero requested.
    NoThreads,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::InvalidGraph(m) => write!(f, "invalid graph: {m}"),
            CompileError::NoThreads => write!(f, "thread count must be at least 1"),
        }
    }
}

impl std::error::Error for CompileError {}
