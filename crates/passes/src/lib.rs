//! Node-level and bit-level optimization passes (GSIM paper §III-B/C).
//!
//! Each pass is a graph-to-graph transformation that preserves
//! cycle-accurate behaviour (the differential tests in this crate and in
//! `tests/` check every pass against the reference interpreter):
//!
//! * [`simplify`] — expression simplification: constant folding,
//!   algebraic identities, and pattern recognition such as the one-hot
//!   `bits(dshl(1, a), k, k)` → `eq(a, k)` rewrite from the paper.
//! * [`redundant`] — redundant-node elimination: alias nodes, dead
//!   nodes, shorted nodes (via folding + dead-code removal), and unused
//!   self-updating registers (§III-B, Figure 2).
//! * [`inline`] — node inlining vs extraction driven by the paper's
//!   cost model `cost(f) × #refs > cost(f) + cost_node` (§III-B,
//!   Figure 3), including common-subexpression extraction.
//! * [`bitsplit`] — bit-level node splitting along consumers' bit-slice
//!   boundaries (§III-C, Figure 4), reducing the activity factor when
//!   only some bits of a wide signal change.
//! * [`reset`] — lowering register resets into next-value muxes; this is
//!   the *unoptimized* form (Listing 5). Keeping `RegReset` metadata and
//!   letting the engine check reset once per cycle (Listing 6) is GSIM's
//!   reset-handling optimization, so this pass is applied when that
//!   optimization is *disabled*.
//!
//! [`run`] applies a configured pipeline in a sensible fixed order.
//!
//! # Cost
//!
//! Every pass costs one sweep over the graph plus work proportional to
//! what it changes, and rewrites expressions in place or moves them —
//! nothing copies the graph. Each keeps one invariant that makes its
//! shortcut give exactly what whole-graph rounds give:
//!
//! * [`simplify`] revisits only nodes whose expressions the previous
//!   round changed and users of new one-hot sources; any other node
//!   would rewrite to itself, because a rewrite reads only the node's
//!   own expressions and the round-start one-hot table.
//! * [`bitsplit`] keeps every node's use summary current as expressions
//!   change, so it re-checks only new parts and nodes whose uses moved;
//!   nothing else can have become a candidate.
//! * [`inline`] substitutes in topological order, so every copied
//!   expression is already final; extraction rewrites only the nodes a
//!   candidate occurs in, which hoisting larger candidates first can
//!   only shrink.
//! * [`redundant`] is one alias sweep, one reachability walk from the
//!   sinks and one compaction.
//!
//! Compaction ([`rebuild::retain_nodes`]) moves the kept nodes, in
//! order, and remaps references in place; splitting compacts once per
//! call, after its last round.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitsplit;
pub mod inline;
pub mod rebuild;
pub mod redundant;
pub mod reset;
pub mod simplify;

use gsim_graph::Graph;

/// Which passes to run; one flag per paper technique so the Figure 8
/// breakdown can enable them incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassOptions {
    /// Expression simplification (constant folding, identities,
    /// one-hot pattern recognition).
    pub expression_simplify: bool,
    /// Redundant node elimination (alias/dead/shorted/unused-reg).
    pub redundant_elim: bool,
    /// Inline cheap single-use logic into its consumers.
    pub node_inline: bool,
    /// Extract common subexpressions into shared nodes.
    pub node_extract: bool,
    /// Split multi-bit nodes along consumer slice boundaries.
    pub bit_split: bool,
    /// Keep `RegReset` metadata for the engine's slow path (`true`) or
    /// lower resets into per-register muxes (`false`, Listing 5).
    pub reset_slow_path: bool,
}

impl PassOptions {
    /// Everything off: the unoptimized baseline of Figure 8.
    pub fn none() -> PassOptions {
        PassOptions {
            expression_simplify: false,
            redundant_elim: false,
            node_inline: false,
            node_extract: false,
            bit_split: false,
            reset_slow_path: false,
        }
    }

    /// Everything on: the full GSIM pipeline.
    pub fn all() -> PassOptions {
        PassOptions {
            expression_simplify: true,
            redundant_elim: true,
            node_inline: true,
            node_extract: true,
            bit_split: true,
            reset_slow_path: true,
        }
    }
}

impl Default for PassOptions {
    fn default() -> Self {
        PassOptions::all()
    }
}

/// Counters describing what the pipeline did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Expressions rewritten by simplification.
    pub simplified: usize,
    /// Alias nodes forwarded.
    pub aliases_removed: usize,
    /// Dead nodes removed (includes shorted nodes and unused registers).
    pub dead_removed: usize,
    /// Nodes inlined into their consumers.
    pub inlined: usize,
    /// Common subexpressions extracted into new nodes.
    pub extracted: usize,
    /// Nodes split at the bit level.
    pub bit_split: usize,
    /// Registers whose reset was lowered to a mux (reset optimization
    /// disabled).
    pub resets_lowered: usize,
}

/// Runs the configured pass pipeline.
///
/// Order: simplify → redundant elimination → inline/extract → bit split
/// → cleanup (simplify + redundant elimination again), with the reset
/// lowering applied first when the slow path is disabled.
pub fn run(mut graph: Graph, opts: &PassOptions) -> (Graph, PassStats) {
    let mut stats = PassStats::default();
    if !opts.reset_slow_path {
        stats.resets_lowered = reset::lower_resets_to_mux(&mut graph);
    }
    if opts.expression_simplify {
        stats.simplified += simplify::simplify(&mut graph);
    }
    if opts.redundant_elim {
        let r = redundant::eliminate(&mut graph);
        stats.aliases_removed += r.aliases;
        stats.dead_removed += r.dead;
    }
    if opts.node_inline {
        stats.inlined += inline::inline_cheap(&mut graph);
        if opts.redundant_elim {
            let r = redundant::eliminate(&mut graph);
            stats.aliases_removed += r.aliases;
            stats.dead_removed += r.dead;
        }
    }
    if opts.node_extract {
        stats.extracted += inline::extract_common(&mut graph);
    }
    if opts.bit_split {
        stats.bit_split += bitsplit::split(&mut graph);
        // bit splitting leaves aliases and slack; clean up.
        if opts.expression_simplify {
            stats.simplified += simplify::simplify(&mut graph);
        }
        if opts.redundant_elim {
            let r = redundant::eliminate(&mut graph);
            stats.aliases_removed += r.aliases;
            stats.dead_removed += r.dead;
        }
    }
    (graph, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_firrtl::compile;

    #[test]
    fn full_pipeline_shrinks_and_preserves_interface() {
        let g = compile(
            r#"
circuit T :
  module T :
    input clock : Clock
    input a : UInt<8>
    output y : UInt<8>
    node t1 = and(a, UInt<8>(255))
    node t2 = or(t1, UInt<8>(0))
    node unused = xor(a, UInt<8>(3))
    y <= t2
"#,
        )
        .unwrap();
        let before = g.num_nodes();
        let (g2, stats) = run(g, &PassOptions::all());
        assert!(g2.num_nodes() < before);
        assert!(stats.dead_removed > 0 || stats.aliases_removed > 0);
        assert!(g2.node_by_name("a").is_some());
        assert!(g2.node_by_name("y").is_some());
        g2.validate().unwrap();
    }

    #[test]
    fn none_options_do_nothing_but_reset_lowering_off() {
        let g = compile(
            r#"
circuit T :
  module T :
    input a : UInt<4>
    output y : UInt<4>
    y <= a
"#,
        )
        .unwrap();
        let n = g.num_nodes();
        let (g2, stats) = run(g, &PassOptions::none());
        // reset_slow_path=false lowers resets, but there are none here.
        assert_eq!(g2.num_nodes(), n);
        assert_eq!(stats.resets_lowered, 0);
    }
}
