//! Redundant node elimination (paper §III-B, Figure 2).
//!
//! Four kinds of redundancy, matching the paper:
//!
//! 1. **Alias nodes** — combinational nodes whose whole expression is a
//!    single reference; users are redirected to the referee.
//! 2. **Dead nodes** — nodes whose value cannot influence any sink
//!    (top-level output or memory write).
//! 3. **Shorted nodes** — nodes cut off by constant selection (e.g. the
//!    unused arm of a constant-selector mux). These become dead once
//!    [`crate::simplify`] folds the selector, so this pass is run after
//!    simplification.
//! 4. **Unused registers** — registers that only feed their own next
//!    value (self-updating state nobody reads); reverse reachability
//!    from sinks handles these uniformly, because the cycle
//!    `r -> r` never reaches a sink.

use crate::rebuild;
use gsim_graph::{Graph, NodeId, NodeKind};

/// What [`eliminate`] removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElimStats {
    /// Alias nodes forwarded and removed.
    pub aliases: usize,
    /// Dead (unreachable-to-sink) nodes removed, including unused
    /// registers and shorted nodes.
    pub dead: usize,
}

/// Runs alias forwarding then dead-node elimination, rebuilding the
/// graph. Top-level inputs and outputs always survive.
pub fn eliminate(graph: &mut Graph) -> ElimStats {
    // Alias forwarding must run before dead-node removal: forwarding
    // strands the alias nodes, which the dead pass then collects.
    let aliases = forward_aliases(graph);
    let dead = remove_dead(graph);
    ElimStats { aliases, dead }
}

/// Redirects users of pure-alias nodes to the aliased node. The alias
/// node itself becomes dead (removed by [`remove_dead`]).
pub fn forward_aliases(graph: &mut Graph) -> usize {
    let mut forward: Vec<Option<NodeId>> = vec![None; graph.num_nodes()];
    let mut count = 0;
    for (id, node) in graph.iter() {
        // Outputs keep their node (they are the interface); registers
        // and memory ports have state/port semantics; only plain comb
        // aliases forward.
        if !matches!(node.kind, NodeKind::Comb) {
            continue;
        }
        if let Some(e) = &node.expr {
            if let Some(target) = e.as_ref_node() {
                // Type must match exactly for a transparent alias.
                let t = graph.node(target);
                if t.width == node.width && t.signed == node.signed {
                    forward[id.index()] = Some(target);
                    count += 1;
                }
            }
        }
    }
    if count > 0 {
        rebuild::redirect_refs(graph, &forward);
    }
    count
}

/// Removes nodes that cannot reach a sink (output or memory write),
/// rebuilding the graph. Inputs are always kept.
pub fn remove_dead(graph: &mut Graph) -> usize {
    let n = graph.num_nodes();
    let mut live = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    for (id, node) in graph.iter() {
        if node.kind.is_sink() {
            live[id.index()] = true;
            stack.push(id);
        }
    }
    while let Some(id) = stack.pop() {
        graph.node(id).for_each_dep(|dep| {
            if !live[dep.index()] {
                live[dep.index()] = true;
                stack.push(dep);
            }
        });
    }
    // Inputs are interface; keep them even if unread.
    for (id, node) in graph.iter() {
        if matches!(node.kind, NodeKind::Input) {
            live[id.index()] = true;
        }
    }
    let dead = live.iter().filter(|&&l| !l).count();
    if dead > 0 {
        *graph = rebuild::retain_nodes(std::mem::take(graph), &live);
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_firrtl::compile;
    use gsim_graph::interp::RefInterp;

    #[test]
    fn alias_chain_collapses() {
        let mut g = compile(
            r#"
circuit A :
  module A :
    input x : UInt<8>
    output y : UInt<8>
    wire a : UInt<8>
    wire b : UInt<8>
    a <= x
    b <= a
    y <= b
"#,
        )
        .unwrap();
        let before = g.num_nodes();
        let stats = eliminate(&mut g);
        assert!(stats.aliases >= 2);
        assert!(g.num_nodes() < before);
        g.validate().unwrap();
        let mut sim = RefInterp::new(&g).unwrap();
        sim.poke_u64("x", 0x5c).unwrap();
        sim.step();
        assert_eq!(sim.peek_u64("y"), Some(0x5c));
    }

    #[test]
    fn dead_logic_removed() {
        let mut g = compile(
            r#"
circuit D :
  module D :
    input x : UInt<8>
    output y : UInt<8>
    node used = not(x)
    node unused1 = xor(x, UInt<8>(1))
    node unused2 = and(unused1, UInt<8>(3))
    y <= used
"#,
        )
        .unwrap();
        let stats = eliminate(&mut g);
        assert!(stats.dead >= 2);
        assert!(g.node_by_name("unused1").is_none());
        assert!(g.node_by_name("unused2").is_none());
        assert!(g.node_by_name("used").is_some());
        g.validate().unwrap();
    }

    #[test]
    fn unused_self_updating_register_removed() {
        let mut g = compile(
            r#"
circuit R :
  module R :
    input clock : Clock
    input x : UInt<8>
    output y : UInt<8>
    reg ghost : UInt<8>, clock
    ghost <= tail(add(ghost, UInt<8>(1)), 1)
    y <= x
"#,
        )
        .unwrap();
        let stats = eliminate(&mut g);
        assert!(stats.dead >= 1);
        assert!(g.node_by_name("ghost").is_none());
        g.validate().unwrap();
    }

    #[test]
    fn live_register_chain_kept() {
        let mut g = compile(
            r#"
circuit L :
  module L :
    input clock : Clock
    input x : UInt<8>
    output y : UInt<8>
    reg r : UInt<8>, clock
    r <= x
    y <= r
"#,
        )
        .unwrap();
        eliminate(&mut g);
        assert!(g.node_by_name("r").is_some());
    }

    #[test]
    fn shorted_node_removed_after_simplify() {
        // G = mux(D, E+1, F) with D = 1: F's cone is shorted out.
        let mut g = compile(
            r#"
circuit S :
  module S :
    input e : UInt<8>
    input x : UInt<8>
    output g : UInt<9>
    node d = UInt<1>(1)
    node f = xor(x, UInt<8>(99))
    g <= mux(d, add(e, UInt<8>(1)), pad(f, 9))
"#,
        )
        .unwrap();
        crate::simplify::simplify(&mut g);
        let stats = eliminate(&mut g);
        assert!(stats.dead >= 1);
        assert!(g.node_by_name("f").is_none(), "shorted node must go");
        let mut sim = RefInterp::new(&g).unwrap();
        sim.poke_u64("e", 7).unwrap();
        sim.step();
        assert_eq!(sim.peek_u64("g"), Some(8));
    }

    #[test]
    fn mem_with_dead_ports_dropped() {
        let mut g = compile(
            r#"
circuit M :
  module M :
    input x : UInt<8>
    output y : UInt<8>
    mem scratch :
      data-type => UInt<8>
      depth => 8
      read-latency => 0
      write-latency => 1
      reader => r
    scratch.r.addr <= bits(x, 2, 0)
    y <= x
"#,
        )
        .unwrap();
        assert_eq!(g.mems().len(), 1);
        eliminate(&mut g);
        assert_eq!(g.mems().len(), 0, "memory with no live ports dropped");
        g.validate().unwrap();
    }

    #[test]
    fn write_only_memory_kept() {
        // A write port is a sink, so the memory stays even if never read.
        let mut g = compile(
            r#"
circuit W :
  module W :
    input clock : Clock
    input x : UInt<8>
    output y : UInt<8>
    mem log :
      data-type => UInt<8>
      depth => 8
      read-latency => 0
      write-latency => 1
      writer => w
    log.w.addr <= bits(x, 2, 0)
    log.w.data <= x
    log.w.en <= UInt<1>(1)
    y <= x
"#,
        )
        .unwrap();
        eliminate(&mut g);
        assert_eq!(g.mems().len(), 1);
    }
}
