//! Topological scheduling of the circuit graph.
//!
//! Full-cycle simulation evaluates nodes in a fixed topological order
//! (§II-A of the paper). The ordering constraint is: if a *combinational*
//! node `m` (logic, memory read port, output) is referenced by node `n`,
//! then `m` must be evaluated before `n`. Registers read their previous
//! value, so a reference to a register imposes no ordering edge — this is
//! the classic "split registers into read/write" trick, expressed here
//! without physically splitting nodes.

use crate::graph::Graph;
use crate::node::NodeId;
use std::fmt;

/// Error: combinational logic forms a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombLoopError {
    /// Nodes on one detected cycle, in dependency order.
    pub cycle: Vec<NodeId>,
}

impl fmt::Display for CombLoopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "combinational loop through {} nodes:", self.cycle.len())?;
        for n in self.cycle.iter().take(8) {
            write!(f, " {n}")?;
        }
        if self.cycle.len() > 8 {
            write!(f, " ...")?;
        }
        Ok(())
    }
}

impl std::error::Error for CombLoopError {}

/// Computes a topological evaluation order over all nodes.
///
/// The returned order contains every node exactly once. Inputs come
/// wherever convenient (they have no work); register next-value
/// evaluation and memory writes are ordered after their operands like any
/// other node.
///
/// # Errors
///
/// Returns [`CombLoopError`] if combinational logic is cyclic.
pub fn toposort(g: &Graph) -> Result<Vec<NodeId>, CombLoopError> {
    let n = g.num_nodes();
    // Build successor adjacency over scheduling edges (comb-like -> user).
    let mut indegree = vec![0u32; n];
    let mut succ_offsets = vec![0u32; n + 1];
    // First pass: count scheduling edges per source.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for (id, node) in g.iter() {
        node.for_each_dep(|dep| {
            if g.node(dep).kind.is_comb_like() {
                edges.push((dep, id));
                indegree[id.index()] += 1;
            }
        });
    }
    for &(src, _) in &edges {
        succ_offsets[src.index() + 1] += 1;
    }
    for i in 0..n {
        succ_offsets[i + 1] += succ_offsets[i];
    }
    let mut succ = vec![NodeId::from_index(0); edges.len()];
    let mut cursor = succ_offsets.clone();
    for &(src, dst) in &edges {
        succ[cursor[src.index()] as usize] = dst;
        cursor[src.index()] += 1;
    }

    // Kahn's algorithm with a LIFO worklist: the resulting order is
    // DFS-like, keeping chains of logic contiguous. Interval-based
    // partitioning (Kernighan) depends on that locality — a FIFO order
    // interleaves independent cones and destroys partition quality.
    let mut order = Vec::with_capacity(n);
    let mut queue: Vec<NodeId> = (0..n)
        .rev()
        .filter(|&i| indegree[i] == 0)
        .map(NodeId::from_index)
        .collect();
    while let Some(id) = queue.pop() {
        order.push(id);
        let (lo, hi) = (
            succ_offsets[id.index()] as usize,
            succ_offsets[id.index() + 1] as usize,
        );
        for &next in &succ[lo..hi] {
            indegree[next.index()] -= 1;
            if indegree[next.index()] == 0 {
                queue.push(next);
            }
        }
    }
    if order.len() == n {
        return Ok(order);
    }

    // A cycle exists among nodes with indegree > 0; walk it for the error.
    let stuck = (0..n).find(|&i| indegree[i] > 0).expect("cycle exists");
    let mut cycle = Vec::new();
    let mut seen = vec![false; n];
    let mut cur = NodeId::from_index(stuck);
    loop {
        if seen[cur.index()] {
            // trim the tail before the repeated node
            if let Some(pos) = cycle.iter().position(|&x| x == cur) {
                cycle.drain(..pos);
            }
            break;
        }
        seen[cur.index()] = true;
        cycle.push(cur);
        // follow any comb dependency that is still stuck
        let next = g
            .node(cur)
            .dep_refs()
            .into_iter()
            .find(|d| g.node(*d).kind.is_comb_like() && indegree[d.index()] > 0);
        match next {
            Some(d) => cur = d,
            None => break,
        }
    }
    cycle.reverse();
    Err(CombLoopError { cycle })
}

/// Level assignment for the parallel full-cycle engine: nodes in the same
/// level have no scheduling dependencies among themselves, so a level can
/// be evaluated by multiple threads with a barrier between levels (this
/// is how Verilator-style multithreaded partitions are modeled).
#[derive(Debug, Clone)]
pub struct Levels {
    /// `level[i]` of node `i`.
    pub level: Vec<u32>,
    /// Nodes grouped per level, each group in index order.
    pub groups: Vec<Vec<NodeId>>,
}

impl Levels {
    /// Computes levels: `level(n) = 1 + max(level(comb deps))`, sources
    /// at level 0.
    ///
    /// # Errors
    ///
    /// Returns [`CombLoopError`] if combinational logic is cyclic.
    pub fn compute(g: &Graph) -> Result<Levels, CombLoopError> {
        let order = toposort(g)?;
        let mut level = vec![0u32; g.num_nodes()];
        for &id in &order {
            let mut lv = 0;
            g.node(id).for_each_dep(|dep| {
                if g.node(dep).kind.is_comb_like() {
                    lv = lv.max(level[dep.index()] + 1);
                }
            });
            level[id.index()] = lv;
        }
        let max = level.iter().copied().max().unwrap_or(0);
        let mut groups = vec![Vec::new(); max as usize + 1];
        for &id in &order {
            groups[level[id.index()] as usize].push(id);
        }
        Ok(Levels { level, groups })
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, PrimOp};
    use crate::graph::GraphBuilder;

    fn chain(n: usize) -> Graph {
        let mut b = GraphBuilder::new("chain");
        let mut prev = b.input("in", 8, false);
        for i in 0..n {
            let e = Expr::prim(
                PrimOp::Xor,
                vec![
                    Expr::reference(prev, 8, false),
                    Expr::const_u64(i as u64, 8),
                ],
                vec![],
            )
            .unwrap();
            prev = b.comb(format!("c{i}"), e);
        }
        b.output("out", Expr::reference(prev, 8, false));
        b.finish().unwrap()
    }

    #[test]
    fn order_respects_dependencies() {
        let g = chain(10);
        let order = toposort(&g).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.num_nodes()];
            for (i, &id) in order.iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        for (id, node) in g.iter() {
            for dep in node.dep_refs() {
                if g.node(dep).kind.is_comb_like() {
                    assert!(pos[dep.index()] < pos[id.index()]);
                }
            }
        }
    }

    #[test]
    fn levels_of_chain_are_sequential() {
        let g = chain(5);
        let lv = Levels::compute(&g).unwrap();
        // Inputs are free sources, so c0 sits at level 0 beside the
        // input; c1..c4 at 1..=4; output at 5.
        assert_eq!(lv.depth(), 6);
        assert_eq!(lv.groups[0].len(), 2);
        assert!(lv.groups[1..].iter().all(|g| g.len() == 1));
    }

    #[test]
    fn wide_fanout_is_flat() {
        let mut b = GraphBuilder::new("fan");
        let a = b.input("a", 8, false);
        for i in 0..16 {
            let e = Expr::prim(
                PrimOp::Add,
                vec![Expr::reference(a, 8, false), Expr::const_u64(i, 8)],
                vec![],
            )
            .unwrap();
            b.comb(format!("c{i}"), Expr::truncate(e, 8));
        }
        let g = b.finish().unwrap();
        let lv = Levels::compute(&g).unwrap();
        // all 16 consumers in one level (plus bits-truncation is folded
        // into the same node expression, so still one level)
        assert!(lv.depth() <= 3);
        assert!(lv.groups.iter().any(|grp| grp.len() >= 16));
    }

    #[test]
    fn register_reference_is_not_a_scheduling_edge() {
        let mut b = GraphBuilder::new("t");
        let r = b.reg("r", 8, false);
        let c = b.comb(
            "c",
            Expr::truncate(
                Expr::prim(
                    PrimOp::Add,
                    vec![Expr::reference(r, 8, false), Expr::const_u64(1, 8)],
                    vec![],
                )
                .unwrap(),
                8,
            ),
        );
        b.set_reg_next(r, Expr::reference(c, 8, false));
        b.output("o", Expr::reference(r, 8, false));
        let g = b.finish().unwrap();
        let order = toposort(&g).unwrap();
        assert_eq!(order.len(), 3);
    }
}
