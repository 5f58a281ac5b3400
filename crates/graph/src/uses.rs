//! Successor (fan-out) lists in compressed sparse row form.
//!
//! Essential-signal simulation activates the *successors* of a node
//! whenever its value changes, so fan-out lists are on the hot path of
//! everything: the paper's `Asucc` term is the cost of walking exactly
//! these lists. The supernode partitioner also consumes them (its
//! pre-grouping rules are phrased in terms of in-/out-degree).

use crate::graph::Graph;
use crate::node::NodeId;

/// Deduplicated fan-out lists for every node, plus in-degrees.
#[derive(Debug, Clone)]
pub struct Uses {
    offsets: Vec<u32>,
    succ: Vec<NodeId>,
    in_degree: Vec<u32>,
}

impl Uses {
    /// Builds fan-out lists from all dependency references in the graph
    /// (expressions, memory write operands, register reset signals).
    /// Multiple references from the same user count once.
    pub fn build(g: &Graph) -> Uses {
        let n = g.num_nodes();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        let mut in_degree = vec![0u32; n];
        let mut deps: Vec<NodeId> = Vec::new();
        for (id, node) in g.iter() {
            deps.clear();
            node.for_each_dep(|d| deps.push(d));
            deps.sort_unstable();
            deps.dedup();
            in_degree[id.index()] = deps.len() as u32;
            for &d in &deps {
                pairs.push((d, id));
            }
        }
        let mut offsets = vec![0u32; n + 1];
        for &(src, _) in &pairs {
            offsets[src.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut succ = vec![NodeId::from_index(0); pairs.len()];
        let mut cursor = offsets.clone();
        for &(src, dst) in &pairs {
            succ[cursor[src.index()] as usize] = dst;
            cursor[src.index()] += 1;
        }
        Uses {
            offsets,
            succ,
            in_degree,
        }
    }

    /// The distinct users of node `id`.
    #[inline]
    pub fn fanout(&self, id: NodeId) -> &[NodeId] {
        let lo = self.offsets[id.index()] as usize;
        let hi = self.offsets[id.index() + 1] as usize;
        &self.succ[lo..hi]
    }

    /// Out-degree (number of distinct users).
    #[inline]
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.fanout(id).len()
    }

    /// In-degree (number of distinct nodes referenced).
    #[inline]
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.in_degree[id.index()] as usize
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.succ.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, PrimOp};
    use crate::graph::GraphBuilder;

    #[test]
    fn fanout_deduplicates() {
        let mut b = GraphBuilder::new("t");
        let a = b.input("a", 8, false);
        // c references a twice
        let c = b.comb(
            "c",
            Expr::prim(
                PrimOp::Add,
                vec![Expr::reference(a, 8, false), Expr::reference(a, 8, false)],
                vec![],
            )
            .unwrap(),
        );
        b.output("y", Expr::reference(c, 9, false));
        let g = b.finish().unwrap();
        let uses = Uses::build(&g);
        assert_eq!(uses.fanout(a), &[c]);
        assert_eq!(uses.out_degree(a), 1);
        assert_eq!(uses.in_degree(c), 1);
        assert_eq!(uses.num_edges(), 2);
    }

    #[test]
    fn fanout_multiple_users() {
        let mut b = GraphBuilder::new("t");
        let a = b.input("a", 8, false);
        let mut users = Vec::new();
        for i in 0..5 {
            users.push(
                b.comb(
                    format!("c{i}"),
                    Expr::prim(
                        PrimOp::Xor,
                        vec![Expr::reference(a, 8, false), Expr::const_u64(i, 8)],
                        vec![],
                    )
                    .unwrap(),
                ),
            );
        }
        for (i, &u) in users.iter().enumerate() {
            b.output(format!("o{i}"), Expr::reference(u, 8, false));
        }
        let g = b.finish().unwrap();
        let uses = Uses::build(&g);
        assert_eq!(uses.out_degree(a), 5);
        for &u in &users {
            assert_eq!(uses.out_degree(u), 1);
            assert_eq!(uses.in_degree(u), 1);
        }
    }
}
