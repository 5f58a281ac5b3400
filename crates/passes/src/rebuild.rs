//! Graph rebuilding with node-id remapping, and the users index the
//! worklist passes build once per call.

use gsim_graph::{Expr, ExprKind, Graph, MemId, NodeId, NodeKind};

/// Rebuilds `graph`, keeping only nodes where `keep[i]` is true, and
/// remapping all references. Kept nodes keep their order and names and
/// are moved, not copied; memories with no surviving ports are dropped.
///
/// # Panics
///
/// Panics if a kept node references a dropped node (pass bug).
pub fn retain_nodes(graph: Graph, keep: &[bool]) -> Graph {
    assert_eq!(keep.len(), graph.num_nodes());
    let mut remap: Vec<Option<NodeId>> = vec![None; graph.num_nodes()];
    let mut new_index = 0usize;
    for (i, &k) in keep.iter().enumerate() {
        if k {
            remap[i] = Some(NodeId::from_index(new_index));
            new_index += 1;
        }
    }

    // Figure out which memories survive (any port kept).
    let mut mem_used = vec![false; graph.mems().len()];
    for (id, node) in graph.iter() {
        if !keep[id.index()] {
            continue;
        }
        match node.kind {
            NodeKind::MemRead { mem } | NodeKind::MemWrite { mem } => {
                mem_used[mem.index()] = true;
            }
            _ => {}
        }
    }
    let mut mem_remap: Vec<Option<MemId>> = vec![None; graph.mems().len()];
    let mut kept_mems = 0;
    for (i, used) in mem_used.iter().enumerate() {
        if *used {
            mem_remap[i] = Some(MemId::from_index(kept_mems));
            kept_mems += 1;
        }
    }

    let (name, mut nodes, mut mems) = graph.into_parts();
    let mut i = 0;
    mems.retain(|_| {
        i += 1;
        mem_used[i - 1]
    });
    let mut i = 0;
    nodes.retain_mut(|node| {
        i += 1;
        if !keep[i - 1] {
            return false;
        }
        for e in node.exprs_mut() {
            e.visit_mut(&mut |sub| {
                if let ExprKind::Ref(id) = &mut sub.kind {
                    *id = remap[id.index()]
                        .unwrap_or_else(|| panic!("kept node references dropped node {id}"));
                }
            });
        }
        match &mut node.kind {
            NodeKind::Reg { reset: Some(r) } => {
                r.signal =
                    remap[r.signal.index()].expect("reset signal of kept register must survive");
            }
            NodeKind::MemRead { mem } | NodeKind::MemWrite { mem } => {
                *mem = mem_remap[mem.index()].expect("port mem survives");
            }
            _ => {}
        }
        true
    });
    Graph::from_parts(name, nodes, mems)
}

/// Replaces every reference to `from` with a reference to `to`
/// throughout the graph (alias forwarding). Also fixes register reset
/// signals.
pub fn redirect_refs(graph: &mut Graph, forward: &[Option<NodeId>]) {
    let resolve = |mut id: NodeId| -> NodeId {
        // Follow forwarding chains (alias of alias).
        let mut hops = 0;
        while let Some(next) = forward[id.index()] {
            id = next;
            hops += 1;
            assert!(hops <= forward.len(), "alias cycle");
        }
        id
    };
    let ids: Vec<NodeId> = graph.node_ids().collect();
    for id in ids {
        let node = graph.node_mut(id);
        for e in node.exprs_mut() {
            e.visit_mut(&mut |sub| {
                if let ExprKind::Ref(r) = &mut sub.kind {
                    *r = resolve(*r);
                }
            });
        }
        if let NodeKind::Reg { reset: Some(r) } = &mut node.kind {
            r.signal = resolve(r.signal);
        }
    }
}

/// Runs `f` on each expression of node `id` (see
/// [`gsim_graph::Node::exprs`]) with the rest of the graph at hand: the
/// expressions are moved out for the call and back after it, so `f`
/// sees the node itself without them.
pub(crate) fn edit_exprs(graph: &mut Graph, id: NodeId, mut f: impl FnMut(&mut Expr, &mut Graph)) {
    let node = graph.node_mut(id);
    let mut expr = node.expr.take();
    let mut write = node.write.take();
    let operands = write
        .as_deref_mut()
        .into_iter()
        .flat_map(|w| [&mut w.addr, &mut w.data, &mut w.en]);
    for e in expr.iter_mut().chain(operands) {
        f(e, graph);
    }
    let node = graph.node_mut(id);
    node.expr = expr;
    node.write = write;
}

/// Who references each node from an expression (reset signals are not
/// expressions and are not listed): a compressed index over the graph
/// as it was when built, plus the references recorded since. Worklist
/// passes build it once per call and record the references their
/// rewrites add, so a listed user may no longer reference the node —
/// visiting such a user finds nothing to do.
pub(crate) struct Users {
    offsets: Vec<u32>,
    users: Vec<NodeId>,
    /// `(node, user)` pairs recorded after the build.
    added: Vec<(NodeId, NodeId)>,
}

impl Users {
    pub(crate) fn new(graph: &Graph) -> Users {
        let n = graph.num_nodes();
        let mut offsets = vec![0u32; n + 1];
        for (_, node) in graph.iter() {
            for_each_ref(node.exprs(), |r| offsets[r.index() + 1] += 1);
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut users = vec![NodeId::from_index(0); offsets[n] as usize];
        let mut cursor = offsets.clone();
        for (id, node) in graph.iter() {
            for_each_ref(node.exprs(), |r| {
                users[cursor[r.index()] as usize] = id;
                cursor[r.index()] += 1;
            });
        }
        Users {
            offsets,
            users,
            added: Vec::new(),
        }
    }

    /// Records that `user` references every node its expressions
    /// `exprs` reference.
    pub(crate) fn record<'a>(&mut self, user: NodeId, exprs: impl IntoIterator<Item = &'a Expr>) {
        for_each_ref(exprs, |r| self.added.push((r, user)));
    }

    /// The distinct users of `nodes`, ascending; `num_nodes` is the
    /// graph's current size.
    pub(crate) fn of(&self, nodes: &[NodeId], num_nodes: usize) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut wanted = vec![false; num_nodes];
        let built = self.offsets.len() - 1;
        for &id in nodes {
            wanted[id.index()] = true;
            if id.index() < built {
                let (lo, hi) = (self.offsets[id.index()], self.offsets[id.index() + 1]);
                out.extend_from_slice(&self.users[lo as usize..hi as usize]);
            }
        }
        out.extend(
            self.added
                .iter()
                .filter(|(node, _)| wanted[node.index()])
                .map(|&(_, user)| user),
        );
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Calls `f` on every node reference in `exprs`.
pub(crate) fn for_each_ref<'a>(
    exprs: impl IntoIterator<Item = &'a Expr>,
    mut f: impl FnMut(NodeId),
) {
    for e in exprs {
        e.visit(&mut |sub| {
            if let ExprKind::Ref(r) = sub.kind {
                f(r);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_graph::GraphBuilder;

    #[test]
    fn retain_drops_and_remaps() {
        let mut b = GraphBuilder::new("t");
        let a = b.input("a", 4, false);
        let dead = b.comb("dead", Expr::reference(a, 4, false));
        let alive = b.comb("alive", Expr::reference(a, 4, false));
        b.output("y", Expr::reference(alive, 4, false));
        let g = b.finish().unwrap();

        let mut keep = vec![true; g.num_nodes()];
        keep[dead.index()] = false;
        let g2 = retain_nodes(g, &keep);
        assert_eq!(g2.num_nodes(), 3);
        g2.validate().unwrap();
        assert!(g2.node_by_name("dead").is_none());
        assert!(g2.node_by_name("alive").is_some());
        assert_eq!(g2.outputs(), &[NodeId::from_index(2)]);
    }

    #[test]
    fn redirect_follows_chains() {
        let mut b = GraphBuilder::new("t");
        let a = b.input("a", 4, false);
        let al1 = b.comb("al1", Expr::reference(a, 4, false));
        let al2 = b.comb("al2", Expr::reference(al1, 4, false));
        b.output("y", Expr::reference(al2, 4, false));
        let mut g = b.finish().unwrap();

        let mut fwd = vec![None; g.num_nodes()];
        fwd[al2.index()] = Some(al1);
        fwd[al1.index()] = Some(a);
        redirect_refs(&mut g, &fwd);
        let y = g.node_by_name("y").unwrap();
        assert_eq!(g.node(y).expr.as_ref().unwrap().as_ref_node(), Some(a));
    }
}
