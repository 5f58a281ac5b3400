//! Bit-level node splitting (paper §III-C, Figure 4).
//!
//! Long signals often change in only a few bits per cycle; a consumer
//! that slices only the unchanged bits is still activated when the node
//! value changes. Splitting the node along the slice boundaries its
//! consumers actually use removes those false activations, lowering the
//! activity factor `af`.
//!
//! Algorithm (per round, iterated so splits propagate along chains like
//! the paper's `D → E → {F, G}` example):
//!
//! 1. For every unsigned combinational node `n`, classify each use:
//!    a direct `bits(n, hi, lo)` is a *slice use*; anything else is a
//!    *full use*. Nodes with only slice uses and at least one interior
//!    boundary are split candidates.
//! 2. The slice endpoints induce an interval partition of `n`'s bits.
//!    `n`'s expression is decomposed per interval — possible when it is
//!    built from bit-parallel operations (`cat`, `bits`, `not`, `and`,
//!    `or`, `xor`, `mux`, `pad`) over unsigned operands.
//! 3. One new node per interval replaces `n`; consumers' slices become
//!    references (or concatenations) of the parts. Bits nobody reads
//!    become dead parts that redundant-node elimination removes.
//!
//! Rounds are worklist-driven. The use summaries are built by one sweep
//! and then kept current: whenever an expression is added, removed or
//! rewritten, its uses are subtracted before and added after. Whether a
//! node is a candidate depends only on its own summary and expression,
//! so each round after the first checks just the parts the last round
//! created, the nodes whose uses it changed and the users it rewrote —
//! every other node was already not a candidate — and rewrites just the
//! users of the nodes it split. Split nodes stay in place, marked, until
//! one compaction at the end; parts are appended in the order the
//! rounds created them, so the compacted graph is node for node the one
//! a per-round rebuild produces.

use crate::rebuild;
use gsim_graph::{Expr, ExprKind, Graph, Node, NodeId, NodeKind, PrimOp};
use gsim_value::{ops, Value};
use std::collections::HashMap;

/// Maximum propagation rounds per [`split`] call.
const MAX_ROUNDS: usize = 4;

/// Runs bit-splitting to a fixpoint (bounded rounds). Returns the number
/// of nodes split.
pub fn split(graph: &mut Graph) -> usize {
    let mut state = SplitState::new(graph);
    let mut check: Vec<NodeId> = graph.node_ids().collect();
    let mut total = 0;
    for _ in 0..MAX_ROUNDS {
        check.sort_unstable();
        check.dedup();
        let plans: Vec<Plan> = check
            .iter()
            .filter_map(|&id| state.plan(graph, id))
            .collect();
        if plans.is_empty() {
            break;
        }
        total += plans.len();
        check = state.apply(graph, plans);
    }
    if total > 0 {
        let keep: Vec<bool> = state.removed.iter().map(|&r| !r).collect();
        *graph = rebuild::retain_nodes(std::mem::take(graph), &keep);
    }
    total
}

/// How one node is used across the graph.
#[derive(Debug, Default, Clone)]
struct UseSummary {
    /// `(lo, hi_exclusive)` for each `bits` use, in no particular order.
    slices: Vec<(u32, u32)>,
    /// Number of non-slice (whole-value) uses.
    full_uses: usize,
}

/// One node to split: its intervals and the expression of each part.
struct Plan {
    id: NodeId,
    intervals: Vec<(u32, u32)>,
    parts: Vec<Expr>,
}

/// What a [`split`] call keeps between rounds.
struct SplitState {
    uses: Vec<UseSummary>,
    users: rebuild::Users,
    /// Split nodes, dropped at the end of the call.
    removed: Vec<bool>,
}

impl SplitState {
    fn new(graph: &Graph) -> SplitState {
        let mut uses = vec![UseSummary::default(); graph.num_nodes()];
        let mut touched = Vec::new();
        for (_, node) in graph.iter() {
            for e in node.exprs() {
                classify(e, &mut uses, true, &mut touched);
            }
            if let NodeKind::Reg { reset: Some(r) } = &node.kind {
                uses[r.signal.index()].full_uses += 1;
            }
            touched.clear();
        }
        SplitState {
            uses,
            users: rebuild::Users::new(graph),
            removed: vec![false; graph.num_nodes()],
        }
    }

    /// The split of node `id`, if it is a candidate: unsigned
    /// combinational, only sliced, cut at least once inside, and
    /// decomposable along every interval.
    fn plan(&self, graph: &Graph, id: NodeId) -> Option<Plan> {
        let node = graph.node(id);
        if self.removed[id.index()]
            || !matches!(node.kind, NodeKind::Comb)
            || node.signed
            || node.width < 2
        {
            return None;
        }
        let summary = &self.uses[id.index()];
        if summary.full_uses > 0 || summary.slices.is_empty() {
            return None;
        }
        let mut cuts: Vec<u32> = vec![0, node.width];
        for &(lo, hi) in &summary.slices {
            cuts.push(lo);
            cuts.push(hi);
        }
        cuts.sort_unstable();
        cuts.dedup();
        if cuts.len() <= 2 {
            return None; // single interval — nothing to split
        }
        let expr = node.expr.as_ref()?;
        let intervals: Vec<(u32, u32)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
        let parts = intervals
            .iter()
            .map(|&(lo, hi)| decompose(expr, lo, hi))
            .collect::<Option<Vec<Expr>>>()?;
        Some(Plan {
            id,
            intervals,
            parts,
        })
    }

    /// Applies one round's plans and returns the nodes the next round
    /// must check: the new parts and every node whose uses changed.
    fn apply(&mut self, graph: &mut Graph, mut plans: Vec<Plan>) -> Vec<NodeId> {
        let mut next: Vec<NodeId> = Vec::new();
        let mut parts_of: HashMap<NodeId, Vec<(u32, u32, NodeId)>> = HashMap::new();
        for plan in &mut plans {
            let node = graph.node(plan.id);
            let base_name = if node.name.is_empty() {
                // The id this node has once earlier rounds' splits are
                // compacted away.
                let earlier = self.removed[..plan.id.index()]
                    .iter()
                    .filter(|&&r| r)
                    .count();
                format!("{}", NodeId::from_index(plan.id.index() - earlier))
            } else {
                node.name.clone()
            };
            let mut parts = Vec::with_capacity(plan.parts.len());
            for (&(lo, hi), part_expr) in plan.intervals.iter().zip(plan.parts.drain(..)) {
                debug_assert_eq!(part_expr.width, hi - lo);
                classify(&part_expr, &mut self.uses, true, &mut next);
                let part = graph.push_node(Node {
                    name: format!("{base_name}${hi}_{lo}"),
                    kind: NodeKind::Comb,
                    width: hi - lo,
                    signed: false,
                    expr: Some(part_expr),
                    write: None,
                });
                self.uses.push(UseSummary::default());
                self.removed.push(false);
                self.users.record(part, graph.node(part).exprs());
                next.push(part);
                parts.push((lo, hi, part));
            }
            parts_of.insert(plan.id, parts);
        }
        // The split nodes leave the graph, and their uses with them.
        for plan in &plans {
            let expr = graph
                .node(plan.id)
                .expr
                .as_ref()
                .expect("split node has expr");
            classify(expr, &mut self.uses, false, &mut next);
            self.removed[plan.id.index()] = true;
        }

        // Rewrite consumers: every bits(split_node, hi, lo) becomes the
        // concatenation of the covering parts (always aligned, because the
        // cuts came from these very slices).
        let split: Vec<NodeId> = plans.iter().map(|p| p.id).collect();
        for user in self.users.of(&split, graph.num_nodes()) {
            if self.removed[user.index()] {
                continue;
            }
            for e in graph.node_mut(user).exprs_mut() {
                classify(e, &mut self.uses, false, &mut next);
                rewrite_slices(e, &parts_of);
                classify(e, &mut self.uses, true, &mut next);
            }
            self.users.record(user, graph.node(user).exprs());
            next.push(user);
        }
        next
    }
}

/// Adds (`add`) or removes the uses in `e` to or from the summaries,
/// and lists every node whose summary moved in `touched`. A use is a
/// slice only when the reference appears directly inside
/// `bits(, hi, lo)`.
fn classify(e: &Expr, uses: &mut [UseSummary], add: bool, touched: &mut Vec<NodeId>) {
    match &e.kind {
        ExprKind::Ref(id) => {
            let summary = &mut uses[id.index()];
            if add {
                summary.full_uses += 1;
            } else {
                summary.full_uses -= 1;
            }
            touched.push(*id);
        }
        ExprKind::Const(_) => {}
        ExprKind::Prim(op, args, params) => {
            if *op == PrimOp::Bits {
                if let ExprKind::Ref(id) = &args[0].kind {
                    let slice = (params[1], params[0] + 1);
                    let slices = &mut uses[id.index()].slices;
                    if add {
                        slices.push(slice);
                    } else {
                        let at = slices
                            .iter()
                            .position(|&s| s == slice)
                            .expect("removed slice was recorded");
                        slices.swap_remove(at);
                    }
                    touched.push(*id);
                    return;
                }
            }
            for a in args {
                classify(a, uses, add, touched);
            }
        }
    }
}

/// Extracts bits `[lo, hi)` of `e` as a new expression, if `e` is
/// bit-parallel decomposable. The result is unsigned with width
/// `hi - lo`.
fn decompose(e: &Expr, lo: u32, hi: u32) -> Option<Expr> {
    debug_assert!(lo < hi && hi <= e.width);
    let w = hi - lo;
    match &e.kind {
        ExprKind::Const(v) => Some(Expr::constant(ops::bits(
            &v.zext_or_trunc(e.width.max(hi)),
            hi - 1,
            lo,
        ))),
        ExprKind::Ref(_) => {
            if e.signed {
                return None;
            }
            if lo == 0 && hi == e.width {
                Some(e.clone())
            } else {
                Some(Expr::prim(PrimOp::Bits, vec![e.clone()], vec![hi - 1, lo]).ok()?)
            }
        }
        ExprKind::Prim(op, args, params) => match op {
            PrimOp::Cat => {
                let lo_w = args[1].width;
                if hi <= lo_w {
                    decompose(&args[1], lo, hi)
                } else if lo >= lo_w {
                    decompose(&args[0], lo - lo_w, hi - lo_w)
                } else {
                    let low_part = decompose(&args[1], lo, lo_w)?;
                    let high_part = decompose(&args[0], 0, hi - lo_w)?;
                    Some(Expr::prim(PrimOp::Cat, vec![high_part, low_part], vec![]).ok()?)
                }
            }
            PrimOp::Bits => {
                let inner_lo = params[1];
                decompose(&args[0], inner_lo + lo, inner_lo + hi)
            }
            PrimOp::Not => {
                let inner = slice_zext(&args[0], lo, hi)?;
                Some(Expr::prim(PrimOp::Not, vec![inner], vec![]).ok()?)
            }
            PrimOp::And | PrimOp::Or | PrimOp::Xor => {
                if args[0].signed || args[1].signed {
                    return None;
                }
                let a = slice_zext(&args[0], lo, hi)?;
                let b = slice_zext(&args[1], lo, hi)?;
                let mut out = Expr::prim(*op, vec![a, b], vec![]).ok()?;
                if out.width < w {
                    out = Expr::prim(PrimOp::Pad, vec![out], vec![w]).ok()?;
                }
                Some(out)
            }
            PrimOp::Mux => {
                if args[1].signed || args[2].signed {
                    return None;
                }
                let t = slice_zext(&args[1], lo, hi)?;
                let f = slice_zext(&args[2], lo, hi)?;
                let t = pad_to(t, w)?;
                let f = pad_to(f, w)?;
                Some(Expr::prim(PrimOp::Mux, vec![args[0].clone(), t, f], vec![]).ok()?)
            }
            PrimOp::Pad => {
                if args[0].signed {
                    return None;
                }
                slice_zext(&args[0], lo, hi).and_then(|s| pad_to(s, w))
            }
            _ => None,
        },
    }
}

/// Slices `[lo, hi)` out of an operand treated as zero-extended to any
/// width: bits past the operand's width are constant zero. The result
/// width may be less than `hi - lo` when the high part is all zeros
/// (callers pad when the exact width matters).
fn slice_zext(e: &Expr, lo: u32, hi: u32) -> Option<Expr> {
    if e.signed {
        return None;
    }
    if lo >= e.width {
        return Some(Expr::constant(Value::zero(hi - lo)));
    }
    let real_hi = hi.min(e.width);
    decompose(e, lo, real_hi)
}

fn pad_to(e: Expr, w: u32) -> Option<Expr> {
    if e.width == w {
        Some(e)
    } else if e.width < w {
        Expr::prim(PrimOp::Pad, vec![e], vec![w]).ok()
    } else {
        Expr::prim(PrimOp::Bits, vec![e], vec![w - 1, 0]).ok()
    }
}

/// Replaces references to split nodes with (concatenations of) their
/// parts. Direct consumer slices align with the cuts by construction,
/// but expressions *inside freshly created parts* may slice another
/// node split in the same round at shifted offsets — so reconstruction
/// handles arbitrary ranges by sub-slicing overlapping parts.
///
/// Traversal is pre-order with explicit recursion: the `bits(ref)`
/// pattern must be seen before its child `ref` is rewritten.
fn rewrite_slices(e: &mut Expr, parts_of: &HashMap<NodeId, Vec<(u32, u32, NodeId)>>) {
    // bits(split, hi, lo) -> reconstruct [lo, hi+1)
    if let ExprKind::Prim(PrimOp::Bits, args, params) = &e.kind {
        if let ExprKind::Ref(target) = &args[0].kind {
            if let Some(parts) = parts_of.get(target) {
                let (hi, lo) = (params[0] + 1, params[1]);
                *e = reconstruct(parts, lo, hi);
                return;
            }
        }
    }
    // bare reference to a split node -> reconstruct the full value
    if let ExprKind::Ref(target) = &e.kind {
        if let Some(parts) = parts_of.get(target) {
            let full = parts.iter().map(|&(_, phi, _)| phi).max().expect("parts");
            *e = reconstruct(parts, 0, full);
            return;
        }
    }
    if let ExprKind::Prim(_, args, _) = &mut e.kind {
        for a in args {
            rewrite_slices(a, parts_of);
        }
    }
}

/// Builds bits `[lo, hi)` of a split node from its parts, sub-slicing
/// parts that straddle the boundaries.
fn reconstruct(parts: &[(u32, u32, NodeId)], lo: u32, hi: u32) -> Expr {
    let mut covering: Vec<(u32, u32, NodeId)> = parts
        .iter()
        .filter(|&&(plo, phi, _)| phi > lo && plo < hi)
        .copied()
        .collect();
    covering.sort_by_key(|&(plo, _, _)| plo);
    debug_assert!(!covering.is_empty(), "parts must cover every bit");
    let mut acc: Option<Expr> = None;
    for (plo, phi, part) in covering {
        let w = phi - plo;
        let local_lo = lo.max(plo) - plo;
        let local_hi = hi.min(phi) - plo;
        let r = Expr::reference(part, w, false);
        let piece = if local_lo == 0 && local_hi == w {
            r
        } else {
            Expr::prim(PrimOp::Bits, vec![r], vec![local_hi - 1, local_lo]).expect("part slice")
        };
        acc = Some(match acc {
            None => piece,
            Some(low) => Expr::prim(PrimOp::Cat, vec![piece, low], vec![]).expect("cat parts"),
        });
    }
    acc.expect("nonempty covering")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_firrtl::compile;
    use gsim_graph::interp::RefInterp;

    fn check_equiv(g1: &Graph, g2: &Graph, inputs: &[&str], outputs: &[&str]) {
        let mut s1 = RefInterp::new(g1).unwrap();
        let mut s2 = RefInterp::new(g2).unwrap();
        for round in 0..16u64 {
            for (i, name) in inputs.iter().enumerate() {
                let v = round
                    .wrapping_mul(0x2545f491_4f6cdd1d)
                    .rotate_left(i as u32 * 7);
                s1.poke_u64(name, v).unwrap();
                s2.poke_u64(name, v).unwrap();
            }
            s1.step();
            s2.step();
            for o in outputs {
                assert_eq!(s1.peek(o), s2.peek(o), "{o} diverged at {round}");
            }
        }
    }

    /// The paper's Figure 4: D = cat(C, B, A); E = not(D);
    /// F = bits(E, 1, 0); G = bits(E, 5, 2).
    const FIGURE4: &str = r#"
circuit Fig4 :
  module Fig4 :
    input a : UInt<2>
    input b : UInt<2>
    input c : UInt<2>
    output f : UInt<2>
    output g : UInt<4>
    node d = cat(c, cat(b, a))
    node e = not(d)
    f <= bits(e, 1, 0)
    g <= bits(e, 5, 2)
"#;

    #[test]
    fn figure4_splits_the_chain() {
        let g1 = compile(FIGURE4).unwrap();
        let mut g2 = g1.clone();
        let n = split(&mut g2);
        assert!(n >= 2, "both e and d should split, got {n}");
        g2.validate().unwrap();
        check_equiv(&g1, &g2, &["a", "b", "c"], &["f", "g"]);
        // After splitting, no node should combine a with (b, c):
        // the cone of f depends only on a.
        let f = g2.node_by_name("f").unwrap();
        let mut cone = vec![f];
        let mut seen = std::collections::HashSet::new();
        let mut depends_on_b_or_c = false;
        while let Some(id) = cone.pop() {
            if !seen.insert(id) {
                continue;
            }
            let node = g2.node(id);
            if node.name == "b" || node.name == "c" {
                depends_on_b_or_c = true;
            }
            cone.extend(node.dep_refs());
        }
        assert!(
            !depends_on_b_or_c,
            "after the split, f must not depend on b or c (paper Figure 4)"
        );
    }

    #[test]
    fn unaligned_slices_still_correct() {
        let g1 = compile(
            r#"
circuit U :
  module U :
    input x : UInt<16>
    input y : UInt<16>
    output p : UInt<5>
    output q : UInt<11>
    node m = xor(x, y)
    p <= bits(m, 4, 0)
    q <= bits(m, 15, 5)
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        let n = split(&mut g2);
        assert!(n >= 1);
        check_equiv(&g1, &g2, &["x", "y"], &["p", "q"]);
    }

    #[test]
    fn overlapping_slices_use_finer_cuts() {
        let g1 = compile(
            r#"
circuit O :
  module O :
    input x : UInt<8>
    output p : UInt<6>
    output q : UInt<6>
    node m = not(x)
    p <= bits(m, 5, 0)
    q <= bits(m, 7, 2)
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        let n = split(&mut g2);
        assert!(n >= 1);
        // cuts at 0,2,6,8: three parts; p = cat(part2, part1),
        // q = cat(part3, part2)
        check_equiv(&g1, &g2, &["x"], &["p", "q"]);
    }

    #[test]
    fn full_use_prevents_split() {
        let g1 = compile(
            r#"
circuit N :
  module N :
    input x : UInt<8>
    output p : UInt<4>
    output whole : UInt<8>
    node m = not(x)
    p <= bits(m, 3, 0)
    whole <= m
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        let n = split(&mut g2);
        assert_eq!(n, 0, "whole-value consumer blocks the split");
    }

    #[test]
    fn arithmetic_nodes_not_split() {
        let g1 = compile(
            r#"
circuit A :
  module A :
    input x : UInt<8>
    input y : UInt<8>
    output p : UInt<4>
    output q : UInt<5>
    node s = add(x, y)
    p <= bits(s, 3, 0)
    q <= bits(s, 8, 4)
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        let n = split(&mut g2);
        assert_eq!(n, 0, "carries couple the bits of an adder");
        check_equiv(&g1, &g2, &["x", "y"], &["p", "q"]);
    }

    #[test]
    fn mux_decomposes() {
        let g1 = compile(
            r#"
circuit M :
  module M :
    input sel : UInt<1>
    input x : UInt<8>
    input y : UInt<8>
    output p : UInt<4>
    output q : UInt<4>
    node m = mux(sel, x, y)
    p <= bits(m, 3, 0)
    q <= bits(m, 7, 4)
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        let n = split(&mut g2);
        assert!(n >= 1, "mux is bit-parallel given a scalar selector");
        check_equiv(&g1, &g2, &["sel", "x", "y"], &["p", "q"]);
    }

    #[test]
    fn dead_interval_becomes_removable() {
        // Bits 4..8 of m are never read: after the split the middle part
        // is dead and redundant elimination removes its logic.
        let g1 = compile(
            r#"
circuit D :
  module D :
    input x : UInt<12>
    output p : UInt<4>
    output q : UInt<4>
    node m = not(x)
    p <= bits(m, 3, 0)
    q <= bits(m, 11, 8)
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        split(&mut g2);
        crate::redundant::eliminate(&mut g2);
        g2.validate().unwrap();
        check_equiv(&g1, &g2, &["x"], &["p", "q"]);
        // The dead middle part must be gone.
        assert!(
            g2.node_by_name("m$8_4").is_none(),
            "unread interval should be removed"
        );
    }
}
