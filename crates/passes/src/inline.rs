//! Node inlining and extraction (paper §III-B, Figure 3).
//!
//! Two directions of the same trade-off between node count `N` and
//! evaluation cost `E`:
//!
//! * [`inline_cheap`] — a node `f` whose evaluation is cheap relative to
//!   the bookkeeping of keeping it as a separate node is substituted
//!   into its consumers. The paper's criterion: keep `f` extracted only
//!   when `cost(f) × #refs > cost(f) + cost_node`.
//! * [`extract_common`] — the inverse: subexpressions appearing several
//!   times (after inlining or straight from the front end) whose
//!   duplicated evaluation costs more than a shared node are hoisted
//!   into new nodes.
//!
//! Both cost one sweep plus work proportional to what they change.
//! Inlining substitutes in place, in topological order, so an inlined
//! operand is final before any user copies it, and its last user takes
//! the expression itself rather than a copy. Extraction hashes every
//! subexpression once, bottom-up, compares trees only within hash
//! buckets that pass the cost filter, and hoists each candidate by
//! visiting only the nodes it occurs in. That finds every occurrence:
//! candidates go largest first, and hoisting a larger one can only
//! remove occurrences of a smaller one or move them into the new shared
//! node.

use crate::rebuild;
use gsim_graph::{Expr, ExprKind, Graph, NodeId, NodeKind};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Abstract cost of having a node at all (active-bit bookkeeping,
/// activation, storage) in the same "operator" units as
/// [`gsim_graph::PrimOp::cost`]. The paper calls this `cost_node`.
pub const COST_NODE: u32 = 2;

/// Upper bound on the evaluation cost of an expression we are willing
/// to inline. The paper's model compares only evaluation cost against
/// node bookkeeping; in an essential-signal engine a node is *also* a
/// change-detection cut point, and folding a long chain into one giant
/// expression forfeits the early cut-off when an intermediate value is
/// unchanged. Bounding inlined-expression size keeps the node-count
/// reduction where it pays without destroying activity granularity.
pub const MAX_INLINE_COST: u32 = 6;

/// Inlines nodes whose shared evaluation does not pay for itself.
/// Returns the number of nodes inlined.
pub fn inline_cheap(graph: &mut Graph) -> usize {
    let n = graph.num_nodes();
    // Nodes that must stay: everything that is not plain comb logic,
    // plus register reset signals (the engine needs them as nodes).
    let mut must_stay = vec![false; n];
    // Textual reference counts (occurrences, not distinct users):
    // duplicated evaluation is per occurrence.
    let mut refcount = vec![0u32; n];
    for (id, node) in graph.iter() {
        match &node.kind {
            NodeKind::Comb => {}
            _ => must_stay[id.index()] = true,
        }
        if let NodeKind::Reg { reset: Some(r) } = &node.kind {
            must_stay[r.signal.index()] = true;
        }
        node.for_each_dep(|dep| refcount[dep.index()] += 1);
    }
    // Substitution takes one copy of an inlined expression per textual
    // reference, counted before the decisions below grow `refcount`
    // (reset-signal references are counted too, but reset signals are
    // never inlined).
    let mut copies_left = refcount.clone();

    // Decide in forward topological order, tracking each candidate's
    // *effective* cost — its own operators plus the effective cost of
    // every already-inlined operand. Chains therefore stop inlining
    // once the accumulated expression reaches the granularity bound,
    // instead of collapsing one cheap step at a time.
    let order = gsim_graph::topo::toposort(graph).expect("valid graph");
    let mut inline = vec![false; n];
    let mut eff_cost = vec![0u32; n];
    for &id in order.iter() {
        let node = graph.node(id);
        let Some(expr) = &node.expr else { continue };
        let mut cost = expr.op_cost().max(1);
        rebuild::for_each_ref([expr], |dep| {
            if inline[dep.index()] {
                cost = cost.saturating_add(eff_cost[dep.index()]);
            }
        });
        eff_cost[id.index()] = cost;
        if must_stay[id.index()] {
            continue;
        }
        let refs = refcount[id.index()];
        if refs == 0 {
            continue; // dead; redundant elimination's job
        }
        // Extract (keep the node) when sharing wins; inline otherwise,
        // but never build expressions past the granularity bound.
        let keep =
            (cost as u64) * (refs as u64) > (cost + COST_NODE) as u64 || cost > MAX_INLINE_COST;
        if !keep {
            inline[id.index()] = true;
            // Every reference inside f now occurs `refs` times.
            let extra = refs - 1;
            if extra > 0 {
                rebuild::for_each_ref([expr], |dep| refcount[dep.index()] += extra);
            }
        }
    }

    let inlined = inline.iter().filter(|&&b| b).count();
    if inlined == 0 {
        return 0;
    }

    // Substitute in place, in topological order (operands before
    // users): an inlined operand's expression is already final when a
    // user copies it, so one level of substitution suffices. The last
    // copy moves the expression instead of cloning it.
    for &id in &order {
        rebuild::edit_exprs(graph, id, |e, graph| {
            e.visit_mut(&mut |sub| {
                if let ExprKind::Ref(r) = sub.kind {
                    if inline[r.index()] {
                        let left = &mut copies_left[r.index()];
                        *left -= 1;
                        let def = &mut graph.node_mut(r).expr;
                        let copy = if *left == 0 { def.take() } else { def.clone() };
                        *sub = copy.expect("inlined node has expression");
                    }
                }
            });
        });
    }
    // Inlined nodes are now unreferenced; drop them.
    let keep: Vec<bool> = inline.iter().map(|&i| !i).collect();
    *graph = rebuild::retain_nodes(std::mem::take(graph), &keep);
    inlined
}

/// A small multiplicative hasher for the structural hashes of
/// [`extract_common`]; equal expressions hash equally, and a collision
/// only costs an exact comparison.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `(structural hash, operator cost)` of a subexpression.
type Key = (u64, u32);

/// Hashes `e` bottom-up and returns its key; calls `f` with every
/// subexpression worth counting (an operator tree of cost ≥ 2), children
/// before parents. Nothing is cloned.
fn hash_walk<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr, Key)) -> Key {
    let mut h = FxHasher::default();
    (e.width, e.signed).hash(&mut h);
    let cost = match &e.kind {
        ExprKind::Const(v) => {
            (0u8, v).hash(&mut h);
            0
        }
        ExprKind::Ref(id) => {
            (1u8, id).hash(&mut h);
            0
        }
        ExprKind::Prim(op, args, params) => {
            (2u8, op).hash(&mut h);
            for &p in params {
                h.write_u32(p);
            }
            let mut cost = op.cost();
            for a in args {
                let (ah, ac) = hash_walk(a, f);
                h.write_u64(ah);
                cost += ac;
            }
            cost
        }
    };
    let key = (h.finish(), cost);
    if matches!(e.kind, ExprKind::Prim(..)) && cost >= 2 {
        f(e, key);
    }
    key
}

/// The extraction criterion: `count` copies of a tree of cost `cost`
/// are worth one shared node.
fn worth_sharing(cost: u32, count: u64) -> bool {
    let cost = u64::from(cost);
    count >= 2 && cost * count > cost + u64::from(COST_NODE)
}

/// One structurally distinct subexpression worth hoisting.
struct Candidate {
    expr: Expr,
    cost: u32,
    count: u32,
    /// The nodes it occurs in, ascending.
    sites: Vec<NodeId>,
}

/// Extracts common subexpressions whose duplicated evaluation costs more
/// than a shared node (`cost × count > cost + cost_node`). Returns the
/// number of new nodes created.
pub fn extract_common(graph: &mut Graph) -> usize {
    // Count subexpressions by (hash, cost): sorted, equal keys sit
    // together. A key whose run fails the filter holds no candidate:
    // its exact classes are no larger.
    let mut keys: Vec<Key> = Vec::new();
    for (_, node) in graph.iter() {
        for e in node.exprs() {
            hash_walk(e, &mut |_, key| keys.push(key));
        }
    }
    keys.sort_unstable();
    let buckets: HashSet<Key> = keys
        .chunk_by(|a, b| a == b)
        .filter(|run| worth_sharing(run[0].1, run.len() as u64))
        .map(|run| run[0])
        .collect();
    drop(keys);
    if buckets.is_empty() {
        return 0;
    }

    // Split the surviving buckets into exact classes and record where
    // each occurs.
    let mut classes: HashMap<Key, Vec<Candidate>> = HashMap::new();
    for (id, node) in graph.iter() {
        for e in node.exprs() {
            hash_walk(e, &mut |sub, key| {
                if !buckets.contains(&key) {
                    return;
                }
                let bucket = classes.entry(key).or_default();
                let class = match bucket.iter_mut().position(|c| c.expr == *sub) {
                    Some(i) => &mut bucket[i],
                    None => {
                        bucket.push(Candidate {
                            expr: sub.clone(),
                            cost: key.1,
                            count: 0,
                            sites: Vec::new(),
                        });
                        bucket.last_mut().expect("just pushed")
                    }
                };
                class.count += 1;
                if class.sites.last() != Some(&id) {
                    class.sites.push(id);
                }
            });
        }
    }

    // Candidates by descending cost so larger shared trees win first.
    let mut candidates: Vec<Candidate> = classes
        .into_values()
        .flatten()
        .filter(|c| worth_sharing(c.cost, u64::from(c.count)))
        .collect();
    candidates.sort_by_cached_key(|c| (Reverse(c.cost), Reverse(c.count), format!("{:?}", c.expr)));

    // A candidate can only occur in its original sites or inside a node
    // hoisted before it (a larger tree that contained it), so those are
    // the only nodes recounted and rewritten.
    let mut hoisted: Vec<NodeId> = Vec::new();
    for cand in candidates {
        let expr = &cand.expr;
        let sites: Vec<NodeId> = cand.sites.iter().chain(&hoisted).copied().collect();
        // Recheck the count: earlier extractions may have absorbed this.
        let mut occurrences = 0;
        for &id in &sites {
            for e in graph.node(id).exprs() {
                e.visit(&mut |sub| {
                    if sub == expr {
                        occurrences += 1;
                    }
                });
            }
        }
        if !worth_sharing(cand.cost, occurrences) {
            continue;
        }
        // Hoist: replace each occurrence by a reference to a new node.
        let new_id = NodeId::from_index(graph.num_nodes());
        let reference = Expr::reference(new_id, expr.width, expr.signed);
        for &id in &sites {
            for e in graph.node_mut(id).exprs_mut() {
                e.visit_mut(&mut |sub| {
                    if sub == expr {
                        *sub = reference.clone();
                    }
                });
            }
        }
        graph.push_node(gsim_graph::Node {
            name: format!("_cse{}", new_id.index()),
            kind: NodeKind::Comb,
            width: reference.width,
            signed: reference.signed,
            expr: Some(cand.expr),
            write: None,
        });
        hoisted.push(new_id);
    }
    hoisted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_firrtl::compile;
    use gsim_graph::interp::RefInterp;

    fn check_equiv(g1: &Graph, g2: &Graph, inputs: &[&str], outputs: &[&str]) {
        let mut s1 = RefInterp::new(g1).unwrap();
        let mut s2 = RefInterp::new(g2).unwrap();
        for round in 0..10u64 {
            for (i, name) in inputs.iter().enumerate() {
                let v = round.wrapping_mul(0x9e3779b9).rotate_left(i as u32) ^ round;
                s1.poke_u64(name, v).unwrap();
                s2.poke_u64(name, v).unwrap();
            }
            s1.step();
            s2.step();
            for o in outputs {
                assert_eq!(s1.peek(o), s2.peek(o), "{o} diverged at cycle {round}");
            }
        }
    }

    #[test]
    fn single_use_node_inlined() {
        let g1 = compile(
            r#"
circuit I :
  module I :
    input a : UInt<8>
    output y : UInt<8>
    node t = not(a)
    y <= not(t)
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        let n = inline_cheap(&mut g2);
        assert!(n >= 1);
        assert!(g2.node_by_name("t").is_none());
        g2.validate().unwrap();
        check_equiv(&g1, &g2, &["a"], &["y"]);
    }

    #[test]
    fn expensive_shared_node_kept() {
        // f = a * b used 4 times: cost(mul)=3, 3*4=12 > 3+2 -> keep.
        let g1 = compile(
            r#"
circuit K :
  module K :
    input a : UInt<8>
    input b : UInt<8>
    output w : UInt<16>
    output x : UInt<16>
    output y : UInt<16>
    output z : UInt<16>
    node f = mul(a, b)
    w <= f
    x <= not(f)
    y <= and(f, UInt<16>(255))
    z <= or(f, UInt<16>(1))
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        inline_cheap(&mut g2);
        assert!(
            g2.node_by_name("f").is_some(),
            "multiply shared 4 ways must stay extracted"
        );
        check_equiv(&g1, &g2, &["a", "b"], &["w", "x", "y", "z"]);
    }

    #[test]
    fn cheap_shared_node_inlined() {
        // f = not(a): cost 1, 2 refs: 1*2 <= 1+2 -> inline.
        let g1 = compile(
            r#"
circuit C :
  module C :
    input a : UInt<8>
    output x : UInt<8>
    output y : UInt<8>
    node f = not(a)
    x <= f
    y <= and(f, UInt<8>(15))
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        let n = inline_cheap(&mut g2);
        assert!(n >= 1);
        assert!(g2.node_by_name("f").is_none());
        check_equiv(&g1, &g2, &["a"], &["x", "y"]);
    }

    #[test]
    fn registers_never_inlined() {
        let g1 = compile(
            r#"
circuit R :
  module R :
    input clock : Clock
    input a : UInt<8>
    output y : UInt<8>
    reg r : UInt<8>, clock
    r <= a
    y <= r
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        inline_cheap(&mut g2);
        assert!(g2.node_by_name("r").is_some());
        check_equiv(&g1, &g2, &["a"], &["y"]);
    }

    #[test]
    fn chain_inlining_never_duplicates_expensive_work() {
        // g = not(f), used twice; f = a*b. Whatever gets inlined where,
        // the multiply must be evaluated exactly once in the final
        // graph (it may legally migrate into the shared node g).
        let g1 = compile(
            r#"
circuit M :
  module M :
    input a : UInt<4>
    input b : UInt<4>
    output x : UInt<8>
    output y : UInt<8>
    node f = mul(a, b)
    node g = not(f)
    x <= g
    y <= and(g, UInt<8>(60))
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        inline_cheap(&mut g2);
        let mut muls = 0;
        for (_, node) in g2.iter() {
            if let Some(e) = &node.expr {
                e.visit(&mut |sub| {
                    if matches!(sub.kind, ExprKind::Prim(gsim_graph::PrimOp::Mul, ..)) {
                        muls += 1;
                    }
                });
            }
        }
        assert_eq!(muls, 1, "multiply must not be duplicated");
        check_equiv(&g1, &g2, &["a", "b"], &["x", "y"]);
    }

    #[test]
    fn extraction_hoists_repeated_multiplies() {
        let g1 = compile(
            r#"
circuit E :
  module E :
    input a : UInt<8>
    input b : UInt<8>
    output x : UInt<16>
    output y : UInt<16>
    output z : UInt<16>
    x <= mul(a, b)
    y <= not(mul(a, b))
    z <= and(mul(a, b), UInt<16>(4095))
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        let n = extract_common(&mut g2);
        assert!(n >= 1, "mul(a,b) x3 must be extracted");
        g2.validate().unwrap();
        check_equiv(&g1, &g2, &["a", "b"], &["x", "y", "z"]);
    }

    #[test]
    fn extraction_skips_cheap_duplicates() {
        let g1 = compile(
            r#"
circuit S :
  module S :
    input a : UInt<8>
    output x : UInt<8>
    output y : UInt<8>
    x <= not(a)
    y <= not(a)
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        let n = extract_common(&mut g2);
        assert_eq!(n, 0, "cost 1 x2 does not beat cost 1 + cost_node 2");
    }

    #[test]
    fn reset_signal_survives_inlining() {
        let g1 = compile(
            r#"
circuit P :
  module P :
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<8>
    output y : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(7)))
    r <= a
    y <= r
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        inline_cheap(&mut g2);
        g2.validate().unwrap();
        check_equiv(&g1, &g2, &["a"], &["y"]);
    }
}
