//! Expression simplification (paper §III-B "Expression simplification").
//!
//! Bottom-up rewriting of every expression in the graph:
//!
//! * constant folding (all-constant operand trees collapse),
//! * algebraic identities (`x & 0`, `x | 0`, `x ^ 0`, `mux` with a
//!   constant selector, double negation, nested `bits`, full-width
//!   `bits`, shifts by zero, ...),
//! * the paper's one-hot pattern: a node `B = dshl(1, A)` consumed as
//!   `bits(B, k, k)` rewrites to `eq(A, k)`, eliminating the dynamic
//!   shift from the hot path of decoder logic.
//!
//! A node that folds to a constant is substituted into its users, which
//! may fold in turn, so the pass runs in rounds until nothing changes.
//! Each round rewrites nodes against the one-hot table as it stood at
//! the round's start and then substitutes the constants the round
//! produced. A node's rewrite depends only on its own expressions and on
//! that table, so a round need only revisit the nodes whose expressions
//! the previous round changed and the users of nodes that became one-hot
//! sources; every other node would rewrite to itself. The first round
//! sweeps the whole graph; after it, work is proportional to what
//! changed, and the result is the one whole-graph rounds reach.
//!
//! The fixpoint is finite: every rule but the one-hot rule shrinks the
//! tree without adding references, substitution replaces references by
//! constants, and the one-hot rule trades a reference to `B` for
//! references to `B`'s operands, which precede `B` in the acyclic
//! combinational order. That is why the rule looks only through nodes
//! whose value is their expression (`Comb`, `Output`): a register's
//! expression is its next value and a read port's is its address,
//! neither of which is the value `bits(B, k, k)` reads.

use crate::rebuild;
use gsim_graph::{Expr, ExprKind, Graph, Node, NodeId, NodeKind, PrimOp};
use gsim_value::Value;
use std::collections::HashMap;

/// Simplifies all expressions in the graph, including cross-node
/// constant propagation (a node that folds to a constant is substituted
/// into its users), to a fixpoint. Returns the number of rewrites
/// applied.
pub fn simplify(graph: &mut Graph) -> usize {
    let mut users = rebuild::Users::new(graph);
    let mut onehot: HashMap<NodeId, Expr> = graph
        .iter()
        .filter_map(|(id, node)| Some((id, onehot_amount(node)?.clone())))
        .collect();
    // Constant nodes already substituted into their users.
    let mut substituted = vec![false; graph.num_nodes()];
    let mut dirty: Vec<NodeId> = graph.node_ids().collect();
    let mut total = 0;
    loop {
        // Rewrite against the table as it stood at the round's start.
        let mut changed: Vec<NodeId> = Vec::new();
        let mut applied = 0;
        for &id in &dirty {
            let mut rw = Rewriter {
                onehot: &onehot,
                grew: false,
            };
            let n: usize = graph.node_mut(id).exprs_mut().map(|e| rw.rewrite(e)).sum();
            if n > 0 {
                applied += n;
                changed.push(id);
                if rw.grew {
                    users.record(id, graph.node(id).exprs());
                }
            }
        }

        // Substitute the comb nodes that are now constant into their
        // users. Only plain comb logic: registers hold state, memory
        // reads are port semantics, outputs are sinks.
        let pending: Vec<NodeId> = dirty
            .iter()
            .copied()
            .filter(|&id| !substituted[id.index()] && is_const_comb(graph.node(id)))
            .collect();
        let mut touched: Vec<NodeId> = Vec::new();
        for &c in &pending {
            substituted[c.index()] = true;
        }
        if !pending.is_empty() {
            for user in users.of(&pending, graph.num_nodes()) {
                let mut n = 0;
                rebuild::edit_exprs(graph, user, |e, graph| {
                    let graph = &*graph;
                    e.visit_mut(&mut |sub| {
                        if let ExprKind::Ref(r) = sub.kind {
                            if substituted[r.index()] {
                                *sub = graph.node(r).expr.clone().expect("constant node");
                                n += 1;
                            }
                        }
                    });
                });
                if n > 0 {
                    applied += n;
                    touched.push(user);
                }
            }
        }

        total += applied;
        if applied == 0 {
            return total;
        }
        // Next round: every node whose expressions changed, and the users
        // of those that are now one-hot sources.
        touched.extend(changed);
        touched.sort_unstable();
        touched.dedup();
        dirty.clone_from(&touched);
        let mut sources = Vec::new();
        for &id in &touched {
            match onehot_amount(graph.node(id)) {
                Some(amt) => {
                    onehot.insert(id, amt.clone());
                    sources.push(id);
                }
                None => {
                    onehot.remove(&id);
                }
            }
        }
        if !sources.is_empty() {
            dirty.extend(users.of(&sources, graph.num_nodes()));
            dirty.sort_unstable();
            dirty.dedup();
        }
    }
}

fn is_const_comb(node: &Node) -> bool {
    matches!(node.kind, NodeKind::Comb) && node.expr.as_ref().is_some_and(Expr::is_const)
}

/// The shift amount `A` of a node defined as `dshl(1, A)` whose value is
/// that expression: the one-hot rule's source.
fn onehot_amount(node: &Node) -> Option<&Expr> {
    if !matches!(node.kind, NodeKind::Comb | NodeKind::Output) {
        return None;
    }
    match &node.expr.as_ref()?.kind {
        ExprKind::Prim(PrimOp::Dshl, inner, _) => dshl_of_one(inner),
        _ => None,
    }
}

/// `A` when `inner` are the operands of `dshl(1, A)` with `A` unsigned.
fn dshl_of_one(inner: &[Expr]) -> Option<&Expr> {
    let base_is_one = inner[0].as_const().is_some_and(|v| v.to_u64() == Some(1));
    (base_is_one && !inner[1].signed).then_some(&inner[1])
}

/// Rewrites expressions in place against a one-hot table.
struct Rewriter<'a> {
    /// Shift amounts of the one-hot source nodes.
    onehot: &'a HashMap<NodeId, Expr>,
    /// Set when the one-hot rule looked through a reference, copying the
    /// source's operands (and so new references) into the expression.
    grew: bool,
}

impl Rewriter<'_> {
    /// Rewrites one expression bottom-up and returns the number of
    /// rewrites applied. The result always has the same width and
    /// signedness as the input.
    fn rewrite(&mut self, e: &mut Expr) -> usize {
        let (width, signed) = (e.width, e.signed);
        let ExprKind::Prim(op, args, params) = &mut e.kind else {
            return 0;
        };
        let op = *op;
        let mut count = 0;
        for a in args.iter_mut() {
            count += self.rewrite(a);
        }
        if let Some(better) = self.try_rules(op, args, params, width, signed) {
            debug_assert_eq!(
                (better.width, better.signed),
                (width, signed),
                "rule for {op} changed type"
            );
            *e = better;
            count += 1;
        }
        count
    }

    fn try_rules(
        &mut self,
        op: PrimOp,
        args: &[Expr],
        params: &[u32],
        width: u32,
        signed: bool,
    ) -> Option<Expr> {
        use PrimOp::*;

        // Constant folding handles every op uniformly.
        if let Some(vals) = all_const(args) {
            let v = gsim_graph::expr::eval_prim(op, &vals, params, args[0].signed, args);
            debug_assert_eq!(v.width(), width, "folded width mismatch for {op}");
            return Some(if signed {
                Expr::constant_signed(v)
            } else {
                Expr::constant(v)
            });
        }

        match op {
            And => {
                if is_zero_const(&args[0]) || is_zero_const(&args[1]) {
                    return Some(coerce(Expr::constant(Value::zero(width)), width, signed));
                }
                // x & ones(width of x) == x, when widths already agree
                if is_ones_const(&args[1]) && args[0].width == width {
                    return Some(coerce(args[0].clone(), width, signed));
                }
                if is_ones_const(&args[0]) && args[1].width == width {
                    return Some(coerce(args[1].clone(), width, signed));
                }
                None
            }
            Or | Xor => {
                if is_zero_const(&args[1]) && args[0].width == width {
                    return Some(coerce(args[0].clone(), width, signed));
                }
                if is_zero_const(&args[0]) && args[1].width == width {
                    return Some(coerce(args[1].clone(), width, signed));
                }
                None
            }
            Add => {
                // add(x, 0) widens by one bit; still worth removing the add.
                if is_zero_const(&args[1]) {
                    return Some(coerce(args[0].clone(), width, signed));
                }
                if is_zero_const(&args[0]) {
                    return Some(coerce(args[1].clone(), width, signed));
                }
                None
            }
            Sub => {
                if is_zero_const(&args[1]) {
                    return Some(coerce(args[0].clone(), width, signed));
                }
                None
            }
            Mul => {
                if is_zero_const(&args[0]) || is_zero_const(&args[1]) {
                    return Some(coerce(Expr::constant(Value::zero(width)), width, signed));
                }
                None
            }
            Shl if params[0] == 0 => Some(coerce(args[0].clone(), width, signed)),
            Shr if params[0] == 0 && args[0].width > 1 => {
                Some(coerce(args[0].clone(), width, signed))
            }
            Pad if args[0].width >= params[0] => Some(coerce(args[0].clone(), width, signed)),
            Not => {
                // not(not(x)) == x (as UInt)
                if let ExprKind::Prim(Not, inner, _) = &args[0].kind {
                    return Some(coerce(inner[0].clone(), width, signed));
                }
                None
            }
            AsUInt | AsSInt => {
                if args[0].signed == signed {
                    return Some(args[0].clone());
                }
                // collapse double casts
                if let ExprKind::Prim(AsUInt | AsSInt, inner, _) = &args[0].kind {
                    return Some(coerce(inner[0].clone(), width, signed));
                }
                None
            }
            Mux => {
                if let Some(sel) = args[0].as_const() {
                    let arm = if sel.is_zero() {
                        &args[1 + 1]
                    } else {
                        &args[1]
                    };
                    return Some(coerce(arm.clone(), width, signed));
                }
                if args[1] == args[2] {
                    return Some(coerce(args[1].clone(), width, signed));
                }
                None
            }
            Bits => {
                let (hi, lo) = (params[0], params[1]);
                // Full-width slice of an unsigned value is the identity.
                if lo == 0 && hi + 1 == args[0].width && !args[0].signed {
                    return Some(args[0].clone());
                }
                // bits(bits(x, h1, l1), h2, l2) = bits(x, l1+h2, l1+l2)
                if let ExprKind::Prim(Bits, inner, ip) = &args[0].kind {
                    let l1 = ip[1];
                    return Some(
                        Expr::prim(Bits, vec![inner[0].clone()], vec![l1 + hi, l1 + lo])
                            .expect("nested bits in range"),
                    );
                }
                // bits(cat(a, b), ...) contained in one operand narrows to it.
                if let ExprKind::Prim(Cat, inner, _) = &args[0].kind {
                    let lo_w = inner[1].width;
                    if hi < lo_w {
                        return Some(coerce(
                            Expr::prim(Bits, vec![inner[1].clone()], vec![hi, lo])
                                .expect("cat-low slice"),
                            width,
                            signed,
                        ));
                    }
                    if lo >= lo_w {
                        return Some(coerce(
                            Expr::prim(Bits, vec![inner[0].clone()], vec![hi - lo_w, lo - lo_w])
                                .expect("cat-high slice"),
                            width,
                            signed,
                        ));
                    }
                }
                // One-hot pattern (paper): bits(B, k, k) where B = dshl(1, A)
                // becomes eq(A, k) — also matched through a node reference.
                if hi == lo {
                    let amt = match &args[0].kind {
                        ExprKind::Prim(Dshl, inner, _) => dshl_of_one(inner),
                        ExprKind::Ref(id) => {
                            let amt = self.onehot.get(id);
                            self.grew |= amt.is_some();
                            amt
                        }
                        _ => None,
                    };
                    if let Some(amt) = amt {
                        let kconst = Expr::constant(Value::from_u64(hi as u64, amt.width.max(1)));
                        // eq requires equal-width reasoning handled by ops
                        let eq = Expr::prim(Eq, vec![amt.clone(), kconst], vec![]).expect("eq");
                        return Some(coerce(eq, width, signed));
                    }
                }
                None
            }
            Cat => {
                // cat with zero-width operand is the other operand.
                if args[0].width == 0 {
                    return Some(coerce(args[1].clone(), width, signed));
                }
                if args[1].width == 0 {
                    return Some(coerce(args[0].clone(), width, signed));
                }
                None
            }
            Dshl => {
                if let Some(sh) = args[1].as_const() {
                    let n = sh.to_u64().unwrap_or(0) as u32;
                    let shl = Expr::prim(Shl, vec![args[0].clone()], vec![n]).expect("shl");
                    return Some(coerce(shl, width, signed));
                }
                None
            }
            Dshr => {
                if let Some(sh) = args[1].as_const() {
                    let n = sh.to_u64().unwrap_or(0) as u32;
                    // dshr keeps the operand width; shr shrinks — coerce back.
                    let shr = Expr::prim(Shr, vec![args[0].clone()], vec![n.min(args[0].width)])
                        .expect("shr");
                    return Some(coerce(shr, width, signed));
                }
                None
            }
            Eq => {
                if args[0] == args[1] {
                    return Some(coerce(Expr::const_u64(1, 1), width, signed));
                }
                None
            }
            Neq => {
                if args[0] == args[1] {
                    return Some(coerce(Expr::const_u64(0, 1), width, signed));
                }
                None
            }
            _ => None,
        }
    }
}

/// Wraps `e` so its (width, signed) matches the target exactly, used when
/// a rule result is narrower than the original expression.
fn coerce(e: Expr, width: u32, signed: bool) -> Expr {
    let mut cur = e;
    if cur.width < width {
        cur = Expr::prim(PrimOp::Pad, vec![cur], vec![width]).expect("pad");
    } else if cur.width > width {
        cur = Expr::prim(PrimOp::Bits, vec![cur], vec![width - 1, 0]).expect("bits");
        // Bits yields unsigned; sign restored below.
    }
    if cur.signed != signed {
        let op = if signed {
            PrimOp::AsSInt
        } else {
            PrimOp::AsUInt
        };
        cur = Expr::prim(op, vec![cur], vec![]).expect("cast");
    }
    cur
}

fn all_const(args: &[Expr]) -> Option<Vec<Value>> {
    if !args.iter().all(Expr::is_const) {
        return None;
    }
    args.iter().map(|a| a.as_const().cloned()).collect()
}

fn is_zero_const(e: &Expr) -> bool {
    e.as_const().is_some_and(Value::is_zero)
}

fn is_ones_const(e: &Expr) -> bool {
    e.as_const().is_some_and(|v| *v == Value::ones(v.width()))
}

/// Folds an expression to a constant if possible (public helper used by
/// other passes and tests).
pub fn fold_const(e: &Expr) -> Option<Value> {
    e.eval(&mut |_| None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_graph::interp::RefInterp;
    use gsim_graph::GraphBuilder;

    fn simplified(src: &str) -> (Graph, Graph, usize) {
        let g = gsim_firrtl::compile(src).unwrap();
        let mut g2 = g.clone();
        let n = simplify(&mut g2);
        g2.validate().unwrap();
        (g, g2, n)
    }

    fn equivalent(g1: &Graph, g2: &Graph, inputs: &[(&str, u64)], outputs: &[&str]) {
        let mut s1 = RefInterp::new(g1).unwrap();
        let mut s2 = RefInterp::new(g2).unwrap();
        for round in 0..8u64 {
            for (name, base) in inputs {
                let v = base.wrapping_mul(round + 1) ^ round;
                s1.poke_u64(name, v).unwrap();
                s2.poke_u64(name, v).unwrap();
            }
            s1.step();
            s2.step();
            for o in outputs {
                assert_eq!(s1.peek(o), s2.peek(o), "output {o} diverged at {round}");
            }
        }
    }

    #[test]
    fn constant_folding_collapses() {
        let (g1, g2, n) = simplified(
            r#"
circuit C :
  module C :
    output y : UInt<8>
    node a = add(UInt<4>(3), UInt<4>(4))
    node b = mul(a, UInt<4>(2))
    y <= bits(b, 7, 0)
"#,
        );
        assert!(n > 0);
        let y = g2.node_by_name("y").unwrap();
        assert_eq!(
            fold_const(g2.node(y).expr.as_ref().unwrap())
                .unwrap()
                .to_u64(),
            Some(14)
        );
        equivalent(&g1, &g2, &[], &["y"]);
    }

    #[test]
    fn identities_removed() {
        let (g1, g2, n) = simplified(
            r#"
circuit I :
  module I :
    input x : UInt<8>
    output y : UInt<8>
    node a = and(x, UInt<8>(255))
    node b = or(a, UInt<8>(0))
    node c = xor(b, UInt<8>(0))
    node d = not(not(c))
    y <= d
"#,
        );
        assert!(n >= 4);
        equivalent(&g1, &g2, &[("x", 0xa5)], &["y"]);
    }

    #[test]
    fn deep_constant_chain_folds_completely() {
        // A constant moves one node down the chain per round, so a
        // 20-deep chain needs 20 rounds to reach the output.
        let mut src = String::from(
            "circuit Chain :\n  module Chain :\n    output y : UInt<8>\n    node n0 = UInt<8>(0)\n",
        );
        for i in 1..=20 {
            let prev = i - 1;
            src.push_str(&format!(
                "    node n{i} = tail(add(n{prev}, UInt<8>(1)), 1)\n"
            ));
        }
        src.push_str("    y <= n20\n");
        let (_, mut g2, _) = simplified(&src);
        crate::redundant::eliminate(&mut g2);
        assert_eq!(g2.num_nodes(), 1, "only the output is left");
        let y = g2.node_by_name("y").unwrap();
        let value = g2.node(y).expr.as_ref().unwrap().as_const();
        assert_eq!(value.and_then(Value::to_u64), Some(20));
    }

    #[test]
    fn mux_constant_selector() {
        let (g1, g2, n) = simplified(
            r#"
circuit M :
  module M :
    input a : UInt<4>
    input b : UInt<4>
    output y : UInt<4>
    output z : UInt<4>
    y <= mux(UInt<1>(1), a, b)
    z <= mux(UInt<1>(0), a, b)
"#,
        );
        assert!(n >= 2);
        let y = g2.node_by_name("y").unwrap();
        assert!(g2.node(y).expr.as_ref().unwrap().as_ref_node().is_some());
        equivalent(&g1, &g2, &[("a", 5), ("b", 9)], &["y", "z"]);
    }

    #[test]
    fn one_hot_pattern_within_tree() {
        // C = bits(dshl(1, A), 3, 3)  ==>  C = eq(A, 3)
        let (g1, g2, n) = simplified(
            r#"
circuit O :
  module O :
    input a : UInt<3>
    output c : UInt<1>
    node b = dshl(UInt<1>(1), a)
    c <= bits(b, 3, 3)
"#,
        );
        assert!(n > 0);
        let c = g2.node_by_name("c").unwrap();
        let mut saw_eq = false;
        g2.node(c).expr.as_ref().unwrap().visit(&mut |e| {
            if let ExprKind::Prim(PrimOp::Eq, ..) = e.kind {
                saw_eq = true;
            }
        });
        assert!(saw_eq, "one-hot pattern should rewrite to eq");
        equivalent(&g1, &g2, &[("a", 3)], &["c"]);
    }

    #[test]
    fn one_hot_pattern_skips_registers() {
        // bits(r, 3, 3) reads the register's current value; rewriting it
        // through r's next-value expression would read one cycle early.
        let (g1, g2, _) = simplified(
            r#"
circuit R :
  module R :
    input clock : Clock
    input a : UInt<2>
    output c : UInt<1>
    reg r : UInt<4>, clock
    r <= dshl(UInt<1>(1), a)
    c <= bits(r, 3, 3)
"#,
        );
        equivalent(&g1, &g2, &[("a", 3)], &["c"]);
    }

    #[test]
    fn nested_bits_flatten() {
        let (g1, g2, n) = simplified(
            r#"
circuit B :
  module B :
    input x : UInt<16>
    output y : UInt<2>
    y <= bits(bits(x, 11, 4), 5, 4)
"#,
        );
        assert!(n > 0);
        let y = g2.node_by_name("y").unwrap();
        match &g2.node(y).expr.as_ref().unwrap().kind {
            ExprKind::Prim(PrimOp::Bits, _, p) => assert_eq!(p, &vec![9, 8]),
            other => panic!("expected flattened bits, got {other:?}"),
        }
        equivalent(&g1, &g2, &[("x", 0xbeef)], &["y"]);
    }

    #[test]
    fn bits_through_cat() {
        let (g1, g2, _) = simplified(
            r#"
circuit K :
  module K :
    input a : UInt<8>
    input b : UInt<8>
    output lo : UInt<8>
    output hi : UInt<4>
    node c = cat(a, b)
    lo <= bits(c, 7, 0)
    hi <= bits(c, 15, 12)
"#,
        );
        equivalent(&g1, &g2, &[("a", 0x12), ("b", 0x34)], &["lo", "hi"]);
    }

    #[test]
    fn dshl_by_constant_becomes_static() {
        let (g1, g2, n) = simplified(
            r#"
circuit D :
  module D :
    input x : UInt<8>
    output y : UInt<11>
    y <= dshl(x, UInt<2>(3))
"#,
        );
        assert!(n > 0);
        equivalent(&g1, &g2, &[("x", 0x7f)], &["y"]);
    }

    #[test]
    fn width_and_sign_preserved_by_coercion() {
        let mut b = GraphBuilder::new("w");
        let x = b.input("x", 8, false);
        // pad(x, 4) is a no-op pad (width already >= 4)
        let e = Expr::prim(PrimOp::Pad, vec![Expr::reference(x, 8, false)], vec![4]).unwrap();
        let c = b.comb("c", e);
        b.output("y", Expr::reference(c, 8, false));
        let mut g = b.finish().unwrap();
        let n = simplify(&mut g);
        assert!(n > 0);
        g.validate().unwrap();
    }
}
