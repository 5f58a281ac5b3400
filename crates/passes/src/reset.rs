//! Register reset lowering (paper §III-B "Reset handling optimization").
//!
//! GSIM's optimized form (Listing 6) keeps reset *out* of the register's
//! next-value expression: the engine updates registers speculatively and
//! checks each distinct reset signal once per cycle on a slow path. That
//! form is the graph's native representation ([`gsim_graph::RegReset`]
//! metadata).
//!
//! This pass produces the *unoptimized* form (Listing 5) used as the
//! baseline: every register's next value becomes
//! `mux(reset, init, next)`, so the reset signal is re-checked for every
//! register on every evaluation — exactly the overhead the paper's
//! optimization removes.

use gsim_graph::{Expr, Graph, NodeKind, PrimOp};

/// Lowers every `RegReset` into a mux in the register's next-value
/// expression. Returns the number of registers rewritten.
pub fn lower_resets_to_mux(graph: &mut Graph) -> usize {
    let ids: Vec<_> = graph.node_ids().collect();
    let mut count = 0;
    for id in ids {
        let node = graph.node(id);
        let NodeKind::Reg { reset: Some(r) } = &node.kind else {
            continue;
        };
        let (signal, init) = (r.signal, r.init.clone());
        let (w, s) = (node.width, node.signed);
        let init_expr = if s {
            Expr::constant_signed(init)
        } else {
            Expr::constant(init)
        };
        let sig_node = graph.node(signal);
        let sel = Expr::reference(signal, sig_node.width, sig_node.signed);
        // Reset signals are 1-bit UInt by construction; be defensive
        // about odd inputs by reducing wider signals with orr.
        let sel = if sel.width == 1 && !sel.signed {
            sel
        } else {
            Expr::prim(PrimOp::Orr, vec![sel], vec![]).expect("orr")
        };
        let node = graph.node_mut(id);
        let next = node.expr.take().expect("register has next expression");
        let mux = Expr::prim(PrimOp::Mux, vec![sel, init_expr, next], vec![]).expect("reset mux");
        debug_assert_eq!(mux.width, w);
        node.expr = Some(mux);
        node.kind = NodeKind::Reg { reset: None };
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_firrtl::compile;
    use gsim_graph::interp::RefInterp;

    #[test]
    fn lowered_reset_behaves_identically() {
        let g1 = compile(
            r#"
circuit R :
  module R :
    input clock : Clock
    input reset : UInt<1>
    output q : UInt<8>
    reg c : UInt<8>, clock with : (reset => (reset, UInt<8>(100)))
    c <= tail(add(c, UInt<8>(1)), 1)
    q <= c
"#,
        )
        .unwrap();
        let mut g2 = g1.clone();
        let n = lower_resets_to_mux(&mut g2);
        assert_eq!(n, 1);
        g2.validate().unwrap();
        // No RegReset metadata remains.
        for (_, node) in g2.iter() {
            assert!(!matches!(node.kind, NodeKind::Reg { reset: Some(_) }));
        }

        let mut s1 = RefInterp::new(&g1).unwrap();
        let mut s2 = RefInterp::new(&g2).unwrap();
        let stimulus = [0u64, 0, 1, 0, 0, 1, 1, 0, 0, 0];
        for rst in stimulus {
            s1.poke_u64("reset", rst).unwrap();
            s2.poke_u64("reset", rst).unwrap();
            s1.step();
            s2.step();
            assert_eq!(s1.peek_u64("q"), s2.peek_u64("q"));
        }
    }

    #[test]
    fn no_reset_registers_untouched() {
        let mut g = compile(
            r#"
circuit P :
  module P :
    input clock : Clock
    input a : UInt<4>
    output q : UInt<4>
    reg r : UInt<4>, clock
    r <= a
    q <= r
"#,
        )
        .unwrap();
        assert_eq!(lower_resets_to_mux(&mut g), 0);
    }
}
