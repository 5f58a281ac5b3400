//! Graph nodes, node kinds, and memories.

use crate::expr::{Expr, ExprKind};
use gsim_value::Value;
use std::fmt;

/// Identifier of a node in a [`crate::Graph`] (a dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Builds a `NodeId` from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> NodeId {
        NodeId(u32::try_from(i).expect("node index fits u32"))
    }

    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a memory in a [`crate::Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemId(u32);

impl MemId {
    /// Builds a `MemId` from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> MemId {
        MemId(u32::try_from(i).expect("mem index fits u32"))
    }

    /// The dense index of this memory.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Reset behaviour of a register.
///
/// GSIM's reset-handling optimization (§III-B, Listing 6) moves the
/// per-register reset mux out of the fast path; that transform needs the
/// reset signal and the (constant) initialization value explicitly.
#[derive(Debug, Clone, PartialEq)]
pub struct RegReset {
    /// The node carrying the 1-bit reset signal.
    pub signal: NodeId,
    /// Value loaded into the register while reset is asserted.
    pub init: Value,
}

/// What a graph node is.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Top-level input port; has no defining expression.
    Input,
    /// Top-level output port; `expr` is its driver.
    Output,
    /// Combinational logic; `expr` defines the value.
    Comb,
    /// Register; `expr` is the next-cycle value, evaluated against the
    /// *current* values of its operands and committed at the clock edge.
    Reg {
        /// Synchronous reset, if the register has a reset port.
        reset: Option<RegReset>,
    },
    /// Combinational memory read port; `expr` is the address.
    MemRead {
        /// The memory read from.
        mem: MemId,
    },
    /// Memory write port (a sink); `exprs` via [`Node::expr`] is a
    /// 3-tuple packed as `[addr, data, en]` in a [`crate::PrimOp::Cat`]-free
    /// internal form — see [`Node::mem_write_operands`].
    MemWrite {
        /// The memory written to.
        mem: MemId,
    },
}

impl NodeKind {
    /// `true` for registers.
    pub fn is_reg(&self) -> bool {
        matches!(self, NodeKind::Reg { .. })
    }

    /// `true` for nodes whose evaluation happens combinationally within
    /// a cycle (their value must be produced before their users run).
    pub fn is_comb_like(&self) -> bool {
        matches!(
            self,
            NodeKind::Comb | NodeKind::Output | NodeKind::MemRead { .. }
        )
    }

    /// `true` for sinks that produce no value read by other nodes.
    pub fn is_sink(&self) -> bool {
        matches!(self, NodeKind::Output | NodeKind::MemWrite { .. })
    }
}

/// Operands of a memory write port.
#[derive(Debug, Clone, PartialEq)]
pub struct MemWriteOperands {
    /// Address expression.
    pub addr: Expr,
    /// Data expression.
    pub data: Expr,
    /// Write-enable expression (1 bit).
    pub en: Expr,
}

/// A node in the circuit graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Debug/codegen name; may be empty for generated nodes.
    pub name: String,
    /// The node's role.
    pub kind: NodeKind,
    /// Value width in bits (0 for pure sinks such as write ports).
    pub width: u32,
    /// Signedness of the node's value.
    pub signed: bool,
    /// Defining expression: driver for `Comb`/`Output`, next value for
    /// `Reg`, address for `MemRead`. `None` for `Input`.
    pub expr: Option<Expr>,
    /// Write-port operands; `Some` only for `MemWrite` nodes.
    pub write: Option<Box<MemWriteOperands>>,
}

impl Node {
    /// The write-port operands of a `MemWrite` node.
    pub fn mem_write_operands(&self) -> Option<&MemWriteOperands> {
        self.write.as_deref()
    }

    /// The node's expressions: its defining expression, then the write
    /// port's address, data and enable.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let write = self.write.as_deref().into_iter();
        self.expr
            .iter()
            .chain(write.flat_map(|w| [&w.addr, &w.data, &w.en]))
    }

    /// Mutable form of [`Node::exprs`], in the same order.
    pub fn exprs_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        let write = self.write.as_deref_mut().into_iter();
        self.expr
            .iter_mut()
            .chain(write.flat_map(|w| [&mut w.addr, &mut w.data, &mut w.en]))
    }

    /// Iterates over all node references this node depends on
    /// (expression refs plus write-port operand refs plus the reset
    /// signal).
    pub fn dep_refs(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_dep(|d| out.push(d));
        out
    }

    /// Calls `f` on every node reference this node depends on, in the
    /// order [`Node::dep_refs`] lists them, without allocating.
    pub fn for_each_dep(&self, mut f: impl FnMut(NodeId)) {
        // Expr::refs order: depth first, last operand first.
        fn walk(e: &Expr, f: &mut impl FnMut(NodeId)) {
            match &e.kind {
                ExprKind::Ref(id) => f(*id),
                ExprKind::Prim(_, args, _) => {
                    for a in args.iter().rev() {
                        walk(a, f);
                    }
                }
                ExprKind::Const(_) => {}
            }
        }
        for e in self.exprs() {
            walk(e, &mut f);
        }
        if let NodeKind::Reg { reset: Some(r) } = &self.kind {
            f(r.signal);
        }
    }
}

/// A memory: `depth` words of `width` bits.
///
/// Read ports are combinational (latency 0); write ports take effect at
/// the next clock edge (latency 1). Sequential-read memories are lowered
/// to a combinational read plus a pipeline register by the front end.
#[derive(Debug, Clone, PartialEq)]
pub struct Mem {
    /// Memory name (used by [`crate::Graph::mem_by_name`] and the
    /// simulator's load/peek API).
    pub name: String,
    /// Number of addressable entries.
    pub depth: u64,
    /// Width of each entry in bits.
    pub width: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "n42");
        let m = MemId::from_index(3);
        assert_eq!(format!("{m}"), "m3");
    }

    #[test]
    fn kind_predicates() {
        assert!(NodeKind::Reg { reset: None }.is_reg());
        assert!(!NodeKind::Comb.is_reg());
        assert!(NodeKind::Comb.is_comb_like());
        assert!(NodeKind::Output.is_comb_like());
        assert!(NodeKind::Output.is_sink());
        assert!(NodeKind::MemWrite {
            mem: MemId::from_index(0)
        }
        .is_sink());
        assert!(!NodeKind::Input.is_comb_like());
    }

    #[test]
    fn dep_refs_include_reset_and_write_ports() {
        let sig = NodeId::from_index(7);
        let node = Node {
            name: "r".into(),
            kind: NodeKind::Reg {
                reset: Some(RegReset {
                    signal: sig,
                    init: Value::zero(8),
                }),
            },
            width: 8,
            signed: false,
            expr: Some(Expr::reference(NodeId::from_index(1), 8, false)),
            write: None,
        };
        let deps = node.dep_refs();
        assert!(deps.contains(&sig));
        assert!(deps.contains(&NodeId::from_index(1)));
    }

    #[test]
    fn dep_refs_follow_expr_refs_order() {
        let r = |i| Expr::reference(NodeId::from_index(i), 8, false);
        let add = |a, b| crate::Expr::prim(crate::PrimOp::Add, vec![a, b], vec![]).unwrap();
        let e = add(add(r(1), r(2)), add(r(3), r(4)));
        let node = Node {
            name: "n".into(),
            kind: NodeKind::Comb,
            width: e.width,
            signed: false,
            expr: Some(e.clone()),
            write: None,
        };
        assert_eq!(node.dep_refs(), e.refs().collect::<Vec<_>>());
    }
}
