//! The circuit [`Graph`] container and its builder.

use crate::expr::{Expr, ExprKind};
use crate::node::{Mem, MemId, MemWriteOperands, Node, NodeId, NodeKind, RegReset};
use crate::topo;
use gsim_value::Value;
use std::collections::HashMap;
use std::fmt;

/// A flattened circuit: nodes (registers, logic, ports, memory ports),
/// memories, and the top-level interface.
///
/// Invariants maintained by [`GraphBuilder`] and checked by
/// [`Graph::validate`]:
///
/// * every non-input node has a defining expression (or write-port
///   operands for write ports),
/// * every [`Expr`] reference matches the width and signedness of the
///   node it refers to,
/// * combinational logic is acyclic.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
    mems: Vec<Mem>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
}

/// Error raised when a graph violates a structural invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A non-input node has no defining expression.
    MissingExpr(NodeId),
    /// An expression references a node id outside the graph.
    DanglingRef {
        /// Node containing the bad reference.
        node: NodeId,
        /// The out-of-range referee.
        target: NodeId,
    },
    /// An expression reference disagrees with the referee's type.
    RefTypeMismatch {
        /// Node containing the reference.
        node: NodeId,
        /// The referenced node.
        target: NodeId,
        /// Expected `(width, signed)` (the referee's declared type).
        expected: (u32, bool),
        /// Found `(width, signed)` on the reference.
        found: (u32, bool),
    },
    /// A node's declared width disagrees with its expression's width.
    NodeWidthMismatch {
        /// The inconsistent node.
        node: NodeId,
        /// The node's declared width.
        declared: u32,
        /// The expression's inferred width.
        inferred: u32,
    },
    /// A register reset init value has the wrong width.
    ResetInitWidth {
        /// The register.
        node: NodeId,
    },
    /// Combinational logic forms a cycle.
    CombLoop(topo::CombLoopError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::MissingExpr(n) => write!(f, "node {n} has no defining expression"),
            GraphError::DanglingRef { node, target } => {
                write!(f, "node {node} references nonexistent node {target}")
            }
            GraphError::RefTypeMismatch {
                node,
                target,
                expected,
                found,
            } => write!(
                f,
                "node {node} references {target} as width {}/signed {} but it is width {}/signed {}",
                found.0, found.1, expected.0, expected.1
            ),
            GraphError::NodeWidthMismatch {
                node,
                declared,
                inferred,
            } => write!(
                f,
                "node {node} declared width {declared} but its expression infers {inferred}"
            ),
            GraphError::ResetInitWidth { node } => {
                write!(f, "register {node} reset init width mismatch")
            }
            GraphError::CombLoop(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<topo::CombLoopError> for GraphError {
    fn from(e: topo::CombLoopError) -> Self {
        GraphError::CombLoop(e)
    }
}

impl Graph {
    /// The circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes ("IR node" in the paper's Table I).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct dependency edges ("IR edge" in Table I).
    pub fn num_edges(&self) -> usize {
        let mut edges = 0;
        let mut seen: Vec<NodeId> = Vec::new();
        for node in &self.nodes {
            seen.clear();
            node.for_each_dep(|d| seen.push(d));
            seen.sort_unstable();
            seen.dedup();
            edges += seen.len();
        }
        edges
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Iterates over `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// All node ids, in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + use<> {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// The top-level input ports, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The top-level output ports, in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The memories.
    pub fn mems(&self) -> &[Mem] {
        &self.mems
    }

    /// Access to one memory.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn mem(&self, id: MemId) -> &Mem {
        &self.mems[id.index()]
    }

    /// Finds a node by name (linear scan; build a map for bulk lookups).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.iter().find(|(_, n)| n.name == name).map(|(id, _)| id)
    }

    /// Finds a memory by name.
    pub fn mem_by_name(&self, name: &str) -> Option<MemId> {
        self.mems
            .iter()
            .position(|m| m.name == name)
            .map(MemId::from_index)
    }

    /// A printable name for a node (`n<idx>` if the node is unnamed).
    pub fn display_name(&self, id: NodeId) -> String {
        let n = self.node(id);
        if n.name.is_empty() {
            format!("{id}")
        } else {
            n.name.clone()
        }
    }

    /// Checks all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant found.
    pub fn validate(&self) -> Result<(), GraphError> {
        let check_expr = |node_id: NodeId, e: &Expr| -> Result<(), GraphError> {
            let mut result = Ok(());
            e.visit(&mut |sub| {
                if result.is_err() {
                    return;
                }
                if let ExprKind::Ref(t) = sub.kind {
                    if t.index() >= self.nodes.len() {
                        result = Err(GraphError::DanglingRef {
                            node: node_id,
                            target: t,
                        });
                        return;
                    }
                    let target = self.node(t);
                    if target.width != sub.width || target.signed != sub.signed {
                        result = Err(GraphError::RefTypeMismatch {
                            node: node_id,
                            target: t,
                            expected: (target.width, target.signed),
                            found: (sub.width, sub.signed),
                        });
                    }
                }
            });
            result
        };
        for (id, node) in self.iter() {
            match &node.kind {
                NodeKind::Input => {}
                NodeKind::MemWrite { .. } => {
                    let w = node.write.as_ref().ok_or(GraphError::MissingExpr(id))?;
                    check_expr(id, &w.addr)?;
                    check_expr(id, &w.data)?;
                    check_expr(id, &w.en)?;
                }
                NodeKind::Reg { reset } => {
                    let e = node.expr.as_ref().ok_or(GraphError::MissingExpr(id))?;
                    check_expr(id, e)?;
                    if e.width != node.width {
                        return Err(GraphError::NodeWidthMismatch {
                            node: id,
                            declared: node.width,
                            inferred: e.width,
                        });
                    }
                    if let Some(r) = reset {
                        if r.signal.index() >= self.nodes.len() {
                            return Err(GraphError::DanglingRef {
                                node: id,
                                target: r.signal,
                            });
                        }
                        if r.init.width() != node.width {
                            return Err(GraphError::ResetInitWidth { node: id });
                        }
                    }
                }
                NodeKind::Comb | NodeKind::Output | NodeKind::MemRead { .. } => {
                    let e = node.expr.as_ref().ok_or(GraphError::MissingExpr(id))?;
                    check_expr(id, e)?;
                    if !matches!(node.kind, NodeKind::MemRead { .. }) && e.width != node.width {
                        return Err(GraphError::NodeWidthMismatch {
                            node: id,
                            declared: node.width,
                            inferred: e.width,
                        });
                    }
                }
            }
        }
        topo::toposort(self)?;
        Ok(())
    }

    /// Renames the circuit (used by generators).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Direct push of a fully-formed node; prefer [`GraphBuilder`].
    /// Used by passes that rewrite graphs wholesale.
    pub fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        if matches!(node.kind, NodeKind::Input) {
            self.inputs.push(id);
        }
        if matches!(node.kind, NodeKind::Output) {
            self.outputs.push(id);
        }
        self.nodes.push(node);
        id
    }

    /// Direct push of a memory; prefer [`GraphBuilder`].
    pub fn push_mem(&mut self, mem: Mem) -> MemId {
        let id = MemId::from_index(self.mems.len());
        self.mems.push(mem);
        id
    }

    /// Takes the graph apart into its name, nodes and memories, so a
    /// pass can rewrite them by move instead of by copy.
    pub fn into_parts(self) -> (String, Vec<Node>, Vec<Mem>) {
        (self.name, self.nodes, self.mems)
    }

    /// Reassembles a graph from [`Graph::into_parts`]; the input and
    /// output lists are rebuilt from the node kinds, in node order.
    pub fn from_parts(name: String, nodes: Vec<Node>, mems: Vec<Mem>) -> Graph {
        let ids_of = |pred: fn(&NodeKind) -> bool| -> Vec<NodeId> {
            nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| pred(&n.kind))
                .map(|(i, _)| NodeId::from_index(i))
                .collect()
        };
        let inputs = ids_of(|k| matches!(k, NodeKind::Input));
        let outputs = ids_of(|k| matches!(k, NodeKind::Output));
        Graph {
            name,
            nodes,
            mems,
            inputs,
            outputs,
        }
    }
}

/// Incremental builder for [`Graph`].
///
/// Registers may be declared before their next-value expression exists
/// (registers participate in cycles), then completed with
/// [`GraphBuilder::set_reg_next`].
///
/// # Example
///
/// ```
/// use gsim_graph::{GraphBuilder, Expr};
///
/// let mut b = GraphBuilder::new("pass_through");
/// let a = b.input("a", 4, false);
/// b.output("y", Expr::reference(a, 4, false));
/// let g = b.finish().unwrap();
/// assert_eq!(g.inputs().len(), 1);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    graph: Graph,
    names: HashMap<String, NodeId>,
}

impl GraphBuilder {
    /// Starts building a circuit called `name`.
    pub fn new(name: impl Into<String>) -> GraphBuilder {
        GraphBuilder {
            graph: Graph {
                name: name.into(),
                ..Graph::default()
            },
            names: HashMap::new(),
        }
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId::from_index(self.graph.nodes.len());
        if !node.name.is_empty() {
            self.names.insert(node.name.clone(), id);
        }
        self.graph.push_node(node)
    }

    /// Adds a top-level input port.
    pub fn input(&mut self, name: impl Into<String>, width: u32, signed: bool) -> NodeId {
        self.push(Node {
            name: name.into(),
            kind: NodeKind::Input,
            width,
            signed,
            expr: None,
            write: None,
        })
    }

    /// Adds a combinational node defined by `expr`.
    pub fn comb(&mut self, name: impl Into<String>, expr: Expr) -> NodeId {
        self.push(Node {
            name: name.into(),
            width: expr.width,
            signed: expr.signed,
            kind: NodeKind::Comb,
            expr: Some(expr),
            write: None,
        })
    }

    /// Declares a combinational node whose driver is supplied later via
    /// [`GraphBuilder::set_driver`] (used for FIRRTL wires, whose
    /// drivers are resolved by last-connect semantics after declaration).
    pub fn wire(&mut self, name: impl Into<String>, width: u32, signed: bool) -> NodeId {
        self.push(Node {
            name: name.into(),
            kind: NodeKind::Comb,
            width,
            signed,
            expr: None,
            write: None,
        })
    }

    /// Declares an output port whose driver is supplied later.
    pub fn pending_output(&mut self, name: impl Into<String>, width: u32, signed: bool) -> NodeId {
        self.push(Node {
            name: name.into(),
            kind: NodeKind::Output,
            width,
            signed,
            expr: None,
            write: None,
        })
    }

    /// Sets the driver of a wire or pending output.
    ///
    /// # Panics
    ///
    /// Panics if the node is not `Comb`/`Output` or the widths differ.
    pub fn set_driver(&mut self, id: NodeId, expr: Expr) {
        let node = self.graph.node_mut(id);
        assert!(
            matches!(node.kind, NodeKind::Comb | NodeKind::Output),
            "set_driver on {id} which is not a wire or output"
        );
        assert_eq!(
            node.width, expr.width,
            "driver width {} does not match node {id} width {}",
            expr.width, node.width
        );
        node.expr = Some(expr);
    }

    /// `true` if the node has no defining expression yet.
    pub fn is_pending(&self, id: NodeId) -> bool {
        self.graph.node(id).expr.is_none() && self.graph.node(id).write.is_none()
    }

    /// Read access to the graph under construction.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Adds a top-level output port driven by `expr`.
    pub fn output(&mut self, name: impl Into<String>, expr: Expr) -> NodeId {
        self.push(Node {
            name: name.into(),
            width: expr.width,
            signed: expr.signed,
            kind: NodeKind::Output,
            expr: Some(expr),
            write: None,
        })
    }

    /// Declares a register without reset; complete it with
    /// [`GraphBuilder::set_reg_next`].
    pub fn reg(&mut self, name: impl Into<String>, width: u32, signed: bool) -> NodeId {
        self.push(Node {
            name: name.into(),
            kind: NodeKind::Reg { reset: None },
            width,
            signed,
            expr: None,
            write: None,
        })
    }

    /// Declares a register with a synchronous reset to `init`.
    pub fn reg_with_reset(
        &mut self,
        name: impl Into<String>,
        width: u32,
        signed: bool,
        reset_signal: NodeId,
        init: Value,
    ) -> NodeId {
        self.push(Node {
            name: name.into(),
            kind: NodeKind::Reg {
                reset: Some(RegReset {
                    signal: reset_signal,
                    init,
                }),
            },
            width,
            signed,
            expr: None,
            write: None,
        })
    }

    /// Sets the next-cycle value of a previously declared register.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a register or the expression width differs
    /// from the register width.
    pub fn set_reg_next(&mut self, reg: NodeId, expr: Expr) {
        let node = self.graph.node_mut(reg);
        assert!(node.kind.is_reg(), "set_reg_next on non-register {reg}");
        assert_eq!(
            node.width, expr.width,
            "register {reg} width {} but next expression width {}",
            node.width, expr.width
        );
        node.expr = Some(expr);
    }

    /// Adds a memory.
    pub fn mem(&mut self, name: impl Into<String>, depth: u64, width: u32) -> MemId {
        self.graph.push_mem(Mem {
            name: name.into(),
            depth,
            width,
        })
    }

    /// Adds a combinational read port on `mem` at address `addr`.
    pub fn mem_read(&mut self, name: impl Into<String>, mem: MemId, addr: Expr) -> NodeId {
        let width = self.graph.mem(mem).width;
        self.push(Node {
            name: name.into(),
            kind: NodeKind::MemRead { mem },
            width,
            signed: false,
            expr: Some(addr),
            write: None,
        })
    }

    /// Adds a write port on `mem`: when `en` is 1 at a clock edge,
    /// `mem[addr] <= data`.
    pub fn mem_write(&mut self, mem: MemId, addr: Expr, data: Expr, en: Expr) -> NodeId {
        self.push(Node {
            name: String::new(),
            kind: NodeKind::MemWrite { mem },
            width: 0,
            signed: false,
            expr: None,
            write: Some(Box::new(MemWriteOperands { addr, data, en })),
        })
    }

    /// Looks up a previously added node by name.
    pub fn by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Finishes and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns any structural invariant violation (see [`GraphError`]).
    pub fn finish(self) -> Result<Graph, GraphError> {
        self.graph.validate()?;
        Ok(self.graph)
    }

    /// Finishes without validation (for performance-sensitive
    /// generators whose output is validated in tests instead).
    pub fn finish_unchecked(self) -> Graph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::PrimOp;

    #[test]
    fn builder_roundtrip() {
        let mut b = GraphBuilder::new("t");
        let a = b.input("a", 8, false);
        let c = b.comb(
            "c",
            Expr::prim(
                PrimOp::Add,
                vec![Expr::reference(a, 8, false), Expr::const_u64(1, 8)],
                vec![],
            )
            .unwrap(),
        );
        b.output("y", Expr::reference(c, 9, false));
        let g = b.finish().unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.name(), "t");
        assert_eq!(g.node_by_name("c"), Some(c));
        assert_eq!(g.display_name(c), "c");
    }

    #[test]
    fn validate_catches_type_mismatch() {
        let mut b = GraphBuilder::new("t");
        let a = b.input("a", 8, false);
        // Lie about a's width in the reference.
        b.output("y", Expr::reference(a, 9, false));
        let err = b.finish().unwrap_err();
        assert!(matches!(err, GraphError::RefTypeMismatch { .. }));
    }

    #[test]
    fn validate_catches_missing_reg_next() {
        let mut b = GraphBuilder::new("t");
        let r = b.reg("r", 8, false);
        b.output("y", Expr::reference(r, 8, false));
        let err = b.finish().unwrap_err();
        assert_eq!(err, GraphError::MissingExpr(r));
    }

    #[test]
    fn validate_catches_comb_loop() {
        let mut b = GraphBuilder::new("t");
        // Build a cycle: c0 -> c1 -> c0 by forging refs before defs.
        let c0_ref = Expr::reference(NodeId::from_index(1), 1, false);
        let c0 = b.comb("c0", Expr::prim(PrimOp::Not, vec![c0_ref], vec![]).unwrap());
        let c1_ref = Expr::reference(c0, 1, false);
        let _c1 = b.comb("c1", Expr::prim(PrimOp::Not, vec![c1_ref], vec![]).unwrap());
        let err = b.finish().unwrap_err();
        assert!(matches!(err, GraphError::CombLoop(_)));
    }

    #[test]
    fn registers_break_cycles() {
        let mut b = GraphBuilder::new("t");
        let r = b.reg("r", 1, false);
        let inv = b.comb(
            "inv",
            Expr::prim(PrimOp::Not, vec![Expr::reference(r, 1, false)], vec![]).unwrap(),
        );
        b.set_reg_next(r, Expr::reference(inv, 1, false));
        b.output("y", Expr::reference(r, 1, false));
        assert!(b.finish().is_ok());
    }

    #[test]
    fn memories() {
        let mut b = GraphBuilder::new("t");
        let addr = b.input("addr", 4, false);
        let data = b.input("data", 8, false);
        let en = b.input("en", 1, false);
        let m = b.mem("ram", 16, 8);
        let rd = b.mem_read("rd", m, Expr::reference(addr, 4, false));
        b.mem_write(
            m,
            Expr::reference(addr, 4, false),
            Expr::reference(data, 8, false),
            Expr::reference(en, 1, false),
        );
        b.output("q", Expr::reference(rd, 8, false));
        let g = b.finish().unwrap();
        assert_eq!(g.mems().len(), 1);
        assert_eq!(g.mem_by_name("ram"), Some(m));
        assert_eq!(g.node(rd).width, 8);
    }

    #[test]
    fn reset_init_width_checked() {
        let mut b = GraphBuilder::new("t");
        let rst = b.input("rst", 1, false);
        let r = b.reg_with_reset("r", 8, false, rst, Value::zero(4));
        b.set_reg_next(r, Expr::reference(r, 8, false));
        let err = b.finish().unwrap_err();
        assert_eq!(err, GraphError::ResetInitWidth { node: r });
    }
}
