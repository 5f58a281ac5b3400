//! The ahead-of-time Rust emitter: lowers a post-optimization circuit
//! graph into a **complete, standalone Rust program** that simulates
//! the design — GSIM's actual product (§III-D), realized for this
//! repository's substrate.
//!
//! The emitted simulator mirrors the essential-signal engine's
//! architecture, with all interpretation cost moved to compile time:
//!
//! * one function per supernode, evaluating its member nodes as native
//!   Rust expressions (the interpreter's fused superinstructions are
//!   subsumed — whole expression trees compile to straight-line code);
//! * a word-scanned active-bit dispatch loop (paper Listing 4): a
//!   supernode only runs when an operand changed;
//! * a locality-ordered state struct shared with the C++ emitter's
//!   Table IV "data size" accounting ([`crate::layout`]): inputs,
//!   register current/shadow pairs, then combinational values in sweep
//!   order, each stored in the narrowest natural integer type;
//! * a `main` that reads a stimulus stream in the `Scenario` text
//!   format, steps the design, and reports peeks + counters (plus a
//!   JSON summary line) on stdout — or, with `--serve`, stays
//!   resident and speaks the line-oriented session protocol
//!   ([`gsim_sim::wire`]) over stdin/stdout.
//!
//! Values up to 128 bits compute on native `u64`/`u128` arithmetic;
//! wider signals go through `gsim_value`'s word kernels and the `rt`
//! op semantics built on them. The program is standalone: the
//! workspace files it needs (word kernels, wire grammar, stimulus
//! parser, VCD writer, `rt.rs`) are embedded as modules by `embed`.
//! Emission is deterministic: the same graph always produces the same
//! source text.

use crate::layout::{self, StateLayout};
use gsim_graph::{Expr, ExprKind, Graph, NodeId, NodeKind, PrimOp};
use gsim_partition::{Partition, PartitionOptions};
use gsim_value::Value;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Widest supported signal in the AoT backend (bounded by the embedded
/// runtime's scratch buffers).
pub const MAX_AOT_WIDTH: u32 = 64 * 64;

/// Result of emitting a design as a standalone Rust simulator.
#[derive(Debug, Clone)]
pub struct RustOutput {
    /// The generated program (a complete `main.rs`).
    pub code: String,
    /// Bytes of generated source ("code size").
    pub code_bytes: usize,
    /// Bytes of simulated state in the emitted struct, memories
    /// excluded ("data size"; shared with the C++ emitter via
    /// [`crate::layout`]).
    pub data_bytes: usize,
    /// Wall-clock emission time.
    pub emit_time: Duration,
    /// Supernodes in the emitted schedule.
    pub supernodes: usize,
}

/// Error from the AoT emitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// A node or intermediate expression exceeds [`MAX_AOT_WIDTH`].
    WidthTooLarge {
        /// The offending node.
        node: NodeId,
        /// Its width.
        width: u32,
    },
    /// The partition's schedule is not topologically ordered (a node
    /// precedes one of its combinational operands).
    ScheduleOrder {
        /// The node evaluated too early.
        node: NodeId,
        /// The operand scheduled after it.
        dep: NodeId,
    },
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitError::WidthTooLarge { node, width } => write!(
                f,
                "node {node} is {width} bits wide; the AoT backend supports at most {MAX_AOT_WIDTH}"
            ),
            EmitError::ScheduleOrder { node, dep } => write!(
                f,
                "schedule evaluates {node} before its combinational operand {dep}"
            ),
        }
    }
}

impl std::error::Error for EmitError {}

/// How a value is stored in the emitted state struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Repr {
    /// `u8`/`u16`/`u32`/`u64` (field bit size given).
    Small(u32),
    /// `u128`.
    U128,
    /// `[u64; N]`.
    Wide(usize),
}

impl Repr {
    fn for_width(w: u32) -> Repr {
        match w {
            0 => unreachable!("zero-width values have no storage"),
            1..=8 => Repr::Small(8),
            9..=16 => Repr::Small(16),
            17..=32 => Repr::Small(32),
            33..=64 => Repr::Small(64),
            65..=128 => Repr::U128,
            _ => Repr::Wide(gsim_value::words_for(w)),
        }
    }

    fn ty(&self) -> String {
        match self {
            Repr::Small(b) => format!("u{b}"),
            Repr::U128 => "u128".into(),
            Repr::Wide(n) => format!("[u64; {n}]"),
        }
    }
}

/// An evaluated operand inside a generated function body.
#[derive(Debug, Clone)]
enum Operand {
    /// A `u128`-valued Rust expression, canonical at `width`.
    N {
        expr: String,
        width: u32,
        signed: bool,
    },
    /// A `[u64; _]`-valued place expression (temp or field), canonical
    /// at `width`.
    W {
        expr: String,
        width: u32,
        signed: bool,
    },
}

impl Operand {
    fn width(&self) -> u32 {
        match self {
            Operand::N { width, .. } | Operand::W { width, .. } => *width,
        }
    }
}

struct Emitter<'g> {
    graph: &'g Graph,
    partition: Partition,
    layout: StateLayout,
    /// Node index → state-field repr (`None` for zero-width / sinks).
    repr: Vec<Option<Repr>>,
    /// Supernode activation masks per producer node: readers of the
    /// node grouped as `(act word, bit mask)` pairs, excluding the
    /// producer's own supernode.
    succ_masks: Vec<Vec<(usize, u64)>>,
    /// Same, including the producer's own supernode (register commit).
    succ_masks_self: Vec<Vec<(usize, u64)>>,
    /// Readers of each memory (supernodes holding its read ports).
    mem_reader_masks: Vec<Vec<(usize, u64)>>,
    /// Hoisted wide constants.
    wide_consts: Vec<Vec<u64>>,
    tmp: u32,
}

fn field(id: NodeId) -> String {
    format!("self.n{}", id.index())
}

fn mask_literal(w: u32) -> String {
    if w == 0 {
        "0u128".into()
    } else if w >= 128 {
        "u128::MAX".into()
    } else {
        format!("0x{:x}u128", (1u128 << w) - 1)
    }
}

fn group_masks(sns: &[u32]) -> Vec<(usize, u64)> {
    let mut out: Vec<(usize, u64)> = Vec::new();
    for &sn in sns {
        let w = (sn >> 6) as usize;
        let bit = 1u64 << (sn & 63);
        match out.iter_mut().find(|(ow, _)| *ow == w) {
            Some((_, m)) => *m |= bit,
            None => out.push((w, bit)),
        }
    }
    out.sort_unstable_by_key(|&(w, _)| w);
    out
}

/// Emits a complete standalone Rust simulator for `graph`, partitioned
/// with `popts`.
///
/// # Errors
///
/// Returns [`EmitError`] for designs wider than [`MAX_AOT_WIDTH`] or a
/// partition whose schedule is not topologically ordered.
pub fn emit_rust(graph: &Graph, popts: &PartitionOptions) -> Result<RustOutput, EmitError> {
    let start = Instant::now();
    let partition = gsim_partition::build(graph, popts);
    let lay = layout::state_layout(graph, &partition);

    // Width validation (node widths and every intermediate expression).
    for (id, node) in graph.iter() {
        let mut too_wide = None;
        let mut check = |e: &Expr| {
            if e.width > MAX_AOT_WIDTH && too_wide.is_none() {
                too_wide = Some(e.width);
            }
        };
        if node.width > MAX_AOT_WIDTH {
            return Err(EmitError::WidthTooLarge {
                node: id,
                width: node.width,
            });
        }
        if let Some(e) = &node.expr {
            e.visit(&mut check);
        }
        if let Some(w) = &node.write {
            w.addr.visit(&mut check);
            w.data.visit(&mut check);
            w.en.visit(&mut check);
        }
        if let Some(width) = too_wide {
            return Err(EmitError::WidthTooLarge { node: id, width });
        }
    }

    let n_nodes = graph.num_nodes();
    let mut sn_of = vec![0u32; n_nodes];
    let mut pos_of = vec![0u32; n_nodes];
    for (sn, members) in partition.supernodes.iter().enumerate() {
        for (pos, &id) in members.iter().enumerate() {
            sn_of[id.index()] = sn as u32;
            pos_of[id.index()] = pos as u32;
        }
    }

    // Schedule validation: a node's combinational operands must be
    // scheduled strictly before it.
    for (id, node) in graph.iter() {
        if matches!(node.kind, NodeKind::MemWrite { .. }) {
            continue; // evaluated in the commit phase, after the sweep
        }
        for dep in node.dep_refs() {
            if !graph.node(dep).kind.is_comb_like() {
                continue; // registers/inputs are read pre-edge
            }
            let before = (sn_of[dep.index()], pos_of[dep.index()]);
            let here = (sn_of[id.index()], pos_of[id.index()]);
            if before >= here {
                return Err(EmitError::ScheduleOrder { node: id, dep });
            }
        }
    }

    // Successor supernodes per producer node (sweep-time activation
    // excludes the producer's own supernode; commit-time activation
    // includes it).
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
    for (id, node) in graph.iter() {
        if matches!(node.kind, NodeKind::MemWrite { .. }) {
            continue; // write operands are evaluated live at commit
        }
        for dep in node.dep_refs() {
            succs[dep.index()].push(sn_of[id.index()]);
        }
    }
    for s in &mut succs {
        s.sort_unstable();
        s.dedup();
    }
    let succ_masks: Vec<Vec<(usize, u64)>> = succs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let own = sn_of[i];
            let filtered: Vec<u32> = s.iter().copied().filter(|&sn| sn != own).collect();
            group_masks(&filtered)
        })
        .collect();
    let succ_masks_self: Vec<Vec<(usize, u64)>> = succs.iter().map(|s| group_masks(s)).collect();
    let mem_reader_masks: Vec<Vec<(usize, u64)>> = (0..graph.mems().len())
        .map(|m| {
            let mut sns: Vec<u32> = graph
                .iter()
                .filter(|(_, n)| matches!(n.kind, NodeKind::MemRead { mem } if mem.index() == m))
                .map(|(id, _)| sn_of[id.index()])
                .collect();
            sns.sort_unstable();
            sns.dedup();
            group_masks(&sns)
        })
        .collect();

    let mut repr = vec![None; n_nodes];
    for e in &lay.entries {
        repr[e.node.index()] = Some(Repr::for_width(e.width));
    }

    let mut em = Emitter {
        graph,
        partition,
        layout: lay,
        repr,
        succ_masks,
        succ_masks_self,
        mem_reader_masks,
        wide_consts: Vec::new(),
        tmp: 0,
    };
    let code = em.emit();
    Ok(RustOutput {
        code_bytes: code.len(),
        data_bytes: em.layout.data_bytes,
        supernodes: em.partition.len(),
        emit_time: start.elapsed(),
        code,
    })
}

impl Emitter<'_> {
    fn fresh(&mut self) -> String {
        self.tmp += 1;
        format!("t{}", self.tmp)
    }

    fn wide_const(&mut self, words: &[u64]) -> String {
        let idx = match self.wide_consts.iter().position(|c| c == words) {
            Some(i) => i,
            None => {
                self.wide_consts.push(words.to_vec());
                self.wide_consts.len() - 1
            }
        };
        format!("C{idx}")
    }

    fn act_lines(&self, masks: &[(usize, u64)], out: &mut String, indent: &str) {
        for &(w, m) in masks {
            let _ = writeln!(out, "{indent}self.act[{w}] |= 0x{m:x};");
        }
    }

    /// Loads node `id`'s current value as an operand.
    fn node_operand(&self, id: NodeId) -> Operand {
        let node = self.graph.node(id);
        match self.repr[id.index()] {
            None => Operand::N {
                expr: "0u128".into(),
                width: 0,
                signed: node.signed,
            },
            Some(Repr::Small(_)) => Operand::N {
                expr: format!("({} as u128)", field(id)),
                width: node.width,
                signed: node.signed,
            },
            Some(Repr::U128) => Operand::N {
                expr: field(id),
                width: node.width,
                signed: node.signed,
            },
            Some(Repr::Wide(_)) => Operand::W {
                expr: field(id),
                width: node.width,
                signed: node.signed,
            },
        }
    }

    /// Materializes an operand as a word-slice place expression,
    /// emitting a conversion temp for narrow values.
    fn as_slice(&mut self, op: &Operand, out: &mut String, indent: &str) -> String {
        match op {
            Operand::W { expr, .. } => expr.clone(),
            Operand::N { expr, width, .. } => {
                let k = gsim_value::words_for(*width).max(1);
                let t = self.fresh();
                if k == 1 {
                    let _ = writeln!(out, "{indent}let {t}: [u64; 1] = [({expr}) as u64];");
                } else {
                    let _ = writeln!(
                        out,
                        "{indent}let {t}: [u64; 2] = [({expr}) as u64, (({expr}) >> 64) as u64];"
                    );
                }
                t
            }
        }
    }

    /// Emits evaluation of `e`, appending statements to `out`, and
    /// returns the operand holding the result.
    fn gen_expr(&mut self, e: &Expr, out: &mut String, indent: &str) -> Operand {
        match &e.kind {
            ExprKind::Const(v) => {
                if e.width == 0 {
                    Operand::N {
                        expr: "0u128".into(),
                        width: 0,
                        signed: e.signed,
                    }
                } else if e.width <= 128 {
                    Operand::N {
                        expr: format!("0x{:x}u128", v.to_u128().expect("width <= 128")),
                        width: e.width,
                        signed: e.signed,
                    }
                } else {
                    let name = self.wide_const(v.words());
                    Operand::W {
                        expr: name,
                        width: e.width,
                        signed: e.signed,
                    }
                }
            }
            ExprKind::Ref(id) => {
                let mut op = self.node_operand(*id);
                // References carry their own (validated) width/sign.
                match &mut op {
                    Operand::N { width, signed, .. } | Operand::W { width, signed, .. } => {
                        *width = e.width;
                        *signed = e.signed;
                    }
                }
                op
            }
            ExprKind::Prim(op, args, params) => {
                let operands: Vec<Operand> =
                    args.iter().map(|a| self.gen_expr(a, out, indent)).collect();
                self.gen_prim(*op, e, &operands, params, out, indent)
            }
        }
    }

    /// Binds a `u128` formula to a fresh temp and returns it as an
    /// operand (keeps generated expressions flat and share-safe).
    fn bind_n(
        &mut self,
        formula: String,
        width: u32,
        signed: bool,
        out: &mut String,
        indent: &str,
    ) -> Operand {
        let t = self.fresh();
        let _ = writeln!(out, "{indent}let {t}: u128 = {formula};");
        Operand::N {
            expr: t,
            width,
            signed,
        }
    }

    #[allow(clippy::too_many_lines)]
    fn gen_prim(
        &mut self,
        op: PrimOp,
        e: &Expr,
        operands: &[Operand],
        params: &[u32],
        out: &mut String,
        indent: &str,
    ) -> Operand {
        use PrimOp::*;
        let w = e.width;
        // The reference semantics take the operand signedness from the
        // first argument (`Expr::eval`), and the mux arm signedness
        // from the true arm (`eval_prim`).
        let signed = match operands.first() {
            Some(Operand::N { signed, .. } | Operand::W { signed, .. }) => *signed,
            None => false,
        };

        // Identity ops: value and canonical form unchanged, only the
        // declared type differs.
        match op {
            AsUInt | AsSInt => {
                let mut r = operands[0].clone();
                match &mut r {
                    Operand::N { width, signed, .. } | Operand::W { width, signed, .. } => {
                        *width = w;
                        *signed = matches!(op, AsSInt);
                    }
                }
                return r;
            }
            Cvt if signed => {
                let mut r = operands[0].clone();
                match &mut r {
                    Operand::N { signed, .. } | Operand::W { signed, .. } => *signed = true,
                }
                return r;
            }
            _ => {}
        }

        let narrow = w <= 128 && operands.iter().all(|o| matches!(o, Operand::N { .. }));
        if narrow {
            let n = |i: usize| -> (String, u32) {
                match &operands[i] {
                    Operand::N { expr, width, .. } => (expr.clone(), *width),
                    Operand::W { .. } => unreachable!("narrow path has narrow operands"),
                }
            };
            let sx = |i: usize| -> String {
                let (x, wx) = n(i);
                format!("rt::sx128({x}, {wx})")
            };
            let formula = match op {
                Add | Sub => {
                    let f = if matches!(op, Add) {
                        "wrapping_add"
                    } else {
                        "wrapping_sub"
                    };
                    if signed {
                        format!("rt::mask128(({}.{f}({})) as u128, {w})", sx(0), sx(1))
                    } else {
                        format!("rt::mask128({}.{f}({}), {w})", n(0).0, n(1).0)
                    }
                }
                Mul => {
                    if signed {
                        format!(
                            "rt::mask128(({}.wrapping_mul({})) as u128, {w})",
                            sx(0),
                            sx(1)
                        )
                    } else {
                        format!("rt::mask128({}.wrapping_mul({}), {w})", n(0).0, n(1).0)
                    }
                }
                Div => {
                    if signed {
                        format!(
                            "rt::mask128((if {sb} == 0 {{ 0 }} else {{ {sa}.wrapping_div({sb}) }}) as u128, {w})",
                            sa = sx(0),
                            sb = sx(1)
                        )
                    } else {
                        format!(
                            "rt::mask128(if {b} == 0 {{ 0 }} else {{ {a} / {b} }}, {w})",
                            a = n(0).0,
                            b = n(1).0
                        )
                    }
                }
                Rem => {
                    if signed {
                        format!(
                            "rt::mask128((if {sb} == 0 {{ {sa} }} else {{ {sa}.wrapping_rem({sb}) }}) as u128, {w})",
                            sa = sx(0),
                            sb = sx(1)
                        )
                    } else {
                        format!(
                            "rt::mask128(if {b} == 0 {{ {a} }} else {{ {a} % {b} }}, {w})",
                            a = n(0).0,
                            b = n(1).0
                        )
                    }
                }
                Lt | Leq | Gt | Geq | Eq | Neq => {
                    let cmp = match op {
                        Lt => "<",
                        Leq => "<=",
                        Gt => ">",
                        Geq => ">=",
                        Eq => "==",
                        _ => "!=",
                    };
                    if signed {
                        format!("(({} {cmp} {}) as u128)", sx(0), sx(1))
                    } else {
                        format!("(({} {cmp} {}) as u128)", n(0).0, n(1).0)
                    }
                }
                Pad => {
                    let (x, wx) = n(0);
                    if signed && w > wx {
                        format!("rt::mask128(rt::sx128({x}, {wx}) as u128, {w})")
                    } else {
                        x
                    }
                }
                Cvt => n(0).0, // unsigned cvt: canonical value unchanged
                Shl => {
                    let (x, _) = n(0);
                    let sh = params[0];
                    if sh >= 128 {
                        "0u128".into()
                    } else {
                        format!("rt::mask128({x} << {sh}, {w})")
                    }
                }
                Shr => {
                    let (x, wx) = n(0);
                    let sh = params[0];
                    if signed {
                        format!(
                            "rt::mask128((rt::sx128({x}, {wx}) >> {sh}u32) as u128, {w})",
                            sh = sh.min(127)
                        )
                    } else if sh >= 128 {
                        "0u128".into()
                    } else {
                        format!("rt::mask128({x} >> {sh}, {w})")
                    }
                }
                Dshl => {
                    let (a, _) = n(0);
                    let (b, _) = n(1);
                    let t = self.fresh();
                    let _ = writeln!(
                        out,
                        "{indent}let {t}: u64 = rt::sat64_128({b}).min({w} as u64);"
                    );
                    format!("rt::mask128(if {t} >= 128 {{ 0 }} else {{ {a} << {t} }}, {w})")
                }
                Dshr => {
                    let (a, wa) = n(0);
                    let (b, _) = n(1);
                    let t = self.fresh();
                    let _ = writeln!(
                        out,
                        "{indent}let {t}: u64 = rt::sat64_128({b}).min({wa}u64 + 1);"
                    );
                    if signed {
                        format!(
                            "rt::mask128((rt::sx128({a}, {wa}) >> (if {t} > 127 {{ 127u64 }} else {{ {t} }})) as u128, {w})"
                        )
                    } else {
                        format!("rt::mask128(if {t} >= 128 {{ 0 }} else {{ {a} >> {t} }}, {w})")
                    }
                }
                Neg => {
                    if signed {
                        format!("rt::mask128({}.wrapping_neg() as u128, {w})", sx(0))
                    } else {
                        format!("rt::mask128({}.wrapping_neg(), {w})", n(0).0)
                    }
                }
                Not => format!("rt::mask128(!{}, {w})", n(0).0),
                And | Or | Xor => {
                    let o = match op {
                        And => "&",
                        Or => "|",
                        _ => "^",
                    };
                    if signed {
                        format!(
                            "rt::mask128((rt::sx128({a}, {wa}) as u128) {o} (rt::sx128({b}, {wb}) as u128), {w})",
                            a = n(0).0,
                            wa = n(0).1,
                            b = n(1).0,
                            wb = n(1).1
                        )
                    } else {
                        format!("({} {o} {})", n(0).0, n(1).0)
                    }
                }
                Andr => {
                    let (x, wx) = n(0);
                    if wx == 0 {
                        "1u128".into()
                    } else {
                        format!("(({x} == {}) as u128)", mask_literal(wx))
                    }
                }
                Orr => format!("(({} != 0) as u128)", n(0).0),
                Xorr => format!("(({}.count_ones() & 1) as u128)", n(0).0),
                Cat => {
                    let (a, wa) = n(0);
                    let (b, wb) = n(1);
                    if wa == 0 {
                        b
                    } else if wb == 0 {
                        a
                    } else {
                        format!("(({a} << {wb}) | {b})")
                    }
                }
                Bits => {
                    let (x, _) = n(0);
                    let (hi, lo) = (params[0], params[1]);
                    format!("rt::mask128({x} >> {lo}, {})", hi - lo + 1)
                }
                Head => {
                    let (x, wx) = n(0);
                    format!("rt::mask128({x} >> {}, {})", wx - params[0], params[0])
                }
                Tail => {
                    let (x, wx) = n(0);
                    format!("rt::mask128({x}, {})", wx - params[0])
                }
                Mux => {
                    let (s, _) = n(0);
                    let arm_signed = match &operands[1] {
                        Operand::N { signed, .. } | Operand::W { signed, .. } => *signed,
                    };
                    let arm = |i: usize| -> String {
                        let (x, wx) = n(i);
                        if wx == w || !arm_signed {
                            x
                        } else {
                            format!("rt::mask128(rt::sx128({x}, {wx}) as u128, {w})")
                        }
                    };
                    format!(
                        "if {s} != 0 {{ {t} }} else {{ {f} }}",
                        t = arm(1),
                        f = arm(2)
                    )
                }
                AsUInt | AsSInt => unreachable!("handled above"),
            };
            return self.bind_n(formula, w, e.signed, out, indent);
        }

        // ---- wide path: compute through the rt word kernels ----
        let slices: Vec<(String, u32)> = operands
            .iter()
            .map(|o| (self.as_slice(o, out, indent), o.width()))
            .collect();
        let k = gsim_value::words_for(w).max(1);
        let t = self.fresh();
        let a = |i: usize| -> String { format!("&{}", slices[i].0) };
        let wa = |i: usize| -> u32 { slices[i].1 };
        match op {
            Add | Sub | Mul | Div | Rem => {
                let f = match op {
                    Add => "add",
                    Sub => "sub",
                    Mul => "mul",
                    Div => "div",
                    _ => "rem",
                };
                let _ = writeln!(out, "{indent}let mut {t} = [0u64; {k}];");
                let _ = writeln!(
                    out,
                    "{indent}rt::{f}(&mut {t}, {w}, {}, {}, {}, {}, {signed});",
                    a(0),
                    wa(0),
                    a(1),
                    wa(1)
                );
            }
            Lt | Leq | Gt | Geq | Eq | Neq => {
                let test = match op {
                    Lt => "== std::cmp::Ordering::Less",
                    Leq => "!= std::cmp::Ordering::Greater",
                    Gt => "== std::cmp::Ordering::Greater",
                    Geq => "!= std::cmp::Ordering::Less",
                    Eq => "== std::cmp::Ordering::Equal",
                    _ => "!= std::cmp::Ordering::Equal",
                };
                let f = format!(
                    "((rt::cmp({}, {}, {}, {}, {signed}) {test}) as u128)",
                    a(0),
                    wa(0),
                    a(1),
                    wa(1)
                );
                return self.bind_n(f, 1, false, out, indent);
            }
            And | Or | Xor => {
                let which = match op {
                    And => 0,
                    Or => 1,
                    _ => 2,
                };
                let _ = writeln!(out, "{indent}let mut {t} = [0u64; {k}];");
                let _ = writeln!(
                    out,
                    "{indent}rt::bitwise(&mut {t}, {w}, {}, {}, {}, {}, {signed}, {which});",
                    a(0),
                    wa(0),
                    a(1),
                    wa(1)
                );
            }
            Not => {
                let _ = writeln!(out, "{indent}let mut {t} = [0u64; {k}];");
                let _ = writeln!(out, "{indent}words::not(&mut {t}, {}, {w});", a(0));
            }
            Andr | Orr | Xorr => {
                let f = match op {
                    Andr => format!("((words::andr({}, {})) as u128)", a(0), wa(0)),
                    Orr => format!("((words::orr({})) as u128)", a(0)),
                    _ => format!("((words::xorr({})) as u128)", a(0)),
                };
                return self.bind_n(f, 1, false, out, indent);
            }
            Cat => {
                let _ = writeln!(out, "{indent}let mut {t} = [0u64; {k}];");
                let _ = writeln!(
                    out,
                    "{indent}words::cat(&mut {t}, {}, {}, {});",
                    a(0),
                    a(1),
                    wa(1)
                );
            }
            Bits | Head | Tail => {
                let lo = match op {
                    Bits => params[1],
                    Head => wa(0) - params[0],
                    _ => 0,
                };
                let _ = writeln!(out, "{indent}let mut {t} = [0u64; {k}];");
                let _ = writeln!(
                    out,
                    "{indent}words::extract(&mut {t}, {}, {lo}, {w});",
                    a(0)
                );
            }
            Shl => {
                let _ = writeln!(out, "{indent}let mut {t} = [0u64; {k}];");
                let _ = writeln!(
                    out,
                    "{indent}rt::shl(&mut {t}, {w}, {}, {});",
                    a(0),
                    params[0]
                );
            }
            Shr => {
                let _ = writeln!(out, "{indent}let mut {t} = [0u64; {k}];");
                let _ = writeln!(
                    out,
                    "{indent}rt::shr(&mut {t}, {w}, {}, {}, {}, {signed});",
                    a(0),
                    wa(0),
                    params[0]
                );
            }
            Dshl => {
                let _ = writeln!(out, "{indent}let mut {t} = [0u64; {k}];");
                let _ = writeln!(out, "{indent}rt::dshl(&mut {t}, {w}, {}, {});", a(0), a(1));
            }
            Dshr => {
                let _ = writeln!(out, "{indent}let mut {t} = [0u64; {k}];");
                let _ = writeln!(
                    out,
                    "{indent}rt::dshr(&mut {t}, {}, {}, {}, {signed});",
                    a(0),
                    wa(0),
                    a(1)
                );
            }
            Pad | Cvt => {
                let _ = writeln!(out, "{indent}let mut {t} = [0u64; {k}];");
                let _ = writeln!(
                    out,
                    "{indent}rt::ext(&mut {t}, {}, {}, {w}, {signed});",
                    a(0),
                    wa(0)
                );
            }
            Neg => {
                let _ = writeln!(out, "{indent}let mut {t} = [0u64; {k}];");
                let _ = writeln!(
                    out,
                    "{indent}rt::neg(&mut {t}, {w}, {}, {}, {signed});",
                    a(0),
                    wa(0)
                );
            }
            Mux => {
                let arm_signed = match &operands[1] {
                    Operand::N { signed, .. } | Operand::W { signed, .. } => *signed,
                };
                let sel_nonzero = match &operands[0] {
                    Operand::N { expr, .. } => format!("{expr} != 0"),
                    Operand::W { expr, .. } => format!("words::orr(&{expr})"),
                };
                let _ = writeln!(out, "{indent}let mut {t} = [0u64; {k}];");
                let _ = writeln!(
                    out,
                    "{indent}if {sel_nonzero} {{ rt::ext(&mut {t}, {}, {}, {w}, {arm_signed}); }} else {{ rt::ext(&mut {t}, {}, {}, {w}, {arm_signed}); }}",
                    a(1),
                    wa(1),
                    a(2),
                    wa(2)
                );
            }
            AsUInt | AsSInt => unreachable!("handled above"),
        }
        if w <= 128 {
            // Result fits the narrow tier: convert back so stores and
            // downstream narrow ops stay on native arithmetic.
            self.bind_n(format!("rt::to_u128(&{t})"), w, e.signed, out, indent)
        } else {
            Operand::W {
                expr: t,
                width: w,
                signed: e.signed,
            }
        }
    }

    /// Converts an operand of exactly the target node's width into the
    /// node's storage type.
    fn store_value(&mut self, op: &Operand, repr: Repr, out: &mut String, indent: &str) -> String {
        match (op, repr) {
            (Operand::N { expr, .. }, Repr::Small(b)) => format!("(({expr}) as u{b})"),
            (Operand::N { expr, .. }, Repr::U128) => expr.clone(),
            (Operand::W { expr, .. }, Repr::Wide(_)) => expr.clone(),
            (Operand::N { expr, width, .. }, Repr::Wide(k)) => {
                // A narrow value stored wide (cannot happen today —
                // widths above 128 always take the wide path — but keep
                // the conversion total).
                let t = self.fresh();
                let _ = writeln!(
                    out,
                    "{indent}let {t}: [u64; {k}] = {{ let mut z = [0u64; {k}]; rt::store128(&mut z, {expr}); let _ = {width}; z }};"
                );
                t
            }
            (Operand::W { expr, .. }, Repr::Small(b)) => format!("({expr}[0] as u{b})"),
            (Operand::W { expr, .. }, Repr::U128) => format!("rt::to_u128(&{expr})"),
        }
    }

    /// Emits the body evaluating one supernode member node.
    fn gen_member(&mut self, id: NodeId, out: &mut String) {
        let node = self.graph.node(id);
        let ind = "        ";
        let name = self.graph.display_name(id);
        let _ = writeln!(
            out,
            "        // {name} ({}, {} bits)",
            kind_tag(node),
            node.width
        );
        match &node.kind {
            NodeKind::Input | NodeKind::MemWrite { .. } => {}
            NodeKind::Reg { .. } => {
                let e = node.expr.as_ref().expect("reg next");
                let op = self.gen_expr(e, out, ind);
                if let Some(repr) = self.repr[id.index()] {
                    let v = self.store_value(&op, repr, out, ind);
                    let shadow = format!("self.n{}_next", id.index());
                    // Unconditional, uncounted: the interpreter's Reg
                    // task writes the shadow the same way; value
                    // changes are counted once, at commit.
                    let _ = writeln!(out, "{ind}{shadow} = {v};");
                }
            }
            NodeKind::MemRead { mem } => {
                let addr_e = node.expr.as_ref().expect("read address");
                let addr_op = self.gen_expr(addr_e, out, ind);
                let addr = match &addr_op {
                    Operand::N { expr, .. } => format!("rt::sat64_128({expr})"),
                    Operand::W { expr, .. } => format!("rt::sat64(&{expr})"),
                };
                let m = mem.index();
                let mdef = &self.graph.mems()[m];
                let depth = mdef.depth;
                let stride = gsim_value::words_for(mdef.width).max(1);
                let _ = writeln!(out, "{ind}let a: u64 = {addr};");
                if let Some(repr) = self.repr[id.index()] {
                    let read = match repr {
                        Repr::Small(b) => format!(
                            "if a < {depth} {{ self.m{m}[a as usize] as u{b} }} else {{ 0 }}"
                        ),
                        Repr::U128 => format!(
                            "if a < {depth} {{ let b = a as usize * 2; (self.m{m}[b] as u128) | ((self.m{m}[b + 1] as u128) << 64) }} else {{ 0 }}"
                        ),
                        Repr::Wide(k) => format!(
                            "if a < {depth} {{ let b = a as usize * {stride}; let mut z = [0u64; {k}]; z.copy_from_slice(&self.m{m}[b..b + {stride}]); z }} else {{ [0u64; {k}] }}"
                        ),
                    };
                    let _ = writeln!(out, "{ind}let v: {} = {read};", repr.ty());
                    self.emit_comb_store(id, out);
                }
            }
            NodeKind::Comb | NodeKind::Output => {
                let e = node.expr.as_ref().expect("driver");
                let op = self.gen_expr(e, out, ind);
                if let Some(repr) = self.repr[id.index()] {
                    let v = self.store_value(&op, repr, out, ind);
                    let _ = writeln!(out, "{ind}let v = {v};");
                    self.emit_comb_store(id, out);
                }
            }
        }
    }

    /// Change-detected store with successor activation for a
    /// combinational value already bound to `v`.
    fn emit_comb_store(&mut self, id: NodeId, out: &mut String) {
        let ind = "        ";
        let f = field(id);
        let _ = writeln!(out, "{ind}if {f} != v {{");
        let _ = writeln!(out, "{ind}    {f} = v;");
        let _ = writeln!(out, "{ind}    self.value_changes += 1;");
        let masks = self.succ_masks[id.index()].clone();
        self.act_lines(&masks, out, &format!("{ind}    "));
        let _ = writeln!(out, "{ind}}}");
    }

    fn emit(&mut self) -> String {
        let mut body = String::with_capacity(1 << 20);
        let g = self.graph;
        let num_sn = self.partition.len();
        let act_words = num_sn.div_ceil(64).max(1);

        // ---- supernode functions ----
        let mut sn_fns = String::new();
        let supernodes = self.partition.supernodes.clone();
        for (sn, members) in supernodes.iter().enumerate() {
            let evald = members
                .iter()
                .filter(|&&id| {
                    !matches!(g.node(id).kind, NodeKind::Input | NodeKind::MemWrite { .. })
                })
                .count();
            let _ = writeln!(sn_fns, "    fn sn{sn}(&mut self) {{");
            let _ = writeln!(sn_fns, "        self.supernode_evals += 1;");
            if evald > 0 {
                let _ = writeln!(sn_fns, "        self.node_evals += {evald};");
            }
            for &id in members {
                self.gen_member(id, &mut sn_fns);
            }
            let _ = writeln!(sn_fns, "    }}");
            let _ = writeln!(sn_fns);
        }

        // ---- commit ----
        let mut commit = String::new();
        let _ = writeln!(commit, "    fn commit(&mut self) {{");
        // Commit begins by latching every distinct reset signal: a
        // reset signal may itself be a register (the reset-synchronizer
        // pattern), and the registers below commit one by one in node
        // order, so reading a signal live mid-commit could observe its
        // *post-edge* value and apply reset one cycle early. RefInterp
        // computes everything from pre-edge values before committing
        // anything; these locals pin the same semantics.
        let regs: Vec<NodeId> = g
            .iter()
            .filter(|(_, n)| n.kind.is_reg())
            .map(|(id, _)| id)
            .collect();
        let mut reset_sigs: Vec<NodeId> = Vec::new();
        for &id in &regs {
            if self.repr[id.index()].is_none() {
                continue;
            }
            if let NodeKind::Reg { reset: Some(r) } = &g.node(id).kind {
                if !reset_sigs.contains(&r.signal) {
                    reset_sigs.push(r.signal);
                }
            }
        }
        for &sig in &reset_sigs {
            let op = self.node_operand(sig);
            let nz = match &op {
                Operand::N { expr, .. } => format!("{expr} != 0"),
                Operand::W { expr, .. } => format!("words::orr(&{expr})"),
            };
            let _ = writeln!(commit, "        let rst_n{}: bool = {nz};", sig.index());
        }
        // Memory write ports, in node order (last write wins), using
        // pre-edge values — then register commit.
        let mems_with_writes: Vec<usize> = (0..g.mems().len())
            .filter(|&m| {
                g.iter()
                    .any(|(_, n)| matches!(n.kind, NodeKind::MemWrite { mem } if mem.index() == m))
            })
            .collect();
        for &m in &mems_with_writes {
            let _ = writeln!(commit, "        let mut dirty_m{m} = false;");
        }
        let write_nodes: Vec<NodeId> = g
            .iter()
            .filter(|(_, n)| matches!(n.kind, NodeKind::MemWrite { .. }))
            .map(|(id, _)| id)
            .collect();
        for id in write_nodes {
            let node = g.node(id).clone();
            let NodeKind::MemWrite { mem } = node.kind else {
                unreachable!()
            };
            let wops = node.mem_write_operands().expect("write operands").clone();
            let m = mem.index();
            let mdef = &g.mems()[m];
            let (depth, width) = (mdef.depth, mdef.width);
            let stride = gsim_value::words_for(width).max(1);
            let ind = "        ";
            let _ = writeln!(commit, "{ind}// write port on {}", mdef.name);
            let _ = writeln!(commit, "{ind}{{");
            let ind2 = "            ";
            let en = self.gen_expr(&wops.en, &mut commit, ind2);
            let en_test = match &en {
                Operand::N { expr, .. } => format!("{expr} != 0"),
                Operand::W { expr, .. } => format!("words::orr(&{expr})"),
            };
            let _ = writeln!(commit, "{ind2}if {en_test} {{");
            let ind3 = "                ";
            let addr = self.gen_expr(&wops.addr, &mut commit, ind3);
            let addr_s = match &addr {
                Operand::N { expr, .. } => format!("rt::sat64_128({expr})"),
                Operand::W { expr, .. } => format!("rt::sat64(&{expr})"),
            };
            let _ = writeln!(commit, "{ind3}let a: u64 = {addr_s};");
            let _ = writeln!(commit, "{ind3}if a < {depth} {{");
            let ind4 = "                    ";
            let data = self.gen_expr(&wops.data, &mut commit, ind4);
            let data_s = self.as_slice(&data, &mut commit, ind4);
            let _ = writeln!(
                commit,
                "{ind4}rt::store_entry(&mut self.m{m}, a as usize * {stride}, {stride}, &{data_s}, {width});"
            );
            let _ = writeln!(commit, "{ind4}dirty_m{m} = true;");
            let _ = writeln!(commit, "{ind3}}}");
            let _ = writeln!(commit, "{ind2}}}");
            let _ = writeln!(commit, "{ind}}}");
        }
        for &m in &mems_with_writes {
            let masks = self.mem_reader_masks[m].clone();
            if masks.is_empty() {
                let _ = writeln!(commit, "        let _ = dirty_m{m};");
                continue;
            }
            let _ = writeln!(commit, "        if dirty_m{m} {{");
            self.act_lines(&masks, &mut commit, "            ");
            let _ = writeln!(commit, "        }}");
        }
        // Registers, in node order, muxing on the pre-edge reset
        // snapshots taken above.
        for id in regs {
            let node = g.node(id).clone();
            let Some(repr) = self.repr[id.index()] else {
                continue;
            };
            let NodeKind::Reg { reset } = &node.kind else {
                unreachable!()
            };
            let ind = "        ";
            let cur = field(id);
            let shadow = format!("self.n{}_next", id.index());
            let next = match reset {
                Some(r) => format!(
                    "if rst_n{} {{ {} }} else {{ {shadow} }}",
                    r.signal.index(),
                    self.value_literal(&r.init, repr)
                ),
                None => shadow.clone(),
            };
            let _ = writeln!(commit, "{ind}// register {}", g.display_name(id));
            let _ = writeln!(commit, "{ind}{{");
            let _ = writeln!(commit, "{ind}    let v: {} = {next};", repr.ty());
            let _ = writeln!(commit, "{ind}    if {cur} != v {{");
            let _ = writeln!(commit, "{ind}        {cur} = v;");
            let _ = writeln!(commit, "{ind}        self.value_changes += 1;");
            let masks = self.succ_masks_self[id.index()].clone();
            self.act_lines(&masks, &mut commit, &format!("{ind}        "));
            let _ = writeln!(commit, "{ind}    }}");
            let _ = writeln!(commit, "{ind}}}");
        }
        let _ = writeln!(commit, "    }}");

        // ---- struct fields ----
        let mut fields = String::new();
        for e in &self.layout.entries.clone() {
            let repr = Repr::for_width(e.width);
            let name = g.display_name(e.node);
            let _ = writeln!(
                fields,
                "    n{}: {}, // {} ({} bits)",
                e.node.index(),
                repr.ty(),
                name,
                e.width
            );
            if e.is_reg {
                let _ = writeln!(
                    fields,
                    "    n{}_next: {}, // {} (shadow)",
                    e.node.index(),
                    repr.ty(),
                    name
                );
            }
        }
        for (m, mem) in g.mems().iter().enumerate() {
            let stride = gsim_value::words_for(mem.width).max(1);
            let _ = writeln!(
                fields,
                "    m{m}: Vec<u64>, // memory {} ({} x {} bits, {} words/entry)",
                mem.name, mem.depth, mem.width, stride
            );
        }

        // ---- constructor ----
        let mut ctor = String::new();
        let _ = writeln!(ctor, "    fn new() -> Sim {{");
        let _ = writeln!(ctor, "        Sim {{");
        for e in &self.layout.entries {
            let repr = Repr::for_width(e.width);
            let zero = match repr {
                Repr::Small(b) => format!("0u{b}"),
                Repr::U128 => "0u128".into(),
                Repr::Wide(k) => format!("[0u64; {k}]"),
            };
            let _ = writeln!(ctor, "            n{}: {zero},", e.node.index());
            if e.is_reg {
                let _ = writeln!(ctor, "            n{}_next: {zero},", e.node.index());
            }
        }
        for (m, mem) in g.mems().iter().enumerate() {
            let stride = gsim_value::words_for(mem.width).max(1);
            let _ = writeln!(
                ctor,
                "            m{m}: vec![0u64; {}],",
                mem.depth as usize * stride
            );
        }
        // Everything starts active: the first cycle evaluates the
        // whole design (same convention as the interpreter engines).
        let mut init_words = Vec::with_capacity(act_words);
        for i in 0..act_words {
            let base = i * 64;
            let valid = num_sn.saturating_sub(base).min(64);
            init_words.push(if valid == 64 {
                u64::MAX
            } else if valid == 0 {
                0
            } else {
                (1u64 << valid) - 1
            });
        }
        let init_list: Vec<String> = init_words.iter().map(|w| format!("0x{w:x}")).collect();
        let _ = writeln!(ctor, "            act: vec![{}],", init_list.join(", "));
        let _ = writeln!(ctor, "            cycles: 0,");
        let _ = writeln!(ctor, "            supernode_evals: 0,");
        let _ = writeln!(ctor, "            node_evals: 0,");
        let _ = writeln!(ctor, "            value_changes: 0,");
        let _ = writeln!(ctor, "        }}");
        let _ = writeln!(ctor, "    }}");

        // ---- dispatch ----
        let mut dispatch = String::new();
        let _ = writeln!(dispatch, "    fn dispatch(&mut self, sn: usize) {{");
        let _ = writeln!(dispatch, "        match sn {{");
        for sn in 0..num_sn {
            let _ = writeln!(dispatch, "            {sn} => self.sn{sn}(),");
        }
        let _ = writeln!(dispatch, "            _ => {{}}");
        let _ = writeln!(dispatch, "        }}");
        let _ = writeln!(dispatch, "    }}");

        // ---- poke ----
        let mut poke = String::new();
        let _ = writeln!(
            poke,
            "    fn poke(&mut self, name: &str, val: &[u64]) -> bool {{"
        );
        let _ = writeln!(poke, "        match name {{");
        for &id in g.inputs() {
            let node = g.node(id);
            if node.name.is_empty() {
                continue;
            }
            let Some(repr) = self.repr[id.index()] else {
                // Zero-width input: accept and ignore.
                let _ = writeln!(poke, "            {:?} => true,", node.name);
                continue;
            };
            let w = node.width;
            let conv = match repr {
                Repr::Small(b) => {
                    let m = if w >= 64 {
                        "u64::MAX".into()
                    } else {
                        format!("0x{:x}u64", (1u64 << w) - 1)
                    };
                    format!("(val.first().copied().unwrap_or(0) & {m}) as u{b}")
                }
                Repr::U128 => format!("rt::mask128(rt::to_u128(val), {w})"),
                Repr::Wide(k) => format!(
                    "{{ let mut z = [0u64; {k}]; words::copy(&mut z, val); words::mask_in_place(&mut z, {w}); z }}"
                ),
            };
            let _ = writeln!(poke, "            {:?} => {{", node.name);
            let _ = writeln!(poke, "                let v: {} = {conv};", repr.ty());
            let f = field(id);
            let _ = writeln!(poke, "                if {f} != v {{");
            let _ = writeln!(poke, "                    {f} = v;");
            let masks = self.succ_masks_self[id.index()].clone();
            self.act_lines(&masks, &mut poke, "                    ");
            let _ = writeln!(poke, "                }}");
            let _ = writeln!(poke, "                true");
            let _ = writeln!(poke, "            }}");
        }
        let _ = writeln!(poke, "            _ => false,");
        let _ = writeln!(poke, "        }}");
        let _ = writeln!(poke, "    }}");

        // ---- load_mem ----
        let mut load = String::new();
        let _ = writeln!(
            load,
            "    fn load_mem(&mut self, name: &str, image: &[u64]) -> bool {{"
        );
        let _ = writeln!(load, "        match name {{");
        for (m, mem) in g.mems().iter().enumerate() {
            let stride = gsim_value::words_for(mem.width).max(1);
            let _ = writeln!(load, "            {:?} => {{", mem.name);
            let _ = writeln!(
                load,
                "                if image.len() > {} {{ return false; }}",
                mem.depth
            );
            let _ = writeln!(
                load,
                "                for (i, &x) in image.iter().enumerate() {{"
            );
            let _ = writeln!(
                load,
                "                    rt::store_entry(&mut self.m{m}, i * {stride}, {stride}, &[x], {});",
                mem.width
            );
            let _ = writeln!(load, "                }}");
            let _ = writeln!(load, "                true");
            let _ = writeln!(load, "            }}");
        }
        let _ = writeln!(load, "            _ => false,");
        let _ = writeln!(load, "        }}");
        let _ = writeln!(load, "    }}");

        // ---- state externalization (crash recovery) ----
        // `save_state` serializes every state element — signal values
        // and register shadows in layout order, then memories, the
        // activation words, and the counters — as one `.`-separated
        // hex token. `load_state` is its strict inverse; feeding a
        // blob to a *fresh* process of the same artifact reproduces
        // the source simulation bit for bit (the supervisor's
        // checkpoint/restore primitive, wire commands `state` /
        // `loadstate`).
        let mut state_fns = String::new();
        let _ = writeln!(state_fns, "    fn save_state(&self) -> String {{");
        let _ = writeln!(
            state_fns,
            "        let mut s = String::with_capacity({});",
            (self.layout.data_bytes * 2 + 64).next_power_of_two()
        );
        for e in &self.layout.entries {
            let repr = Repr::for_width(e.width);
            let mut emit_field = |name: String| {
                let _ = match repr {
                    Repr::Small(_) => {
                        writeln!(state_fns, "        rt::push_hex(&mut s, {name} as u128);")
                    }
                    Repr::U128 => writeln!(state_fns, "        rt::push_hex(&mut s, {name});"),
                    Repr::Wide(_) => {
                        writeln!(state_fns, "        rt::push_hex_words(&mut s, &{name});")
                    }
                };
            };
            emit_field(format!("self.n{}", e.node.index()));
            if e.is_reg {
                emit_field(format!("self.n{}_next", e.node.index()));
            }
        }
        for m in 0..g.mems().len() {
            let _ = writeln!(state_fns, "        rt::push_hex_words(&mut s, &self.m{m});");
        }
        let _ = writeln!(state_fns, "        rt::push_hex_words(&mut s, &self.act);");
        for c in ["cycles", "supernode_evals", "node_evals", "value_changes"] {
            let _ = writeln!(state_fns, "        rt::push_hex(&mut s, self.{c} as u128);");
        }
        let _ = writeln!(state_fns, "        s");
        let _ = writeln!(state_fns, "    }}");
        let _ = writeln!(state_fns);
        let _ = writeln!(
            state_fns,
            "    fn load_state(&mut self, blob: &str) -> bool {{"
        );
        let _ = writeln!(state_fns, "        let mut it = rt::HexStream::new(blob);");
        for e in &self.layout.entries {
            let repr = Repr::for_width(e.width);
            let mut emit_field = |name: String| {
                let _ = match repr {
                    Repr::Small(b) => writeln!(
                        state_fns,
                        "        self.{name} = match it.next_u64().and_then(|v| u{b}::try_from(v).ok()) {{ Some(v) => v, None => return false }};"
                    ),
                    Repr::U128 => writeln!(
                        state_fns,
                        "        self.{name} = match it.next_u128() {{ Some(v) => v, None => return false }};"
                    ),
                    Repr::Wide(_) => writeln!(
                        state_fns,
                        "        if !it.fill_words(&mut self.{name}) {{ return false; }}"
                    ),
                };
            };
            emit_field(format!("n{}", e.node.index()));
            if e.is_reg {
                emit_field(format!("n{}_next", e.node.index()));
            }
        }
        for m in 0..g.mems().len() {
            let _ = writeln!(
                state_fns,
                "        if !it.fill_words(&mut self.m{m}) {{ return false; }}"
            );
        }
        let _ = writeln!(
            state_fns,
            "        if !it.fill_words(&mut self.act) {{ return false; }}"
        );
        for c in ["cycles", "supernode_evals", "node_evals", "value_changes"] {
            let _ = writeln!(
                state_fns,
                "        self.{c} = match it.next_u64() {{ Some(v) => v, None => return false }};"
            );
        }
        let _ = writeln!(state_fns, "        it.at_end()");
        let _ = writeln!(state_fns, "    }}");

        // ---- outputs + by-name signal lookup ----
        let hex_of = |repr: Option<Repr>, id: NodeId| -> String {
            match repr {
                None => "String::from(\"0\")".into(),
                Some(Repr::Small(_)) | Some(Repr::U128) => {
                    format!("format!(\"{{:x}}\", {})", field(id))
                }
                Some(Repr::Wide(_)) => format!("rt::to_hex(&{})", field(id)),
            }
        };
        let mut outputs = String::new();
        let _ = writeln!(
            outputs,
            "    fn outputs(&self) -> Vec<(&'static str, u32, String)> {{"
        );
        let _ = writeln!(outputs, "        vec![");
        for &id in g.outputs() {
            let node = g.node(id);
            if node.name.is_empty() {
                continue;
            }
            let hex = hex_of(self.repr[id.index()], id);
            let _ = writeln!(
                outputs,
                "            ({:?}, {}, {hex}),",
                node.name, node.width
            );
        }
        let _ = writeln!(outputs, "        ]");
        let _ = writeln!(outputs, "    }}");
        let _ = writeln!(outputs);
        // `signal` resolves the `peek <name>` protocol command: named
        // outputs and inputs, as `(width, canonical hex)`.
        let _ = writeln!(
            outputs,
            "    fn signal(&self, name: &str) -> Option<(u32, String)> {{"
        );
        let _ = writeln!(outputs, "        match name {{");
        let mut seen: Vec<&str> = Vec::new();
        for &id in g.outputs().iter().chain(g.inputs()) {
            let node = g.node(id);
            if node.name.is_empty() || seen.contains(&node.name.as_str()) {
                continue;
            }
            seen.push(node.name.as_str());
            let hex = hex_of(self.repr[id.index()], id);
            let _ = writeln!(
                outputs,
                "            {:?} => Some(({}, {hex})),",
                node.name, node.width
            );
        }
        let _ = writeln!(outputs, "            _ => None,");
        let _ = writeln!(outputs, "        }}");
        let _ = writeln!(outputs, "    }}");
        let _ = writeln!(outputs);
        let _ = writeln!(outputs, "    fn hex_of(&self, name: &str) -> String {{");
        let _ = writeln!(
            outputs,
            "        self.signal(name).map_or_else(|| String::from(\"0\"), |(_, h)| h)"
        );
        let _ = writeln!(outputs, "    }}");

        // ---- assemble the program ----
        let _ = writeln!(
            body,
            "// Generated by gsim-codegen's AoT backend for design {:?}.",
            g.name()
        );
        let _ = writeln!(
            body,
            "// {} nodes, {} supernodes, {} bytes of state. Do not edit.",
            g.num_nodes(),
            num_sn,
            self.layout.data_bytes
        );
        let _ = writeln!(
            body,
            "#![allow(unused_parens, unused_variables, unused_mut, dead_code)]"
        );
        let _ = writeln!(body);
        embed(&mut body, "words", include_str!("../../value/src/words.rs"));
        embed(&mut body, "wire", include_str!("../../sim/src/wire.rs"));
        embed(
            &mut body,
            "scenario_text",
            include_str!("../../sim/src/scenario_text.rs"),
        );
        embed(
            &mut body,
            "vcd_writer",
            include_str!("../../wave/src/vcd_writer.rs"),
        );
        embed(&mut body, "rt", include_str!("rt.rs"));
        let _ = writeln!(body);
        for (i, c) in self.wide_consts.iter().enumerate() {
            let words: Vec<String> = c.iter().map(|w| format!("0x{w:x}")).collect();
            let _ = writeln!(
                body,
                "const C{i}: [u64; {}] = [{}];",
                c.len(),
                words.join(", ")
            );
        }
        // The design's memories (name, depth, width), so the server
        // mode can tell an unknown memory from an oversized image,
        // report the real bounds on the wire, and answer `list`.
        let mem_names: Vec<String> = g
            .mems()
            .iter()
            .map(|m| format!("({:?}, {}, {})", m.name, m.depth, m.width))
            .collect();
        let _ = writeln!(
            body,
            "const KNOWN_MEMS: &[(&str, u64, u32)] = &[{}];",
            mem_names.join(", ")
        );
        // Introspection tables backing the `list` protocol command:
        // inputs in declaration order; the peekable signal surface as
        // outputs-then-inputs, deduplicated — the same order the
        // interpreter backend reports, so `list` responses are
        // backend-identical.
        let input_meta: Vec<String> = g
            .inputs()
            .iter()
            .map(|&id| g.node(id))
            .filter(|n| !n.name.is_empty())
            .map(|n| format!("({:?}, {})", n.name, n.width))
            .collect();
        let _ = writeln!(
            body,
            "const INPUTS_META: &[(&str, u32)] = &[{}];",
            input_meta.join(", ")
        );
        let mut sig_seen: Vec<&str> = Vec::new();
        let mut sig_meta: Vec<String> = Vec::new();
        for &id in g.outputs().iter().chain(g.inputs()) {
            let node = g.node(id);
            if node.name.is_empty() || sig_seen.contains(&node.name.as_str()) {
                continue;
            }
            sig_seen.push(node.name.as_str());
            sig_meta.push(format!("({:?}, {})", node.name, node.width));
        }
        let _ = writeln!(
            body,
            "const SIGNALS_META: &[(&str, u32)] = &[{}];",
            sig_meta.join(", ")
        );
        let _ = writeln!(body);
        // Clone backs the server mode's snapshot/restore commands.
        let _ = writeln!(body, "#[derive(Clone)]");
        let _ = writeln!(body, "struct Sim {{");
        body.push_str(&fields);
        let _ = writeln!(body, "    act: Vec<u64>,");
        let _ = writeln!(body, "    cycles: u64,");
        let _ = writeln!(body, "    supernode_evals: u64,");
        let _ = writeln!(body, "    node_evals: u64,");
        let _ = writeln!(body, "    value_changes: u64,");
        let _ = writeln!(body, "}}");
        let _ = writeln!(body);
        let _ = writeln!(body, "impl Sim {{");
        body.push_str(&ctor);
        let _ = writeln!(body);
        body.push_str(&sn_fns);
        body.push_str(&dispatch);
        let _ = writeln!(body);
        body.push_str(&commit);
        let _ = writeln!(body);
        // The cycle loop mirrors the interpreter's word-skip sweep
        // (Listing 4): always take the lowest *fresh* set bit so
        // evaluation stays in strict supernode-topo order even when a
        // supernode activates another one in the same word.
        let _ = writeln!(body, "    fn cycle(&mut self) {{");
        let _ = writeln!(body, "        for w in 0..{act_words} {{");
        let _ = writeln!(body, "            loop {{");
        let _ = writeln!(body, "                let bits = self.act[w];");
        let _ = writeln!(body, "                if bits == 0 {{ break; }}");
        let _ = writeln!(body, "                let t = bits.trailing_zeros();");
        let _ = writeln!(body, "                self.act[w] &= !(1u64 << t);");
        let _ = writeln!(body, "                self.dispatch(w * 64 + t as usize);");
        let _ = writeln!(body, "            }}");
        let _ = writeln!(body, "        }}");
        let _ = writeln!(body, "        self.commit();");
        let _ = writeln!(body, "        self.cycles += 1;");
        let _ = writeln!(body, "    }}");
        let _ = writeln!(body);
        body.push_str(&poke);
        let _ = writeln!(body);
        body.push_str(&load);
        let _ = writeln!(body);
        body.push_str(&state_fns);
        let _ = writeln!(body);
        body.push_str(&outputs);
        let _ = writeln!(body, "}}");
        let _ = writeln!(body);
        body.push_str(&main_template(g.name()));
        body
    }

    fn value_literal(&mut self, v: &Value, repr: Repr) -> String {
        match repr {
            Repr::Small(b) => format!("0x{:x}u{b}", v.to_u64().unwrap_or(0)),
            Repr::U128 => format!("0x{:x}u128", v.to_u128().unwrap_or(0)),
            Repr::Wide(_) => self.wide_const(v.words()),
        }
    }
}

/// Embeds a workspace source file as module `name` of the emitted
/// program: its code, token for token, up to the first line that says
/// the rest is not for emitted programs — the `#[cfg(test)]` that pulls
/// in its sibling test file, or `wire.rs`'s "client half" marker.
/// Comment lines, blank lines and indentation are dropped too: the
/// workspace file is the readable copy, and what the emitted program
/// carries is paid for in `rustc` time per design and reported as
/// Table IV "code size". Embedded files therefore hold no multi-line
/// string literals.
fn embed(body: &mut String, name: &str, src: &str) {
    let _ = writeln!(body, "mod {name} {{");
    let embedded = |l: &&str| *l != "#[cfg(test)]" && !l.starts_with("// ---- client half");
    for line in src.lines().take_while(embedded) {
        let code = line.trim_start();
        if !code.is_empty() && !code.starts_with("//") {
            body.push_str(code);
            body.push('\n');
        }
    }
    let _ = writeln!(body, "}}");
}

fn kind_tag(node: &gsim_graph::Node) -> &'static str {
    match node.kind {
        NodeKind::Input => "input",
        NodeKind::Output => "output",
        NodeKind::Comb => "comb",
        NodeKind::Reg { .. } => "reg",
        NodeKind::MemRead { .. } => "memread",
        NodeKind::MemWrite { .. } => "memwrite",
    }
}

fn main_template(design: &str) -> String {
    // Kept as a literal (with a token replace for the design name) so
    // the emitted Rust below is exactly what you read here — no
    // format-escape indirection.
    const T: &str = r#"fn main() {
    let mut cycles: u64 = 0;
    let mut trace = false;
    let mut serve_mode = false;
    let mut stim_path: Option<String> = None;
    let mut vcd_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cycles" => {
                cycles = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--cycles needs a number"));
            }
            "--trace" => trace = true,
            "--serve" => serve_mode = true,
            "--stimulus" => stim_path = it.next().cloned(),
            "--vcd" => vcd_path = it.next().cloned(),
            "--help" | "-h" => {
                println!(
                    "usage: sim [--cycles N] [--trace] [--serve] [--stimulus FILE|-] [--vcd FILE]"
                );
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    let stim = match stim_path.as_deref() {
        None => scenario_text::Scenario::default(),
        Some(p) => {
            let text = if p == "-" {
                use std::io::Read as _;
                let mut s = String::new();
                std::io::stdin()
                    .read_to_string(&mut s)
                    .unwrap_or_else(|e| die(&format!("cannot read stdin: {e}")));
                s
            } else {
                std::fs::read_to_string(p)
                    .unwrap_or_else(|e| die(&format!("cannot read {p}: {e}")))
            };
            scenario_text::Scenario::parse_text(&text).unwrap_or_else(|e| die(&e))
        }
    };
    let mut sim = Sim::new();
    for (mem, image) in &stim.loads {
        if !sim.load_mem(mem, image) {
            die(&format!("cannot load memory {mem:?}"));
        }
    }
    if serve_mode {
        serve(sim);
        return;
    }
    use std::io::Write as _;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    // Change-driven VCD capture over the full portable signal surface:
    // baseline at time 0, then one record per post-cycle value change,
    // detected against a hex shadow (the same canonical rendering the
    // wire protocol and `peek` use, so every backend's VCD
    // canonicalizes identically under `gsim wavediff`).
    let vcd_die = |e: std::io::Error| -> ! { die(&format!("vcd write failed: {e}")) };
    let mut vcd = vcd_path.as_deref().map(|p| {
        let f = std::fs::File::create(p)
            .unwrap_or_else(|e| die(&format!("cannot create {p}: {e}")));
        let (mut sigs, mut shadow, mut values) = (Vec::new(), Vec::new(), Vec::new());
        for &(n, w) in SIGNALS_META {
            if w > 0 {
                let h = sim.hex_of(n);
                sigs.push((n, w));
                values.push(hex_words(&h));
                shadow.push(h);
            }
        }
        let mut w = vcd_writer::VcdWriter::new(std::io::BufWriter::new(f));
        w.header("top", &sigs)
            .and_then(|()| w.dumpvars(sim.cycles, &values))
            .unwrap_or_else(|e| vcd_die(e));
        (w, sigs, shadow)
    });
    let t0 = std::time::Instant::now();
    for c in 0..cycles {
        if let Some(frame) = stim.frames.get(c as usize) {
            for (name, val) in frame {
                if !sim.poke(name, &[*val]) {
                    die(&format!("unknown input {name:?}"));
                }
            }
        }
        sim.cycle();
        if let Some((w, sigs, shadow)) = vcd.as_mut() {
            for (i, &(n, _)) in sigs.iter().enumerate() {
                let h = sim.hex_of(n);
                if h != shadow[i] {
                    w.change(sim.cycles, i, &hex_words(&h))
                        .unwrap_or_else(|e| vcd_die(e));
                    shadow[i] = h;
                }
            }
        }
        if trace {
            let _ = write!(out, "trace {c}");
            for (n, _w, v) in sim.outputs() {
                let _ = write!(out, " {n}={v}");
            }
            let _ = writeln!(out);
        }
    }
    if let Some((mut w, _, _)) = vcd.take() {
        w.finish().unwrap_or_else(|e| vcd_die(e));
    }
    let secs = t0.elapsed().as_secs_f64();
    for (n, w, v) in sim.outputs() {
        let _ = writeln!(out, "peek {n} {w} {v}");
    }
    let _ = writeln!(out, "counter cycles {}", sim.cycles);
    let _ = writeln!(out, "counter supernode_evals {}", sim.supernode_evals);
    let _ = writeln!(out, "counter node_evals {}", sim.node_evals);
    let _ = writeln!(out, "counter value_changes {}", sim.value_changes);
    let _ = writeln!(out, "timing run_seconds {secs:.9}");
    let peeks: Vec<String> = sim
        .outputs()
        .iter()
        .map(|(n, _w, v)| format!("\"{n}\":\"{v}\""))
        .collect();
    let _ = writeln!(
        out,
        "json {{\"design\":\"__DESIGN__\",\"cycles\":{},\"outputs\":{{{}}},\"counters\":{{\"cycles\":{},\"supernode_evals\":{},\"node_evals\":{},\"value_changes\":{}}},\"run_seconds\":{secs:.9}}}",
        sim.cycles,
        peeks.join(","),
        sim.cycles,
        sim.supernode_evals,
        sim.node_evals,
        sim.value_changes
    );
}

/// The persistent server mode: the command loop of the session wire
/// protocol over stdin/stdout, so one compiled process serves a whole
/// interactive session. The grammar — and the protocol's
/// documentation — is `mod wire` (the workspace's
/// `crates/sim/src/wire.rs`, embedded above); this loop only
/// dispatches on its `Command`. Mutating commands are silent on
/// success so drivers can pipeline them; their `err <class> ...` lines
/// are queued in command order for the next `sync`. Queries answer
/// their single response line immediately.
fn serve(mut sim: Sim) {
    use std::io::Write as _;
    use wire::{Command, LineRead, Reply};
    // Deterministic fault injection for the chaos suite: the spawner
    // plants GSIM_CHILD_FAULT (`exit_at_cycle=N` / `stall_at_cycle=N`)
    // and this process misbehaves at exactly that cycle — an abort
    // with no goodbye (crash / OOM-kill stand-in) or an alive-but-
    // silent stall (deadline-path stand-in).
    let mut exit_at_cycle: Option<u64> = None;
    let mut stall_at_cycle: Option<u64> = None;
    if let Ok(spec) = std::env::var("GSIM_CHILD_FAULT") {
        for part in spec.split(',') {
            if let Some(v) = part.trim().strip_prefix("exit_at_cycle=") {
                exit_at_cycle = v.parse().ok();
            } else if let Some(v) = part.trim().strip_prefix("stall_at_cycle=") {
                stall_at_cycle = v.parse().ok();
            }
        }
    }
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut snaps: Vec<Sim> = Vec::new();
    let mut queued: Vec<String> = Vec::new();
    // Active trace subscription: indices into SIGNALS_META plus the
    // hex shadow change detection compares against. Empty when off —
    // the per-cycle cost is then one `is_empty` test.
    let mut traced: Vec<usize> = Vec::new();
    let mut trace_shadow: Vec<String> = Vec::new();
    // A subscription of only zero-width signals is active yet traces
    // nothing, so activity is its own flag.
    let mut tracing = false;
    let mut buf = Vec::new();
    loop {
        match wire::read_line(&mut input, &mut buf) {
            Ok(LineRead::Line) => {}
            Ok(LineRead::TooLong) => {
                let _ = writeln!(out, "{}", wire::WireError::line_too_long().reply());
                continue;
            }
            Ok(LineRead::Eof) | Err(_) => break,
        }
        let line = String::from_utf8_lossy(&buf);
        if line.is_empty() {
            continue;
        }
        let cmd = match Command::parse(&line) {
            Ok(cmd) => cmd,
            Err(e) if e.query => {
                let _ = writeln!(out, "{}", e.reply());
                continue;
            }
            Err(e) => {
                queued.push(e.reply());
                continue;
            }
        };
        match cmd {
            Command::Poke { name, hex } => {
                if !sim.poke(name, &hex_words(hex)) {
                    // Same classes as the in-process session: a known
                    // signal that is not an input, or no such signal.
                    let class = if SIGNALS_META.iter().any(|&(s, _)| s == name) {
                        "unknown-input"
                    } else {
                        "unknown-signal"
                    };
                    queued.push(format!("err {class} {name}"));
                }
            }
            Command::Step(n) => {
                for _ in 0..n {
                    sim.cycle();
                    if exit_at_cycle == Some(sim.cycles) {
                        std::process::abort();
                    }
                    if stall_at_cycle == Some(sim.cycles) {
                        loop {
                            std::thread::sleep(std::time::Duration::from_secs(3600));
                        }
                    }
                    if !traced.is_empty() {
                        stream_changes(&sim, &mut out, &traced, &mut trace_shadow);
                    }
                }
            }
            Command::Load { mem, image } => {
                if !sim.load_mem(mem, &image) {
                    // The emitted load_mem also fails on oversized
                    // images; the memory table is known statically.
                    queued.push(match KNOWN_MEMS.iter().find(|(n, _, _)| *n == mem) {
                        Some((_, depth, _)) => {
                            format!("err mem-too-large {mem} {depth} {}", image.len())
                        }
                        None => format!("err unknown-memory {mem}"),
                    });
                }
            }
            Command::Peek(name) => {
                let _ = match sim.signal(name) {
                    Some((width, hex)) => writeln!(out, "{}", Reply::Val { width, hex: &hex }),
                    None => writeln!(out, "err unknown-signal {name}"),
                };
            }
            Command::Counters => {
                let c = [sim.cycles, sim.supernode_evals, sim.node_evals, sim.value_changes];
                let _ = writeln!(out, "{}", Reply::Counters(c));
            }
            Command::List => {
                let _ = writeln!(out, "{}", Reply::Inputs(INPUTS_META.to_vec()));
                let _ = writeln!(out, "{}", Reply::Signals(SIGNALS_META.to_vec()));
                let _ = writeln!(out, "{}", Reply::Mems(KNOWN_MEMS.to_vec()));
            }
            Command::Snapshot => {
                snaps.push(sim.clone());
                let _ = writeln!(out, "{}", Reply::Snap(snaps.len() as u64 - 1));
            }
            Command::Restore(id) => match usize::try_from(id).ok().and_then(|i| snaps.get(i)) {
                Some(snap) => {
                    sim = snap.clone();
                    // The state jumped: stream whatever moved so the
                    // subscriber's view stays change-complete.
                    if !traced.is_empty() {
                        stream_changes(&sim, &mut out, &traced, &mut trace_shadow);
                    }
                }
                None => queued.push(format!("err unknown-snapshot {id}")),
            },
            Command::State => {
                let blob = sim.save_state();
                let _ = writeln!(out, "{}", Reply::State { cycle: sim.cycles, blob: &blob });
            }
            Command::LoadState(blob) => {
                // Parse into a scratch copy so a bad blob cannot
                // leave the live simulation half-overwritten.
                let mut fresh = sim.clone();
                if fresh.load_state(blob) {
                    sim = fresh;
                    if !traced.is_empty() {
                        stream_changes(&sim, &mut out, &traced, &mut trace_shadow);
                    }
                } else {
                    queued.push("err protocol state blob does not match this design".into());
                }
            }
            Command::TraceOn(names) => {
                if tracing {
                    queued.push("err config a trace is already active on this session".into());
                    continue;
                }
                let mut sel: Vec<usize> = Vec::new();
                let mut unknown = None;
                if names.is_empty() {
                    sel.extend(0..SIGNALS_META.len());
                }
                for n in names {
                    match SIGNALS_META.iter().position(|&(s, _)| s == n) {
                        Some(i) => sel.push(i),
                        None => unknown = unknown.or(Some(n)),
                    }
                }
                if let Some(n) = unknown {
                    queued.push(format!("err unknown-signal {n}"));
                    continue;
                }
                tracing = true;
                for i in sel {
                    // Zero-width signals carry no values; they are
                    // silently excluded, exactly as the in-process
                    // tracer does.
                    let (name, width) = SIGNALS_META[i];
                    if width > 0 {
                        // Baseline burst: one record per traced
                        // signal at the current cycle, so the
                        // subscriber can reconstruct absolute values.
                        let hex = sim.hex_of(name);
                        let _ = writeln!(out, "{}", Reply::Chg { cycle: sim.cycles, name, hex: &hex });
                        traced.push(i);
                        trace_shadow.push(hex);
                    }
                }
            }
            Command::TraceOff => {
                if !tracing {
                    queued.push("err config no trace is active on this session".into());
                }
                tracing = false;
                traced.clear();
                trace_shadow.clear();
            }
            Command::Sync => {
                for e in queued.drain(..) {
                    let _ = writeln!(out, "{e}");
                }
                let _ = writeln!(out, "{}", Reply::Ok(sim.cycles));
            }
            Command::Exit => break,
        }
        let _ = out.flush();
    }
}

/// Streams `chg <cycle> <name> <hex>` records for every traced signal
/// whose value moved since the shadow copy (unsolicited records — the
/// protocol guarantees they precede any command response that
/// observes the post-change state).
fn stream_changes(
    sim: &Sim,
    out: &mut impl std::io::Write,
    traced: &[usize],
    shadow: &mut [String],
) {
    for (k, &i) in traced.iter().enumerate() {
        let name = SIGNALS_META[i].0;
        let hex = sim.hex_of(name);
        if hex != shadow[k] {
            let _ = writeln!(out, "{}", wire::Reply::Chg { cycle: sim.cycles, name, hex: &hex });
            shadow[k] = hex;
        }
    }
}

/// Canonical hex (a `peek` rendering or a validated `poke` operand) as
/// little-endian words.
fn hex_words(hex: &str) -> Vec<u64> {
    wire::parse_hex(hex).unwrap_or_default()
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
"#;
    T.replace("__DESIGN__", design)
}
