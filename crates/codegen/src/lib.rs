//! C++ code emission (paper §III-D / Table IV).
//!
//! GSIM emits C++ simulation code that a host compiler turns into the
//! final simulator binary; Table IV compares *emission time*, *code
//! size*, and *data size* across simulators. This repository's engines
//! execute bytecode instead of spawning a C++ toolchain, but the emitter
//! is still implemented so the resource-usage experiment can be
//! regenerated: emission time is the wall-clock of [`emit`], code size
//! is the emitted source (the paper measured the `.text` section — a
//! fixed host-compiler scaling away), and data size is the size of the
//! state struct, computed exactly like `sizeof` on the emitted class.
//!
//! Two styles mirror the simulators' architectures:
//!
//! * [`Style::FullCycle`] — one flat `eval()` evaluating every node
//!   (Verilator/Arcilator shape).
//! * [`Style::Essential`] — per-supernode `eval_sn*()` functions guarded
//!   by active bits plus activation code (ESSENT/GSIM shape).
//!
//! Beyond the C++ measurement emitter, this crate now hosts the **AoT
//! backend**: [`emit_rust`] lowers the optimized graph into a complete
//! standalone Rust simulator, and [`build`] drives `rustc -O` over it
//! and runs the resulting native binary ([`compile_aot`]) — either in
//! batch mode over a stimulus stream ([`AotSim::run`]) or as a
//! **persistent interactive session** ([`AotSim::session`] spawns the
//! binary's `--serve` mode and [`AotSession`] speaks its line
//! protocol, implementing the backend-agnostic [`gsim_sim::Session`]
//! trait). Both emitters share one state-layout/size computation
//! ([`layout`]), so Table IV's "data size" is by construction the
//! size of the struct the compiled simulator really uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod cache;
pub mod layout;
// The runtime's real consumer is the *emitted* program (embedded via
// `include_str!` by `rust.rs`); inside this crate it is only exercised
// by the `rt_semantics` tests, so non-test builds see it as dead. It
// reaches the word kernels as `super::words`, here and there.
#[cfg_attr(not(test), allow(dead_code))]
mod rt;
use gsim_value::words;
#[cfg(test)]
mod rt_semantics;
pub mod rust;
pub mod session;

pub use build::{compile as compile_aot, AotError, AotOptions, AotRun, AotSim};
pub use build::{rustc_available, rustc_path};
pub use cache::{ArtifactCache, ArtifactKey, CacheStats};
pub use rust::{emit_rust, EmitError, RustOutput, MAX_AOT_WIDTH};
pub use session::{AotSession, DEFAULT_OP_DEADLINE};

use gsim_graph::{Expr, ExprKind, Graph, NodeKind, PrimOp};
use gsim_partition::{Partition, PartitionOptions};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Emission style (simulator architecture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// Flat full-cycle `eval()`.
    FullCycle,
    /// Supernode functions with active-bit dispatch.
    Essential,
}

/// Result of emitting a design.
#[derive(Debug, Clone)]
pub struct CppOutput {
    /// The generated C++ source.
    pub code: String,
    /// Bytes of the generated source ("code size").
    pub code_bytes: usize,
    /// Bytes of simulated state in the emitted class, excluding
    /// memories ("data size", matching the paper's `sizeof` metric).
    pub data_bytes: usize,
    /// Wall-clock emission time.
    pub emit_time: Duration,
}

/// Emits C++ for `graph`. For [`Style::Essential`] the supernode
/// partition controls function granularity.
pub fn emit(graph: &Graph, style: Style, partition: &PartitionOptions) -> CppOutput {
    let start = Instant::now();
    let mut out = String::with_capacity(64 * 1024);

    let partition = match style {
        Style::Essential => gsim_partition::build(graph, partition),
        Style::FullCycle => gsim_partition::build(
            graph,
            &PartitionOptions {
                algorithm: gsim_partition::Algorithm::None,
                max_size: 1,
            },
        ),
    };
    // One layout computation shared with the AoT Rust emitter, so the
    // reported data size can never diverge from the compiled struct.
    let state = layout::state_layout(graph, &partition);
    let mut data_bytes = state.data_bytes;

    let _ = writeln!(out, "// generated by gsim-codegen");
    let _ = writeln!(out, "#include <cstdint>\n#include <cstring>");
    let _ = writeln!(out, "struct {} {{", sanitize(graph.name()));

    // State members, in the shared locality order (inputs, register
    // current/shadow pairs, then combinational values in sweep order).
    for e in &state.entries {
        let _ = writeln!(out, "  {} {};", ctype(e.width), var(graph, e.node));
        if e.is_reg {
            let _ = writeln!(out, "  {} {}__next;", ctype(e.width), var(graph, e.node));
        }
    }
    for mem in graph.mems() {
        let _ = writeln!(
            out,
            "  {} {}[{}]; // memory (excluded from data size)",
            ctype(mem.width),
            sanitize(&mem.name),
            mem.depth
        );
    }

    match style {
        Style::FullCycle => emit_full_cycle(graph, &partition, &mut out),
        Style::Essential => {
            data_bytes += partition.len().div_ceil(8); // active bits
            emit_essential(graph, &partition, &mut out);
        }
    }

    let _ = writeln!(out, "}};");
    CppOutput {
        code_bytes: out.len(),
        code: out,
        data_bytes,
        emit_time: start.elapsed(),
    }
}

fn emit_full_cycle(graph: &Graph, partition: &Partition, out: &mut String) {
    let _ = writeln!(out, "  void eval() {{");
    for members in &partition.supernodes {
        for &id in members {
            emit_node(graph, id, out, "    ");
        }
    }
    let _ = writeln!(out, "  }}");
    emit_commit(graph, out);
}

fn emit_essential(graph: &Graph, partition: &Partition, out: &mut String) {
    let _ = writeln!(
        out,
        "  uint64_t active[{}];",
        partition.len().div_ceil(64).max(1)
    );
    for (sn, members) in partition.supernodes.iter().enumerate() {
        let _ = writeln!(out, "  void eval_sn{sn}() {{");
        for &id in members {
            emit_node(graph, id, out, "    ");
            // activation of successor supernodes
            let _ = writeln!(
                out,
                "    if (changed) activate_succs_of_{}();",
                var(graph, id)
            );
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "  void eval() {{");
    let words = partition.len().div_ceil(64).max(1);
    let _ = writeln!(out, "    for (unsigned w = 0; w < {words}; ++w) {{");
    let _ = writeln!(out, "      if (active[w] == 0) continue; // Listing 4");
    let _ = writeln!(out, "      uint64_t bits = active[w]; active[w] = 0;");
    let _ = writeln!(
        out,
        "      while (bits) {{ dispatch(w * 64 + __builtin_ctzll(bits)); bits &= bits - 1; }}"
    );
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "  }}");
    emit_commit(graph, out);
}

fn emit_commit(graph: &Graph, out: &mut String) {
    let _ = writeln!(out, "  void commit() {{");
    // Reset signals are latched before the first register store: a
    // reset signal can itself be a register (reset-synchronizer
    // pattern), and registers commit one by one below, so a live read
    // mid-commit would see the post-edge value and reset a cycle
    // early. Memory-write operands are evaluated before any register
    // commits for the same reason (pre-edge semantics, as RefInterp).
    let mut snapshotted: Vec<gsim_graph::NodeId> = Vec::new();
    for (_, node) in graph.iter() {
        if let NodeKind::Reg { reset: Some(r) } = &node.kind {
            if !snapshotted.contains(&r.signal) {
                snapshotted.push(r.signal);
                let s = var(graph, r.signal);
                let _ = writeln!(out, "    const bool rst_{s} = {s} != 0;");
            }
        }
    }
    for (_, node) in graph.iter() {
        if let NodeKind::MemWrite { mem } = &node.kind {
            let w = node.mem_write_operands().expect("write operands");
            let _ = writeln!(
                out,
                "    if ({}) {}[{}] = {};",
                cpp_expr(graph, &w.en),
                sanitize(&graph.mems()[mem.index()].name),
                cpp_expr(graph, &w.addr),
                cpp_expr(graph, &w.data)
            );
        }
    }
    for (id, node) in graph.iter() {
        if let NodeKind::Reg { reset } = &node.kind {
            let v = var(graph, id);
            let _ = writeln!(out, "    {v} = {v}__next;");
            if let Some(r) = reset {
                let _ = writeln!(
                    out,
                    "    if (rst_{}) {v} = {:#x}ull; // slow-path reset",
                    var(graph, r.signal),
                    r.init.to_u64().unwrap_or(0)
                );
            }
        }
    }
    let _ = writeln!(out, "  }}");
}

fn emit_node(graph: &Graph, id: gsim_graph::NodeId, out: &mut String, indent: &str) {
    let node = graph.node(id);
    match &node.kind {
        NodeKind::Input | NodeKind::MemWrite { .. } => {}
        NodeKind::Reg { .. } => {
            let e = node.expr.as_ref().expect("reg next");
            let _ = writeln!(
                out,
                "{indent}{}__next = {};",
                var(graph, id),
                cpp_expr(graph, e)
            );
        }
        NodeKind::MemRead { mem } => {
            let addr = node.expr.as_ref().expect("addr");
            let _ = writeln!(
                out,
                "{indent}{} = {}[{}];",
                var(graph, id),
                sanitize(&graph.mems()[mem.index()].name),
                cpp_expr(graph, addr)
            );
        }
        NodeKind::Comb | NodeKind::Output => {
            let e = node.expr.as_ref().expect("driver");
            let _ = writeln!(out, "{indent}{} = {};", var(graph, id), cpp_expr(graph, e));
        }
    }
}

/// Renders an expression as C++ (width-exact via masking helpers).
fn cpp_expr(graph: &Graph, e: &Expr) -> String {
    match &e.kind {
        ExprKind::Const(v) => match v.to_u64() {
            Some(x) => format!("{x:#x}ull"),
            None => format!("bigconst_{:x}()", v.words().first().copied().unwrap_or(0)),
        },
        ExprKind::Ref(id) => var(graph, *id),
        ExprKind::Prim(op, args, params) => {
            use PrimOp::*;
            let a = |i: usize| cpp_expr(graph, &args[i]);
            match op {
                Add => format!("mask{}({} + {})", e.width, a(0), a(1)),
                Sub => format!("mask{}({} - {})", e.width, a(0), a(1)),
                Mul => format!("mask{}({} * {})", e.width, a(0), a(1)),
                Div => format!("safediv({}, {})", a(0), a(1)),
                Rem => format!("saferem({}, {})", a(0), a(1)),
                Lt => format!("({} < {})", a(0), a(1)),
                Leq => format!("({} <= {})", a(0), a(1)),
                Gt => format!("({} > {})", a(0), a(1)),
                Geq => format!("({} >= {})", a(0), a(1)),
                Eq => format!("({} == {})", a(0), a(1)),
                Neq => format!("({} != {})", a(0), a(1)),
                And => format!("({} & {})", a(0), a(1)),
                Or => format!("({} | {})", a(0), a(1)),
                Xor => format!("({} ^ {})", a(0), a(1)),
                Not => format!("mask{}(~{})", e.width, a(0)),
                Andr => format!("andr{}({})", args[0].width, a(0)),
                Orr => format!("({} != 0)", a(0)),
                Xorr => format!("(__builtin_popcountll({}) & 1)", a(0)),
                Cat => format!("(({} << {}) | {})", a(0), args[1].width, a(1)),
                Bits => format!("mask{}({} >> {})", e.width, a(0), params[1]),
                Head => format!("mask{}({} >> {})", e.width, a(0), args[0].width - params[0]),
                Tail => format!("mask{}({})", e.width, a(0)),
                Shl => format!("({} << {})", a(0), params[0]),
                Shr => format!("mask{}({} >> {})", e.width, a(0), params[0]),
                Dshl => format!("mask{}({} << {})", e.width, a(0), a(1)),
                Dshr => format!("({} >> {})", a(0), a(1)),
                Pad | AsUInt => a(0),
                AsSInt | Cvt => format!("tosigned{}({})", e.width, a(0)),
                Neg => format!("mask{}(-{})", e.width, a(0)),
                Mux => format!("({} ? {} : {})", a(0), a(1), a(2)),
            }
        }
    }
}

fn ctype(width: u32) -> String {
    match width {
        0..=8 => "uint8_t".into(),
        9..=16 => "uint16_t".into(),
        17..=32 => "uint32_t".into(),
        33..=64 => "uint64_t".into(),
        _ => format!("uint64_t /*w{width}*/[{}]", gsim_value::words_for(width)),
    }
}

fn var(graph: &Graph, id: gsim_graph::NodeId) -> String {
    let node = graph.node(id);
    if node.name.is_empty() {
        format!("n{}", id.index())
    } else {
        sanitize(&node.name)
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        gsim_firrtl::compile(
            r#"
circuit Dut :
  module Dut :
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<8>
    output y : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    node t = tail(add(a, r), 1)
    r <= t
    y <= r
    mem scratch :
      data-type => UInt<8>
      depth => 4
      read-latency => 0
      write-latency => 1
      reader => rd
      writer => wr
    scratch.rd.addr <= bits(a, 1, 0)
    scratch.rd.en <= UInt<1>(1)
    scratch.wr.addr <= bits(a, 1, 0)
    scratch.wr.data <= a
    scratch.wr.en <= bits(a, 7, 7)
"#,
        )
        .unwrap()
    }

    #[test]
    fn full_cycle_emission_contains_everything() {
        let g = sample();
        let out = emit(&g, Style::FullCycle, &PartitionOptions::default());
        assert!(out.code.contains("void eval()"));
        assert!(out.code.contains("void commit()"));
        assert!(out.code.contains("r__next"));
        assert!(out.code.contains("scratch"));
        assert_eq!(out.code_bytes, out.code.len());
        assert!(out.data_bytes > 0);
    }

    #[test]
    fn essential_emission_has_supernode_functions() {
        let g = sample();
        let out = emit(&g, Style::Essential, &PartitionOptions::default());
        assert!(out.code.contains("eval_sn0"));
        assert!(out.code.contains("active["));
        assert!(out.code.contains("__builtin_ctzll"));
    }

    #[test]
    fn data_size_counts_registers_twice() {
        let g = gsim_firrtl::compile(
            r#"
circuit D :
  module D :
    input clock : Clock
    input a : UInt<32>
    output y : UInt<32>
    reg r : UInt<32>, clock
    r <= a
    y <= r
"#,
        )
        .unwrap();
        let out = emit(&g, Style::FullCycle, &PartitionOptions::default());
        // clock (1) + a (4) + r (4+4 shadow) + y (4) = 17
        assert_eq!(out.data_bytes, 17);
    }

    #[test]
    fn memories_excluded_from_data_size() {
        let g = sample();
        let with = emit(&g, Style::FullCycle, &PartitionOptions::default());
        // The scratch memory must appear in code but not inflate data
        // size by depth × width.
        assert!(with.data_bytes < 4 * 100);
    }
}
