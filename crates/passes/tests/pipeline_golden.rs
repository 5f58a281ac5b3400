//! Pins the optimized graph: `gsim_passes::run(PassOptions::all())` must
//! produce exactly the same nodes, in the same order, with the same
//! names, expressions and memories, and the same `PassStats`, on a fixed
//! corpus of designs. A pass may get faster; it may not change what it
//! builds without this table changing with it.
//!
//! Each row is `(design, nodes_out, fingerprint)`, where the fingerprint
//! is FNV-1a over the `Debug` form of every node in order, then every
//! memory, then the stats. On a mismatch the test prints the whole
//! recomputed table so an intended change can be reviewed row by row.
//!
//! The full-size XiangShan stand-in (179 129 → 76 629 nodes) takes a few
//! seconds in release and is `#[ignore]`d; run it with
//! `cargo test --release -p gsim_passes --test pipeline_golden -- --ignored`.

use gsim_designs::{reset_synchronizer, stu_core, synth_core, SynthParams};
use gsim_graph::{Expr, Graph, GraphBuilder, NodeId, PrimOp};
use gsim_passes::{run, PassOptions};
use gsim_value::Value;

/// `(design, nodes_out, fingerprint)` for the tier-1 corpus.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("counter", 4, 0x17c00e5ea0a55468),
    ("cse", 22, 0xb3cfb0813554c47f),
    ("stuCore", 30, 0x62d4d381ef8e9b1e),
    ("reset_synchronizer", 6, 0xe6419e9abfc4327a),
    ("rocket_3k", 903, 0x60b183339e328ee6),
    ("boom_5k", 1472, 0x283b1a7a16005856),
    ("xiangshan_8k", 2548, 0x67606b4cb92b5dac),
    ("xs_smoke", 104, 0x193b09d895d449c5),
    ("rand_a", 136, 0xaed232244dd0a924),
    ("rand_b", 143, 0xb922b6d5274c63fe),
    ("rand_c", 149, 0x762f42a0fa383a4d),
];

/// The full-size xs core of the benchmark's `xs_linux` / `xs_idle`.
const GOLDEN_XS_FULL: (&str, usize, u64) = ("xs_full", 76629, 0xef5938999388dc5d);

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fingerprint(graph: &Graph, stats: &gsim_passes::PassStats) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (_, node) in graph.iter() {
        fnv1a(&mut hash, format!("{node:?}").as_bytes());
    }
    for mem in graph.mems() {
        fnv1a(&mut hash, format!("{mem:?}").as_bytes());
    }
    fnv1a(&mut hash, format!("{stats:?}").as_bytes());
    hash
}

fn optimize(graph: Graph) -> (usize, u64) {
    let (out, stats) = run(graph, &PassOptions::all());
    out.validate().expect("optimized graph is valid");
    (out.num_nodes(), fingerprint(&out, &stats))
}

/// The benchmark's xs core (`benchmark/src/inputs.rs`, `xs_params`).
fn xs_params(smoke: bool) -> SynthParams {
    SynthParams {
        name: "XiangShan".into(),
        lanes: if smoke { 2 } else { 6 },
        fu_chains: if smoke { 2 } else { 8 },
        fu_depth: if smoke { 4 } else { 14 },
        fus_per_lane: if smoke { 8 } else { 255 },
        seed: 0x9e37_79b9,
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random but valid netlist: slices and concatenations (bit-split
/// fodder), constant nodes and constant operands (folding and
/// propagation fodder), one-hot decoders, equal-armed muxes, shared
/// subtrees and registers with reset.
fn seeded_netlist(seed: u64, ops: usize) -> Graph {
    let mut rng = seed;
    let mut b = GraphBuilder::new(format!("rand{seed:x}"));
    let rst = b.input("rst", 1, false);
    let a = b.input("a", 16, false);
    let c = b.input("c", 16, false);
    let mut pool: Vec<(NodeId, u32)> = vec![(a, 16), (c, 16)];
    for i in 0..ops {
        let r = splitmix64(&mut rng);
        let (op, k) = (r % 11, (r >> 8) as u8);
        let (x, wx) = pool[(r >> 16) as usize % pool.len()];
        let (y, wy) = pool[(r >> 40) as usize % pool.len()];
        let rx = Expr::reference(x, wx, false);
        let ry = Expr::reference(y, wy, false);
        let e = match op {
            0 if wx + wy <= 96 => Expr::prim(PrimOp::Cat, vec![rx, ry], vec![]).unwrap(),
            1 => {
                let hi = u32::from(k) % wx;
                Expr::prim(PrimOp::Bits, vec![rx], vec![hi, hi / 2]).unwrap()
            }
            3 => Expr::prim(
                PrimOp::And,
                vec![rx, Expr::constant(Value::from_u64(u64::from(k), wx))],
                vec![],
            )
            .unwrap(),
            4 => Expr::truncate(Expr::prim(PrimOp::Add, vec![rx, ry], vec![]).unwrap(), 16),
            5 => Expr::prim(PrimOp::Not, vec![rx], vec![]).unwrap(),
            6 => {
                let sel = Expr::prim(PrimOp::Orr, vec![rx], vec![]).unwrap();
                Expr::prim(PrimOp::Mux, vec![sel, ry.clone(), ry], vec![]).unwrap()
            }
            7 => Expr::const_u64(u64::from(k), 8),
            8 => Expr::truncate(
                Expr::prim(PrimOp::Add, vec![rx, Expr::const_u64(1, 8)], vec![]).unwrap(),
                wx,
            ),
            9 => {
                let amt = Expr::prim(PrimOp::Bits, vec![rx], vec![(wx - 1).min(2), 0]).unwrap();
                Expr::prim(PrimOp::Dshl, vec![Expr::const_u64(1, 1), amt], vec![]).unwrap()
            }
            10 => {
                let sel = Expr::prim(PrimOp::Bits, vec![rx], vec![0, 0]).unwrap();
                let t = Expr::truncate(ry.clone(), 8);
                let f = Expr::prim(
                    PrimOp::Xor,
                    vec![Expr::truncate(ry, 8), Expr::const_u64(0, 8)],
                    vec![],
                )
                .unwrap();
                Expr::prim(PrimOp::Mux, vec![sel, t, f], vec![]).unwrap()
            }
            _ => Expr::prim(PrimOp::Xor, vec![rx, ry], vec![]).unwrap(),
        };
        let w = e.width;
        if k % 5 == 0 && w <= 64 {
            let reg = b.reg_with_reset(
                format!("r{i}"),
                w,
                false,
                rst,
                Value::from_u64(u64::from(k), w),
            );
            b.set_reg_next(reg, e);
            pool.push((reg, w));
        } else {
            pool.push((b.comb(format!("n{i}"), e), w));
        }
    }
    for (i, &(id, w)) in pool.iter().rev().step_by(5).enumerate() {
        b.output(format!("out{i}"), Expr::reference(id, w, false));
    }
    b.finish().unwrap()
}

/// Shared subtrees for `extract_common`: a large candidate that absorbs
/// occurrences of its operands, candidates of equal cost and count (the
/// tie order), and a shared subtree inside a memory write port.
const CSE_FIR: &str = r#"
circuit Cse :
  module Cse :
    input clock : Clock
    input a : UInt<8>
    input b : UInt<8>
    input c : UInt<8>
    output o1 : UInt<17>
    output o2 : UInt<17>
    output o3 : UInt<16>
    output o4 : UInt<16>
    output o5 : UInt<16>
    output o6 : UInt<16>
    output o7 : UInt<8>
    output o8 : UInt<8>
    output o9 : UInt<16>
    mem m :
      data-type => UInt<16>
      depth => 16
      read-latency => 0
      write-latency => 1
      writer => w
    o1 <= add(mul(a, b), mul(b, c))
    o2 <= not(add(mul(a, b), mul(b, c)))
    o3 <= xor(mul(a, b), mul(a, c))
    o4 <= and(mul(c, a), mul(a, c))
    o5 <= or(mul(c, a), mul(b, c))
    o6 <= mul(a, b)
    o7 <= div(a, b)
    o8 <= xor(div(a, b), c)
    o9 <= xor(mul(b, c), UInt<16>(3))
    m.w.addr <= bits(a, 3, 0)
    m.w.data <= xor(mul(a, c), mul(c, a))
    m.w.en <= orr(div(a, b))
    m.w.clk <= clock
"#;

fn corpus() -> Vec<(&'static str, Graph)> {
    let counter = gsim_firrtl::compile(include_str!("../../../examples/counter.fir")).unwrap();
    let mut designs = vec![
        ("counter", counter),
        ("cse", gsim_firrtl::compile(CSE_FIR).unwrap()),
        ("stuCore", stu_core()),
        ("reset_synchronizer", reset_synchronizer()),
        (
            "rocket_3k",
            synth_core(&SynthParams::for_target("Rocket", 3_000)),
        ),
        (
            "boom_5k",
            synth_core(&SynthParams::for_target("BOOM", 5_000)),
        ),
        (
            "xiangshan_8k",
            synth_core(&SynthParams::for_target("XiangShan", 8_000)),
        ),
        ("xs_smoke", synth_core(&xs_params(true))),
    ];
    for (name, seed) in [
        ("rand_a", 0xA5A5),
        ("rand_b", 0x1CEB_00DA),
        ("rand_c", 0x5EED),
    ] {
        designs.push((name, seeded_netlist(seed, 400)));
    }
    designs
}

#[test]
fn optimized_graphs_match_the_pinned_fingerprints() {
    let actual: Vec<(&str, usize, u64)> = corpus()
        .into_iter()
        .map(|(name, g)| {
            let (nodes, fp) = optimize(g);
            (name, nodes, fp)
        })
        .collect();
    if actual != GOLDEN {
        let table: String = actual
            .iter()
            .map(|(name, nodes, fp)| format!("    ({name:?}, {nodes}, {fp:#018x}),\n"))
            .collect();
        panic!("optimized graphs moved; recomputed table:\n{table}");
    }
}

#[test]
#[ignore = "full-size xs core; a few seconds in release"]
fn full_size_xs_core_matches_the_pinned_fingerprint() {
    let (nodes, fp) = optimize(synth_core(&xs_params(false)));
    assert_eq!(
        ("xs_full", nodes, fp),
        GOLDEN_XS_FULL,
        "recomputed: (\"xs_full\", {nodes}, {fp:#018x})"
    );
}
