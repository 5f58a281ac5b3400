//! Parameterized processor-shaped netlist generator.
//!
//! Stand-in for Rocket / BOOM / XiangShan (whose Chisel sources cannot
//! be elaborated here). The generated cores reproduce the structural
//! properties the paper's techniques exploit:
//!
//! * **one-hot decoders** — `dshl(1, sel)` then single-bit slices, the
//!   exact pattern GSIM's expression simplification rewrites;
//! * **gated functional units** — each FU's operand register only
//!   changes when its select fires, so an idle FU's whole cone stays
//!   inactive: realistic low activity factors (~5% under typical
//!   stimulus);
//! * **wide writeback buses** — FU outputs are concatenated and
//!   consumers slice lanes back out: bit-splitting fodder;
//! * **register files and cache-like tag/data memories**;
//! * **few reset signals fanning out to many registers** — the
//!   precondition for the reset slow path;
//! * **per-lane instruction inputs** — stimulus profiles drive opcode
//!   streams whose mix controls which FUs toggle.
//!
//! The generator is deterministic for a given [`SynthParams`] (seeded
//! RNG), and sizes itself to a target node count.

use gsim_graph::{Expr, Graph, GraphBuilder, NodeId, PrimOp};
use gsim_value::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct SynthParams {
    /// Design name.
    pub name: String,
    /// Issue lanes (paper: Rocket 1, BOOM 3, XiangShan 6).
    pub lanes: usize,
    /// Parallel logic chains per functional unit.
    pub fu_chains: usize,
    /// Operations per chain.
    pub fu_depth: usize,
    /// Functional-unit clusters per lane.
    pub fus_per_lane: usize,
    /// RNG seed (fixed per design for reproducibility).
    pub seed: u64,
}

/// Most functional units per lane. Each FU adds 32 bits to the lane's
/// writeback bus and one level to its writeback mux chain, which every
/// recursive pass walks; past this, designs grow by longer chains.
const MAX_FUS_PER_LANE: usize = 255;

const _: () = assert!(32 * MAX_FUS_PER_LANE as u64 <= gsim_value::MAX_WIDTH as u64);

impl SynthParams {
    /// Sizes parameters so the generated core lands near `target_nodes`,
    /// with lane counts matching the named paper design.
    ///
    /// Up to 255 functional units per lane the core grows by units of
    /// fixed shape; beyond that it keeps 255 and lengthens every chain,
    /// so paper-scale targets land within 2× of their size.
    pub fn for_target(name: &str, target_nodes: usize) -> SynthParams {
        let (lanes, fu_chains, fu_depth) = match name {
            "Rocket" => (1, 6, 12),
            "BOOM" => (3, 8, 12),
            "XiangShan" => (6, 8, 14),
            _ => (1, 4, 10),
        };
        // Per-FU node cost ≈ chains × depth × ~1.35 (ops + gating +
        // writeback slice logic); solve for the FU count.
        let per_fu = (fu_chains * fu_depth) as f64 * 1.35;
        let overhead_per_lane = 120.0;
        let budget = target_nodes as f64 - lanes as f64 * overhead_per_lane;
        let fus = (budget / (lanes as f64 * per_fu)).max(2.0) as usize;
        let fu_depth = if fus <= MAX_FUS_PER_LANE {
            fu_depth
        } else {
            // A FU is its chains plus five nodes (select, enable, operand
            // register, output, writeback select); solve for the depth.
            let per_fu = budget / (lanes * MAX_FUS_PER_LANE) as f64;
            (((per_fu - 5.0) / fu_chains as f64) as usize).max(fu_depth)
        };
        SynthParams {
            name: name.to_string(),
            lanes,
            fu_chains,
            fu_depth,
            fus_per_lane: fus.clamp(2, MAX_FUS_PER_LANE),
            seed: 0x9e37_79b9 ^ target_nodes as u64,
        }
    }
}

fn u(x: u64, w: u32) -> Expr {
    Expr::constant(Value::from_u64(x, w))
}

fn r(id: NodeId, w: u32) -> Expr {
    Expr::reference(id, w, false)
}

fn p2(op: PrimOp, a: Expr, b: Expr) -> Expr {
    Expr::prim(op, vec![a, b], vec![]).expect("binary")
}

fn trunc32(e: Expr) -> Expr {
    Expr::truncate(e, 32)
}

/// Generates a synthetic core.
///
/// # Panics
///
/// Panics only on internal width errors (covered by tests).
pub fn synth_core(params: &SynthParams) -> Graph {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut b = GraphBuilder::new(params.name.clone());
    let _clock = b.input("clock", 1, false);
    let reset = b.input("reset", 1, false);

    let sel_bits = (usize::BITS - (params.fus_per_lane - 1).leading_zeros()).max(1);
    let mut lane_signatures: Vec<Expr> = Vec::new();

    // Global always-active heartbeat (performance counters exist in
    // every real core and keep the activity factor nonzero).
    let cycle_ctr = b.reg_with_reset("cycle_ctr", 32, false, reset, Value::zero(32));
    let inc = trunc32(p2(PrimOp::Add, r(cycle_ctr, 32), u(1, 32)));
    b.set_reg_next(cycle_ctr, inc);

    for lane in 0..params.lanes {
        let op_in = b.input(format!("op_in_{lane}"), 32, false);
        // Fetch register.
        let op_r = b.reg_with_reset(format!("l{lane}.fetch"), 32, false, reset, Value::zero(32));
        b.set_reg_next(op_r, r(op_in, 32));

        // Decode: validity + one-hot FU select (the paper's pattern).
        let valid = b.comb(
            format!("l{lane}.valid"),
            Expr::prim(PrimOp::Orr, vec![r(op_r, 32)], vec![]).expect("orr"),
        );
        let fu_sel = b.comb(
            format!("l{lane}.fu_sel"),
            Expr::prim(PrimOp::Bits, vec![r(op_r, 32)], vec![sel_bits + 7, 8]).expect("bits"),
        );
        let onehot_w = 1u32 << sel_bits;
        let onehot = b.comb(
            format!("l{lane}.onehot"),
            p2(PrimOp::Dshl, u(1, 1), r(fu_sel, sel_bits)),
        );

        // Lane register file.
        let regfile = b.mem(format!("l{lane}.regfile"), 32, 32);
        let ra = b.mem_read(
            format!("l{lane}.ra"),
            regfile,
            Expr::prim(PrimOp::Bits, vec![r(op_r, 32)], vec![20, 16]).expect("bits"),
        );
        let rb = b.mem_read(
            format!("l{lane}.rb"),
            regfile,
            Expr::prim(PrimOp::Bits, vec![r(op_r, 32)], vec![25, 21]).expect("bits"),
        );
        let opnd = b.comb(
            format!("l{lane}.opnd"),
            trunc32(p2(
                PrimOp::Xor,
                r(ra, 32),
                trunc32(p2(PrimOp::Add, r(rb, 32), r(op_r, 32))),
            )),
        );

        // Functional units.
        let mut fu_outs: Vec<NodeId> = Vec::new();
        for f in 0..params.fus_per_lane {
            let is_f_raw = b.comb(
                format!("l{lane}.fu{f}.sel"),
                Expr::prim(
                    PrimOp::Bits,
                    vec![r(onehot, onehot_w)],
                    vec![f as u32, f as u32],
                )
                .expect("onehot bit"),
            );
            let en = b.comb(
                format!("l{lane}.fu{f}.en"),
                p2(PrimOp::And, r(is_f_raw, 1), r(valid, 1)),
            );
            // Gated operand register: holds its value when not selected.
            let hold = b.reg(format!("l{lane}.fu{f}.in"), 32, false);
            b.set_reg_next(
                hold,
                Expr::prim(
                    PrimOp::Mux,
                    vec![r(en, 1), r(opnd, 32), r(hold, 32)],
                    vec![],
                )
                .expect("mux"),
            );
            // Logic chains.
            let mut chain_ends: Vec<NodeId> = Vec::new();
            let mut prev_chain_end: Option<NodeId> = None;
            for cix in 0..params.fu_chains {
                let tweak = rng.gen::<u32>() as u64;
                let mut cur = b.comb(
                    format!("l{lane}.fu{f}.c{cix}.s0"),
                    trunc32(p2(PrimOp::Xor, r(hold, 32), u(tweak, 32))),
                );
                for s in 1..params.fu_depth {
                    let k = rng.gen::<u32>() as u64;
                    let expr = match rng.gen_range(0..6u32) {
                        0 => trunc32(p2(PrimOp::Add, r(cur, 32), u(k, 32))),
                        1 => trunc32(p2(PrimOp::Xor, r(cur, 32), u(k | 1, 32))),
                        2 => trunc32(p2(PrimOp::And, r(cur, 32), u(k | 0xff, 32))),
                        3 => {
                            // rotate via cat + slice (bit-split fodder)
                            let hi = Expr::prim(PrimOp::Bits, vec![r(cur, 32)], vec![31, 13])
                                .expect("bits");
                            let lo = Expr::prim(PrimOp::Bits, vec![r(cur, 32)], vec![12, 0])
                                .expect("bits");
                            p2(PrimOp::Cat, lo, hi)
                        }
                        4 => {
                            // cross-link with the previous chain
                            match prev_chain_end {
                                Some(pc) => trunc32(p2(PrimOp::Or, r(cur, 32), r(pc, 32))),
                                None => trunc32(p2(PrimOp::Or, r(cur, 32), u(k, 32))),
                            }
                        }
                        _ => trunc32(p2(
                            PrimOp::Add,
                            r(cur, 32),
                            Expr::prim(PrimOp::Bits, vec![r(cur, 32)], vec![15, 0]).expect("bits"),
                        )),
                    };
                    cur = b.comb(format!("l{lane}.fu{f}.c{cix}.s{s}"), expr);
                }
                prev_chain_end = Some(cur);
                chain_ends.push(cur);
            }
            // Fold chains into the FU output.
            let mut acc = r(chain_ends[0], 32);
            for &c in &chain_ends[1..] {
                acc = trunc32(p2(PrimOp::Xor, acc, r(c, 32)));
            }
            let out = b.comb(format!("l{lane}.fu{f}.out"), acc);
            fu_outs.push(out);
        }

        // Writeback bus: concatenate FU outputs; consumers slice lanes
        // back out (bit-level splitting fodder).
        let mut bus = r(fu_outs[0], 32);
        let mut bus_w = 32u32;
        for &f in &fu_outs[1..] {
            bus = p2(PrimOp::Cat, r(f, 32), bus);
            bus_w += 32;
        }
        let bus_node = b.comb(format!("l{lane}.bus"), bus);
        // Select the active FU's slice via a shifted index.
        let mut wb = Expr::prim(PrimOp::Bits, vec![r(bus_node, bus_w)], vec![31, 0]).expect("bits");
        for f in 1..params.fus_per_lane {
            let is_f = b.comb(
                format!("l{lane}.wb_sel{f}"),
                p2(PrimOp::Eq, r(fu_sel, sel_bits), u(f as u64, sel_bits)),
            );
            let slice = Expr::prim(
                PrimOp::Bits,
                vec![r(bus_node, bus_w)],
                vec![f as u32 * 32 + 31, f as u32 * 32],
            )
            .expect("bus slice");
            wb = Expr::prim(PrimOp::Mux, vec![r(is_f, 1), slice, wb], vec![]).expect("mux");
        }
        let wb_node = b.comb(format!("l{lane}.wb"), wb);

        // Register-file writeback.
        b.mem_write(
            regfile,
            Expr::prim(PrimOp::Bits, vec![r(op_r, 32)], vec![30, 26]).expect("bits"),
            r(wb_node, 32),
            r(valid, 1),
        );

        // Cache-like structure: tag + data memories with hit compare.
        let tag_mem = b.mem(format!("l{lane}.tags"), 64, 16);
        let data_mem = b.mem(format!("l{lane}.cache"), 64, 32);
        let index = b.comb(
            format!("l{lane}.index"),
            Expr::prim(PrimOp::Bits, vec![r(wb_node, 32)], vec![5, 0]).expect("bits"),
        );
        let tag_rd = b.mem_read(format!("l{lane}.tag_rd"), tag_mem, r(index, 6));
        let _data_rd = b.mem_read(format!("l{lane}.data_rd"), data_mem, r(index, 6));
        let hit = b.comb(
            format!("l{lane}.hit"),
            p2(
                PrimOp::Eq,
                r(tag_rd, 16),
                Expr::prim(PrimOp::Bits, vec![r(wb_node, 32)], vec![31, 16]).expect("bits"),
            ),
        );
        let miss = b.comb(
            format!("l{lane}.miss"),
            p2(
                PrimOp::And,
                Expr::prim(PrimOp::Not, vec![r(hit, 1)], vec![]).expect("not"),
                r(valid, 1),
            ),
        );
        b.mem_write(
            tag_mem,
            r(index, 6),
            Expr::prim(PrimOp::Bits, vec![r(wb_node, 32)], vec![31, 16]).expect("bits"),
            r(miss, 1),
        );
        b.mem_write(data_mem, r(index, 6), r(wb_node, 32), r(miss, 1));
        let miss_ctr = b.reg_with_reset(
            format!("l{lane}.miss_ctr"),
            32,
            false,
            reset,
            Value::zero(32),
        );
        b.set_reg_next(
            miss_ctr,
            Expr::prim(
                PrimOp::Mux,
                vec![
                    r(miss, 1),
                    trunc32(p2(PrimOp::Add, r(miss_ctr, 32), u(1, 32))),
                    r(miss_ctr, 32),
                ],
                vec![],
            )
            .expect("mux"),
        );

        // Retire register: captures writeback for the signature.
        let retire = b.reg_with_reset(format!("l{lane}.retire"), 32, false, reset, Value::zero(32));
        b.set_reg_next(
            retire,
            Expr::prim(
                PrimOp::Mux,
                vec![r(valid, 1), r(wb_node, 32), r(retire, 32)],
                vec![],
            )
            .expect("mux"),
        );
        lane_signatures.push(trunc32(p2(PrimOp::Xor, r(retire, 32), r(miss_ctr, 32))));
    }

    // Outputs: fold lane signatures so everything is live.
    let mut sig = lane_signatures[0].clone();
    for s in &lane_signatures[1..] {
        sig = trunc32(p2(PrimOp::Xor, sig, s.clone()));
    }
    b.output("signature", sig);
    b.output("cycles", r(cycle_ctr, 32));

    b.finish().expect("synthetic core is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_graph::interp::RefInterp;

    #[test]
    fn generator_hits_target_sizes() {
        for (name, target) in [
            ("Rocket", 6_000usize),
            ("BOOM", 12_000),
            ("XiangShan", 25_000),
        ] {
            let p = SynthParams::for_target(name, target);
            let g = synth_core(&p);
            g.validate().unwrap();
            let n = g.num_nodes();
            assert!(
                n as f64 > target as f64 * 0.5 && (n as f64) < target as f64 * 2.0,
                "{name}: {n} nodes for target {target}"
            );
        }
    }

    #[test]
    fn targets_past_the_fu_cap_grow_the_design() {
        // At 255 FUs per lane the XiangShan shape has 179 129 nodes;
        // larger targets used to get that same design.
        let target = 400_000;
        let p = SynthParams::for_target("XiangShan", target);
        let n = synth_core(&p).num_nodes();
        assert!(n >= 2 * 179_129, "{n} nodes for target {target}");
        assert!(n as f64 > target as f64 * 0.5 && (n as f64) < target as f64 * 2.0);
    }

    #[test]
    fn targets_under_the_fu_cap_keep_their_shape() {
        for (name, target) in [("Rocket", 20_000usize), ("XiangShan", 179_000)] {
            let p = SynthParams::for_target(name, target);
            let depth = match name {
                "Rocket" => 12,
                _ => 14,
            };
            assert_eq!(p.fu_depth, depth, "{name} at {target}");
            assert!(p.fus_per_lane <= 255);
        }
    }

    #[test]
    fn deterministic_for_same_params() {
        let p = SynthParams::for_target("Rocket", 3_000);
        let g1 = synth_core(&p);
        let g2 = synth_core(&p);
        assert_eq!(g1.num_nodes(), g2.num_nodes());
        assert_eq!(g1.num_edges(), g2.num_edges());
    }

    #[test]
    fn idle_core_is_mostly_inactive() {
        let p = SynthParams::for_target("Rocket", 3_000);
        let g = synth_core(&p);
        let mut sim = gsim_sim_compile(&g);
        // settle, then idle
        sim.run(3);
        sim.reset_counters();
        sim.run(50);
        let af = sim.counters().activity_factor(g.num_nodes());
        assert!(af < 0.10, "idle activity factor {af} too high");
        // drive ops: activity rises
        sim.poke_u64("op_in_0", 0x0000_1234).unwrap();
        sim.reset_counters();
        sim.run(2);
        assert!(sim.counters().node_evals > 0);
    }

    #[test]
    fn runs_identically_on_reference() {
        let p = SynthParams::for_target("stu", 1_500);
        let g = synth_core(&p);
        let mut reference = RefInterp::new(&g).unwrap();
        let mut sim = gsim_sim_compile(&g);
        for c in 0..30u64 {
            let op = c.wrapping_mul(0x1234_5678) ^ (c << 8);
            reference.poke_u64("op_in_0", op).unwrap();
            sim.poke_u64("op_in_0", op).unwrap();
            reference.step();
            sim.step();
            assert_eq!(
                sim.peek("signature"),
                reference.peek("signature").cloned(),
                "diverged at cycle {c}"
            );
        }
    }

    // gsim-sim is a dev-dependency only through the workspace; use a
    // tiny local shim so unit tests stay inside this crate.
    fn gsim_sim_compile(g: &Graph) -> gsim_sim::Simulator {
        gsim_sim::Simulator::compile(g, &gsim_sim::SimOptions::default()).unwrap()
    }
}
