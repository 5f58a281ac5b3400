//! Differential property tests: every engine must agree with the
//! reference interpreter, cycle for cycle, on randomly generated
//! circuits under random stimulus.
//!
//! This is the load-bearing correctness argument for the whole
//! simulator: the optimized engines (full-cycle, multithreaded,
//! essential-signal in both ESSENT and GSIM configurations) all run the
//! same randomly-built designs as `RefInterp`, whose semantics are
//! simple enough to audit by eye.

use gsim_graph::interp::RefInterp;
use gsim_graph::{Expr, Graph, GraphBuilder, NodeId, PrimOp};
use gsim_sim::{SimOptions, Simulator};
use gsim_value::Value;
use proptest::prelude::*;

/// Plan for one random node.
#[derive(Debug, Clone)]
enum NodePlan {
    Unary(u8),
    Binary(u8),
    MuxOp,
    BitsOp { hi_frac: u8, lo_frac: u8 },
    Register { with_reset: bool },
}

#[derive(Debug, Clone)]
struct CircuitPlan {
    widths: Vec<u8>,
    nodes: Vec<(NodePlan, u16, u16, u16)>, // plan + operand seeds
    n_inputs: u8,
    n_outputs: u8,
    stimulus: Vec<u64>,
}

fn plan_strategy() -> impl Strategy<Value = CircuitPlan> {
    (
        proptest::collection::vec(1u8..33, 2..6),
        proptest::collection::vec(
            (
                prop_oneof![
                    (0u8..5).prop_map(NodePlan::Unary),
                    (0u8..10).prop_map(NodePlan::Binary),
                    Just(NodePlan::MuxOp),
                    (0u8..8, 0u8..8).prop_map(|(h, l)| NodePlan::BitsOp {
                        hi_frac: h,
                        lo_frac: l
                    }),
                    any::<bool>().prop_map(|r| NodePlan::Register { with_reset: r }),
                ],
                any::<u16>(),
                any::<u16>(),
                any::<u16>(),
            ),
            3..25,
        ),
        1u8..4,
        1u8..4,
        proptest::collection::vec(any::<u64>(), 8..24),
    )
        .prop_map(
            |(widths, nodes, n_inputs, n_outputs, stimulus)| CircuitPlan {
                widths,
                nodes,
                n_inputs,
                n_outputs,
                stimulus,
            },
        )
}

/// Deterministically builds a valid circuit from a plan. All operands
/// reference earlier nodes, so the result is always a DAG.
fn build_circuit(plan: &CircuitPlan) -> Graph {
    let mut b = GraphBuilder::new("Rand");
    let rst = b.input("rst", 1, false);
    let mut pool: Vec<(NodeId, u32)> = vec![(rst, 1)];
    for i in 0..plan.n_inputs {
        let w = plan.widths[i as usize % plan.widths.len()] as u32;
        let id = b.input(format!("in{i}"), w, false);
        pool.push((id, w));
    }
    let mut pending_regs: Vec<(NodeId, u32)> = Vec::new();
    for (i, (node_plan, s1, s2, s3)) in plan.nodes.iter().enumerate() {
        let pick = |seed: u16, pool: &[(NodeId, u32)]| {
            let (id, w) = pool[seed as usize % pool.len()];
            Expr::reference(id, w, false)
        };
        let expr = match node_plan {
            NodePlan::Unary(op) => {
                let a = pick(*s1, &pool);
                let op = [
                    PrimOp::Not,
                    PrimOp::Andr,
                    PrimOp::Orr,
                    PrimOp::Xorr,
                    PrimOp::Neg,
                ][*op as usize % 5];
                let e = Expr::prim(op, vec![a], vec![]).expect("unary");
                if e.signed {
                    Expr::prim(PrimOp::AsUInt, vec![e], vec![]).expect("cast")
                } else {
                    e
                }
            }
            NodePlan::Binary(op) => {
                let a = pick(*s1, &pool);
                let c = pick(*s2, &pool);
                let op = [
                    PrimOp::Add,
                    PrimOp::Sub,
                    PrimOp::Mul,
                    PrimOp::And,
                    PrimOp::Or,
                    PrimOp::Xor,
                    PrimOp::Cat,
                    PrimOp::Eq,
                    PrimOp::Lt,
                    PrimOp::Div,
                ][*op as usize % 10];
                let e = Expr::prim(op, vec![a, c], vec![]).expect("binary");
                if e.signed {
                    Expr::prim(PrimOp::AsUInt, vec![e], vec![]).expect("cast")
                } else {
                    e
                }
            }
            NodePlan::MuxOp => {
                let sel_src = pick(*s1, &pool);
                let sel = if sel_src.width == 1 {
                    sel_src
                } else {
                    Expr::prim(PrimOp::Orr, vec![sel_src], vec![]).expect("orr")
                };
                let t = pick(*s2, &pool);
                let f = pick(*s3, &pool);
                // arm widths may differ; graph mux takes the max
                Expr::prim(PrimOp::Mux, vec![sel, t, f], vec![]).expect("mux")
            }
            NodePlan::BitsOp { hi_frac, lo_frac } => {
                let a = pick(*s1, &pool);
                let w = a.width;
                let lo = (*lo_frac as u32) % w;
                let hi = lo + ((*hi_frac as u32) % (w - lo));
                Expr::prim(PrimOp::Bits, vec![a], vec![hi, lo]).expect("bits")
            }
            NodePlan::Register { with_reset } => {
                let next_src = pick(*s1, &pool);
                let w = next_src.width;
                let reg = if *with_reset {
                    b.reg_with_reset(
                        format!("r{i}"),
                        w,
                        false,
                        rst,
                        Value::from_u64(*s2 as u64, w),
                    )
                } else {
                    b.reg(format!("r{i}"), w, false)
                };
                b.set_reg_next(reg, next_src);
                pool.push((reg, w));
                pending_regs.push((reg, w));
                continue;
            }
        };
        let w = expr.width;
        let id = b.comb(format!("n{i}"), expr);
        pool.push((id, w));
    }
    // Outputs read the most recently defined signals.
    for o in 0..plan.n_outputs {
        let (id, w) = pool[pool.len() - 1 - (o as usize % pool.len().min(4))];
        b.output(format!("out{o}"), Expr::reference(id, w, false));
    }
    b.finish().expect("plan builds a valid graph")
}

fn engine_matrix() -> Vec<(&'static str, SimOptions)> {
    vec![
        ("full-cycle", SimOptions::full_cycle()),
        ("mt-2", SimOptions::full_cycle_mt(2)),
        ("essent-like", SimOptions::essent_like()),
        ("gsim-default", SimOptions::default()),
        (
            "gsim-small-supernodes",
            SimOptions {
                partition: gsim_partition::PartitionOptions {
                    algorithm: gsim_partition::Algorithm::Gsim,
                    max_size: 3,
                },
                ..SimOptions::default()
            },
        ),
        (
            "kernighan-partition",
            SimOptions {
                partition: gsim_partition::PartitionOptions {
                    algorithm: gsim_partition::Algorithm::Kernighan,
                    max_size: 8,
                },
                ..SimOptions::default()
            },
        ),
        // Odd thread count: exercises uneven level slices (the last
        // thread's slice is shorter or empty on small levels).
        ("gsim-mt3", SimOptions::essential_mt(3)),
        (
            "gsim-mt2-per-flag",
            SimOptions {
                check_multiple_bits: false,
                ..SimOptions::essential_mt(2)
            },
        ),
        // Flat-image ablations: fusion and the locality layout must be
        // bit-invisible on every engine family.
        (
            "gsim-no-fuse",
            SimOptions {
                superinstr_fusion: false,
                ..SimOptions::default()
            },
        ),
        (
            "gsim-legacy-layout",
            SimOptions {
                locality_layout: false,
                ..SimOptions::default()
            },
        ),
        (
            "full-cycle-no-fuse",
            SimOptions {
                superinstr_fusion: false,
                locality_layout: false,
                ..SimOptions::full_cycle()
            },
        ),
        (
            "gsim-mt2-no-fuse",
            SimOptions {
                superinstr_fusion: false,
                ..SimOptions::essential_mt(2)
            },
        ),
        // Threaded-code backend: the lowered handler records must be
        // bit-identical to the reference.
        ("gsim-threaded", SimOptions::threaded()),
        (
            "gsim-threaded-no-fuse",
            SimOptions {
                superinstr_fusion: false,
                ..SimOptions::threaded()
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_match_reference(plan in plan_strategy()) {
        let graph = build_circuit(&plan);
        let outputs: Vec<String> = graph
            .outputs()
            .iter()
            .map(|&o| graph.node(o).name.clone())
            .collect();
        let input_names: Vec<String> = graph
            .inputs()
            .iter()
            .map(|&i| graph.node(i).name.clone())
            .collect();

        let mut reference = RefInterp::new(&graph).unwrap();
        let mut sims: Vec<(&str, Simulator)> = engine_matrix()
            .into_iter()
            .map(|(name, opts)| (name, Simulator::compile(&graph, &opts).unwrap()))
            .collect();

        for (cycle, &stim) in plan.stimulus.iter().enumerate() {
            for (k, name) in input_names.iter().enumerate() {
                // Occasionally pulse reset; vary inputs per cycle.
                let v = if name == "rst" {
                    u64::from(stim % 7 == 3)
                } else {
                    stim.rotate_left(k as u32 * 13) ^ cycle as u64
                };
                reference.poke_u64(name, v).unwrap();
                for (_, sim) in &mut sims {
                    sim.poke_u64(name, v).unwrap();
                }
            }
            reference.step();
            for (engine, sim) in &mut sims {
                sim.step();
                for out in &outputs {
                    let want = reference.peek(out).cloned();
                    let got = sim.peek(out);
                    prop_assert_eq!(
                        got.clone(),
                        want.clone(),
                        "engine {} output {} diverged at cycle {}",
                        engine,
                        out,
                        cycle
                    );
                }
            }
        }
    }
}
