//! Property test: superinstruction fusion is invisible.
//!
//! Over randomized `gsim_designs` synthetic netlists, every engine kind
//! must produce bit-identical output peeks and identical semantic work
//! counters (`activations`, `node_evals`, `value_changes`,
//! `supernode_evals`) with fusion on versus off — only the executed
//! instruction count may shrink.

use gsim_sim::{Counters, Scenario, Session, SimOptions, Simulator};
use gsim_value::Value;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Plan {
    lanes: usize,
    fu_chains: usize,
    fu_depth: usize,
    fus_per_lane: usize,
    seed: u64,
    cycles: u64,
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (
        1usize..3,
        1usize..4,
        2usize..6,
        2usize..4,
        any::<u64>(),
        12u64..28,
    )
        .prop_map(
            |(lanes, fu_chains, fu_depth, fus_per_lane, seed, cycles)| Plan {
                lanes,
                fu_chains,
                fu_depth,
                fus_per_lane,
                seed,
                cycles,
            },
        )
}

fn engine_kinds() -> Vec<(&'static str, SimOptions)> {
    vec![
        ("full-cycle", SimOptions::full_cycle()),
        ("full-cycle-mt2", SimOptions::full_cycle_mt(2)),
        ("essential", SimOptions::default()),
        ("essential-mt2", SimOptions::essential_mt(2)),
    ]
}

fn run(
    graph: &gsim_graph::Graph,
    opts: &SimOptions,
    outputs: &[String],
    cycles: u64,
) -> (Vec<Option<Value>>, Counters) {
    let mut sim = Simulator::compile(graph, opts).unwrap();
    let lanes: Vec<String> = (0..64)
        .map(|l| format!("op_in_{l}"))
        .take_while(|name| sim.peek(name).is_some())
        .collect();
    sim.poke_u64("reset", 1).ok();
    sim.run(2);
    sim.poke_u64("reset", 0).ok();
    sim.reset_counters();
    let base = sim.cycle();
    let frames = (base..base + cycles)
        .map(|cycle| {
            lanes
                .iter()
                .enumerate()
                .map(|(l, name)| {
                    let v = cycle
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .rotate_left(l as u32 * 11)
                        ^ 0x5bd1_e995;
                    (name.clone(), v)
                })
                .collect()
        })
        .collect();
    sim.run_scenario(&Scenario {
        loads: Vec::new(),
        frames,
    })
    .unwrap();
    let peeks = outputs.iter().map(|o| sim.peek(o)).collect();
    (peeks, *sim.counters())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fusion_is_bit_invisible_on_every_engine(plan in plan_strategy()) {
        let params = gsim_designs::SynthParams {
            name: "prop".into(),
            lanes: plan.lanes,
            fu_chains: plan.fu_chains,
            fu_depth: plan.fu_depth,
            fus_per_lane: plan.fus_per_lane,
            seed: plan.seed,
        };
        let graph = gsim_designs::synth_core(&params);
        let outputs: Vec<String> = graph
            .outputs()
            .iter()
            .map(|&o| graph.display_name(o))
            .collect();
        for (name, opts) in engine_kinds() {
            let fused = run(
                &graph,
                &SimOptions { superinstr_fusion: true, ..opts },
                &outputs,
                plan.cycles,
            );
            let plain = run(
                &graph,
                &SimOptions { superinstr_fusion: false, ..opts },
                &outputs,
                plan.cycles,
            );
            prop_assert_eq!(
                &fused.0,
                &plain.0,
                "engine {} peeks diverged under fusion",
                name
            );
            prop_assert_eq!(fused.1.activations, plain.1.activations, "engine {}", name);
            prop_assert_eq!(fused.1.node_evals, plain.1.node_evals, "engine {}", name);
            prop_assert_eq!(fused.1.value_changes, plain.1.value_changes, "engine {}", name);
            prop_assert_eq!(
                fused.1.supernode_evals,
                plain.1.supernode_evals,
                "engine {}",
                name
            );
            prop_assert!(
                fused.1.instrs_executed <= plain.1.instrs_executed,
                "engine {}: fusion must never execute more instructions",
                name
            );
        }
    }
}
