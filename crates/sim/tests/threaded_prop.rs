//! Property test: threaded-code dispatch is invisible.
//!
//! Over randomized `gsim_designs` synthetic netlists, the threaded
//! backend must produce bit-identical output peeks and *fully*
//! identical cost counters — every field, examination counts included —
//! against the plain essential engine. The lowered handler records
//! replicate the essential sweep's semantics and accounting exactly;
//! any divergence is a lowering bug, not noise.

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
    fn threaded_dispatch_is_bit_invisible(plan in plan_strategy()) {
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
        let threaded = run(&graph, &SimOptions::threaded(), &outputs, plan.cycles);
        let essential = run(&graph, &SimOptions::default(), &outputs, plan.cycles);
        prop_assert_eq!(
            &threaded.0,
            &essential.0,
            "threaded peeks diverged from the essential engine"
        );
        // Full counter identity — not just the semantic subset: the
        // record stream mirrors the essential sweep's examination and
        // activation accounting one for one.
        prop_assert_eq!(threaded.1, essential.1, "counters diverged vs essential");
    }
}
