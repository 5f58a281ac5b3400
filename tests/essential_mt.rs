//! Acceptance tests for the parallel essential-signal engine:
//! `EssentialMt` must produce bit-identical peek results to the
//! reference interpreter and the sequential `Essential` engine on
//! stuCore and the synthetic designs at 1, 2 and 4 threads, with
//! run-to-run-stable optimization stats.

use gsim::{Counters, Scenario, SimOptions, Simulator};
use gsim_graph::interp::RefInterp;
use gsim_workloads::programs;

const THREADS: [usize; 3] = [1, 2, 4];

/// stuCore running a real program: every output port of every engine
/// matches the reference interpreter cycle-for-cycle (sampled every few
/// cycles to keep the reference's cost bounded).
#[test]
fn stucore_bit_identical_across_threads() {
    let graph = gsim_designs::stu_core();
    let outputs: Vec<String> = graph
        .outputs()
        .iter()
        .map(|&o| graph.display_name(o))
        .collect();
    let p = programs::fib(8);

    let mut reference = RefInterp::new(&graph).unwrap();
    reference.load_mem("imem", &p.image).unwrap();
    let mut engines: Vec<(String, Simulator)> = Vec::new();
    // The full differential matrix: sequential + 1/2/4 threads, each
    // with superinstruction fusion on and off.
    for fusion in [true, false] {
        let tag = if fusion { "" } else { "-no-fuse" };
        for (label, opts) in std::iter::once((format!("essential{tag}"), SimOptions::default()))
            .chain(
                THREADS
                    .iter()
                    .map(|&t| (format!("essential-mt{t}{tag}"), SimOptions::essential_mt(t))),
            )
        {
            let opts = SimOptions {
                superinstr_fusion: fusion,
                ..opts
            };
            let mut sim = Simulator::compile(&graph, &opts).unwrap();
            sim.load_mem("imem", &p.image).unwrap();
            engines.push((label, sim));
        }
    }

    reference.poke_u64("reset", 1).unwrap();
    for (_, sim) in &mut engines {
        sim.poke_u64("reset", 1).unwrap();
    }
    reference.run(2);
    for (_, sim) in &mut engines {
        sim.run(2);
    }
    reference.poke_u64("reset", 0).unwrap();
    for (_, sim) in &mut engines {
        sim.poke_u64("reset", 0).unwrap();
    }

    let mut halted = false;
    for _ in 0..(p.max_cycles / 4) {
        reference.run(4);
        for (label, sim) in &mut engines {
            sim.run(4);
            for out in &outputs {
                assert_eq!(
                    sim.peek(out).as_ref(),
                    reference.peek(out),
                    "{label} diverged from the reference on {out} at cycle {}",
                    sim.cycle()
                );
            }
        }
        if reference.peek_u64("halt") == Some(1) {
            halted = true;
            break;
        }
    }
    assert!(halted, "fib did not halt within its budget");
    assert_eq!(reference.peek_u64("result"), Some(p.expected_result));
}

/// A synthetic core under churning stimulus: `EssentialMt` at every
/// thread count matches the sequential essential engine bit for bit,
/// evaluates exactly the same work, and reports identical stats when
/// the run is repeated.
#[test]
fn synthetic_cores_bit_identical_and_stats_stable() {
    for (name, target) in [("Rocket", 1_200), ("BOOM", 2_500)] {
        synthetic_core_case(name, target);
    }
}

fn synthetic_core_case(name: &str, target: usize) {
    let params = gsim_designs::SynthParams::for_target(name, target);
    let graph = gsim_designs::synth_core(&params);
    let outputs: Vec<String> = graph
        .outputs()
        .iter()
        .map(|&o| graph.display_name(o))
        .collect();

    let drive_and_snapshot = |opts: &SimOptions| -> (Vec<Option<gsim_value::Value>>, Counters) {
        let mut sim = Simulator::compile(&graph, opts).unwrap();
        let lanes: Vec<String> = (0..64)
            .map(|l| format!("op_in_{l}"))
            .take_while(|name| sim.peek(name).is_some())
            .collect();
        sim.poke_u64("reset", 1).ok();
        sim.run(2);
        sim.poke_u64("reset", 0).ok();
        sim.reset_counters();
        let base = sim.cycle();
        let frames = (base..base + 96)
            .map(|cycle| {
                lanes
                    .iter()
                    .enumerate()
                    .map(|(l, name)| {
                        // Deterministic churn: a different op pattern
                        // per lane per cycle, with bubbles mixed in.
                        let v = if cycle % 3 == 0 {
                            0
                        } else {
                            (cycle
                                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                .rotate_left(l as u32 * 7))
                                | 1
                        };
                        (name.clone(), v)
                    })
                    .collect()
            })
            .collect();
        let scenario = Scenario {
            loads: Vec::new(),
            frames,
        };
        gsim::Session::run_scenario(&mut sim, &scenario).unwrap();
        let peeks = outputs.iter().map(|o| sim.peek(o)).collect();
        (peeks, *sim.counters())
    };

    let (seq_peeks, seq_counters) = drive_and_snapshot(&SimOptions::default());
    for fusion in [true, false] {
        for t in THREADS {
            let opts = SimOptions {
                superinstr_fusion: fusion,
                ..SimOptions::essential_mt(t)
            };
            let (mt_peeks, mt_counters) = drive_and_snapshot(&opts);
            assert_eq!(
                mt_peeks, seq_peeks,
                "essential-mt{t} fusion={fusion} diverged"
            );
            // The parallel sweep does exactly the sequential engine's
            // work (only the active-bit examination strategy differs),
            // and fusion changes none of the semantic counters.
            assert_eq!(mt_counters.supernode_evals, seq_counters.supernode_evals);
            assert_eq!(mt_counters.node_evals, seq_counters.node_evals);
            assert_eq!(mt_counters.value_changes, seq_counters.value_changes);
            assert_eq!(mt_counters.activations, seq_counters.activations);
            // Run-to-run stability of the full stat set.
            let (peeks2, counters2) = drive_and_snapshot(&opts);
            assert_eq!(peeks2, mt_peeks, "essential-mt{t} outputs wobbled");
            assert_eq!(counters2, mt_counters, "essential-mt{t} stats wobbled");
        }
    }
}
