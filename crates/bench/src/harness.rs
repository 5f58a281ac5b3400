//! Shared measurement machinery: build a simulator for a (design,
//! preset) pair, drive a workload, and report simulation speed plus the
//! architecture-independent counters.

use gsim::{CompileReport, Compiler, OptOptions, Preset, Scenario, Simulator};
use gsim_graph::Graph;
use gsim_workloads::programs::Program;
use gsim_workloads::Profile;
use std::time::Instant;

/// What drives the design's inputs.
#[derive(Debug, Clone)]
pub enum WorkloadKind {
    /// A real program on stuCore (runs until `halt` or the budget).
    Program(Program),
    /// A stimulus profile on a synthetic core (runs a fixed cycle
    /// count).
    Stimulus(Profile),
}

impl WorkloadKind {
    /// Display name.
    pub fn name(&self) -> &str {
        match self {
            WorkloadKind::Program(p) => p.name,
            WorkloadKind::Stimulus(p) => p.name,
        }
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Simulation speed in Hz.
    pub hz: f64,
    /// Engine counters accumulated over the run.
    pub counters: gsim::Counters,
    /// Compilation report.
    pub report: CompileReport,
    /// For programs: the architectural result (`a0`), for checking.
    pub result: Option<u64>,
}

/// Compiles `graph` with `opts` and drives `workload` for `cycles`
/// (programs may halt earlier; their budget wins over `cycles`).
///
/// # Panics
///
/// Panics if compilation fails or a program produces a wrong
/// architectural result — a measurement of an incorrect simulator would
/// be meaningless.
pub fn measure_options(
    graph: &Graph,
    opts: OptOptions,
    workload: &WorkloadKind,
    cycles: u64,
) -> RunStats {
    let (mut sim, report) = Compiler::new(graph)
        .options(opts)
        .build()
        .expect("compiles");
    drive(&mut sim, report, workload, cycles)
}

/// Preset-based variant of [`measure_options`].
///
/// # Panics
///
/// See [`measure_options`].
pub fn measure_preset(
    graph: &Graph,
    preset: Preset,
    workload: &WorkloadKind,
    cycles: u64,
) -> RunStats {
    let (mut sim, report) = Compiler::new(graph)
        .preset(preset)
        .build()
        .expect("compiles");
    drive(&mut sim, report, workload, cycles)
}

fn drive(
    sim: &mut Simulator,
    report: CompileReport,
    workload: &WorkloadKind,
    cycles: u64,
) -> RunStats {
    match workload {
        WorkloadKind::Program(p) => {
            sim.load_mem("imem", &p.image).expect("stuCore has imem");
            // Reset pulse.
            sim.poke_u64("reset", 1).unwrap();
            sim.run(2);
            sim.poke_u64("reset", 0).unwrap();
            sim.reset_counters();
            let budget = p.max_cycles.max(cycles.min(p.max_cycles * 4));
            let start = Instant::now();
            let mut ran = 0;
            // Chunked halt polling keeps the poll overhead negligible.
            while ran < budget && sim.peek_u64("halt") != Some(1) {
                let chunk = 64.min(budget - ran);
                sim.run(chunk);
                ran += chunk;
            }
            let seconds = start.elapsed().as_secs_f64();
            assert_eq!(
                sim.peek_u64("halt"),
                Some(1),
                "{} did not halt within {budget} cycles",
                p.name
            );
            let result = sim.peek_u64("result");
            assert_eq!(
                result,
                Some(p.expected_result),
                "{} wrong architectural result",
                p.name
            );
            RunStats {
                cycles: ran,
                seconds,
                hz: ran as f64 / seconds.max(1e-12),
                counters: *sim.counters(),
                report,
                result,
            }
        }
        WorkloadKind::Stimulus(profile) => {
            let lanes: Vec<String> = (0..64)
                .map(|l| format!("op_in_{l}"))
                .take_while(|name| sim.peek(name).is_some())
                .collect();
            let mut stim = profile.stimulus(lanes.len().max(1), 0xDEC0DE);
            let mut scenario = |n: u64| Scenario {
                loads: Vec::new(),
                frames: (0..n)
                    .map(|_| lanes.iter().cloned().zip(stim.next_cycle()).collect())
                    .collect(),
            };
            // settle out of reset
            sim.poke_u64("reset", 1).ok();
            sim.run(2);
            sim.poke_u64("reset", 0).ok();
            // Warm up before timing: the first configuration measured
            // in a sweep otherwise pays first-touch page faults and a
            // cold branch predictor that none of its siblings pay,
            // which once inverted a fusion-on/off comparison on a
            // 1-core host. Counters are reset after the warmup so they
            // describe exactly the timed cycles.
            let warmup = scenario(WARMUP_CYCLES.min(cycles));
            gsim::Session::run_scenario(sim, &warmup).expect("synthetic core lanes are inputs");
            sim.reset_counters();
            // Stimulus is built in bounded chunks outside the timed
            // region. Each chunk is one batched call, which keeps the
            // multithreaded engines' worker teams alive across it
            // instead of respawning them per step.
            let mut seconds = 0.0;
            let mut left = cycles;
            while left > 0 {
                let chunk = scenario(left.min(STIMULUS_CHUNK));
                left -= chunk.cycles();
                let start = Instant::now();
                gsim::Session::run_scenario(sim, &chunk).expect("synthetic core lanes are inputs");
                seconds += start.elapsed().as_secs_f64();
            }
            RunStats {
                cycles,
                seconds,
                hz: cycles as f64 / seconds.max(1e-12),
                counters: *sim.counters(),
                report,
                result: None,
            }
        }
    }
}

/// The standard thread counts of Figure 6.
pub const MT_THREADS: [usize; 4] = [2, 4, 8, 16];

/// Untimed cycles driven before every stimulus measurement (capped by
/// the run's cycle budget).
pub const WARMUP_CYCLES: u64 = 256;

/// Frames per timed stimulus chunk: bounds the stimulus held in memory
/// for long runs.
const STIMULUS_CHUNK: u64 = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_workloads::programs;

    #[test]
    fn program_measurement_checks_result() {
        let g = gsim_designs::stu_core();
        let stats = measure_preset(
            &g,
            Preset::Gsim,
            &WorkloadKind::Program(programs::fib(10)),
            10_000,
        );
        assert_eq!(stats.result, Some(55));
        assert!(stats.hz > 0.0);
        assert!(stats.cycles > 10);
    }

    #[test]
    fn stimulus_measurement_runs_fixed_cycles() {
        let p = gsim_designs::SynthParams::for_target("Rocket", 2_000);
        let g = gsim_designs::synth_core(&p);
        let stats = measure_preset(
            &g,
            Preset::Gsim,
            &WorkloadKind::Stimulus(Profile::coremark()),
            200,
        );
        assert_eq!(stats.cycles, 200);
        assert!(stats.counters.node_evals > 0);
    }
}
