//! Benchmark inputs: designs and stimulus, generated from `--seed`
//! before any clock starts.
//!
//! The design of each workload is fixed; the seed feeds only
//! `Profile::stimulus` (the xs workloads) and the poke values of the
//! service clients. stuCore has no data inputs, so its stimulus is the
//! program image alone and does not depend on the seed.

use gsim_designs::{stu_core_firrtl, synth_core, SynthParams};
use gsim_graph::Graph;
use gsim_sim::Scenario;
use gsim_workloads::programs::{coremark_mini, Program};
use gsim_workloads::Profile;
use std::time::Instant;

/// Frames per batch chunk: the clock is read between chunks, so a chunk
/// must stay short against a timed segment even at ~15 kHz.
pub const CHUNK_FRAMES: usize = 1024;

/// Cycles every session lifecycle steps after its preamble.
pub const LIFECYCLE_STEPS: u64 = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    XsLinux,
    XsIdle,
    StucoreCoremark,
    SvcClosed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::XsLinux,
        Workload::XsIdle,
        Workload::StucoreCoremark,
        Workload::SvcClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::XsLinux => "xs_linux",
            Workload::XsIdle => "xs_idle",
            Workload::StucoreCoremark => "stucore_coremark",
            Workload::SvcClosed => "svc_closed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Where a design comes from: the xs cores are built as graphs, the
/// other two enter as FIRRTL text and cross the front end.
pub enum Source {
    Graph(Graph),
    Firrtl(String),
}

/// One unit of batch work, repeated for as long as a segment lasts.
pub enum Batch {
    /// Stimulus-driven: the chunks are run round-robin.
    Chunks(Vec<Scenario>),
    /// One whole program run on stuCore: load + reset, then step until
    /// past `ecall`, then check `halt` and `result`.
    Program { pre: Scenario, expected_result: u64 },
}

pub struct Inputs {
    pub workload: Workload,
    pub source: Source,
    /// Memory loads and the reset pulse; run once on a fresh session.
    pub pre: Scenario,
    /// One-frame scenarios, in stimulus order: the oracle replays a
    /// prefix of them cycle by cycle, and the one-cycle requests of
    /// the session legs cycle through all of them.
    pub frames: Vec<Scenario>,
    /// How many of `frames` the reference interpreter replays.
    pub oracle_cycles: usize,
    /// Outputs compared against the reference interpreter.
    pub outputs: Vec<String>,
    /// Batch work for the in-process engines.
    pub batch: Batch,
    /// Batch work for the session backend where it differs from `batch`
    /// (stuCore's AoT process is ~30× the interpreter, so it gets a
    /// longer program).
    pub session_batch: Option<Batch>,
    /// Preambles of the session lifecycles; the expected `probe` value
    /// of each is computed in-process before timing.
    pub lifecycles: Vec<Scenario>,
    /// The output a lifecycle peeks.
    pub probe: &'static str,
    pub gen_s: f64,
    pub scenario_gen_s: f64,
}

/// `xs_*`: the XiangShan-shaped core, built explicitly —
/// `SynthParams::for_target` clamps at 255 FUs per lane, so a target
/// node count above ~180k silently yields this design anyway. The seed
/// is the design's, not the run's.
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

/// The flat, high-activity profile (`Profile::linux()`), or the
/// low-activity one that turns the same `sim` layer the other way.
fn xs_profile(w: Workload) -> Profile {
    match w {
        Workload::XsIdle => Profile {
            name: "idle-ish",
            activity: 0.05,
            hot_set: 64,
            fu_spread: 0.3,
        },
        _ => Profile::linux(),
    }
}

fn reset_pulse() -> Scenario {
    Scenario::new()
        .frame(&[("reset", 1)])
        .frame(&[("reset", 1)])
        .frame(&[("reset", 0)])
}

fn chunk(frames: impl Iterator<Item = Vec<(String, u64)>>) -> Scenario {
    Scenario {
        loads: Vec::new(),
        frames: frames.take(CHUNK_FRAMES).collect(),
    }
}

/// [`CHUNK_FRAMES`] one-frame scenarios: the first frames of every
/// chunk, chunk after chunk. A client that cycled through one chunk
/// alone would sit in whatever state that chunk's hot set leaves the
/// design in — on xs_idle some leave it busy in every later cycle.
fn single_frames(chunks: &[Scenario]) -> Vec<Scenario> {
    chunks
        .iter()
        .flat_map(|c| &c.frames[..CHUNK_FRAMES / chunks.len()])
        .map(|f| Scenario {
            loads: Vec::new(),
            frames: vec![f.clone()],
        })
        .collect()
}

/// Same mixer as `Scenario::perturb`; local so the poke stream does not
/// move if that one does.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn xs_inputs(w: Workload, seed: u64, smoke: bool) -> Inputs {
    let t = Instant::now();
    let params = xs_params(smoke);
    let graph = synth_core(&params);
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let lanes: Vec<String> = (0..params.lanes).map(|l| format!("op_in_{l}")).collect();
    // Every chunk draws its own hot set from the seed: a run then
    // averages over 32 draws of which FUs are exercised, and the rates
    // depend on the profile, hardly on the seed.
    let profile = xs_profile(w);
    let chunks = if smoke { 2 } else { 32 };
    let batch: Vec<Scenario> = (0..chunks)
        .map(|c| {
            let mut stim = profile.stimulus(params.lanes, splitmix64(seed ^ (c << 32)));
            chunk(std::iter::repeat_with(|| {
                lanes.iter().cloned().zip(stim.next_cycle()).collect()
            }))
        })
        .collect();
    // Lifecycles drive one frame of real ops, so each forked session
    // computes something the probe can be wrong about. The ops are
    // fixed, not seeded: whether an op feeds its own operands decides
    // whether its FU stays busy for the 512 held cycles, and eight
    // draws of that do not average out.
    let lifecycles = (0..8u64)
        .map(|k| {
            let mut sc = reset_pulse();
            sc.frames.push(
                lanes
                    .iter()
                    .enumerate()
                    .map(|(l, n)| (n.clone(), splitmix64((k << 8) ^ l as u64) | 1))
                    .collect(),
            );
            sc
        })
        .collect();
    let singles = single_frames(&batch);
    let scenario_gen_s = t.elapsed().as_secs_f64();

    Inputs {
        workload: w,
        source: Source::Graph(graph),
        pre: reset_pulse(),
        frames: singles,
        // The reference interpreter evaluates all 179k nodes every
        // cycle (~80 ms each), so the xs replay is short; the count
        // pass then pins interp and jit to each other over 4096 cycles.
        oracle_cycles: 16,
        outputs: vec!["signature".into(), "cycles".into()],
        batch: Batch::Chunks(batch),
        session_batch: None,
        lifecycles,
        probe: "signature",
        gen_s,
        scenario_gen_s,
    }
}

fn program_batch(p: &Program) -> Batch {
    Batch::Program {
        pre: reset_pulse().load("imem", p.image.clone()),
        expected_result: p.expected_result,
    }
}

fn stucore_inputs(smoke: bool) -> Inputs {
    let t = Instant::now();
    let src = stu_core_firrtl();
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    // ~230 cycles per iteration: ~50 ms per run on the interpreter and,
    // for the longer program, ~30 ms on the AoT process.
    let slow = coremark_mini(if smoke { 20 } else { 250 });
    let fast = coremark_mini(if smoke { 200 } else { 5000 });
    let pre = reset_pulse().load("imem", slow.image.clone());
    let frames = vec![Scenario::new().hold(1); 256];
    let scenario_gen_s = t.elapsed().as_secs_f64();

    Inputs {
        workload: Workload::StucoreCoremark,
        source: Source::Firrtl(src),
        lifecycles: vec![pre.clone()],
        pre,
        oracle_cycles: frames.len(),
        frames,
        outputs: vec!["halt".into(), "pc_out".into(), "result".into()],
        batch: program_batch(&slow),
        session_batch: Some(program_batch(&fast)),
        probe: "pc_out",
        gen_s,
        scenario_gen_s,
    }
}

/// The service design, as FIRRTL text (the wire protocol's `design`
/// payload): a 16-stage 32-bit accumulate pipeline — compiles in about
/// a second, and a `step` does real but negligible work.
fn svc_pipe_firrtl() -> String {
    let stages = 16;
    let mut s = String::from("circuit SvcPipe :\n  module SvcPipe :\n");
    s.push_str("    input clock : Clock\n    input reset : UInt<1>\n");
    s.push_str("    input din : UInt<32>\n    output out : UInt<32>\n");
    for i in 0..stages {
        s.push_str(&format!(
            "    reg r{i} : UInt<32>, clock with : (reset => (reset, UInt<32>(0)))\n"
        ));
    }
    s.push_str("    r0 <= tail(add(din, UInt<32>(1)), 1)\n");
    for i in 1..stages {
        s.push_str(&format!(
            "    r{i} <= tail(add(r{}, UInt<32>({i})), 1)\n",
            i - 1
        ));
    }
    s.push_str(&format!("    out <= r{}\n", stages - 1));
    s
}

fn svc_inputs(seed: u64, smoke: bool) -> Inputs {
    let t = Instant::now();
    let src = svc_pipe_firrtl();
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let chunks = if smoke { 2 } else { 8 };
    let mut cycle = 0u64;
    let batch: Vec<Scenario> = (0..chunks)
        .map(|_| {
            chunk(std::iter::repeat_with(|| {
                cycle += 1;
                vec![(
                    "din".to_string(),
                    splitmix64(seed ^ (cycle << 16)) & 0xffff_ffff,
                )]
            }))
        })
        .collect();
    let lifecycles = (0..8u64)
        .map(|k| {
            let mut sc = reset_pulse();
            sc.frames.push(vec![(
                "din".to_string(),
                splitmix64(seed ^ 0xd1a1 ^ (k << 40)) & 0xffff_ffff,
            )]);
            sc
        })
        .collect();
    let singles = single_frames(&batch);
    let scenario_gen_s = t.elapsed().as_secs_f64();

    Inputs {
        workload: Workload::SvcClosed,
        source: Source::Firrtl(src),
        pre: reset_pulse(),
        oracle_cycles: 256,
        frames: singles,
        outputs: vec!["out".into()],
        batch: Batch::Chunks(batch),
        session_batch: None,
        lifecycles,
        probe: "out",
        gen_s,
        scenario_gen_s,
    }
}

/// Builds the design and every stimulus value of `w` from `seed`.
pub fn generate(w: Workload, seed: u64, smoke: bool) -> Inputs {
    match w {
        Workload::XsLinux | Workload::XsIdle => xs_inputs(w, seed, smoke),
        Workload::StucoreCoremark => stucore_inputs(smoke),
        Workload::SvcClosed => svc_inputs(seed, smoke),
    }
}
