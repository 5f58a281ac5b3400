//! Exploration equivalence: branches fanned out by the snapshot-fork
//! [`gsim::Explorer`] must be *bit-identical* to running the same
//! perturbed scenario sequentially — peeks against the independent
//! `RefInterp` golden model, peeks *and* semantic counters against a
//! cold session of the same backend — on randomly generated netlists
//! (interp and jit pools) and on the compiled AoT sibling-process
//! pool, including a chaos case where a pool child is killed
//! mid-branch and the branch is retried on a recovered session.

use gsim::{
    Compiler, EngineChoice, ExploreOptions, Explorer, GsimError, Preset, Scenario, Session,
};
use gsim_graph::interp::RefInterp;
use gsim_graph::{Expr, Graph, GraphBuilder, NodeId, PrimOp};
use gsim_value::Value;
use proptest::prelude::*;

// ------------------------------------------------ random netlists

/// Plan for one random node (condensed from the sim crate's
/// differential suite: enough op diversity to exercise activation
/// tracking, multi-word values, and registers).
#[derive(Debug, Clone)]
enum NodePlan {
    Unary(u8),
    Binary(u8),
    MuxOp,
    Register { with_reset: bool },
}

#[derive(Debug, Clone)]
struct CircuitPlan {
    widths: Vec<u8>,
    nodes: Vec<(NodePlan, u16, u16, u16)>,
    n_inputs: u8,
    frames: Vec<u64>,
}

fn plan_strategy() -> impl Strategy<Value = CircuitPlan> {
    (
        proptest::collection::vec(1u8..48, 2..5),
        proptest::collection::vec(
            (
                prop_oneof![
                    (0u8..5).prop_map(NodePlan::Unary),
                    (0u8..8).prop_map(NodePlan::Binary),
                    Just(NodePlan::MuxOp),
                    any::<bool>().prop_map(|r| NodePlan::Register { with_reset: r }),
                ],
                any::<u16>(),
                any::<u16>(),
                any::<u16>(),
            ),
            3..16,
        ),
        1u8..4,
        proptest::collection::vec(any::<u64>(), 6..16),
    )
        .prop_map(|(widths, nodes, n_inputs, frames)| CircuitPlan {
            widths,
            nodes,
            n_inputs,
            frames,
        })
}

/// Deterministically builds a valid DAG from a plan (operands always
/// reference earlier nodes).
fn build_circuit(plan: &CircuitPlan) -> Graph {
    let mut b = GraphBuilder::new("Rand");
    let rst = b.input("rst", 1, false);
    let mut pool: Vec<(NodeId, u32)> = vec![(rst, 1)];
    for i in 0..plan.n_inputs {
        let w = plan.widths[i as usize % plan.widths.len()] as u32;
        let id = b.input(format!("in{i}"), w, false);
        pool.push((id, w));
    }
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
                ][*op as usize % 8];
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
                Expr::prim(PrimOp::Mux, vec![sel, t, f], vec![]).expect("mux")
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
                continue;
            }
        };
        let w = expr.width;
        let id = b.comb(format!("n{i}"), expr);
        pool.push((id, w));
    }
    for o in 0..2usize {
        let (id, w) = pool[pool.len() - 1 - (o % pool.len().min(3))];
        b.output(format!("out{o}"), Expr::reference(id, w, false));
    }
    b.finish().expect("plan builds a valid graph")
}

/// The plan's per-cycle stimulus as a [`Scenario`]: rst pulses plus a
/// varied word per data input, every cycle — dense pokes give
/// `perturb` something to vary on every frame.
fn plan_scenario(plan: &CircuitPlan, graph: &Graph) -> Scenario {
    let inputs: Vec<String> = graph
        .inputs()
        .iter()
        .map(|&i| graph.node(i).name.clone())
        .collect();
    let mut sc = Scenario::new();
    for (cycle, &word) in plan.frames.iter().enumerate() {
        let frame: Vec<(String, u64)> = inputs
            .iter()
            .enumerate()
            .map(|(k, name)| {
                let v = if name == "rst" {
                    u64::from(word % 5 == 3)
                } else {
                    word.rotate_left(k as u32 * 13) ^ cycle as u64
                };
                (name.clone(), v)
            })
            .collect();
        sc.frames.push(frame);
    }
    sc
}

// ------------------------------------------------ replay oracles

/// Branch `seed` replayed on the `RefInterp` golden model: returns
/// each named output's value after `warm` then the perturbed base.
fn refinterp_replay(
    graph: &Graph,
    warm: &Scenario,
    base: &Scenario,
    seed: u64,
    outputs: &[String],
) -> Vec<(String, Value)> {
    let mut r = RefInterp::new(graph).expect("reference builds");
    for sc in [warm.clone(), base.perturb(seed)] {
        for (mem, image) in &sc.loads {
            r.load_mem(mem, image).expect("reference load");
        }
        for frame in &sc.frames {
            for (name, v) in frame {
                // The reference pokes mask to width like the engines.
                r.poke_u64(name, *v).expect("reference poke");
            }
            r.step();
        }
    }
    outputs
        .iter()
        .map(|n| (n.clone(), r.peek(n).expect("reference peek").clone()))
        .collect()
}

/// Branch `seed` replayed sequentially on a cold session of the same
/// backend: peeks *and* cumulative counters, the fork-invariance
/// oracle.
fn sequential_replay(
    mut session: Box<dyn Session>,
    warm: &Scenario,
    base: &Scenario,
    seed: u64,
    outputs: &[String],
) -> (Vec<(String, Value)>, gsim::Counters) {
    session.run_scenario(warm).expect("sequential warmup");
    session
        .run_scenario(&base.perturb(seed))
        .expect("sequential branch");
    let peeks = outputs
        .iter()
        .map(|n| (n.clone(), session.peek(n).expect("sequential peek")))
        .collect();
    (peeks, session.counters().expect("sequential counters"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Parallel perturbed branches on the in-process pools (interp
    // fork, jit fork) are bit-identical — peeks and full counters —
    // to a sequential replay, and match the golden model.
    #[test]
    fn explored_branches_match_sequential_replay(plan in plan_strategy()) {
        let graph = build_circuit(&plan);
        let outputs: Vec<String> = graph
            .outputs()
            .iter()
            .map(|&o| graph.node(o).name.clone())
            .collect();
        let sc = plan_scenario(&plan, &graph);
        let warm = Scenario {
            loads: Vec::new(),
            frames: sc.frames[..sc.frames.len() / 2].to_vec(),
        };
        let base = Scenario {
            loads: Vec::new(),
            frames: sc.frames[sc.frames.len() / 2..].to_vec(),
        };
        let branches = 5usize;
        for engine in [EngineChoice::Essential, EngineChoice::Threaded] {
            let mut core = Compiler::new(&graph)
                .preset(Preset::Gsim)
                .build_session(engine)
                .expect("core session");
            core.run_scenario(&warm).expect("warmup");
            let report = Explorer::new(core.as_mut())
                .options(ExploreOptions {
                    workers: 3,
                    watch: outputs.clone(),
                    ..ExploreOptions::default()
                })
                .run(&base, branches, None)
                .expect("exploration");
            prop_assert_eq!(report.branches.len(), branches);
            for b in &report.branches {
                prop_assert_eq!(b.cycle, warm.cycles() + base.cycles());
                let golden = refinterp_replay(&graph, &warm, &base, b.index as u64, &outputs);
                prop_assert_eq!(&b.peeks, &golden, "branch {} vs RefInterp ({engine:?})", b.index);
                let replay = Compiler::new(&graph)
                    .preset(Preset::Gsim)
                    .build_session(engine)
                    .expect("replay session");
                let (peeks, counters) =
                    sequential_replay(replay, &warm, &base, b.index as u64, &outputs);
                prop_assert_eq!(&b.peeks, &peeks, "branch {} peeks ({engine:?})", b.index);
                prop_assert_eq!(
                    b.counters, counters,
                    "branch {} counters ({engine:?})", b.index
                );
            }
        }
    }
}

// ------------------------------------------------ the AoT pool

const EXPLORE_CORE: &str = r#"
circuit ExploreCore :
  module ExploreCore :
    input clock : Clock
    input reset : UInt<1>
    input inc : UInt<4>
    output out : UInt<16>
    output lo : UInt<4>
    reg acc : UInt<16>, clock with : (reset => (reset, UInt<16>(0)))
    acc <= tail(add(acc, inc), 1)
    out <= acc
    lo <= bits(acc, 3, 0)
"#;

fn aot_scenarios() -> (Scenario, Scenario) {
    let warm = Scenario::new()
        .frame(&[("reset", 1), ("inc", 0)])
        .frame(&[("reset", 0), ("inc", 1)])
        .repeat(3);
    let mut base = Scenario::new();
    for c in 0..24u64 {
        base.frames
            .push(vec![("inc".to_string(), (c * 7 + 3) & 0xf)]);
    }
    (warm, base)
}

/// The AoT pool — sibling processes forked from one compiled binary —
/// stays bit-identical to the golden model and to a sequential replay
/// on a cold process of the same binary.
#[test]
fn aot_pool_matches_sequential_replay() {
    if !gsim_codegen::rustc_available() {
        eprintln!("skipping: rustc not available on this host");
        return;
    }
    let graph = gsim_firrtl::compile(EXPLORE_CORE).unwrap();
    let outputs = vec!["out".to_string(), "lo".to_string()];
    let (warm, base) = aot_scenarios();
    let (aot_sim, _) = Compiler::new(&graph)
        .preset(Preset::Gsim)
        .build_aot()
        .expect("aot compiles");
    let mut core = aot_sim.session().expect("core session");
    core.run_scenario(&warm).expect("warmup");
    let report = Explorer::new(&mut core)
        .options(ExploreOptions {
            workers: 3,
            watch: outputs.clone(),
            ..ExploreOptions::default()
        })
        .run(&base, 6, None)
        .expect("exploration");
    assert_eq!(report.branches.len(), 6);
    assert!(report.forks > 0, "the compiled backend must fork its pool");
    for b in &report.branches {
        let golden = refinterp_replay(&graph, &warm, &base, b.index as u64, &outputs);
        assert_eq!(b.peeks, golden, "branch {} vs RefInterp", b.index);
        let replay = Box::new(aot_sim.session().expect("replay session")) as Box<dyn Session>;
        let (peeks, counters) = sequential_replay(replay, &warm, &base, b.index as u64, &outputs);
        assert_eq!(b.peeks, peeks, "branch {} peeks", b.index);
        assert_eq!(b.counters, counters, "branch {} counters", b.index);
    }
}

// ------------------------------------------------ chaos

/// Forces the explorer onto its recovery factory by refusing to fork.
struct NoFork(Box<dyn Session + Send>);

impl Session for NoFork {
    fn backend(&self) -> &'static str {
        "nofork"
    }
    fn cycle(&self) -> u64 {
        self.0.cycle()
    }
    fn poke(&mut self, name: &str, v: Value) -> Result<(), GsimError> {
        self.0.poke(name, v)
    }
    fn peek(&mut self, name: &str) -> Result<Value, GsimError> {
        self.0.peek(name)
    }
    fn load_mem(&mut self, name: &str, image: &[u64]) -> Result<(), GsimError> {
        self.0.load_mem(name, image)
    }
    fn step(&mut self, n: u64) -> Result<(), GsimError> {
        self.0.step(n)
    }
    fn counters(&mut self) -> Result<gsim::Counters, GsimError> {
        self.0.counters()
    }
    fn snapshot(&mut self) -> Result<gsim::SnapshotId, GsimError> {
        self.0.snapshot()
    }
    fn restore(&mut self, id: gsim::SnapshotId) -> Result<(), GsimError> {
        self.0.restore(id)
    }
    fn inputs(&mut self) -> Result<Vec<gsim::SignalInfo>, GsimError> {
        self.0.inputs()
    }
    fn signals(&mut self) -> Result<Vec<gsim::SignalInfo>, GsimError> {
        self.0.signals()
    }
    fn memories(&mut self) -> Result<Vec<gsim::MemoryInfo>, GsimError> {
        self.0.memories()
    }
}

/// Chaos: the first pool child carries an injected fault that kills
/// its process mid-branch. The explorer must retry the branch on a
/// fresh recovered session and every branch must still end
/// bit-identical to the golden model.
#[test]
fn killed_pool_child_is_retried_and_stays_bit_identical() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    if !gsim_codegen::rustc_available() {
        eprintln!("skipping: rustc not available on this host");
        return;
    }
    let graph = gsim_firrtl::compile(EXPLORE_CORE).unwrap();
    let outputs = vec!["out".to_string(), "lo".to_string()];
    let (warm, base) = aot_scenarios();
    let (aot_sim, _) = Compiler::new(&graph)
        .preset(Preset::Gsim)
        .build_aot()
        .expect("aot compiles");
    let mut core = NoFork(Box::new(aot_sim.session().expect("core session")));
    core.run_scenario(&warm).expect("warmup");

    // The two sessions the pool opens up front self-destruct
    // mid-branch (the fault plan kills the child process after
    // `warm + 10` cycles); every later one is healthy. Both, because
    // which worker gets to the branch queue first is up to the
    // scheduler: with one faulty session a fast healthy worker can
    // drain all four branches before the faulty one runs any. The
    // `Mutex` makes the captured `AotSim` shareable across the
    // explorer's worker threads.
    let kill_at = warm.cycles() + 10;
    let armed = AtomicUsize::new(2);
    let aot_sim = Mutex::new(aot_sim);
    let warm_for_factory = warm.clone();
    let recover = move || -> Result<Box<dyn Session + Send>, GsimError> {
        let disarm = |n: usize| n.checked_sub(1);
        let plan = if armed
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, disarm)
            .is_ok()
        {
            gsim::FaultPlan {
                kill_child_at_cycle: Some(kill_at),
                ..gsim::FaultPlan::default()
            }
        } else {
            gsim::FaultPlan::default()
        };
        let mut s = aot_sim
            .lock()
            .expect("factory lock")
            .session_with(None, &plan)
            .map_err(|e| GsimError::Backend(e.to_string()))?;
        s.run_scenario(&warm_for_factory)?;
        Ok(Box::new(s) as Box<dyn Session + Send>)
    };

    let report = Explorer::new(&mut core)
        .with_recovery(&recover)
        .options(ExploreOptions {
            workers: 2,
            watch: outputs.clone(),
            ..ExploreOptions::default()
        })
        .run(&base, 4, None)
        .expect("exploration survives the kill");
    assert_eq!(report.branches.len(), 4);
    assert_eq!(report.forks, 0, "NoFork must force the recovery pool");
    assert!(
        report.total_retries() >= 1,
        "the killed child's branch must have been retried"
    );
    for b in &report.branches {
        let golden = refinterp_replay(&graph, &warm, &base, b.index as u64, &outputs);
        assert_eq!(b.peeks, golden, "branch {} vs RefInterp", b.index);
    }
}
