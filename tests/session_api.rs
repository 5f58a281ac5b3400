//! The backend-agnostic `Session` API, end to end: snapshot/restore
//! round trips pin bit-identical replay on every engine preset *and*
//! the persistent AoT session; a scripted poke/step/peek transcript
//! must read back identical typed values on every backend; and the
//! unified `GsimError` taxonomy is the same across the process
//! boundary — down to the bytes: the two server-side dispatchers of
//! the wire protocol answer one script with one reply stream.

mod common;

use common::{named_outputs, preset_sessions, push_aot_session};
use gsim::{Compiler, EngineChoice, GsimError, Preset, Scenario, Session};
use gsim_value::Value;

const ALL_PRESETS: &[Preset] = &[
    Preset::Verilator,
    Preset::VerilatorMt(2),
    Preset::Essent,
    Preset::Arcilator,
    Preset::Gsim,
    Preset::GsimMt(2),
    Preset::GsimJit,
];

/// Drives `n` cycles of deterministic churn and records every named
/// output after every cycle — the observation stream two replays are
/// compared by.
fn drive_and_observe(
    s: &mut dyn Session,
    outputs: &[String],
    base: u64,
    n: u64,
) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for c in 0..n {
        s.poke_u64("rst", u64::from((base + c) % 9 == 5)).unwrap();
        s.step(1).unwrap();
        rows.push(outputs.iter().map(|o| s.peek(o).unwrap()).collect());
    }
    rows
}

/// Snapshot mid-run, diverge, restore, and pin bit-identical replay —
/// on every engine preset and the persistent AoT session.
#[test]
fn snapshot_restore_roundtrip_on_every_backend() {
    let graph = gsim_designs::reset_synchronizer();
    let outputs = named_outputs(&graph);
    let mut sessions = preset_sessions(&graph, ALL_PRESETS);
    push_aot_session(&graph, &mut sessions);
    for (tag, s) in sessions.iter_mut() {
        // Warm up into a non-trivial state.
        drive_and_observe(s.as_mut(), &outputs, 0, 13);
        let snap = s.snapshot().unwrap();
        let cycle_at_snap = s.cycle();
        let counters_at_snap = s.counters().unwrap();
        // Diverge: different stimulus phase, then roll back.
        let diverged = drive_and_observe(s.as_mut(), &outputs, 100, 17);
        s.restore(snap).unwrap();
        assert_eq!(s.cycle(), cycle_at_snap, "{tag}: cycle after restore");
        assert_eq!(
            s.counters().unwrap(),
            counters_at_snap,
            "{tag}: counters after restore"
        );
        // Replay the *diverging* stimulus: bit-identical to the first
        // divergence (the snapshot captured the complete state).
        let replayed = drive_and_observe(s.as_mut(), &outputs, 100, 17);
        assert_eq!(replayed, diverged, "{tag}: replay after restore");
        // A second, older-state restore still works (snapshots are
        // retained, not popped).
        s.restore(snap).unwrap();
        let replayed2 = drive_and_observe(s.as_mut(), &outputs, 100, 17);
        assert_eq!(replayed2, diverged, "{tag}: second replay");
    }
}

/// A scripted interactive transcript — poke/step/peek/counters with
/// stimulus *reacting* to peeked outputs — executed verbatim against
/// every backend; the typed values read back must agree at every
/// point. This is the workload the batch-only AoT API could not serve
/// at all (each run restarted the process from cycle 0).
#[test]
fn interactive_transcript_agrees_across_backends() {
    /// One observation: (cycle, halt, result) after a step burst.
    type TranscriptRow = (u64, Option<u64>, Option<u64>);
    let graph = gsim_designs::stu_core();
    let program = gsim_workloads::programs::fib(8);
    let mut sessions = preset_sessions(&graph, &[Preset::Gsim, Preset::Verilator, Preset::GsimJit]);
    push_aot_session(&graph, &mut sessions);
    let mut transcripts: Vec<(String, Vec<TranscriptRow>)> = Vec::new();
    for (tag, s) in sessions.iter_mut() {
        s.load_mem("imem", &program.image).unwrap();
        s.poke_u64("reset", 1).unwrap();
        s.step(2).unwrap();
        s.poke_u64("reset", 0).unwrap();
        let mut rows = Vec::new();
        // Reactive loop: step in bursts until the CPU halts; the
        // stimulus (keep stepping or stop) depends on a peek.
        let mut ran = 0u64;
        while ran < program.max_cycles && s.peek_u64("halt").unwrap() != Some(1) {
            s.step(16).unwrap();
            ran += 16;
            rows.push((
                s.cycle(),
                s.peek_u64("halt").unwrap(),
                s.peek_u64("result").unwrap(),
            ));
        }
        assert_eq!(
            s.peek_u64("halt").unwrap(),
            Some(1),
            "{tag}: fib did not halt"
        );
        assert_eq!(
            s.peek_u64("result").unwrap(),
            Some(program.expected_result),
            "{tag}: architectural result"
        );
        transcripts.push((tag.clone(), rows));
    }
    let (first_tag, first) = &transcripts[0];
    for (tag, rows) in &transcripts[1..] {
        assert_eq!(rows, first, "transcript of {tag} diverged from {first_tag}");
    }
}

/// The unified error taxonomy: the same failure classes come back
/// from every backend — including across the AoT wire protocol.
#[test]
fn error_taxonomy_is_uniform_across_backends() {
    let graph = gsim_designs::stu_core();
    let mut sessions = preset_sessions(&graph, &[Preset::Gsim, Preset::GsimJit]);
    push_aot_session(&graph, &mut sessions);
    for (tag, s) in sessions.iter_mut() {
        assert_eq!(
            s.peek("nonesuch").unwrap_err(),
            GsimError::UnknownSignal("nonesuch".into()),
            "{tag}"
        );
        assert!(
            matches!(
                s.poke_u64("halt", 1).unwrap_err(),
                // The interpreter knows "halt" exists and is not an
                // input; the compiled poke table only knows inputs.
                GsimError::NotAnInput(_)
            ),
            "{tag}"
        );
        assert!(
            matches!(
                s.load_mem("nonesuch", &[1]).unwrap_err(),
                GsimError::UnknownMemory(_)
            ),
            "{tag}"
        );
        match s.load_mem("imem", &[0u64; 1 << 20]).unwrap_err() {
            // Both backends report the *real* bounds — the AoT wire
            // protocol carries depth/len on the err line.
            GsimError::MemImageTooLarge { depth, len, .. } => {
                assert!(depth > 0, "{tag}: depth lost");
                assert_eq!(len, 1 << 20, "{tag}: image length lost");
            }
            other => panic!("{tag}: expected MemImageTooLarge, got {other}"),
        }
        assert!(
            matches!(
                s.restore(gsim::SnapshotId::from_raw(u64::MAX)).unwrap_err(),
                GsimError::UnknownSnapshot(_)
            ),
            "{tag}"
        );
        // Scenario frames surface bad poke names with the class
        // `poke` reports, on every backend, and still run every
        // frame's cycle.
        let before = s.cycle();
        let err = s
            .run_scenario(&Scenario::new().frame(&[("nonesuch", 1)]).hold(1))
            .unwrap_err();
        assert_eq!(err, GsimError::UnknownSignal("nonesuch".into()), "{tag}");
        let err = s
            .run_scenario(&Scenario::new().frame(&[("halt", 1)]))
            .unwrap_err();
        assert_eq!(err, GsimError::NotAnInput("halt".into()), "{tag}");
        assert_eq!(s.cycle(), before + 3, "{tag}");
    }
}

/// `build_session` is the single entry point both build paths converge
/// on: every engine choice yields a working session, and the legacy
/// `build()` refuses the AoT choice with a typed configuration error.
#[test]
fn build_session_covers_every_engine_choice() {
    let graph = gsim_designs::reset_synchronizer();
    let mut choices = vec![
        EngineChoice::FullCycle,
        EngineChoice::FullCycleMt(2),
        EngineChoice::Essential,
        EngineChoice::EssentialMt(2),
        EngineChoice::Threaded,
    ];
    if gsim_codegen::rustc_available() {
        choices.push(EngineChoice::Aot);
    }
    let mut peeks = Vec::new();
    for engine in choices {
        let mut s = Compiler::new(&graph)
            .preset(Preset::Gsim)
            .build_session(engine)
            .unwrap();
        s.run_scenario(
            &Scenario::new()
                .frame(&[("rst", 1)])
                .repeat(1)
                .frame(&[("rst", 0)])
                .repeat(17),
        )
        .unwrap();
        assert_eq!(s.cycle(), 20, "{}", s.backend());
        peeks.push((s.backend(), s.peek("out").unwrap()));
    }
    let (first_backend, first) = peeks[0].clone();
    for (backend, v) in &peeks[1..] {
        assert_eq!(v, &first, "{backend} disagrees with {first_backend}");
    }
    // The interpreter-only builder rejects the AoT choice with a typed
    // Config error instead of a stringly one.
    let err = Compiler::new(&graph)
        .preset(Preset::Gsim)
        .options(gsim::OptOptions {
            engine: EngineChoice::Aot,
            ..gsim::OptOptions::all()
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, GsimError::Config(_)), "{err}");
}

/// Introspection through the trait: every backend — interpreter
/// presets and the persistent AoT session, across its process
/// boundary via the `list` protocol command — reports the same
/// inputs, signals, and memories, in the same order.
#[test]
fn introspection_agrees_on_every_backend() {
    let graph = gsim_designs::reset_synchronizer();
    let mut sessions = preset_sessions(&graph, ALL_PRESETS);
    push_aot_session(&graph, &mut sessions);

    let (first_tag, first) = &mut sessions[0];
    let inputs = first.inputs().unwrap();
    let signals = first.signals().unwrap();
    let memories = first.memories().unwrap();
    assert!(!inputs.is_empty(), "{first_tag}: no inputs reported");
    assert!(!signals.is_empty(), "{first_tag}: no signals reported");
    // Every named output is peekable under its reported name and
    // width — introspection describes the real surface.
    for out in named_outputs(&graph) {
        let info = signals
            .iter()
            .find(|s| s.name == out)
            .unwrap_or_else(|| panic!("{first_tag}: output {out} missing from signals()"));
        let v = first.peek(&out).unwrap();
        assert_eq!(v.width(), info.width, "{first_tag}: width of {out}");
    }
    let first_tag = first_tag.clone();
    for (tag, s) in &mut sessions[1..] {
        assert_eq!(s.inputs().unwrap(), inputs, "{tag} vs {first_tag}: inputs");
        assert_eq!(
            s.signals().unwrap(),
            signals,
            "{tag} vs {first_tag}: signals"
        );
        assert_eq!(
            s.memories().unwrap(),
            memories,
            "{tag} vs {first_tag}: memories"
        );
    }
}

/// One script — well-formed commands and every class of malformed
/// one — through both server-side dispatchers of the wire protocol:
/// `SessionProto` over an in-process session, and the `--serve` loop
/// of an emitted binary. Both are a `match` over
/// `gsim_sim::wire::Command`, so the reply streams must be
/// byte-identical. (Left out: `state`/`loadstate`, whose blobs are
/// backend-specific, and blank lines, which both read loops skip
/// before dispatch; `counters` replies are compared by cycle count.)
#[test]
fn both_dispatchers_answer_one_script_identically() {
    use std::io::Write as _;
    if !gsim_codegen::rustc_available() {
        eprintln!("note: rustc unavailable, transcript comparison skipped");
        return;
    }
    let graph = gsim_designs::stu_core();
    let program = gsim_workloads::programs::fib(8);
    let image: String = program.image.iter().map(|w| format!(" {w:x}")).collect();
    let script = format!(
        "list\nload imem{image}\npoke reset 1\nstep 2\npoke reset 0\nstep\npeek halt\n\
         snapshot\nstep 40\npeek result\ncounters\nrestore 0\npeek result\ncounters\nsync\n\
         restore\nrestore first\nrestore 99\npeek\npeek nonesuch\npoke\npoke reset\n\
         poke reset zz\npoke reset -1\npoke halt 1\nload\nload imem 10000000000000000\n\
         load nonesuch 1\nload imem{big}\nstep many\ntrace\ntrace maybe\nfrobnicate 1 2\n\
         design 3 interp\npeek result\nsync\n\
         trace on result halt\ntrace on halt\nstep 30\nrestore 0\ntrace off\ntrace off\n\
         poke nonesuch 1\nsync\n\
         trace on nonesuch\nsync\ncounters extra tokens\nsync\n",
        big = " 0".repeat(1 << 16),
    );

    let (mut sim, _) = Compiler::new(&graph).preset(Preset::Gsim).build().unwrap();
    let mut proto = gsim_server::proto::SessionProto::new();
    let mut in_process = Vec::new();
    for line in script.lines() {
        proto.handle_line(&mut sim, line, &mut in_process).unwrap();
    }

    let (aot, _) = Compiler::new(&graph)
        .preset(Preset::Gsim)
        .build_aot()
        .unwrap();
    let mut child = std::process::Command::new(&aot.binary_path)
        .arg("--serve")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    // The reply stream is far smaller than a pipe buffer, so writing
    // the whole script before reading cannot deadlock.
    stdin.write_all(script.as_bytes()).unwrap();
    drop(stdin);
    let emitted = child.wait_with_output().unwrap();
    assert!(emitted.status.success());

    let (a, b) = (
        String::from_utf8(in_process).unwrap(),
        String::from_utf8(emitted.stdout).unwrap(),
    );
    // Evaluation-cost counters are a property of the backend, not of
    // the protocol: compare `counters` replies by their cycle count.
    let comparable = |l: &str| match l.strip_prefix("counters ") {
        Some(rest) => format!("counters {}", rest.split(' ').next().unwrap_or("")),
        None => l.to_string(),
    };
    for (n, (x, y)) in a.lines().zip(b.lines()).enumerate() {
        assert_eq!(
            comparable(x),
            comparable(y),
            "reply line {n}: SessionProto vs emitted --serve"
        );
    }
    assert_eq!(a.lines().count(), b.lines().count(), "reply stream length");
    // The malformed lines really were answered, each as `err protocol`.
    assert_eq!(a.matches("err protocol ").count(), 14, "{a}");
    assert!(a.contains("err unknown-snapshot 99\n"), "{a}");
    assert!(
        a.contains("err config a trace is already active on this session\n"),
        "{a}"
    );
    assert!(
        a.contains("err config no trace is active on this session\n"),
        "{a}"
    );
    assert!(a.contains("\nchg "), "tracing produced records");
}
