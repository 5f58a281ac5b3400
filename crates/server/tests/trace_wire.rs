//! Wire-level tracing: a remote [`ClientSession`] subscribing with
//! `trace on` must reconstruct, via the streamed `chg` records, the
//! exact change list an in-process session captures directly — and
//! the subscription must survive the protocol's other traffic
//! (queries, snapshots, restores) without corrupting either stream.

use gsim_server::{ClientSession, Endpoint, Server, ServerConfig};
use gsim_sim::{GsimError, Session, SimOptions, Simulator};
use gsim_wave::{first_difference, Wave, WaveCell};

const COUNTER: &str = r#"
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    output out : UInt<8>
    reg c : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    c <= mux(en, tail(add(c, UInt<8>(1)), 1), c)
    out <= c
"#;

fn start_server(tag: &str) -> (Server, Endpoint) {
    let cache_dir =
        std::env::temp_dir().join(format!("gsim_trace_wire_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let server = Server::start(ServerConfig::new(
        Endpoint::Tcp("127.0.0.1:0".into()),
        &cache_dir,
    ))
    .expect("server start");
    let ep = server.endpoint().clone();
    (server, ep)
}

fn connect(ep: &Endpoint) -> ClientSession {
    ClientSession::connect_with_retry(ep, 5, std::time::Duration::from_millis(50))
        .expect("client connect")
}

/// The reference: capture the same stimulus in-process.
fn local_wave(cycles: u64) -> Wave {
    let graph = gsim_firrtl::compile(COUNTER).unwrap();
    let mut sim = Simulator::compile(&graph, &SimOptions::default()).unwrap();
    let cell = WaveCell::new();
    sim.poke_u64("en", 1).unwrap();
    sim.trace_start(None, Box::new(cell.sink())).unwrap();
    Session::step(&mut sim, cycles).unwrap();
    sim.trace_stop().unwrap();
    cell.take()
}

#[test]
fn remote_trace_matches_in_process_capture() {
    let (server, ep) = start_server("match");
    let mut remote = connect(&ep);
    remote.open_design(COUNTER, "interp").unwrap();
    let cell = WaveCell::new();
    remote.poke_u64("en", 1).unwrap();
    remote.trace_start(None, Box::new(cell.sink())).unwrap();
    remote.step(24).unwrap();
    remote.trace_stop().unwrap();
    let remote_wave = cell.take();
    let local = local_wave(24);
    assert_eq!(remote_wave.signals, local.signals);
    assert_eq!(
        first_difference(&local, &remote_wave),
        None,
        "remote chg stream diverged from the in-process capture"
    );
    assert!(
        !remote_wave.changes.is_empty(),
        "trace captured no changes at all"
    );
    drop(server);
}

#[test]
fn remote_trace_survives_interleaved_queries_and_restore() {
    let (server, ep) = start_server("interleave");
    let mut remote = connect(&ep);
    remote.open_design(COUNTER, "interp").unwrap();
    remote.poke_u64("en", 1).unwrap();
    let cell = WaveCell::new();
    remote
        .trace_start(Some(&["out".to_string()]), Box::new(cell.sink()))
        .unwrap();
    remote.step(4).unwrap();
    // Queries between steps must not eat or reorder chg records.
    let v = remote.peek("out").unwrap();
    assert_eq!(v.to_u64(), Some(3));
    let snap = remote.snapshot().unwrap();
    remote.step(4).unwrap();
    remote.restore(snap).unwrap();
    remote.step(2).unwrap();
    remote.trace_stop().unwrap();
    let wave = cell.take();
    assert_eq!(wave.signals.len(), 1);
    assert_eq!(wave.signals[0].name, "out");
    // The restore rewinds the counter, so the per-signal change list
    // is not monotone in value — but it must be change-complete: the
    // last record's value equals the session's final state.
    let last = wave.changes.last().expect("changes captured");
    assert_eq!(last.2, vec![5], "final chg record must match final state");
    drop(server);
}

#[test]
fn remote_trace_unknown_signal_is_typed_and_session_survives() {
    let (server, ep) = start_server("unknown");
    let mut remote = connect(&ep);
    remote.open_design(COUNTER, "interp").unwrap();
    let cell = WaveCell::new();
    let err = remote
        .trace_start(Some(&["nosuch".to_string()]), Box::new(cell.sink()))
        .unwrap_err();
    assert!(
        matches!(err, GsimError::UnknownSignal(ref n) if n == "nosuch"),
        "want UnknownSignal, got {err:?}"
    );
    // The failed subscription must leave the session fully usable,
    // including a subsequent successful trace.
    remote.poke_u64("en", 1).unwrap();
    remote.step(3).unwrap();
    assert_eq!(remote.peek("out").unwrap().to_u64(), Some(2));
    let cell = WaveCell::new();
    remote.trace_start(None, Box::new(cell.sink())).unwrap();
    remote.step(1).unwrap();
    remote.trace_stop().unwrap();
    assert!(!cell.take().changes.is_empty());
    drop(server);
}

#[test]
fn double_start_and_stop_without_start_are_config_errors() {
    let (server, ep) = start_server("config");
    let mut remote = connect(&ep);
    remote.open_design(COUNTER, "interp").unwrap();
    assert!(matches!(remote.trace_stop(), Err(GsimError::Config(_))));
    let cell = WaveCell::new();
    remote.trace_start(None, Box::new(cell.sink())).unwrap();
    let cell2 = WaveCell::new();
    assert!(matches!(
        remote.trace_start(None, Box::new(cell2.sink())),
        Err(GsimError::Config(_))
    ));
    remote.trace_stop().unwrap();
    drop(server);
}

/// The bridge leaves trace-state errors to the session: a `trace off`
/// with nothing active and a second `trace on` are each one queued
/// `err config`, and the live subscription is undisturbed.
#[test]
fn bridge_reports_trace_state_errors_from_the_session() {
    let graph = gsim_firrtl::compile(COUNTER).unwrap();
    let mut sim = Simulator::compile(&graph, &SimOptions::default()).unwrap();
    let mut proto = gsim_server::proto::SessionProto::new();
    let mut out = Vec::new();
    for line in [
        "trace off",
        "trace on out",
        "trace on",
        "sync",
        "poke en 1",
        "step 2",
        "trace off",
        "sync",
    ] {
        proto.handle_line(&mut sim, line, &mut out).unwrap();
    }
    assert_eq!(
        String::from_utf8(out).unwrap(),
        "chg 0 out 0\n\
         err config no trace is active on this session\n\
         err config a trace is already active on this session\n\
         ok 0\n\
         chg 2 out 1\n\
         ok 2\n"
    );
}
