//! Chaos suite for the simulation service: deterministic faults
//! ([`gsim::FaultPlan`] on [`gsim::ServerConfig`]) break the service
//! in targeted ways — a failing AoT compile, a panicking session
//! thread, a hard connection drop, byte-at-a-time wire writes, a
//! killed AoT child behind a live client — and the tests pin the
//! degradation contract: the server keeps serving, errors cross the
//! wire typed, and supervised recovery is invisible to the client.

mod common;

use common::{assert_sessions_match_reference, stim_word};
use gsim::{ClientSession, Endpoint, FaultPlan, GsimError, Server, ServerConfig, Session};
use gsim_graph::Graph;

const DESIGN: &str = r#"
circuit ChaosSvc :
  module ChaosSvc :
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<16>
    input b : UInt<16>
    output sum : UInt<17>
    output acc : UInt<16>
    reg r : UInt<16>, clock with : (reset => (reset, UInt<16>(0)))
    r <= tail(add(r, xor(a, b)), 1)
    sum <= add(a, b)
    acc <= r
"#;

fn dut_graph() -> Graph {
    gsim_firrtl::compile(DESIGN).expect("compiles")
}

fn frames_for(lane: u64, cycles: u64) -> Vec<Vec<(String, u64)>> {
    (0..cycles)
        .map(|c| {
            vec![
                ("reset".to_string(), u64::from((c + lane) % 11 == 7)),
                ("a".to_string(), stim_word(c, lane) & 0xffff),
                ("b".to_string(), stim_word(c, lane + 1000) & 0xffff),
            ]
        })
        .collect()
}

/// A server whose config carries the given fault plan.
fn start_faulty_server(tag: &str, faults: FaultPlan) -> (Server, std::path::PathBuf) {
    let cache_dir =
        std::env::temp_dir().join(format!("gsim_chaos_svc_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".into()), &cache_dir);
    cfg.faults = faults;
    let server = Server::start(cfg).expect("server starts");
    (server, cache_dir)
}

/// Graceful degradation: when the AoT compile fails (injected
/// disk-full during publish — no `rustc` required for this path), a
/// `design … aot` request is served on the in-process threaded
/// backend with status `fallback`, and the session is fully
/// functional — pinned bit-identical against `RefInterp`.
#[test]
fn aot_compile_failure_degrades_to_jit() {
    let graph = dut_graph();
    let (mut server, cache_dir) = start_faulty_server(
        "fallback",
        FaultPlan {
            publish_io_error: true,
            ..FaultPlan::default()
        },
    );
    let ep = server.endpoint().clone();

    let mut c = ClientSession::connect(&ep).expect("connect");
    let info = c
        .open_design(DESIGN, "aot")
        .expect("open degrades, not fails");
    assert_eq!(info.status, "fallback", "aot compile failure degrades");

    let mut sessions = vec![("fallback".to_string(), Box::new(c) as Box<dyn Session>)];
    assert_sessions_match_reference(
        "chaos_service/fallback",
        &graph,
        &mut sessions,
        32,
        &[],
        &frames_for(1, 32),
    );

    let stats = server.stats();
    assert_eq!(stats.fallbacks, 1, "the degradation is counted");
    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The service-level tentpole: the AoT child behind a remote session
/// is killed mid-run; the server's supervisor respawns and replays,
/// and the *client never notices* — every cycle still matches
/// `RefInterp` and no fallback was taken.
#[test]
fn service_recovers_child_kill_transparently() {
    if !gsim_codegen::rustc_available() {
        eprintln!("note: rustc unavailable, skipping");
        return;
    }
    let graph = dut_graph();
    let (mut server, cache_dir) = start_faulty_server(
        "killaot",
        FaultPlan {
            kill_child_at_cycle: Some(20),
            ..FaultPlan::default()
        },
    );
    let ep = server.endpoint().clone();

    let mut c = ClientSession::connect(&ep).expect("connect");
    let info = c.open_design(DESIGN, "aot").expect("open");
    assert_eq!(info.status, "miss", "first open compiles");

    let mut sessions = vec![("supervised".to_string(), Box::new(c) as Box<dyn Session>)];
    assert_sessions_match_reference(
        "chaos_service/kill",
        &graph,
        &mut sessions,
        64,
        &[],
        &frames_for(2, 64),
    );

    let stats = server.stats();
    assert_eq!(stats.fallbacks, 0, "recovery, not degradation");
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.cache.compiles, 1, "respawn reuses the artifact");
    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A panicking session thread is contained at the `catch_unwind`
/// boundary: the victim gets a typed `err backend` line, the panic is
/// counted, and the server keeps accepting fresh connections.
#[test]
fn panicking_session_is_contained() {
    let (mut server, cache_dir) = start_faulty_server(
        "panic",
        FaultPlan {
            // Command 1 is `design …`; command 2 (the peek) panics.
            panic_session_at_cmd: Some(2),
            ..FaultPlan::default()
        },
    );
    let ep = server.endpoint().clone();

    let mut victim = ClientSession::connect(&ep).expect("connect");
    victim.open_design(DESIGN, "interp").expect("open");
    let err = victim.peek("sum").unwrap_err();
    assert!(
        matches!(&err, GsimError::Backend(m) if m.contains("panicked")),
        "expected a typed panic report, got {err}"
    );

    // The blast radius is one connection: a new client is served by a
    // fresh thread, which panics at *its* second command too — but the
    // listener survives both.
    let mut second = ClientSession::connect(&ep).expect("connect after panic");
    second
        .open_design(DESIGN, "interp")
        .expect("open after panic");
    drop(second);

    let stats = server.stats();
    assert!(stats.panics >= 1, "panics counted, got {}", stats.panics);
    assert_eq!(stats.sessions, 2, "both connections were accepted");
    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A hard connection drop mid-session surfaces as a fatal transport
/// error on the client, and the listener keeps serving.
#[test]
fn dropped_connection_is_fatal_and_contained() {
    let (mut server, cache_dir) = start_faulty_server(
        "reset",
        FaultPlan {
            reset_session_at_cmd: Some(2),
            ..FaultPlan::default()
        },
    );
    let ep = server.endpoint().clone();

    let mut victim = ClientSession::connect(&ep).expect("connect");
    victim.open_design(DESIGN, "interp").expect("open");
    let err = victim.peek("sum").unwrap_err();
    assert!(err.is_fatal(), "a dropped connection is fatal: {err}");
    assert!(
        matches!(&err, GsimError::Io(_) | GsimError::SessionLost(_)),
        "expected a transport-class error, got {err}"
    );
    drop(victim);

    let mut second = ClientSession::connect(&ep).expect("connect after drop");
    second
        .open_design(DESIGN, "interp")
        .expect("open after drop");
    drop(second);
    assert_eq!(server.stats().sessions, 2);
    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Byte-at-a-time wire writes (injected short writes on every server
/// response) must be invisible to a correct reader: the full
/// differential harness and the `stats` line both decode intact.
#[test]
fn short_writes_reassemble_identically() {
    let graph = dut_graph();
    let (mut server, cache_dir) = start_faulty_server(
        "short",
        FaultPlan {
            short_writes: true,
            ..FaultPlan::default()
        },
    );
    let ep = server.endpoint().clone();

    let mut c = ClientSession::connect(&ep).expect("connect");
    c.open_design(DESIGN, "interp").expect("open");
    let mut sessions = vec![("short-writes".to_string(), Box::new(c) as Box<dyn Session>)];
    assert_sessions_match_reference(
        "chaos_service/short_writes",
        &graph,
        &mut sessions,
        32,
        &[],
        &frames_for(4, 32),
    );

    // The multi-field stats line survives one-byte writes too.
    let mut c2 = ClientSession::connect(&ep).expect("connect");
    let stats = c2.stats().expect("stats decodes over short writes");
    assert_eq!(stats.sessions, 2);
    drop(c2);
    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// `connect_with_retry` rides out a service that has not finished
/// binding yet, and still fails cleanly when nothing ever listens.
#[test]
fn connect_with_retry_rides_out_slow_bind() {
    let sock = std::env::temp_dir().join(format!("gsim_chaos_retry_{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let cache_dir = std::env::temp_dir().join(format!("gsim_chaos_retry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let ep = Endpoint::Unix(sock.clone());

    // The server binds only after a delay; a plain connect would fail.
    let late = {
        let (ep, cache_dir) = (ep.clone(), cache_dir.clone());
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(200));
            Server::start(ServerConfig::new(ep, &cache_dir)).expect("server starts")
        })
    };
    let mut c = ClientSession::connect_with_retry(&ep, 10, std::time::Duration::from_millis(25))
        .expect("retry rides out the slow bind");
    c.open_design(DESIGN, "interp").expect("open");
    c.step(4).expect("step");
    drop(c);
    let mut server = late.join().expect("server thread");
    server.stop();

    // Bounded failure: no listener, budget spent, typed socket error.
    let nowhere = Endpoint::Unix(std::env::temp_dir().join("gsim_chaos_no_such_service.sock"));
    let err = ClientSession::connect_with_retry(&nowhere, 2, std::time::Duration::from_millis(5));
    assert!(err.is_err(), "retry against nothing must give up");

    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Attacker-sized requests: a `design` announcing more bytes than any
/// upload may have and a line longer than any line may be. Each gets
/// one typed `err protocol` reply and nothing else gives: the same
/// connection goes on to open a design and simulate, a session on
/// another connection is undisturbed, and no session thread died.
#[test]
fn oversize_requests_are_refused_and_contained() {
    use gsim_sim::wire::MAX_LINE_BYTES;
    use std::io::{BufRead as _, Write as _};

    let (mut server, cache_dir) = start_faulty_server("oversize", FaultPlan::default());
    let ep = server.endpoint().clone();

    // The bystander: another tenant, mid-run, with a = 3, b = 4.
    let mut bystander = ClientSession::connect(&ep).expect("connect");
    bystander.open_design(DESIGN, "interp").expect("open");
    bystander.poke_u64("a", 3).unwrap();
    bystander.poke_u64("b", 4).unwrap();
    bystander.step(5).unwrap();
    let acc_before = bystander.peek_u64("acc").unwrap().unwrap();

    let Endpoint::Tcp(addr) = &ep else {
        panic!("the chaos server listens on TCP");
    };
    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    let mut replies = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut reply = || {
        let mut line = String::new();
        replies.read_line(&mut line).expect("server still answers");
        line
    };

    // The size is rejected on its own: no allocation, no waiting for a
    // payload that will never come.
    raw.write_all(b"design 99999999999999 interp\n").unwrap();
    let r = reply();
    assert!(
        r.starts_with("err protocol upload of 99999999999999 bytes"),
        "{r}"
    );
    raw.write_all(b"explore 4 99999999999999\n").unwrap();
    assert!(reply().starts_with("err protocol upload of"), "explore too");

    // One byte over the line limit, then the terminator.
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..MAX_LINE_BYTES >> 20 {
        raw.write_all(&chunk).unwrap();
    }
    raw.write_all(b"x\n").unwrap();
    let r = reply();
    assert!(r.starts_with("err protocol line exceeds"), "{r}");

    // The connection is alive and in step: it opens a design and runs.
    raw.write_all(format!("design {} interp\n{DESIGN}", DESIGN.len()).as_bytes())
        .unwrap();
    let r = reply();
    assert!(r.starts_with("ready "), "{r}");
    raw.write_all(b"poke a 2\npoke b 1\nstep 1\npeek sum\nsync\n")
        .unwrap();
    assert_eq!(reply(), "val 17 3\n");
    assert_eq!(reply(), "ok 1\n");

    // The bystander never noticed: r keeps accumulating a ^ b = 7.
    bystander.step(3).unwrap();
    assert_eq!(bystander.cycle(), 8);
    let acc_after = bystander.peek_u64("acc").unwrap().unwrap();
    assert_eq!(acc_after, acc_before + 3 * 7);
    assert_eq!(bystander.peek_u64("sum").unwrap(), Some(7));

    let stats = server.stats();
    assert_eq!(stats.panics, 0, "no session thread died");
    assert_eq!(stats.active, 2, "both connections are still sessions");
    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
